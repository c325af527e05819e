"""Pieces the workloads share: the result record, the timed trainer
backend, the deployed-ensemble builder and the seeded input makers.

Nothing here reaches inside the program: systems are built through
their constructors, observed through public attributes, and timed or
traced from wrappers passed to public injection points.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import telemetry
from repro.core.system import Rafiki
from repro.core.tune import HyperConf, HyperSpace, RealTrainer
from repro.data import make_image_classification
from repro.tenancy import TenantRegistry
from repro.tensor import evaluate

import calib

_perf = time.perf_counter

#: the traced pass's timed phases (``Tracer.add`` counts only inside them).
TIMED = ("primary", "alt")
TENANTS = ("acme", "globex", "initech")
FOOD_NAMES = ("laksa", "satay", "rojak", "kaya-toast")
IMAGE_SHAPE = (3, 16, 16)


@dataclass
class Outcome:
    """What one pass over a workload produced, besides the clock's segments."""

    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    #: oracle name -> mismatch count (0 everywhere means correct).
    mismatches: dict[str, int] = field(default_factory=dict)
    _digest: Any = field(default_factory=hashlib.sha256)

    def attempt(self, phase: str, count: int = 1) -> None:
        self.attempted[phase] = self.attempted.get(phase, 0) + count

    def fail(self, phase: str, count: int = 1) -> None:
        self.failed[phase] = self.failed.get(phase, 0) + count

    def oracle(self, name: str, mismatches: int) -> None:
        self.mismatches[name] = self.mismatches.get(name, 0) + int(mismatches)

    def record(self, *values: Any) -> None:
        """Fold outputs into the same-seed fingerprint."""
        for value in values:
            if isinstance(value, np.ndarray):
                self._digest.update(np.ascontiguousarray(value).tobytes())
            else:
                self._digest.update(repr(value).encode())

    @property
    def fingerprint(self) -> str:
        return self._digest.hexdigest()

    @property
    def correct(self) -> bool:
        return not any(self.mismatches.values())


class Workload:
    """What ``run.py`` drives; one pass is ``setup`` (under the clock),
    ``prepare_oracle``, ``run``, ``verify``, ``teardown``, and a traced
    pass ends with ``layers``."""

    #: share of the timed work that is memory streaming (see ``calib``).
    MEM_SHARE = calib.DEFAULT_MEM_SHARE

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.seed = seed

    def prepare_oracle(self) -> None:
        """Compute reference outputs, untimed, once set-up is done."""

    def teardown(self) -> None:
        """Stop whatever ``setup`` started."""


class TimedBackend:
    """A ``TrainerBackend`` that makes each training epoch a clock lap.

    Handed to ``create_train_job(backend_factory=...)``: the study runs
    inside one call, so this is where the machine gets re-measured
    (``clock.lap`` ticks in the gap *before* the epoch, outside the timed
    span) and where an epoch becomes one operation with a latency. With
    a tracer it also records the ``tensor.train_epoch`` span.
    """

    def __init__(self, inner, clock, kind: str, tracer=None):
        self.inner = inner
        self.clock = clock
        self.kind = kind
        self.tracer = tracer

    def start(self, trial, init_state):
        return _TimedSession(self.inner.start(trial, init_state), self)

    def epoch_cost(self, trial) -> float:
        return self.inner.epoch_cost(trial)


class _TimedSession:
    def __init__(self, inner, backend: TimedBackend):
        self.inner = inner
        self.backend = backend

    def run_epoch(self) -> float:
        backend = self.backend
        segment = backend.clock.lap(backend.kind) if backend.clock.open else None
        start = _perf()
        if backend.tracer is not None:
            with backend.tracer.span("tensor.train_epoch"):
                accuracy = self.inner.run_epoch()
        else:
            accuracy = self.inner.run_epoch()
        if segment is not None:
            segment.ops += 1
            segment.latencies.append(_perf() - start)
        return accuracy

    def state_dict(self):
        return self.inner.state_dict()

    @property
    def epochs(self) -> int:
        return self.inner.epochs

    @property
    def best_performance(self) -> float:
        return self.inner.best_performance


def real_backend_factory(clock, tracer, seed: int, batch_size: int = 32):
    """``backend_factory`` giving the default ``RealTrainer``, timed."""

    def factory(entry, dataset):
        trainer = RealTrainer(dataset=dataset, builder=entry.builder,
                              batch_size=batch_size, seed=seed)
        return TimedBackend(trainer, clock, entry.name, tracer)

    return factory


def stable_space() -> HyperSpace:
    """Section 7.1's knobs with the learning rate kept below divergence.

    A diverged trial's epochs return at once, so which trials diverge
    would decide the epoch rate; the bounded range keeps every epoch the
    same work whatever the seed proposes.
    """
    space = HyperSpace()
    space.add_range_knob("lr", "float", 1e-3, 0.1, log_scale=True)
    space.add_range_knob("momentum", "float", 0.0, 0.9)
    space.add_range_knob("weight_decay", "float", 1e-6, 1e-3, log_scale=True)
    space.add_range_knob("dropout", "float", 0.0, 0.5)
    space.add_range_knob("init_std", "float", 1e-2, 0.2, log_scale=True)
    return space


def food_dataset(seed: int, test_per_class: int = 8):
    return make_image_classification(
        name="food", num_classes=len(FOOD_NAMES), image_shape=IMAGE_SHAPE,
        train_per_class=24, val_per_class=8, test_per_class=test_per_class,
        difficulty=0.35, seed=seed,
    )


def query_images(dataset, count: int) -> np.ndarray:
    """``count`` distinct in-distribution images, short enough to post as JSON."""
    images = np.round(dataset.test_x[:count].astype(np.float64), 4)
    if len(images) < count:
        raise ValueError(f"dataset has {len(images)} test images, need {count}")
    return images


def zipf_draws(rng: np.random.Generator, population: int, draws: int,
               exponent: float = 1.2) -> np.ndarray:
    """``draws`` picks from ``population`` items with Zipf popularity.

    Item k is picked its *expected* number of times (largest-remainder
    rounding), and the seed only shuffles the order: how many distinct
    items appear, and how often each repeats, is the same for every
    seed, so seeds vary the inputs without varying the amount of work.
    """
    weights = 1.0 / np.arange(1, population + 1) ** exponent
    exact = draws * weights / weights.sum()
    counts = np.floor(exact).astype(int)
    short = draws - counts.sum()
    counts[np.argsort(exact - counts)[::-1][:short]] += 1
    picks = np.repeat(np.arange(population), counts)
    rng.shuffle(picks)
    return picks


def interleave(primary: int, alt: int) -> list[bool]:
    """Order of ``primary`` + ``alt`` rounds, evenly mixed (True = primary).

    The machine's slow spells last seconds, so a phase measured over the
    whole timed window is steadier than the same work done back to back
    in one part of it.
    """
    slots = [((i + 0.5) / primary, True) for i in range(primary)]
    slots += [((i + 0.5) / alt, False) for i in range(alt)]
    return [is_primary for _, is_primary in sorted(slots)]


@dataclass
class Deployed:
    system: Rafiki
    dataset: Any
    train_job: str
    infer_job: str


def tenant_registry() -> TenantRegistry:
    tenants = TenantRegistry()
    for name in TENANTS:
        tenants.register(name)
    return tenants


def deploy_ensemble(seed: int, clock, tracer, trials: int, epochs: int,
                    test_per_class: int = 8) -> Deployed:
    """Dataset -> CoStudy training -> instant deployment of a 2-model ensemble."""
    system = Rafiki(seed=seed, tenants=tenant_registry())
    if tracer is not None:
        tracer.wrap(system.cluster, "submit_job", "cluster.submit_job")
        tracer.wrap(system, "create_inference_job", "system.deploy")
        tracer.wrap(system, "redeploy_inference_job", "system.deploy")
        trace_param_server(tracer, system.param_server)
        trace_store(tracer, system.store)
    dataset = food_dataset(seed, test_per_class)
    system.import_images(dataset)
    train_job = system.create_train_job(
        "food-train", "ImageClassification", dataset.name,
        hyper=HyperConf(max_trials=trials, max_epochs_per_trial=epochs,
                        early_stop_patience=epochs),
        space=stable_space(), num_models=2, num_workers=2,
        advisor="bayesian", collaborative=True,
        backend_factory=real_backend_factory(clock, tracer, seed),
        tenant=TENANTS[0],
    )
    clock.lap("deploy")
    infer_job = system.create_inference_job(
        system.get_models(train_job), tenant=TENANTS[0]
    )
    if tracer is not None:
        tracer.wrap(system, "query", "system.query")
        for network in system.get_inference_job(infer_job).networks:
            tracer.wrap(
                network, "predict_labels", "tensor.predict",
                after=lambda labels: tracer.add("tensor.predict.images", len(labels)),
            )
    return Deployed(system, dataset, train_job, infer_job)


def checkpoint_oracle(deployed: Deployed, outcome: Outcome) -> None:
    """Each deployed replica re-evaluates to its study's reported best."""
    system, dataset = deployed.system, deployed.dataset
    reports = system.get_train_job(deployed.train_job).reports
    info = system.get_inference_job(deployed.infer_job)
    wrong = 0
    for spec, network in zip(info.specs, info.networks):
        measured = evaluate(network, dataset.val_x, dataset.val_y)
        reported = reports[spec.model_name].best_performance
        wrong += measured != reported or spec.performance != reported
        outcome.record(spec.model_name, measured)
    outcome.oracle("checkpoint_accuracy", wrong)


def trace_param_server(tracer, server) -> None:
    tracer.wrap(server, "put", "ps.put",
                after=lambda entry: tracer.add("ps.put.bytes", entry.nbytes))
    tracer.wrap(server, "get", "ps.get",
                after=lambda state: tracer.add(
                    "ps.get.bytes", sum(v.nbytes for v in state.values())))
    tracer.wrap(server, "delete", "ps.delete")


def trace_store(tracer, store) -> None:
    tracer.wrap(store, "put_blob", "data.store.put_blob")
    tracer.wrap(store, "get_blob", "data.store.get_blob")
    tracer.wrap(store.fs, "commit", "data.fs.commit")
    # One chunk pool may sit under several stores; wrap() skips repeats.
    blocks = store.blocks
    tracer.wrap(blocks, "put", "data.blockstore.put",
                after=lambda digests: tracer.add(
                    "data.blockstore.put.bytes", len(digests) * blocks.chunk_size))
    tracer.wrap(blocks, "get_chunk", "data.blockstore.get_chunk")


def trace_tenants(tracer, tenants) -> None:
    tracer.wrap(tenants, "resolve", "tenancy.resolve")
    tracer.wrap(tenants.ledger, "charge", "tenancy.ledger")
    tracer.wrap(tenants.ledger, "release", "tenancy.ledger")


# -- per-layer numbers read back from spans ---------------------------------

def p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _mb_per_s(nbytes: float, total_ms: float) -> float:
    return nbytes / 1e6 / (total_ms / 1e3) if total_ms else 0.0


def counter_total(name: str) -> float:
    """Sum of a telemetry counter over all its label sets (0 if unrecorded)."""
    metric = telemetry.get_registry().get(name)
    return sum(metric.snapshot().values()) if metric is not None else 0.0


def tenancy_layers(tracer) -> dict[str, float]:
    return {
        "tenancy.resolve.calls": tracer.count("tenancy.resolve", TIMED),
        "tenancy.resolve.us": 1e3 * tracer.total_ms("tenancy.resolve", TIMED),
        "tenancy.ledger.ops": tracer.count("tenancy.ledger", TIMED),
        "tenancy.denials": counter_total("repro_tenant_quota_denials_total"),
    }


def inference_layers(tracer) -> dict[str, float]:
    """``core.system`` and ``tensor`` predict numbers of a deployed ensemble."""
    return {
        "system.query.calls": tracer.count("system.query", TIMED),
        "system.query.self_ms": tracer.self_ms("system.query", TIMED),
        "system.deploy.ms": tracer.total_ms("system.deploy"),
        "tensor.predict.calls": tracer.count("tensor.predict", TIMED),
        "tensor.predict.images": tracer.counts["tensor.predict.images"],
        "tensor.predict.ms": tracer.total_ms("tensor.predict", TIMED),
    }


def training_layers(tracer) -> dict[str, float]:
    epochs = tracer.durations_ms("tensor.train_epoch")
    return {
        "tensor.train_epoch.count": len(epochs),
        "tensor.train_epoch.ms_p50": p50(epochs),
        "cluster.submit_job.calls": tracer.count("cluster.submit_job"),
        "cluster.submit_job.ms": tracer.total_ms("cluster.submit_job"),
    }


def storage_layers(tracer, param_server, blocks, phases=None) -> dict[str, float]:
    """``ps.*`` and ``data.*`` over ``phases`` (every phase when None)."""
    counts = tracer.counts
    if hasattr(param_server, "cache_stats"):
        hit_ratio = param_server.cache_stats()["hit_rate"]
    else:
        hit_ratio = param_server.cache.hit_rate
    audit = blocks.audit()
    return {
        "ps.put.calls": tracer.count("ps.put", phases),
        "ps.put.ms_p50": p50(tracer.durations_ms("ps.put", phases)),
        "ps.put.mb_per_s": _mb_per_s(counts["ps.put.bytes"],
                                     tracer.total_ms("ps.put", TIMED)),
        "ps.get.calls": tracer.count("ps.get", phases),
        "ps.get.ms_p50": p50(tracer.durations_ms("ps.get", phases)),
        "ps.get.mb_per_s": _mb_per_s(counts["ps.get.bytes"],
                                     tracer.total_ms("ps.get", TIMED)),
        "ps.cache.hit_ratio": hit_ratio,
        "ps.failovers": counter_total("repro_paramserver_failovers_total"),
        "ps.delete.calls": tracer.count("ps.delete", phases),
        "data.store.put_blob.calls": tracer.count("data.store.put_blob", phases),
        "data.store.put_blob.ms_p50":
            p50(tracer.durations_ms("data.store.put_blob", phases)),
        "data.store.get_blob.calls": tracer.count("data.store.get_blob", phases),
        "data.store.get_blob.ms_p50":
            p50(tracer.durations_ms("data.store.get_blob", phases)),
        "data.blockstore.put.mb_per_s":
            _mb_per_s(counts["data.blockstore.put.bytes"],
                      tracer.total_ms("data.blockstore.put", TIMED)),
        "data.blockstore.get_chunk.calls":
            tracer.count("data.blockstore.get_chunk", phases),
        "data.blockstore.get_chunk.us":
            1e3 * tracer.total_ms("data.blockstore.get_chunk", phases),
        "data.blockstore.dedup_ratio": audit["dedup_ratio"],
        "data.blockstore.stored_mb": audit["replicated_bytes"] / 1e6,
        "data.fs.commits": tracer.count("data.fs.commit", phases),
    }


def telemetry_series() -> int:
    """Labelled series the process-wide registry holds right now."""
    return sum(len(metric.label_keys()) for metric in telemetry.get_registry().metrics())
