"""The unified Rafiki system facade (Section 3, Figure 2 and 7).

One object wires the shared substrates together — the data store
(HDFS stand-in), the parameter server, the cluster manager and the
model zoo — and exposes the two services:

* **training**: ``create_train_job`` selects a diverse model set for
  the task, runs one (Co)Study per selected model on the worker
  containers of the job's cluster job, and leaves each model's best
  parameters in the parameter server;
* **inference**: ``create_inference_job`` deploys those parameters
  instantly (the paper's headline benefit of unifying the services) and
  ``query`` serves ensemble predictions.

Masters checkpoint their small state for failure recovery; workers are
stateless containers the manager restarts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from repro import chaos, telemetry
from repro.cluster import ClusterManager, Node
from repro.cluster.manager import JobKind, JobRecord
from repro.core.serve.pred_cache import PredictionCache
from repro.core.tune import (
    BayesianAdvisor,
    CoStudy,
    GridSearchAdvisor,
    HyperConf,
    HyperSpace,
    RandomSearchAdvisor,
    RealTrainer,
    StudyMaster,
    StudyReport,
    section71_space,
)
from repro.core.tune.distributed import run_cluster_study
from repro.data import DataStore, ImageDataset
from repro.exceptions import (
    ConfigurationError,
    InjectedFault,
    JobNotFoundError,
    ServingError,
)
from repro.paramserver import ParameterServer
from repro.tenancy import DEFAULT_TENANT, TenantRegistry, tenant_context
from repro.tensor import Network, default_dtype
from repro.tensor.workspace import fold
from repro.utils.retry import CircuitBreaker
from repro.utils.rng import RngStream, derive_rng
from repro.zoo import TaskRegistry, default_registry, majority_vote

__all__ = ["Rafiki", "TrainJobInfo", "InferenceJobInfo", "ModelSpec"]

_ADVISORS = {
    "random": RandomSearchAdvisor,
    "grid": GridSearchAdvisor,
    "bayesian": BayesianAdvisor,
}


@dataclass
class ModelSpec:
    """What ``rafiki.get_models`` returns: a name plus parameter keys."""

    model_name: str
    param_key: str
    performance: float
    task: str
    dataset: str


@dataclass
class TrainJobInfo:
    """Book-keeping for one training job."""

    job_id: str
    name: str
    task: str
    dataset: str
    status: str = "pending"
    model_names: list[str] = field(default_factory=list)
    reports: dict[str, StudyReport] = field(default_factory=dict)
    cluster_job_id: str | None = None
    tenant: str = DEFAULT_TENANT

    @property
    def best_performance(self) -> float:
        if not self.reports:
            return 0.0
        return max(report.best_performance for report in self.reports.values())


@dataclass
class InferenceJobInfo:
    """One deployed (ensemble of) model(s)."""

    job_id: str
    specs: list[ModelSpec]
    #: the networks that answer queries: ``trained`` with batch norm
    #: folded in (``repro.tensor.workspace.fold``).
    networks: list[Network] = field(default_factory=list)
    #: the trained networks, the record a redeploy warm-starts and folds
    #: into ``networks`` in place.
    trained: list[Network] = field(default_factory=list)
    status: str = "pending"
    tenant: str = DEFAULT_TENANT
    queries_served: int = 0
    cluster_job_id: str | None = None
    #: shape of one input image, recorded at deploy.
    image_shape: tuple[int, ...] = ()
    #: Clipper-style result cache every query goes through: one
    #: ``(label, votes)`` row per distinct image.
    cache: PredictionCache = field(default_factory=PredictionCache)
    #: one circuit breaker per deployed replica; a replica whose
    #: breaker is open is dropped from the ensemble vote and re-admitted
    #: when the breaker half-opens after its recovery window.
    breakers: list[CircuitBreaker] = field(default_factory=list)

    def live_replicas(self) -> list[int]:
        """Indices of replicas currently admitted to the ensemble."""
        return [i for i, b in enumerate(self.breakers) if b.state != "open"]


class Rafiki:
    """The system facade users talk to (via the SDK or gateway)."""

    def __init__(
        self,
        nodes: int = 3,
        gpus_per_node: int = 3,
        seed: int = 0,
        tenants: TenantRegistry | None = None,
    ):
        self.rng_stream = RngStream(seed)
        #: quota + identity authority shared by the gateway, the cluster
        #: manager and the stores. Lenient by default (unknown tenants
        #: auto-register unlimited) so single-customer deployments keep
        #: working; pass a strict registry to refuse unknown tenants.
        self.tenants = tenants if tenants is not None else TenantRegistry()
        #: the one replicated store under datasets *and* parameters.
        self.store = DataStore("rafiki-hdfs", tenants=self.tenants)
        self.cluster = ClusterManager(tenants=self.tenants)
        for i in range(nodes):
            self.cluster.add_node(
                Node(name=f"node-{chr(ord('a') + i)}",
                     capacity=_node_capacity(gpus_per_node))
            )
        self.param_server = ParameterServer(store=self.store, tenants=self.tenants)
        self.registry: TaskRegistry = default_registry()
        self.train_jobs: dict[str, TrainJobInfo] = {}
        self.inference_jobs: dict[str, InferenceJobInfo] = {}
        #: ``train-N`` sequence numbers of this system.
        self._train_job_ids = itertools.count(1)
        self._replica_errors, self._redeploys = (
            telemetry.Counter(name, help, telemetry.get_registry()) for name, help in (
                ("repro_serve_replica_errors_total",
                 "Replica execution failures absorbed by the ensemble."),
                ("repro_serve_redeploys_total", "Inference-job parameter reloads."),
            )
        )

    # ------------------------------------------------------------------
    # data
    # ------------------------------------------------------------------

    def import_images(self, source: str | ImageDataset, name: str | None = None):
        """Figure 2's ``rafiki.import_images``: a folder or a dataset.

        ``name``, when given, is the name the dataset is registered under.
        """
        if isinstance(source, ImageDataset):
            if name is not None:
                source = replace(source, name=name)
            return self.store.put_dataset(source)
        return self.store.import_images(source, name=name)

    # ------------------------------------------------------------------
    # training service
    # ------------------------------------------------------------------

    def create_train_job(
        self,
        name: str,
        task: str,
        dataset: str,
        hyper: HyperConf | None = None,
        space: HyperSpace | None = None,
        input_shape: tuple[int, ...] | None = None,
        output_shape: tuple[int, ...] | None = None,
        num_models: int = 2,
        num_workers: int = 2,
        advisor: str = "bayesian",
        collaborative: bool = True,
        backend_factory=None,
        tenant: str = DEFAULT_TENANT,
        priority: int = 0,
    ) -> str:
        """Run model selection + one study per selected model.

        The studies run one after another on the worker containers of
        one TRAIN cluster job (``run_cluster_study``): a worker whose
        node fails is restarted elsewhere and re-runs its trial.
        ``backend_factory(model_entry, dataset)`` may override the
        trainer backend (tests use the surrogate); by default each
        study trains real networks with :class:`RealTrainer`.
        ``input_shape``/``output_shape`` follow the Figure 2 API and
        are validated against the dataset when given.
        """
        if advisor not in _ADVISORS:
            raise ConfigurationError(f"advisor must be one of {sorted(_ADVISORS)}")
        data = self.store.get_dataset(dataset)
        if input_shape is not None and tuple(input_shape) != data.image_shape:
            raise ConfigurationError(
                f"input_shape {input_shape} does not match dataset shape {data.image_shape}"
            )
        if output_shape is not None and tuple(output_shape) != (data.num_classes,):
            raise ConfigurationError(
                f"output_shape {output_shape} does not match dataset classes "
                f"({data.num_classes})"
            )
        hyper = hyper if hyper is not None else HyperConf(max_trials=8, max_epochs_per_trial=10)
        space = space if space is not None else section71_space()
        entries = self.registry.select_diverse(task, k=num_models)

        job_id = f"train-{next(self._train_job_ids)}"
        info = TrainJobInfo(
            job_id=job_id, name=name, task=task, dataset=dataset, tenant=tenant
        )
        # The facade drives studies synchronously, so it needs the
        # containers *now*: queue=False keeps the fail-fast contract
        # (quota violations surface as 429 at the gateway instead of
        # parking a job the caller would then block on).
        cluster_job = self.cluster.submit_job(
            JobKind.TRAIN, name=name, num_workers=num_workers,
            tenant=tenant, priority=priority, queue=False,
        )
        info.cluster_job_id = cluster_job.job_id
        info.status = "running"
        self.train_jobs[job_id] = info

        try:
            with tenant_context(tenant):
                for entry in entries:
                    info.model_names.append(entry.name)
                    report = self._run_one_study(
                        job_id, cluster_job, entry, data, hyper, space, advisor,
                        collaborative, backend_factory,
                    )
                    info.reports[entry.name] = report
                    entry.record_performance(dataset, report.best_performance)
            info.status = "completed"
            self.cluster.complete_job(cluster_job.job_id)
        except Exception:
            info.status = "failed"
            self.cluster.stop_job(cluster_job.job_id)
            raise
        return job_id

    def _run_one_study(
        self,
        job_id: str,
        cluster_job: JobRecord,
        entry,
        data: ImageDataset,
        hyper: HyperConf,
        space: HyperSpace,
        advisor: str,
        collaborative: bool,
        backend_factory,
    ) -> StudyReport:
        study_name = f"{job_id}/{entry.name}"
        rng = self.rng_stream.get(f"advisor:{study_name}")
        advisor_obj = _ADVISORS[advisor](space, rng=rng) if advisor != "grid" else (
            GridSearchAdvisor(space)
        )
        if backend_factory is not None:
            backend = backend_factory(entry, data)
        else:
            backend = RealTrainer(
                dataset=data,
                builder=entry.builder,
                seed=self.rng_stream.root_seed,
            )
        scheduler = None
        if collaborative:
            scheduler = CoStudy(rng=self.rng_stream.get(f"alpha:{study_name}"))
        master = StudyMaster(
            study_name, hyper, advisor_obj, self.param_server,
            best_key=f"{study_name}/best", scheduler=scheduler,
        )
        return run_cluster_study(
            self.cluster, cluster_job, master, backend, self.param_server, hyper
        )

    def get_train_job(self, job_id: str) -> TrainJobInfo:
        """Look up a training job's book-keeping by id."""
        if job_id not in self.train_jobs:
            raise JobNotFoundError(job_id)
        return self.train_jobs[job_id]

    def get_models(self, job_id: str) -> list[ModelSpec]:
        """Figure 2's ``rafiki.get_models``: deployable model specs."""
        info = self.get_train_job(job_id)
        specs = []
        for model_name in info.model_names:
            key = f"{job_id}/{model_name}/best"
            if not self.param_server.has(key):
                continue
            entry = self.param_server.get_entry(key)
            specs.append(
                ModelSpec(
                    model_name=model_name,
                    param_key=key,
                    performance=float(entry.performance),
                    task=info.task,
                    dataset=info.dataset,
                )
            )
        return specs

    # ------------------------------------------------------------------
    # inference service
    # ------------------------------------------------------------------

    def create_inference_job(
        self,
        models: Sequence[ModelSpec],
        dataset: str | None = None,
        tenant: str = DEFAULT_TENANT,
        priority: int = 0,
    ) -> str:
        """Deploy trained models: fetch parameters, build networks and
        fold their batch norm into the networks that serve.

        The parameters are fetched from the parameter server — this is
        the instant train-to-deploy hand-off the unified architecture
        provides.
        """
        specs = list(models)
        if not specs:
            raise ConfigurationError("at least one model spec is required")
        # Everything that can refuse the deploy is read first: a refusal
        # takes no job id and places no job.
        data = self.store.get_dataset(dataset or specs[0].dataset)
        entries = [self.registry.get(spec.task, spec.model_name) for spec in specs]
        states = [self.param_server.get(spec.param_key) for spec in specs]
        # Deploys are numbered in the order they succeed.
        job_id = f"infer-{len(self.inference_jobs) + 1}"
        trained = []
        for spec, entry, state in zip(specs, entries, states):
            rng = derive_rng(self.rng_stream.root_seed, f"deploy:{job_id}:{spec.model_name}")
            network = entry.builder(data.image_shape, data.num_classes, rng)
            if not network.warm_start(state):
                raise ConfigurationError(
                    f"no shape-matched parameters for {spec.model_name!r} "
                    f"under {spec.param_key!r}"
                )
            trained.append(network)
        cluster_job = self.cluster.submit_job(
            JobKind.INFERENCE, name=job_id, num_workers=len(specs),
            tenant=tenant, priority=priority, queue=False,
        )
        info = InferenceJobInfo(
            job_id=job_id, specs=specs, tenant=tenant,
            trained=trained, networks=[fold(network) for network in trained],
            cluster_job_id=cluster_job.job_id, image_shape=tuple(data.image_shape),
            status="running",
            breakers=[
                CircuitBreaker(
                    name=f"{job_id}/{spec.model_name}",
                    failure_threshold=3,
                    recovery_time=30.0,
                )
                for spec in specs
            ],
        )
        self.inference_jobs[job_id] = info
        telemetry.get_registry().gauge(
            "repro_serve_replicas_live",
            "Replicas currently admitted to the ensemble, by job.",
        ).set_function(info, lambda job: len(job.live_replicas()), job=job_id)
        return job_id

    def get_inference_job(self, job_id: str) -> InferenceJobInfo:
        """Look up a deployed inference job by id."""
        if job_id not in self.inference_jobs:
            raise JobNotFoundError(job_id)
        return self.inference_jobs[job_id]

    def query(
        self, job_id: str, data: np.ndarray, models: Sequence[int] | None = None
    ) -> dict[str, Any]:
        """Serve one image or a batch through the deployed ensemble.

        There is one path whoever calls: the input becomes a batch (a
        single image is a batch of one), every row is looked up in the
        job's prediction cache, the distinct rows that miss share one
        ensemble forward pass, and the answers come back in request
        order. Majority voting with best-model tie-break aggregates
        the deployed networks' predictions (Section 5.2). The query is
        the ``system.query`` span, tagged with the cache's hits and
        misses; each replica's forward pass is a ``system.predict`` span
        under it.

        ``models`` restricts the vote to a subset of the deployed
        models (indices into the job's specs — what a serving policy
        chose for this batch). A subset answer is a partial vote: it is
        not remembered, and rows already cached from a full vote are
        projected onto the subset.
        """
        info = self.get_inference_job(job_id)
        if info.status != "running":
            raise ConfigurationError(f"inference job {job_id!r} is not running")
        with telemetry.get_tracer().span("system.query", job=job_id) as span:
            # One conversion on the way in, to the dtype the replicas compute
            # in: each would otherwise cast the batch again, and the cache
            # key is over the bytes they see.
            batch = np.asarray(data, dtype=default_dtype())
            single = batch.ndim == len(info.image_shape)
            if single:
                batch = batch[None, ...]
            voted = sorted(models) if models is not None else list(range(len(info.specs)))
            misses = 0

            def forward(images: list[np.ndarray]):
                nonlocal voted, misses
                misses = len(images)
                labels, votes, voted = self._predict(info, np.stack(images), models)
                # Only what every deployed replica voted on is remembered:
                # a degraded answer must not outlive the outage.
                return (
                    list(zip(labels.tolist(), votes.T.tolist())),
                    len(voted) == len(info.specs),
                )

            rows = info.cache.query_batch(batch, forward)
            span.tag(hits=len(rows) - misses, misses=misses)
            labels = [label for label, _ in rows]
            votes = [row_votes for _, row_votes in rows]
            if len(voted) < len(info.specs):
                # Cached rows carry every replica's vote. The replicas that
                # voted on the misses answer the whole batch, so votes[i]
                # belongs to models[i] on every row.
                votes = [
                    [row[i] for i in voted] if len(row) > len(voted) else row
                    for row in votes
                ]
                labels = _vote(info, np.array(votes).T, voted).tolist()
            info.queries_served += len(rows)
            return {
                "label": labels[0] if single else labels,
                "votes": votes[0] if single else votes,
                "models": [info.specs[i].model_name for i in voted],
            }

    def _predict(self, info: InferenceJobInfo, batch: np.ndarray, models=None):
        """Ensemble prediction with graceful replica degradation.

        Each replica's execution passes through its
        ``serve.model.<name>`` fault point behind a circuit breaker: a
        replica that keeps failing is dropped from the vote (its
        breaker opens) and probed again after the recovery window,
        re-admitting it once healthy. Replicas outside ``models`` (when
        given) are not asked. The request only fails when *no* replica
        is available. Returns the labels, the vote matrix and the
        indices of the replicas whose votes its rows are.
        """
        rows: list[np.ndarray] = []
        voted: list[int] = []
        tracer = telemetry.get_tracer()
        for index, (spec, network, breaker) in enumerate(
            zip(info.specs, info.networks, info.breakers)
        ):
            if (models is not None and index not in models) or not breaker.allow():
                continue
            try:
                with tracer.span("system.predict", model=spec.model_name, images=len(batch)):
                    chaos.fire(f"serve.model.{spec.model_name}")
                    rows.append(network.predict_labels(batch))
            except InjectedFault:
                breaker.record_failure()
                self._replica_errors.inc(model=spec.model_name)
                continue
            breaker.record_success()
            voted.append(index)
        if not rows:
            raise ServingError(
                f"inference job {info.job_id!r} has no live model replicas"
            )
        votes = np.vstack(rows)
        return _vote(info, votes, voted), votes, voted

    def profile_inference_job(self, job_id: str, batch_sizes=(1, 8, 16, 32)):
        """Measure the deployed networks' latency cards (Figure 3 style).

        Each deployed network is timed across ``batch_sizes`` and fitted
        to the affine ``c(m, b)`` model; its tuning-time validation
        accuracy becomes the card's accuracy. The cards plug straight
        into the serving environment and controllers.
        """
        from repro.core.serve.profiler import profile_network

        info = self.get_inference_job(job_id)
        return [
            profile_network(
                network,
                name=f"{job_id}/{spec.model_name}",
                batch_sizes=batch_sizes,
                accuracy=spec.performance,
            )
            for spec, network in zip(info.specs, info.networks)
        ]

    def redeploy_inference_job(self, job_id: str) -> dict[str, Any]:
        """Reload every replica's parameters from the parameter server.

        Training that continues after deployment leaves better
        checkpoints under the same keys; redeploying picks them up
        without recreating the job: each trained network is warm-started
        in place and folded into the same serving network again. The
        prediction cache is invalidated — its memoised results came from
        the old parameters, and serving them after the swap would
        silently return stale predictions.
        """
        info = self.get_inference_job(job_id)
        if info.status != "running":
            raise ConfigurationError(f"inference job {job_id!r} is not running")
        reloaded = []
        for spec, trained, network in zip(info.specs, info.trained, info.networks):
            entry = self.param_server.get_entry(spec.param_key)
            state = self.param_server.get(spec.param_key)
            if not trained.warm_start(state):
                raise ConfigurationError(
                    f"no shape-matched parameters for {spec.model_name!r} "
                    f"under {spec.param_key!r}"
                )
            fold(trained, network)
            spec.performance = float(entry.performance)
            reloaded.append(
                {"model_name": spec.model_name, "version": entry.version,
                 "performance": spec.performance}
            )
        info.cache.invalidate_all()
        self._redeploys.inc(job=job_id)
        return {"job_id": job_id, "models": reloaded}

    def stop_inference_job(self, job_id: str) -> None:
        """Undeploy: stop serving and release the cluster resources."""
        info = self.get_inference_job(job_id)
        info.status = "stopped"
        if info.cluster_job_id is not None:
            self.cluster.stop_job(info.cluster_job_id)


def _vote(info: InferenceJobInfo, votes: np.ndarray, voted: list[int]) -> np.ndarray:
    """Section 5.2's vote over ``votes``, whose rows replicas ``voted`` cast."""
    return majority_vote(
        votes, np.array([info.specs[i].performance for i in voted])
    )


def _node_capacity(gpus: int):
    from repro.cluster.node import Resources

    return Resources(cpus=8, gpus=gpus, memory_gb=64)
