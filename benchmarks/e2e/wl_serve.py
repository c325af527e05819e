"""``serve_unique`` and ``serve_hot_tenants``: the SLO-bound serving path.

Primary phase: 16 closed-loop clients (SDK callers block for a reply,
hence closed loop) as coroutines on one event loop, each awaiting
``Gateway.handle_async`` -> tenancy -> ``AsyncServeFrontend`` ->
``make_query_executor`` -> ``Rafiki.query`` -> the 2-model ensemble. No
sockets and no extra threads: the in-process gateway still round-trips
every body through JSON. Alt phase: the same layers the other way, as
blocking single-image ``sdk.query`` calls through the prediction cache.

Sheds are configured impossible (``max_queue = 4 x clients``, ``tau =
0.5`` s against ~10 ms batches, no rate limit), so the failed share is
exactly 0 unless the code breaks. Every batch is a full 16: all clients
send the same number of requests per round, so the greedy batcher never
waits on its deadline and no latency depends on a wall-clock timer.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.api import sdk
from repro.api.gateway import Gateway, make_query_executor
from repro.core.serve.frontend import AsyncServeFrontend, FrontendConfig
from repro.exceptions import GatewayError

import harness

_perf = time.perf_counter

CLIENTS = 16
PER_CLIENT = 8
ROUND = CLIENTS * PER_CLIENT
#: async rounds and blocking-call rounds per second of ``--seconds``.
PRIMARY_ROUNDS_PER_S = 6.0
REDEPLOY_EVERY_ROUNDS = 16


class ServeWorkload(harness.Workload):
    def __init__(self, name: str, seed: int, seconds: float):
        super().__init__(name, seed, seconds)
        self.hot = name == "serve_hot_tenants"
        self.pool = 64 if self.hot else 2048
        self.primary_rounds = max(2, round(PRIMARY_ROUNDS_PER_S * seconds))
        # Cache hits make the hot alt phase ~4x faster per call.
        self.alt_round = 128 if self.hot else 32
        self.alt_rounds = max(2, round(4.8 * seconds))
        self.trials = 3 if seconds >= 1.0 else 1  # a smoke run trains less
        self.loop = None

    # -- set-up ---------------------------------------------------------

    def setup(self, clock, tracer) -> None:
        self.clock, self.tracer = clock, tracer
        deployed = harness.deploy_ensemble(
            self.seed, clock, tracer, trials=self.trials, epochs=self.trials + 1,
            test_per_class=self.pool // len(harness.FOOD_NAMES),
        )
        clock.lap("clients")
        self.deployed = deployed
        self.system, self.infer_job = deployed.system, deployed.infer_job
        self.images = harness.query_images(deployed.dataset, self.pool)
        self.bodies = [{"img": image.tolist()} for image in self.images]
        rng = np.random.default_rng(self.seed)
        total = self.primary_rounds * ROUND + self.alt_rounds * self.alt_round
        if self.hot:
            self.schedule = harness.zipf_draws(rng, self.pool, total)
            # Hot tenants: one customer owns three quarters of the clients.
            self.tenant_of = ["acme"] * 12 + ["globex"] * 3 + ["initech"]
        else:
            self.schedule = np.arange(total) % self.pool
            self.tenant_of = [harness.TENANTS[c % 3] for c in range(CLIENTS)]
        self.gateway = Gateway(self.system)
        config = FrontendConfig(
            latency=lambda batch: 0.002 + 0.0005 * batch, tau=0.5,
            batch_sizes=(CLIENTS,), max_queue=4 * CLIENTS,
        )
        executor = make_query_executor(self.system, self.infer_job)
        if tracer is not None:
            executor = tracer.wrap_function(executor, "api.executor")
        self.frontend = AsyncServeFrontend(config, executor)
        self.gateway.attach_frontend(self.infer_job, self.frontend)
        self.sdk_gateway = sdk.connect(self.system, tenant=harness.TENANTS[0])
        self.path = f"/query/{self.infer_job}"
        if tracer is not None:
            self._install_spans(tracer)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.frontend.start())
        clock.lap("warm")
        # Warm-up: code paths and allocator, on requests the alt phase's
        # prediction cache will not see again before they are evicted.
        scratch = harness.Outcome()
        for k in range(2):
            self._async_round(k, None)
        self._sdk_round(self.primary_rounds * ROUND - 64, 64, None, scratch, "warm")

    def _install_spans(self, tracer) -> None:
        def status(response):
            if response.status != 200:
                tracer.add("api.gateway.non_200")

        tracer.wrap_async(self.gateway, "handle_async", "api.gateway", after=status)
        tracer.wrap(self.gateway, "handle", "api.gateway", after=status)
        tracer.wrap(self.sdk_gateway, "handle", "api.gateway", after=status)
        tracer.wrap_async(self.frontend, "submit", "serve.frontend.submit", wait=True)
        offered: dict[int, float] = {}
        self._queue_waits: list[float] = []

        def admitted(request):
            offered[request.seq] = _perf()

        def planned(plans):
            now = _perf()
            for plan in plans:
                tracer.add("serve.batch.count")
                tracer.add("serve.batch.requests", plan.take)
                for request in plan.requests:
                    wait = now - offered.pop(request.seq, now)
                    if tracer.timed:
                        self._queue_waits.append(wait)

        core = self.frontend.core
        tracer.wrap(core, "offer", "serve.frontend.offer", after=admitted)
        tracer.wrap(core, "poll", "serve.frontend.poll", after=planned)
        tracer.wrap(core, "complete", "serve.frontend.complete")
        harness.trace_tenants(tracer, self.system.tenants)

    def prepare_oracle(self) -> None:
        """Reference label per image: a direct ``Rafiki.query``, no gateway."""
        # In slices: one 2048-image batch would set the peak RSS on its own.
        self.reference = []
        for start in range(0, len(self.images), 64):
            batch = self.images[start:start + 64]
            self.reference += self.system.query(self.infer_job, batch)["label"]

    # -- load -----------------------------------------------------------

    async def _client(self, client: int, first: int, responses: list, latencies: list):
        gateway, path, bodies = self.gateway, self.path, self.bodies
        client_id, tenant = f"client-{client}", self.tenant_of[client]
        for n in range(first, first + PER_CLIENT):
            if self.tracer is not None:
                self.tracer.set_request(n)
            start = _perf()
            responses[n % ROUND] = await gateway.handle_async(
                "POST", path, bodies[self.schedule[n]],
                client_id=client_id, tenant=tenant,
            )
            latencies.append(_perf() - start)

    async def _round(self, k: int, responses: list, latencies: list, redeploy: bool):
        base = k * ROUND
        await asyncio.gather(*(
            self._client(c, base + c * PER_CLIENT, responses, latencies)
            for c in range(CLIENTS)
        ))
        if redeploy:
            return self.gateway.handle(
                "POST", f"/inference/{self.infer_job}/redeploy", {},
                tenant=harness.TENANTS[0],
            )
        return None

    def _async_round(self, k: int, segment):
        """One round of 128 requests; returns the replies for checking."""
        responses = [None] * ROUND
        latencies = segment.latencies if segment is not None else []
        redeploy = self.hot and (k + 1) % REDEPLOY_EVERY_ROUNDS == 0
        reply = self.loop.run_until_complete(
            self._round(k, responses, latencies, redeploy)
        )
        if segment is not None:
            segment.ops = ROUND
        return responses, reply

    def _check_async(self, outcome, phase: str, base: int, responses, reply) -> None:
        outcome.attempt(phase, ROUND)
        labels, wrong = [], 0
        for offset, response in enumerate(responses):
            if response is None or response.status != 200:
                outcome.fail(phase)
                continue
            labels.append(response.body["label"])
            wrong += labels[-1] != self.reference[self.schedule[base + offset]]
        outcome.oracle("served_label", wrong)
        outcome.record(labels)
        if reply is not None:
            outcome.attempt(phase + ".redeploy")
            if reply.status != 200:
                outcome.fail(phase + ".redeploy")

    def _sdk_round(self, first: int, count: int, segment, outcome, phase: str) -> list:
        """``count`` blocking SDK calls; returns their labels (None = failed)."""
        images, schedule, job = self.images, self.schedule, self.infer_job
        tracer = self.tracer
        latencies = segment.latencies if segment is not None else []
        labels = []
        for n in range(first, first + count):
            tenant = self.tenant_of[n % CLIENTS]
            redeploy = (self.hot and segment is not None
                        and (n + 1) % (REDEPLOY_EVERY_ROUNDS * ROUND) == 0)
            start = _perf()
            try:
                if tracer is not None:
                    tracer.set_request(n)
                    with tracer.span("api.sdk"):
                        reply = sdk.query(job, {"img": images[schedule[n]]}, tenant=tenant)
                else:
                    reply = sdk.query(job, {"img": images[schedule[n]]}, tenant=tenant)
                labels.append(reply["label"])
            except GatewayError:
                labels.append(None)
            latencies.append(_perf() - start)
            if redeploy:
                outcome.attempt(phase + ".redeploy")
                if not self.sdk_gateway.handle(
                    "POST", f"/inference/{job}/redeploy", {}, tenant=harness.TENANTS[0]
                ).ok:
                    outcome.fail(phase + ".redeploy")
        if segment is not None:
            segment.ops = count
        return labels

    def _check_sdk(self, outcome, phase: str, first: int, labels: list) -> None:
        outcome.attempt(phase, len(labels))
        wrong = 0
        for offset, label in enumerate(labels):
            if label is None:
                outcome.fail(phase)
            else:
                wrong += label != self.reference[self.schedule[first + offset]]
        outcome.oracle("served_label", wrong)
        outcome.record(labels)

    def run(self, outcome, primary: str, alt: str) -> None:
        clock, tracer = self.clock, self.tracer
        cache = self.system.get_inference_job(self.infer_job).cache
        self._cache_mark = (cache.hits, cache.misses)
        first = self.primary_rounds * ROUND
        primary_done = alt_done = 0
        for is_primary in harness.interleave(self.primary_rounds, self.alt_rounds):
            if tracer is not None:
                tracer.enter("primary" if is_primary else "alt", timed=True)
            if is_primary:
                segment = clock.begin(primary)
                responses, reply = self._async_round(primary_done, segment)
                clock.end()
                self._check_async(outcome, primary, primary_done * ROUND, responses, reply)
                primary_done += 1
            else:
                start = first + alt_done * self.alt_round
                alt_done += 1
                segment = clock.begin(alt)
                labels = self._sdk_round(start, self.alt_round, segment, outcome, alt)
                clock.end()
                self._check_sdk(outcome, alt, start, labels)

    def verify(self, outcome) -> None:
        harness.checkpoint_oracle(self.deployed, outcome)
        core = self.frontend.core
        outcome.oracle("no_shed", core.shed)

    def teardown(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(self.frontend.stop())
            self.loop.close()
            self.loop = None

    # -- per-layer numbers ------------------------------------------------

    def layers(self, tracer) -> dict[str, float]:
        counts, timed = tracer.counts, harness.TIMED
        info = self.system.get_inference_job(self.infer_job)
        hits = info.cache.hits - self._cache_mark[0]
        misses = info.cache.misses - self._cache_mark[1]
        batches = counts["serve.batch.count"]
        return {
            "api.gateway.requests": tracer.count("api.gateway", timed),
            "api.gateway.self_ms": tracer.self_ms("api.gateway", timed),
            "api.gateway.non_200": counts["api.gateway.non_200"],
            "api.sdk.self_ms": tracer.self_ms("api.sdk", timed),
            "api.executor.batches": tracer.count("api.executor", timed),
            "api.executor.self_ms": tracer.self_ms("api.executor", timed),
            "serve.frontend.offer.calls": tracer.count("serve.frontend.offer", timed),
            "serve.frontend.offer.us": 1e3 * tracer.total_ms("serve.frontend.offer", timed),
            "serve.frontend.poll.calls": tracer.count("serve.frontend.poll", timed),
            "serve.frontend.poll.us": 1e3 * tracer.total_ms("serve.frontend.poll", timed),
            "serve.frontend.shed": self.frontend.core.shed,
            "serve.frontend.queue_wait_ms_p50": 1e3 * harness.p50(self._queue_waits),
            "serve.batch.count": batches,
            "serve.batch.size_mean":
                counts["serve.batch.requests"] / batches if batches else 0.0,
            # the alt phase only: async batches bypass the prediction cache.
            "serve.pred_cache.lookups": hits + misses,
            "serve.pred_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            **harness.tenancy_layers(tracer),
            **harness.inference_layers(tracer),
            **harness.training_layers(tracer),
            **harness.storage_layers(tracer, self.system.param_server,
                                     self.system.store.blocks),
        }
