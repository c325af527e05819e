"""A REST-style gateway over the Rafiki facade.

Routes mirror what the paper's web API exposes (job submission, job
monitoring, prediction queries). Bodies are JSON objects; an image is
nested lists or, as in Figure 2, the caller's array, taken exactly as
its ``tolist()``. There is no socket — ``handle`` is called directly —
so nothing is encoded: a body is checked to be what ``json.dumps`` would
accept (400 otherwise) and handed to the handler, which neither mutates
nor keeps it; an answer is rebuilt in one walk as the plain values a
JSON round trip gives, so a caller never holds the system's own state.

``handle`` and ``handle_async`` share one request pipeline
(``Gateway._request``): route match, body check (400), tenant resolve
(403), error mapping, response serialisation and the per-route
telemetry happen there once. The two differ only in how the matched
handler runs. ``handle`` calls it behind the ``gateway.dispatch`` fault
point. ``handle_async`` does the same except for a query whose job has
an attached :class:`~repro.core.serve.frontend.AsyncServeFrontend`:
that one awaits ``frontend.submit`` — admission control and SLO-aware
batching, so concurrent callers share hardware batches — and an
admission refusal surfaces as HTTP 429 with a ``retry_after`` hint.
"""

from __future__ import annotations

import dataclasses
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Iterator

import numpy as np

from repro import chaos, telemetry
from repro.core.system import ModelSpec, Rafiki
from repro.core.tune import HyperConf
from repro.exceptions import (
    DatasetNotFoundError,
    DroppedResponse,
    GatewayError,
    InjectedFault,
    JobNotFoundError,
    ModelNotFoundError,
    ParameterNotFoundError,
    QueueOverflowError,
    QuotaExceededError,
    RafikiError,
    RequestShedError,
    ServingError,
    TenantAccessError,
)
from repro.tenancy import DEFAULT_TENANT, current_tenant, tenant_context
from repro.tensor import default_dtype

__all__ = ["Gateway", "Response", "make_query_executor"]

#: exception types that mean "the referenced resource does not exist"
#: and map to 404. Every other KeyError a handler leaks comes from a
#: malformed request body (a missing field) and maps to 400.
_NOT_FOUND_ERRORS = (
    JobNotFoundError,
    DatasetNotFoundError,
    ParameterNotFoundError,
    ModelNotFoundError,
)


#: gateway handler latency in seconds (in-process, so sub-millisecond).
REQUEST_SECONDS_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


@dataclass
class Response:
    """An HTTP-like response."""

    status: int
    body: dict[str, Any]

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


@dataclass
class _Call:
    """One request on its way through :meth:`Gateway._request`."""

    tenant: str
    payload: Any
    #: the matched route; ``handler`` is ``None`` when the request is
    #: already answered (bad body, refused tenant, no such route).
    route: str = "(unmatched)"
    handler: Callable | None = None
    params: dict[str, str] = field(default_factory=dict)
    #: what the handler returned, set by the caller of ``_request``.
    result: Any = None
    injected_latency: float = 0.0
    response: Response | None = None


class Gateway:
    """Dispatches ``(method, path, body)`` requests to the facade."""

    def __init__(self, system: Rafiki):
        self.system = system
        self._routes: list[tuple[str, re.Pattern, Callable, str]] = [
            ("POST", re.compile(r"^/datasets$"), self._post_dataset, "/datasets"),
            ("GET", re.compile(r"^/datasets$"), self._list_datasets, "/datasets"),
            ("POST", re.compile(r"^/train$"), self._post_train, "/train"),
            ("GET", re.compile(r"^/train/(?P<job_id>[\w\-./]+)/models$"), self._get_models,
             "/train/{job_id}/models"),
            ("GET", re.compile(r"^/train/(?P<job_id>[\w\-./]+)$"), self._get_train,
             "/train/{job_id}"),
            ("POST", re.compile(r"^/inference$"), self._post_inference, "/inference"),
            ("POST", re.compile(r"^/inference/(?P<job_id>[\w\-./]+)/redeploy$"),
             self._redeploy_inference, "/inference/{job_id}/redeploy"),
            ("GET", re.compile(r"^/inference/(?P<job_id>[\w\-./]+)$"), self._get_inference,
             "/inference/{job_id}"),
            ("DELETE", re.compile(r"^/inference/(?P<job_id>[\w\-./]+)$"), self._stop_inference,
             "/inference/{job_id}"),
            ("POST", re.compile(r"^/query/(?P<job_id>[\w\-./]+)$"), self._post_query,
             "/query/{job_id}"),
            ("POST", re.compile(r"^/sql$"), self._post_sql, "/sql"),
            ("GET", re.compile(r"^/dashboard$"), self._get_dashboard, "/dashboard"),
        ]
        self.requests_handled = 0
        #: the Database behind POST /sql (None until attached).
        self._sql_database: Any = None
        #: job_id -> AsyncServeFrontend for the async query path.
        self._frontends: dict[str, Any] = {}
        #: (method, route, status, tenant) -> its (count, latency) series,
        #: bound in ``_registry`` at the first such request.
        self._registry, self._series = None, {}

    def handle(
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        tenant: str | None = None,
    ) -> Response:
        """Route one request. The body must be a JSON object (else 400);
        the handler's answer comes back as plain JSON values.

        Every request — matched or not — is counted per route template,
        status and tenant, and its handler latency (read from the
        injectable telemetry clock) lands in the per-route latency
        histogram. The tenant comes from the ``tenant`` argument (an
        HTTP gateway would read a header), falling back to a
        ``"tenant"`` body field, then to the default tenant; unknown or
        suspended tenants get 403 before any handler runs.
        """
        with self._request(method, path, body, tenant) as call:
            if call.handler is not None:
                self._dispatch(call)
        return call.response

    @contextmanager
    def _request(
        self, method: str, path: str, body: Any, tenant: str | None
    ) -> Iterator[_Call]:
        """The request pipeline both entry points run a handler inside.

        Before the block: match the route, check the body, resolve the
        tenant. The block runs ``call.handler`` (if the request is not
        answered yet) and leaves its return value in ``call.result``.
        After it: map a raised exception to its status, serialise the
        result, count the request and time it; ``call.response`` is the
        answer.
        """
        clock = telemetry.get_clock()
        start = clock.now()
        self.requests_handled += 1
        method = method.upper()
        response = None
        try:
            payload = _json_object(body)
        except GatewayError as exc:
            payload = None
            response = Response(400, {"error": str(exc)})
        call = _Call(self._resolve_tenant_name(tenant, payload), payload)
        matched = None
        for route_method, pattern, handler, name in self._routes:
            if route_method == method:
                match = pattern.match(path)
                if match:
                    matched = handler
                    call.route, call.params = name, match.groupdict()
                    break
        if response is None:
            try:
                self.system.tenants.resolve(call.tenant)
            except TenantAccessError as exc:
                response = self._error_response(exc)
        if response is None and matched is None:
            response = Response(404, {"error": f"no route for {method} {path}"})
        if response is None:
            call.handler = matched
        try:
            yield call
            if response is None:
                response = self._serialise(call.result)
        except Exception as exc:
            response = self._error_response(exc)
            if response is None:
                raise
        registry = telemetry.get_registry()
        if registry is not self._registry:
            self._registry, self._series = registry, {}
        key = (method, call.route, response.status, call.tenant)
        if key not in self._series:
            requests = registry.counter(
                "repro_gateway_requests_total", "Gateway requests, by route, status and tenant.")
            latency = registry.histogram(
                "repro_gateway_request_seconds", "Gateway handler latency per route.",
                buckets=REQUEST_SECONDS_BUCKETS)
            self._series[key] = (
                requests.labels(method=method, route=call.route, status=str(response.status),
                                tenant=call.tenant),
                latency.labels(route=call.route))
        count, seconds = self._series[key]
        count.inc()
        seconds.observe(clock.now() - start + call.injected_latency)
        call.response = response

    def _dispatch(self, call: _Call) -> None:
        """Run the matched handler in place, as ``handle`` always does."""
        # The gateway.dispatch fault point models a backend that
        # crashes (503) or whose response is lost (504); either way the
        # gateway answers instead of crashing the server loop.
        call.injected_latency = chaos.fire("gateway.dispatch")
        with tenant_context(call.tenant):
            call.result = call.handler(call.payload, **call.params)

    @staticmethod
    def _resolve_tenant_name(tenant: str | None, payload: Any) -> str:
        """Explicit argument (header) > body field > default tenant."""
        if tenant:
            return str(tenant)
        if isinstance(payload, dict) and payload.get("tenant"):
            return str(payload["tenant"])
        return DEFAULT_TENANT

    @staticmethod
    def _error_response(exc: Exception) -> Response | None:
        """Map one handler exception to an HTTP-like response.

        Returns ``None`` for exceptions the gateway does not own
        (genuine bugs), which the pipeline re-raises.
        """
        if isinstance(exc, DroppedResponse):
            return Response(504, {"error": f"response dropped: {exc}"})
        if isinstance(exc, InjectedFault):
            return Response(503, {"error": f"backend unavailable: {exc}"})
        if isinstance(exc, (RequestShedError, QueueOverflowError)):
            # Admission control refused the request: overload, not a
            # client or server bug — 429 plus a retry hint, so
            # well-behaved clients back off instead of hammering.
            return Response(429, {
                "error": str(exc),
                "reason": getattr(exc, "reason", "queue_full"),
                "retry_after": float(getattr(exc, "retry_after", 0.1)),
            })
        if isinstance(exc, ServingError):
            # No live model replica: a server-side outage that ends when
            # a breaker's recovery window does - 503, never the client's 400.
            return Response(503, {"error": str(exc), "retry_after": 1.0})
        if isinstance(exc, QuotaExceededError):
            # Over quota is a *temporary* condition — the tenant can
            # free capacity (stop a job, delete parameters) and retry —
            # so it speaks 429, not 403.
            return Response(429, {
                "error": str(exc),
                "reason": "quota",
                "tenant": exc.tenant,
                "resource": exc.resource,
                "retry_after": 1.0,
            })
        if isinstance(exc, TenantAccessError):
            return Response(403, {"error": str(exc), "tenant": exc.tenant})
        if isinstance(exc, GatewayError):
            return Response(400, {"error": str(exc)})
        if isinstance(exc, _NOT_FOUND_ERRORS):
            return Response(404, {"error": f"not found: {exc}"})
        if isinstance(exc, KeyError):
            # A bare KeyError is a handler indexing into the request
            # body: the client's fault, not a missing resource — 400,
            # never 404.
            return Response(400, {"error": f"missing field: {exc}"})
        if isinstance(exc, RafikiError):
            return Response(400, {"error": str(exc)})
        return None

    # ------------------------------------------------------------------
    # the async front-end path
    # ------------------------------------------------------------------

    def attach_frontend(self, job_id: str, frontend: Any) -> None:
        """Route ``POST /query/{job_id}`` through a serving front end.

        ``frontend`` is a started
        :class:`~repro.core.serve.frontend.AsyncServeFrontend`; from now
        on :meth:`handle_async` queries for this job go through its
        admission control and batch dispatcher instead of the direct
        synchronous call.
        """
        self._frontends[job_id] = frontend

    def detach_frontend(self, job_id: str) -> None:
        """Return a job's queries to the synchronous path."""
        self._frontends.pop(job_id, None)

    async def handle_async(
        self,
        method: str,
        path: str,
        body: dict[str, Any] | None = None,
        client_id: str = "default",
        tenant: str | None = None,
    ) -> Response:
        """:meth:`handle`, awaiting the front end where one is attached.

        A query for a job with an attached front end awaits admission +
        batching (and carries ``client_id`` and the resolved tenant into
        the per-client and per-tenant rate limiters); every other
        request runs its handler exactly as :meth:`handle` does.
        """
        with self._request(method, path, body, tenant) as call:
            frontend = None
            if call.handler == self._post_query:
                frontend = self._frontends.get(call.params["job_id"])
            if frontend is not None:
                # Checked before submit: a malformed image must not take
                # a queue slot or a rate-limit token.
                image = self._query_image(
                    call.payload, call.params["job_id"], batch=False
                )
                if image is call.payload["img"]:  # queued beyond this call
                    image = image.copy()
                call.result = await frontend.submit(
                    image, client_id=client_id, tenant=call.tenant
                )
            elif call.handler is not None:
                self._dispatch(call)
        return call.response

    @staticmethod
    def _serialise(result: Any) -> Response:
        """A handler result as the plain values a JSON round trip gives.

        Numpy scalars and arrays in the result become Python values (a
        200); anything ``json.dumps`` refuses is a server-side bug and
        maps to 500 instead of crashing the server loop.
        """
        try:
            return Response(200, _plain(result, set()))
        except (TypeError, ValueError, RecursionError) as exc:
            return Response(500, {"error": f"handler result not serialisable: {exc}"})

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def _post_dataset(self, body: dict) -> dict:
        if "directory" not in body:
            raise GatewayError("POST /datasets requires 'directory'")
        handle = self.system.import_images(body["directory"], name=body.get("name"))
        return {
            "name": handle.name,
            "num_examples": handle.num_examples,
            "num_classes": handle.num_classes,
            "image_shape": list(handle.image_shape),
        }

    def _list_datasets(self, body: dict) -> dict:
        return {"datasets": self.system.store.list_datasets()}

    def _post_train(self, body: dict) -> dict:
        for required in ("name", "task", "dataset"):
            if required not in body:
                raise GatewayError(f"POST /train requires {required!r}")
        hyper = self._parse_hyper(body.get("hyper", {}))
        job_id = self.system.create_train_job(
            name=body["name"],
            task=body["task"],
            dataset=body["dataset"],
            hyper=hyper,
            input_shape=_field(body, "input_shape", tuple),
            output_shape=_field(body, "output_shape", tuple),
            num_models=_field(body, "num_models", int, 2),
            num_workers=_field(body, "num_workers", int, 2),
            advisor=body.get("advisor", "bayesian"),
            collaborative=bool(body.get("collaborative", True)),
            tenant=current_tenant(),
            priority=_field(body, "priority", int, 0),
        )
        return {"job_id": job_id}

    @staticmethod
    def _parse_hyper(hyper_kwargs: Any) -> HyperConf | None:
        """Validate a request's ``hyper`` object into a :class:`HyperConf`.

        Malformed bodies (wrong type, unknown fields, bad values) are a
        *client* error and must answer 400 — a bare
        ``HyperConf(**kwargs)`` would leak ``TypeError`` out of the
        gateway and crash the caller instead.
        """
        if not hyper_kwargs:
            return None
        if not isinstance(hyper_kwargs, dict):
            raise GatewayError(
                f"'hyper' must be an object, got {type(hyper_kwargs).__name__}"
            )
        valid = {f.name for f in dataclasses.fields(HyperConf)}
        unknown = sorted(str(key) for key in hyper_kwargs if key not in valid)
        if unknown:
            raise GatewayError(
                f"unknown hyper field(s): {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        try:
            return HyperConf(**hyper_kwargs)
        except (TypeError, ValueError) as exc:
            raise GatewayError(f"invalid 'hyper' configuration: {exc}") from exc

    def _get_train(self, body: dict, job_id: str) -> dict:
        info = self.system.get_train_job(job_id)
        return {
            "job_id": info.job_id,
            "name": info.name,
            "task": info.task,
            "dataset": info.dataset,
            "status": info.status,
            "models": info.model_names,
            "best_performance": info.best_performance,
        }

    def _get_models(self, body: dict, job_id: str) -> dict:
        specs = self.system.get_models(job_id)
        return {
            "models": [
                {
                    "model_name": s.model_name,
                    "param_key": s.param_key,
                    "performance": s.performance,
                    "task": s.task,
                    "dataset": s.dataset,
                }
                for s in specs
            ]
        }

    def _post_inference(self, body: dict) -> dict:
        models = body.get("models")
        if not models or not isinstance(models, (list, tuple)) or not all(
            isinstance(m, dict) for m in models
        ):
            raise GatewayError("POST /inference requires a non-empty 'models' list of objects")
        specs = [
            ModelSpec(
                model_name=m["model_name"],
                param_key=m["param_key"],
                performance=_field(m, "performance", float, 0.0),
                task=m.get("task", ""),
                dataset=m.get("dataset", ""),
            )
            for m in models
        ]
        job_id = self.system.create_inference_job(
            specs,
            dataset=body.get("dataset"),
            tenant=current_tenant(),
            priority=_field(body, "priority", int, 0),
        )
        return {"job_id": job_id}

    def _get_inference(self, body: dict, job_id: str) -> dict:
        info = self.system.get_inference_job(job_id)
        return {
            "job_id": info.job_id,
            "status": info.status,
            "models": [s.model_name for s in info.specs],
            "queries_served": info.queries_served,
        }

    def _redeploy_inference(self, body: dict, job_id: str) -> dict:
        reloaded = self.system.redeploy_inference_job(job_id)
        # A memoised UDF answer must not outlive the parameters that
        # produced it, any more than the job's own prediction cache.
        if self._sql_database is not None:
            self._sql_database.invalidate_udf_cache()
        return reloaded

    def _stop_inference(self, body: dict, job_id: str) -> dict:
        self.system.stop_inference_job(job_id)
        return {"job_id": job_id, "status": "stopped"}

    def _post_query(self, body: dict, job_id: str) -> dict:
        return self.system.query(job_id, self._query_image(body, job_id))

    def _query_image(self, body: Any, job_id: str, batch: bool = True) -> np.ndarray:
        """The image a ``POST /query`` body carries, checked, or 400."""
        if "img" not in body:
            raise GatewayError("POST /query requires 'img'")
        expected = self.system.get_inference_job(job_id).image_shape
        return _parse_image(body["img"], expected, batch)

    def attach_sql_database(self, database: Any) -> None:
        """Serve ``POST /sql`` from this :class:`~repro.sqlext.Database`.

        Queries run on the planned executor by default; a shed from the
        batched UDF dispatch path surfaces as HTTP 429 with a
        ``retry_after`` hint, exactly like the serving front end.
        """
        self._sql_database = database

    def _post_sql(self, body: dict) -> dict:
        if self._sql_database is None:
            raise GatewayError("no SQL database attached to this gateway")
        if "sql" not in body:
            raise GatewayError("POST /sql requires 'sql'")
        sql = body["sql"]
        if not isinstance(sql, str):
            raise GatewayError(f"'sql' must be a string, got {type(sql).__name__}")
        executor = body.get("executor")
        if body.get("explain"):
            return {"plan": self._sql_database.explain(sql)}
        result = self._sql_database.execute(sql, executor=executor)
        return {
            "columns": result.columns,
            "rows": [list(row) for row in result.rows],
            "executor": result.executor,
            "udf_calls": result.udf_calls,
            "udf_batches": result.udf_batches,
            "cache_hits": result.cache_hits,
        }

    def _get_dashboard(self, body: dict) -> dict:
        from repro.api.monitor import dashboard_data

        return dashboard_data(self.system)


def _json_object(body: Any) -> dict:
    """The body a handler gets: ``body`` itself (``{}`` for none), or 400.

    Nothing is encoded or copied. The body is refused where
    ``json.dumps(body)`` would raise (an ``img`` array: its ``tolist()``),
    and when it is not an object.
    """
    if body is None:
        return {}
    image = body.get("img") if isinstance(body, dict) else None
    try:  # the list of a _numeric array always passes
        _check_json(body if not isinstance(image, np.ndarray) else {
            **body, "img": 0 if _numeric(image) else image.tolist()})
    except (TypeError, ValueError, RecursionError) as exc:
        raise GatewayError(f"body is not JSON-serialisable: {exc}") from exc
    if not isinstance(body, dict):
        raise GatewayError(f"body must be a JSON object, got {type(body).__name__}")
    return body


#: leaf types whose runs :func:`_check_json` takes without a call per leaf.
_PLAIN_LEAVES = frozenset({float, int, str})
#: container types whose items :func:`_check_json` may take as rows: one
#: pass over all their leaves instead of a call per row.
_ROW_TYPES = frozenset({list, tuple})
#: an int no wider than this has fewer than 640 digits, the least
#: ``sys.set_int_max_str_digits`` allows, so it always prints.
_SHORT_INT_BITS = 2000


def _check_json(value: Any) -> None:
    """Raise where ``json.dumps(value)`` with default arguments raises.

    Dicts, lists and tuples are containers; str, int, float, bool and
    None are leaves (subclasses included, so ``np.float64`` passes and
    ``np.float32`` does not); dict keys are str, int, float, bool or
    None; NaN and infinities pass. ``TypeError`` for anything else,
    ``ValueError`` for an int too long to print. Nesting past the
    interpreter's recursion limit raises ``RecursionError``, as in
    ``json.dumps``; a container inside itself always does, where
    ``json.dumps`` raises ``ValueError``.
    """
    if isinstance(value, (list, tuple)):
        items = value
    elif isinstance(value, dict):
        for key in value:
            if isinstance(key, int):
                _check_int(key)
            elif not (isinstance(key, (str, float)) or key is None):
                raise TypeError(
                    f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                )
        items = value.values()
    elif isinstance(value, int):
        _check_int(value)
        return
    elif isinstance(value, (str, float)) or value is None:
        return
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    kinds = set(map(type, items))
    if kinds and kinds <= _ROW_TYPES:  # rows: take their leaves in one pass
        kinds = set(map(type, chain.from_iterable(items)))
        if kinds <= _PLAIN_LEAVES:
            if int in kinds:
                _check_ints(chain.from_iterable(items))
            return
    elif kinds <= _PLAIN_LEAVES:  # a run of leaves: nothing to walk into
        if int in kinds:
            _check_ints(items)
        return
    for item in items:
        _check_json(item)


def _check_ints(leaves) -> None:
    for leaf in leaves:
        if type(leaf) is int:
            _check_int(leaf)


def _check_int(value: int) -> None:
    """Raise where printing ``value`` would: past ``sys.get_int_max_str_digits()``."""
    if value.bit_length() > _SHORT_INT_BITS:
        int.__repr__(value)


#: runs of these leaf types :func:`_plain` copies without a call per leaf.
_PLAIN_ATOMS = frozenset({bool, int, str, type(None)})
#: what :func:`_plain` makes of any other leaf, by type.
_LEAF_TYPES = ((str, str.__str__), (int, int.__int__), (float, float.__float__),
               (np.integer, int), (np.floating, float), (np.bool_, bool))
#: how JSON spells these keys, and the floats ``float.__repr__`` prints so.
_JSON_WORDS = {None: "null", True: "true", False: "false",
               "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _plain(value: Any, path: set[int]) -> Any:
    """``json.loads(json.dumps(value))`` in one walk, numpy scalars and
    arrays taken as Python values: fresh containers, plain leaves, or
    what ``json.dumps`` raises (``path``, the containers walked into,
    finds a cycle). Of two keys that print alike the last value wins."""
    kind = type(value)
    if kind in _PLAIN_ATOMS:
        if kind is int:
            _check_int(value)
        return value
    if (kind is list or kind is tuple) and set(map(type, value)) <= _PLAIN_ATOMS:
        _check_ints(value)
        return list(value)
    if kind is not dict:
        for leaf, plain in _LEAF_TYPES:
            if isinstance(value, leaf):
                value = plain(value)
                if type(value) is int:
                    _check_int(value)
                return math.nan if value != value else value
    if id(value) in path:
        raise ValueError("Circular reference detected")
    path.add(id(value))
    if isinstance(value, (list, tuple)):
        out = [_plain(item, path) for item in value]
    elif isinstance(value, dict):
        out = {_plain_key(key): _plain(item, path) for key, item in value.items()}
    elif isinstance(value, np.ndarray):
        out = _plain(value.tolist(), path)
    else:
        raise TypeError(f"{type(value).__name__} is not JSON-serialisable")
    path.discard(id(value))
    return out


def _plain_key(key: Any) -> str:
    """The string ``json.dumps`` writes for a dict key, or its ``TypeError``."""
    if isinstance(key, str):
        return str.__str__(key)
    if key is None or key is True or key is False:
        return _JSON_WORDS[key]
    for kind in (float, int):
        if isinstance(key, kind):
            return _JSON_WORDS.get(kind.__repr__(key), kind.__repr__(key))
    kind = type(key)  # named as C names it: ``tuple``, ``numpy.int64``
    name = kind.__name__ if kind.__module__ == "builtins" or kind.__flags__ & 512 else (
        f"{kind.__module__}.{kind.__name__}")
    raise TypeError(f"keys must be str, int, float, bool or None, not {name}")


def _field(body: dict, name: str, convert: Callable[[Any], Any], default: Any = None) -> Any:
    """``convert(body[name])``, or ``default`` when the field is absent.

    A value the conversion refuses is the client's error, a 400 naming
    the field, not a ``TypeError`` or ``ValueError`` out of the handler.
    """
    if name not in body:
        return default
    try:
        return convert(body[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise GatewayError(f"field {name!r} is invalid: {exc}") from exc


def _parse_image(raw: Any, expected: tuple[int, ...], batch: bool = False) -> np.ndarray:
    """Decode an image of the job's ``expected`` shape (or, with ``batch``,
    a stack of them) into an array of the engine's dtype, or 400.

    A ragged nested list raises ``ValueError`` out of ``np.asarray``, a
    wrong-shaped array out of the first convolution; without this guard
    that crashes the server loop (sync path) or poisons a whole batch
    (async path) instead of answering 400 for the one malformed request.
    An array decodes to the bits of its ``tolist()``: one of
    :func:`_numeric` dtype is cast through float64, as the list's Python
    numbers are, where a direct cast could round or quiet a NaN otherwise.
    """
    if isinstance(raw, np.ndarray):
        if type(raw) is not np.ndarray or not _numeric(raw) or not raw.size:
            raw = raw.tolist()
        elif raw.dtype != np.float64 and (raw.dtype != np.float32 or np.isnan(raw).any()):
            with np.errstate(all="ignore"):
                raw = raw.astype(np.float64)
    try:
        array = np.asarray(raw, dtype=default_dtype())
    except (TypeError, ValueError, OverflowError) as exc:
        raise GatewayError(f"'img' is not a numeric image: {exc}") from exc
    if array.shape != expected and not (batch and array.shape[1:] == expected):
        raise GatewayError(
            f"image shape {array.shape} does not match expected {expected}"
        )
    return array


def _numeric(array: np.ndarray) -> bool:
    """Whether ``array.tolist()`` holds only Python bools, ints and floats."""
    return array.dtype.kind in "biuf" and array.dtype.itemsize <= 8


def make_query_executor(system: Rafiki, job_id: str) -> Callable[..., list]:
    """Build the batch executor an async front end runs queries with.

    The front end hands over ``(payloads, batch_size)`` — plus the
    model subset, when its dispatch policy chose one; the executor
    stacks the images into one array, runs a single ensemble query over
    those models (so the whole batch pays one vote), and splits the
    batched result back into per-request ``{"label", "votes",
    "models"}`` dicts — the same shape a synchronous ``POST /query``
    returns.

    Shapes are validated *per payload* against the shape the job was
    deployed for: one client's wrong-shaped image gets its own
    :class:`GatewayError` (a 400 on its own future) while the rest of
    the batch runs — a whole-batch ``np.stack`` failure would shed every
    co-batched client's request as ``executor_error``, a cross-tenant
    isolation hole.
    """

    def executor(payloads: list, batch_size: int, models=None) -> list[Any]:
        expected = system.get_inference_job(job_id).image_shape
        results: list[Any] = [None] * len(payloads)
        arrays: list[np.ndarray] = []
        kept: list[int] = []
        for index, payload in enumerate(payloads):
            try:
                arrays.append(_parse_image(payload, expected))
            except GatewayError as exc:
                results[index] = exc
                continue
            kept.append(index)
        if arrays:
            result = system.query(job_id, np.stack(arrays), models)
            for position, index in enumerate(kept):
                results[index] = {
                    "label": result["label"][position],
                    "votes": result["votes"][position],
                    "models": result["models"],
                }
        return results

    return executor
