"""A REST-style gateway over the Rafiki facade.

Routes mirror what the paper's web API exposes (job submission, job
monitoring, prediction queries). Bodies are JSON objects; an image is
nested lists or, as in Figure 2, the caller's array, taken exactly as
its ``tolist()``. There is no socket — ``handle`` is called directly —
so nothing is encoded: a body is checked to be what ``json.dumps`` would
accept (400 otherwise), and an answer is rebuilt in one walk as the
plain values a JSON round trip gives.

Each route declares its body once, as ``(field, converter, default)``
rows (``Gateway._bodies``), and the router reads the body by them: a
missing required field or a refused value is a 400 naming the field,
``null`` is absent where the default is ``None``, other fields are
ignored. Handlers take the typed values as keywords, never the body.

``handle`` and ``handle_async`` share one request pipeline
(``Gateway._request``): body check (400), route match, tenant check
(403), body table (400), error mapping, serialisation and per-route
telemetry; a new tenant is registered only once a handler runs. The
two differ in one case: ``handle_async`` awaits ``frontend.submit`` for
a query whose job has an attached
:class:`~repro.core.serve.frontend.AsyncServeFrontend` (admission
control and SLO-aware batching; a refusal is a 429 with ``retry_after``).
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
    ConfigurationError,
    DatasetNotFoundError,
    DroppedResponse,
    GatewayError,
    InjectedFault,
    JobNotFoundError,
    ModelNotFoundError,
    ParameterNotFoundError,
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
#: and map to 404.
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
    #: the matched route; ``handler`` is ``None`` when the request is
    #: already answered (bad body, refused tenant, no such route).
    route: str = "(unmatched)"
    handler: Callable | None = None
    params: dict[str, str] = field(default_factory=dict)
    #: the body as its route's table read it: the handler's keywords.
    fields: dict[str, Any] = field(default_factory=dict)
    #: what the handler returned, set by the caller of ``_request``.
    result: Any = None
    injected_latency: float = 0.0
    response: Response | None = None


# ----------------------------------------------------------------------
# body tables
# ----------------------------------------------------------------------

#: the default of a field the body must carry.
_REQUIRED = object()


def _parse(table: tuple, body: dict, where: str = "") -> dict[str, Any]:
    """The fields ``table``'s ``(field, converter, default)`` rows declare,
    read off ``body``, or 400: an absent field takes its default (missing
    from ``where`` if ``_REQUIRED``), ``null`` is absent where the default
    is ``None`` and goes to the converter elsewhere, and a value that is
    the default itself needs no conversion."""
    fields = {}
    for name, convert, default in table:
        value = body.get(name, default)
        if value is not default:
            try:
                value = convert(value)
            except (TypeError, ValueError, OverflowError, ConfigurationError) as exc:
                raise GatewayError(f"field {name!r} is invalid: {exc}") from exc
        elif value is _REQUIRED:
            raise GatewayError(f"{where} requires {name!r}")
        fields[name] = value
    return fields


def _string(value: Any) -> str:
    """``value`` when it is a string, else a ``TypeError``."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _integer(value: Any) -> int:
    """``value`` as an int when it is a JSON integer (``2.0`` included),
    else a ``TypeError`` or ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    number = int(value)  # infinity and NaN refused in int()'s words
    if number != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return number


def _number(value: Any) -> float:
    """``value`` as a float when it is a finite JSON number (not a
    boolean), else a ``TypeError`` or ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _boolean(value: Any) -> bool:
    """``value`` when it is a JSON boolean, else a ``TypeError``."""
    if not isinstance(value, bool):
        raise TypeError(f"expected a boolean, got {type(value).__name__}")
    return value


def _shape(value: Any) -> tuple[int, ...]:
    """A list of integers as a shape tuple, else a ``TypeError`` or ``ValueError``."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list of integers, got {type(value).__name__}")
    return tuple(map(_integer, value))


def _image(value: Any) -> Any:
    """``value`` unless it is ``null`` (an array: unless its ``tolist()``
    is); the handler decodes it for its job."""
    if value is None or (
        isinstance(value, np.ndarray) and not value.ndim and value.tolist() is None
    ):
        raise TypeError("expected an image, got null")
    return value


#: one deployed model of ``POST /inference``: the fields of a :class:`ModelSpec`.
_MODEL_FIELDS = (
    ("model_name", _string, _REQUIRED),
    ("param_key", _string, _REQUIRED),
    ("performance", _number, 0.0),
    ("task", _string, ""),
    ("dataset", _string, ""),
)


def _models(value: Any) -> list[ModelSpec]:
    """A non-empty list of model objects, each read by ``_MODEL_FIELDS``."""
    if not (isinstance(value, (list, tuple)) and value
            and all(isinstance(model, dict) for model in value)):
        raise TypeError("expected a non-empty list of objects")
    return [ModelSpec(**_parse(_MODEL_FIELDS, model, "every model")) for model in value]


#: :class:`HyperConf`'s fields as table rows, typed by their annotations.
_HYPER_FIELDS = tuple(
    (f.name, {"int": _integer, "float": _number}[f.type.removesuffix(" | None")], f.default)
    for f in dataclasses.fields(HyperConf)
)

#: the tenant a body may name, on any route; a header takes precedence.
_TENANT_FIELD = (("tenant", _string, None),)


class Gateway:
    """Dispatches ``(method, path, body)`` requests to the facade."""

    def __init__(self, system: Rafiki):
        self.system = system
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
        status and tenant, and its latency (the duration of its
        ``gateway.request`` span) lands in the per-route latency
        histogram. The tenant comes from the ``tenant`` argument (an
        HTTP gateway would read a header), falling back to a
        ``"tenant"`` body field, then to the default tenant; unknown or
        suspended tenants get 403 before the body is read or any
        handler runs.
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

        Before the block: check the body, match the route, check the
        tenant, read the body by the route's table. The block runs
        ``call.handler`` (if the request is not answered yet) and leaves
        its return value in ``call.result``. After it: map a raised
        exception to its status and serialise the result. All of it is
        the ``gateway.request`` span, tagged with route, tenant and
        status; the request is counted, and the span's duration is its
        latency. ``call.response`` is the answer.
        """
        method = method.upper()
        with telemetry.get_tracer().span("gateway.request") as span:
            response = None
            try:
                payload = _json_object(body)
                call = _Call(self._resolve_tenant_name(tenant, payload))
            except GatewayError as exc:
                payload, call = None, _Call(self._resolve_tenant_name(tenant, None))
                response = Response(400, {"error": str(exc)})
            matched = None
            for route_method, pattern, handler, name in self._routes:
                if route_method == method:
                    match = pattern.match(path)
                    if match:
                        matched = handler
                        call.route, call.params = name, match.groupdict()
                        break
            try:
                if response is None:
                    self.system.tenants.authorise(call.tenant)
                    if matched is None:
                        response = Response(404, {"error": f"no route for {method} {path}"})
                    else:
                        call.fields = _parse(
                            self._bodies.get(matched, ()), payload, f"{method} {call.route}")
                        call.handler = matched
            except (TenantAccessError, GatewayError) as exc:
                response = self._error_response(exc)
            try:
                yield call
                if response is None:
                    response = self._serialise(call.result)
            except Exception as exc:
                response = self._error_response(exc)
                if response is None:
                    raise
            span.tag(route=call.route, tenant=call.tenant, status=response.status)
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
        seconds.observe(span.duration + call.injected_latency)
        call.response = response

    def _dispatch(self, call: _Call) -> None:
        """Run the matched handler in place, as ``handle`` always does."""
        # The gateway.dispatch fault point models a backend that
        # crashes (503) or whose response is lost (504); either way the
        # gateway answers instead of crashing the server loop.
        call.injected_latency = chaos.fire("gateway.dispatch")
        self.system.tenants.resolve(call.tenant)  # the request is served: register
        with tenant_context(call.tenant):
            call.result = call.handler(self, **call.fields, **call.params)

    @staticmethod
    def _resolve_tenant_name(tenant: str | None, payload: dict | None) -> str:
        """Explicit argument (header) > body field > default tenant.

        A body ``"tenant"`` that is not a string is the client's error,
        never a tenant name: the lenient registry would register it.
        """
        if tenant:
            return str(tenant)
        if payload:
            tenant = _parse(_TENANT_FIELD, payload)["tenant"]
        return tenant or DEFAULT_TENANT

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
        if isinstance(exc, RequestShedError):
            # Admission control refused the request: overload, not a
            # client or server bug — 429 plus a retry hint, so
            # well-behaved clients back off instead of hammering.
            return Response(429, {
                "error": str(exc),
                "reason": exc.reason,
                "retry_after": exc.retry_after,
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
        it; the tenant's token bucket rate-limits it); every other
        request runs its handler exactly as :meth:`handle` does.
        """
        with self._request(method, path, body, tenant) as call:
            frontend = None
            if call.handler is Gateway._post_query:
                frontend = self._frontends.get(call.params["job_id"])
            if frontend is not None:
                # Checked before submit: a malformed image must not take
                # a queue slot or a rate-limit token.
                image = self._query_image(call.fields, call.params["job_id"], batch=False)
                if image is call.fields["img"]:  # queued beyond this call
                    image = image.copy()
                self.system.tenants.resolve(call.tenant)  # the request is served: register
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
    # handlers: the fields of their route's body table, as keywords
    # ------------------------------------------------------------------

    def _post_dataset(self, directory: str, name: str | None) -> dict:
        handle = self.system.import_images(directory, name=name)
        return {
            "name": handle.name,
            "num_examples": handle.num_examples,
            "num_classes": handle.num_classes,
            "image_shape": list(handle.image_shape),
        }

    def _list_datasets(self) -> dict:
        return {"datasets": self.system.store.list_datasets()}

    def _post_train(self, **fields) -> dict:
        return {"job_id": self.system.create_train_job(**fields, tenant=current_tenant())}

    @staticmethod
    def _parse_hyper(value: Any) -> HyperConf | None:
        """A request's ``hyper`` object as a :class:`HyperConf`, ``{}`` as none.

        Its fields are :class:`HyperConf`'s own, typed by their
        annotations; an unknown field, or anything but an object, is
        refused.
        """
        if not isinstance(value, dict):
            raise TypeError(f"must be an object, got {type(value).__name__}")
        valid = [name for name, _, _ in _HYPER_FIELDS]
        unknown = sorted(str(key) for key in value if key not in valid)
        if unknown:
            raise ValueError(
                f"unknown hyper field(s): {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        return HyperConf(**_parse(_HYPER_FIELDS, value)) if value else None

    def _get_train(self, job_id: str) -> dict:
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

    def _get_models(self, job_id: str) -> dict:
        return {"models": [dataclasses.asdict(s) for s in self.system.get_models(job_id)]}

    def _post_inference(self, **fields) -> dict:
        return {"job_id": self.system.create_inference_job(**fields, tenant=current_tenant())}

    def _get_inference(self, job_id: str) -> dict:
        info = self.system.get_inference_job(job_id)
        return {
            "job_id": info.job_id,
            "status": info.status,
            "models": [s.model_name for s in info.specs],
            "queries_served": info.queries_served,
        }

    def _redeploy_inference(self, job_id: str) -> dict:
        return self.system.redeploy_inference_job(job_id)

    def _stop_inference(self, job_id: str) -> dict:
        self.system.stop_inference_job(job_id)
        self.detach_frontend(job_id)  # else the gateway keeps its front end alive
        return {"job_id": job_id, "status": "stopped"}

    def _post_query(self, job_id: str, **fields) -> dict:
        return self.system.query(job_id, self._query_image(fields, job_id))

    def _query_image(self, fields: dict, job_id: str, batch: bool = True) -> np.ndarray:
        """The image of a ``POST /query`` body, read by its table, decoded
        for the job, or 400."""
        expected = self.system.get_inference_job(job_id).image_shape
        return _parse_image(fields["img"], expected, batch)

    def _get_dashboard(self) -> dict:
        from repro.api.monitor import dashboard_data

        return dashboard_data(self.system)

    #: (method, path pattern, handler, route template). The handlers are
    #: the plain functions, called with the gateway: a table of bound
    #: methods would make every gateway a reference cycle, freed only
    #: by the cyclic collector.
    _routes: tuple[tuple[str, re.Pattern, Callable, str], ...] = (
        ("POST", re.compile(r"^/datasets$"), _post_dataset, "/datasets"),
        ("GET", re.compile(r"^/datasets$"), _list_datasets, "/datasets"),
        ("POST", re.compile(r"^/train$"), _post_train, "/train"),
        ("GET", re.compile(r"^/train/(?P<job_id>[\w\-./]+)/models$"), _get_models,
         "/train/{job_id}/models"),
        ("GET", re.compile(r"^/train/(?P<job_id>[\w\-./]+)$"), _get_train,
         "/train/{job_id}"),
        ("POST", re.compile(r"^/inference$"), _post_inference, "/inference"),
        ("POST", re.compile(r"^/inference/(?P<job_id>[\w\-./]+)/redeploy$"),
         _redeploy_inference, "/inference/{job_id}/redeploy"),
        ("GET", re.compile(r"^/inference/(?P<job_id>[\w\-./]+)$"), _get_inference,
         "/inference/{job_id}"),
        ("DELETE", re.compile(r"^/inference/(?P<job_id>[\w\-./]+)$"), _stop_inference,
         "/inference/{job_id}"),
        ("POST", re.compile(r"^/query/(?P<job_id>[\w\-./]+)$"), _post_query,
         "/query/{job_id}"),
        ("GET", re.compile(r"^/dashboard$"), _get_dashboard, "/dashboard"),
    )

    #: handler -> its body table of ``(field, converter, default)`` rows;
    #: a route not named here reads nothing from its body.
    _bodies: dict[Callable, tuple] = {
        _post_dataset: (("directory", _string, _REQUIRED), ("name", _string, None)),
        _post_train: (
            ("name", _string, _REQUIRED), ("task", _string, _REQUIRED),
            ("dataset", _string, _REQUIRED), ("hyper", _parse_hyper, None),
            ("input_shape", _shape, None), ("output_shape", _shape, None),
            ("num_models", _integer, 2), ("num_workers", _integer, 2),
            ("advisor", _string, "bayesian"), ("collaborative", _boolean, True),
            ("priority", _integer, 0),
        ),
        _post_inference: (
            ("models", _models, _REQUIRED), ("dataset", _string, None), ("priority", _integer, 0),
        ),
        _post_query: (("img", _image, _REQUIRED),),
    }


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
        dtype = default_dtype()
        results: list[Any] = [None] * len(payloads)
        arrays: list[np.ndarray] = []
        kept: list[int] = []
        for index, payload in enumerate(payloads):
            # ``handle_async`` queues the array it decoded; only other
            # payloads are decoded here.
            if not (type(payload) is np.ndarray and payload.dtype == dtype
                    and payload.shape == expected):
                try:
                    payload = _parse_image(payload, expected)
                except GatewayError as exc:
                    # returned, not raised: its traceback would hold this frame
                    results[index] = exc.with_traceback(None)
                    continue
            arrays.append(payload)
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
