"""The Python SDK of Figure 2.

The user code the paper shows is, verbatim in spirit::

    import rafiki                      # -> import repro as rafiki
    data = rafiki.import_images('food/')
    hyper = rafiki.HyperConf()
    job = rafiki.Train(name='train', data=data, task='ImageClassification',
                       input_shape=(3, 256, 256), output_shape=(120,),
                       hyper=hyper)
    job_id = job.run()

    models = rafiki.get_models(job_id)
    job = rafiki.Inference(models)
    infer_id = job.run()
    ret = rafiki.query(job=infer_id, data={'img': img})
    print(ret['label'])

All calls go through the REST-style gateway of a process-local
:class:`~repro.core.system.Rafiki` instance; :func:`connect` swaps in a
different system (e.g. one per test).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

from repro.api.gateway import Gateway, Response
from repro.core.system import Rafiki
from repro.core.tune import HyperConf
from repro.data.datasets import ImageDataset
from repro.exceptions import GatewayError

__all__ = [
    "connect",
    "default_gateway",
    "import_images",
    "HyperConf",
    "Train",
    "Inference",
    "get_models",
    "query",
]

_gateway: Gateway | None = None
_tenant: str | None = None


def connect(system: Rafiki | None = None, tenant: str | None = None) -> Gateway:
    """Bind the SDK to a Rafiki system (creating a default one if needed).

    ``tenant`` sets the identity every subsequent SDK call authenticates
    as (the paper's per-user API key, reduced to a name).
    """
    global _gateway, _tenant
    _gateway = Gateway(system if system is not None else Rafiki())
    _tenant = tenant
    return _gateway


def _effective_tenant(tenant: str | None) -> str | None:
    return tenant if tenant is not None else _tenant


def default_gateway() -> Gateway:
    if _gateway is None:
        return connect()
    return _gateway


def _unwrap(response: Response) -> dict[str, Any]:
    if not response.ok:
        raise GatewayError(f"HTTP {response.status}: {response.body.get('error')}")
    return response.body


def import_images(
    source: str | ImageDataset, name: str | None = None, tenant: str | None = None
) -> str:
    """Upload a labelled image folder (or in-memory dataset); returns its name."""
    gateway = default_gateway()
    if isinstance(source, ImageDataset):
        # In-memory datasets skip the gateway (they are not file paths).
        handle = gateway.system.import_images(source, name=name)
        return handle.name
    body = {"directory": source, "name": name}
    reply = _unwrap(gateway.handle("POST", "/datasets", body, tenant=_effective_tenant(tenant)))
    return reply["name"]


class Train:
    """A configured training job (Figure 2's ``rafiki.Train``)."""

    def __init__(
        self,
        name: str,
        data: str,
        task: str,
        input_shape: tuple[int, ...] | None = None,
        output_shape: tuple[int, ...] | None = None,
        hyper: HyperConf | None = None,
        num_models: int = 2,
        num_workers: int = 2,
        advisor: str = "bayesian",
        collaborative: bool = True,
        tenant: str | None = None,
        priority: int = 0,
    ):
        self.name = name
        self.data = data
        self.task = task
        self.input_shape = input_shape
        self.output_shape = output_shape
        self.hyper = hyper
        self.num_models = num_models
        self.num_workers = num_workers
        self.advisor = advisor
        self.collaborative = collaborative
        self.tenant = tenant
        self.priority = priority

    def run(self) -> str:
        """Submit the job; returns the job id used for monitoring."""
        body = {
            "name": self.name, "task": self.task, "dataset": self.data,
            "input_shape": self.input_shape, "output_shape": self.output_shape,
            "hyper": None if self.hyper is None else dataclasses.asdict(self.hyper),
            "num_models": self.num_models, "num_workers": self.num_workers,
            "advisor": self.advisor, "collaborative": self.collaborative,
            "priority": self.priority,
        }
        return _unwrap(default_gateway().handle(
            "POST", "/train", body, tenant=_effective_tenant(self.tenant)))["job_id"]


def get_models(job_id: str, tenant: str | None = None) -> list[dict[str, Any]]:
    """Figure 2's ``rafiki.get_models(job_id)``."""
    return _unwrap(default_gateway().handle(
        "GET", f"/train/{job_id}/models", tenant=_effective_tenant(tenant)))["models"]


class Inference:
    """A configured inference job over trained models."""

    def __init__(
        self,
        models: Sequence[dict[str, Any]],
        dataset: str | None = None,
        tenant: str | None = None,
        priority: int = 0,
    ):
        self.models = list(models)
        self.dataset = dataset
        self.tenant = tenant
        self.priority = priority

    def run(self) -> str:
        body = {"models": self.models, "dataset": self.dataset, "priority": self.priority}
        return _unwrap(default_gateway().handle(
            "POST", "/inference", body, tenant=_effective_tenant(self.tenant)))["job_id"]


def query(job: str, data: dict[str, Any], tenant: str | None = None) -> dict[str, Any]:
    """Figure 2's ``rafiki.query``: ``data`` is the query body, its
    ``img`` one image or a batch, an array (sent as it is) or lists."""
    return _unwrap(
        default_gateway().handle("POST", f"/query/{job}", data, tenant=_effective_tenant(tenant))
    )
