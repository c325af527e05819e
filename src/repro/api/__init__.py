"""Front end: the REST-style gateway and the Python SDK (Figure 2).

The SDK mirrors the four-line training script of Figure 2
(``import_images`` / ``HyperConf`` / ``Train`` / ``Inference`` /
``query``); under the hood every SDK call goes through the
:class:`~repro.api.gateway.Gateway`, the same request/response path a
RESTful client (curl, a mobile app, a database UDF) would use.
"""

from repro.api.gateway import Gateway, Response, make_query_executor
from repro.api.sdk import (
    HyperConf,
    Inference,
    Train,
    connect,
    get_models,
    import_images,
    query,
)

__all__ = [
    "Gateway",
    "Response",
    "make_query_executor",
    "connect",
    "import_images",
    "HyperConf",
    "Train",
    "Inference",
    "get_models",
    "query",
]
