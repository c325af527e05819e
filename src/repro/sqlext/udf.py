"""User-defined functions bridging SQL to the inference service.

The case study's ``food_name(image_path)`` UDF sends the image behind a
path to a deployed Rafiki inference job over the gateway's web API and
returns the predicted label's name. Every call is counted so the
predicate-pushdown saving is measurable; a repeated path is answered by
the deployed job's prediction cache, which a redeploy drops.

The planned executor never calls UDFs one row at a time: each UDF call
in a query hands the distinct arguments that miss the cache to
:meth:`UdfRegistry.call_batch`, which prefers a registered *vectorised*
implementation (``register(name, fn, batch_fn=...)``) and otherwise maps
the scalar function. Either way the registry's one call count advances
by the batch length once the batch returns, so "UDF calls" always means
model evaluations and the planned-vs-naive savings stay comparable.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.exceptions import SQLExecutionError

__all__ = ["UdfRegistry", "make_inference_udf", "make_batched_inference_udf"]


class UdfRegistry:
    """Named scalar UDFs, and one count of the calls they answered."""

    def __init__(self):
        self._functions: dict[str, Callable[[Any], Any]] = {}
        self._batch_functions: dict[str, Callable[[list], list]] = {}
        #: arguments every UDF answered so far (a call that raises counts none)
        self.calls = 0

    def register(self, name: str, fn: Callable[[Any], Any],
                 batch_fn: Callable[[list], list] | None = None) -> None:
        """Register ``fn`` (and optionally a vectorised ``batch_fn``)."""
        key = name.lower()
        if key in self._functions:
            raise SQLExecutionError(f"UDF {name!r} already registered")
        self._functions[key] = fn
        if batch_fn is not None:
            self._batch_functions[key] = batch_fn

    def call(self, name: str, argument: Any) -> Any:
        """Invoke a UDF on one argument (counts one call once it returns)."""
        key = name.lower()
        if key not in self._functions:
            raise SQLExecutionError(f"unknown function {name!r}")
        result = self._functions[key](argument)
        self.calls += 1
        return result

    def call_batch(self, name: str, arguments: Sequence[Any]) -> list[Any]:
        """Invoke a UDF once per argument, vectorised when possible.

        Counts ``len(arguments)`` calls — one model evaluation per
        argument — regardless of how the batch is executed, so call
        counts compare across executors; a batch that raises counts
        none.
        """
        key = name.lower()
        if key not in self._functions:
            raise SQLExecutionError(f"unknown function {name!r}")
        arguments = list(arguments)
        if not arguments:
            return []
        batch_fn = self._batch_functions.get(key)
        if batch_fn is not None:
            results = list(batch_fn(arguments))
            if len(results) != len(arguments):
                raise SQLExecutionError(
                    f"batch UDF {name!r} returned {len(results)} results "
                    f"for {len(arguments)} arguments"
                )
        else:
            fn = self._functions[key]
            results = [fn(argument) for argument in arguments]
        self.calls += len(arguments)
        return results


def make_inference_udf(
    gateway,
    inference_job_id: str,
    image_store: Mapping[str, np.ndarray],
    label_names: tuple[str, ...] | None = None,
) -> Callable[[str], Any]:
    """Build a UDF that classifies ``image_store[path]`` via the gateway.

    The returned callable mirrors the case study's ``food_name``: it
    posts the image to ``/query/<job>`` (a
    :func:`make_batched_inference_udf` batch of one) and maps the
    predicted class id to ``label_names`` when given. It remembers
    nothing: repeats hit the job's prediction cache, so an answer never
    outlives a redeploy. When the model is re-trained and the job
    re-deployed under a new id, only ``inference_job_id`` changes — the
    SQL query at the database user's side is untouched.
    """
    batch_udf = make_batched_inference_udf(
        gateway, inference_job_id, image_store, label_names
    )
    return lambda image_path: batch_udf([image_path])[0]


def make_batched_inference_udf(
    gateway,
    inference_job_id: str,
    image_store: Mapping[str, np.ndarray],
    label_names: tuple[str, ...] | None = None,
) -> Callable[[list[str]], list[Any]]:
    """Vectorised counterpart of :func:`make_inference_udf`.

    Stacks the images behind a batch of paths into one array and posts
    it to ``/query/<job>`` as it is — register it as a ``batch_fn`` so
    the planned executor's batched dispatches cost one gateway call
    each instead of one per row.
    """

    def _batch_udf(image_paths: list[str]) -> list[Any]:
        images = []
        for image_path in image_paths:
            if image_path not in image_store:
                raise SQLExecutionError(f"no image at path {image_path!r}")
            images.append(np.asarray(image_store[image_path]))
        response = gateway.handle(
            "POST", f"/query/{inference_job_id}",
            {"img": np.stack(images)},
        )
        if not response.ok:
            raise SQLExecutionError(
                f"inference call failed: {response.body.get('error')}"
            )
        labels = response.body["label"]
        labels = labels if isinstance(labels, list) else [labels]
        if label_names is not None:
            return [label_names[label] for label in labels]
        return list(labels)

    return _batch_udf
