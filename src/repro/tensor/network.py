"""A sequential network container with named parameters.

The network namespaces every layer parameter as
``"<layer-name>/<param-name>"`` and exposes them as flat dictionaries.
Two features matter to Rafiki:

* :meth:`Network.state_dict` / :meth:`Network.load_state_dict` move
  parameters to and from the parameter server;
* :meth:`Network.warm_start` copies every *shape-matched* parameter
  from a checkpoint into this network — the mechanism the collaborative
  tuning scheme (Section 4.2.2) uses to reuse layer weights across
  trials whose architectures only partially agree.

A training forward runs the layer loop, each layer keeping what its
backward needs until :meth:`backward` has run it. An inference forward
(and so ``predict``, ``predict_labels`` and ``evaluate``) runs through
the network's :class:`~repro.tensor.workspace.Workspace`, which gives
the layer loop's bytes over buffers kept between calls, most of them
borrowed from the thread's one arena.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.tensor.dtype import default_dtype
from repro.tensor.layers import Layer
from repro.tensor.losses import softmax
from repro.tensor.workspace import Workspace

__all__ = ["Network"]


class Network:
    """An ordered stack of layers trained with explicit backprop."""

    def __init__(self, layers: Sequence[Layer], name: str = "net"):
        names = [layer.name for layer in layers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate layer names in network: {names}")
        self.name = name
        self.layers: list[Layer] = list(layers)
        self.input_shape: tuple[int, ...] | None = None
        self.output_shape: tuple[int, ...] | None = None
        #: the inference workspace: the padded inputs kept between calls
        #: (its steps are kept with each thread's arena).
        self._workspace: Workspace | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> "Network":
        """Create all parameters for ``input_shape`` (without batch dim)."""
        shape = tuple(int(s) for s in input_shape)
        self.input_shape = shape
        for layer in self.layers:
            shape = layer.build(shape, rng)
        self.output_shape = shape
        return self

    @property
    def built(self) -> bool:
        return self.output_shape is not None

    def _require_built(self) -> None:
        if not self.built:
            raise ConfigurationError("network is not built; call build(input_shape, rng) first")

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """The layer loop; for inference, the bytes it would return, from
        the network's workspace where the batch fits in it."""
        self._require_built()
        out = np.asarray(x, dtype=default_dtype())
        if not training and out.ndim:
            workspace = self._workspace
            if workspace is None or not workspace.holds(self.layers, out):
                workspace = self._workspace = Workspace(self.layers, out.shape[1:], out.dtype)
            if out.shape[0] <= workspace.limit:
                return workspace.run(out)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
            for attr in layer.saved_for_backward:
                setattr(layer, attr, None)
        return grad

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities (softmax over the final logits)."""
        return softmax(self.forward(x, training=False))

    def predict_labels(self, x: np.ndarray) -> np.ndarray:
        """Arg-max class labels."""
        return np.argmax(self.forward(x, training=False), axis=1)

    def zero_grads(self) -> None:
        for layer in self.layers:
            layer.zero_grads()

    # ------------------------------------------------------------------
    # parameter access
    # ------------------------------------------------------------------

    @property
    def params(self) -> dict[str, np.ndarray]:
        """Flat, live view of all parameters (mutations update the net)."""
        out: dict[str, np.ndarray] = {}
        for layer in self.layers:
            for pname, value in layer.params.items():
                out[f"{layer.name}/{pname}"] = value
        return out

    @property
    def grads(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for layer in self.layers:
            for pname, value in layer.grads.items():
                out[f"{layer.name}/{pname}"] = value
        return out

    @property
    def buffers(self) -> dict[str, np.ndarray]:
        """Non-trainable state (e.g. batch-norm running statistics)."""
        out: dict[str, np.ndarray] = {}
        for layer in self.layers:
            for bname, value in layer.buffers.items():
                out[f"{layer.name}/{bname}"] = value
        return out

    def param_count(self) -> int:
        return sum(layer.param_count() for layer in self.layers)

    #: leaf names that identify non-trainable buffers in a state dict.
    _BUFFER_LEAVES = frozenset({"running_mean", "running_var"})

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of all parameters and buffers (for the parameter server)."""
        out = {name: value.copy() for name, value in self.params.items()}
        out.update({name: value.copy() for name, value in self.buffers.items()})
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters and buffers by exact name; the names must be
        the network's own, all of them, and the shapes must match."""
        own = dict(self.params)
        own.update(self.buffers)
        missing = [name for name in own if name not in state]
        if missing:
            raise ConfigurationError(f"state dict is missing parameters: {missing}")
        for name, value in state.items():
            if name not in own:
                raise ConfigurationError(f"unexpected parameter {name!r}")
            if own[name].shape != value.shape:
                raise ConfigurationError(
                    f"shape mismatch for {name!r}: {own[name].shape} vs {value.shape}"
                )
            own[name][...] = value

    @classmethod
    def _is_buffer_name(cls, name: str) -> bool:
        return name.rsplit("/", 1)[-1] in cls._BUFFER_LEAVES

    def warm_start(self, state: dict[str, np.ndarray]) -> list[str]:
        """Copy every shape-matched parameter from ``state``.

        Matching is positional-by-kind rather than by exact name: the
        i-th parameter of a given shape in the checkpoint initialises
        the i-th same-shape parameter here. This reproduces the paper's
        rule that "the shape matched W" from the parameter server can
        initialise layers of a *different* architecture. Buffers
        (running statistics) only match buffers with the same leaf name,
        never trainable weights. Returns the list of local names that
        were initialised.
        """
        param_pool: dict[tuple[int, ...], list[np.ndarray]] = {}
        buffer_pool: dict[tuple[str, tuple[int, ...]], list[np.ndarray]] = {}
        for name, value in state.items():
            if self._is_buffer_name(name):
                leaf = name.rsplit("/", 1)[-1]
                buffer_pool.setdefault((leaf, value.shape), []).append(value)
            else:
                param_pool.setdefault(value.shape, []).append(value)
        loaded: list[str] = []
        for name, own_value in self.params.items():
            candidates = param_pool.get(own_value.shape)
            if candidates:
                own_value[...] = candidates.pop(0)
                loaded.append(name)
        for name, own_value in self.buffers.items():
            leaf = name.rsplit("/", 1)[-1]
            candidates = buffer_pool.get((leaf, own_value.shape))
            if candidates:
                own_value[...] = candidates.pop(0)
                loaded.append(name)
        return loaded

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        # A copy builds its own workspace: this one's steps read this
        # network's parameter arrays.
        return {**self.__dict__, "_workspace": None}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Network(name={self.name!r}, layers={len(self.layers)})"
