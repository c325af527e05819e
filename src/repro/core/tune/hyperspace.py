"""The ``HyperSpace`` programming model (Section 4.2.1, Figure 4).

A hyper-parameter space is a set of named *knobs*:

* :meth:`HyperSpace.add_range_knob` — a numeric domain ``[min, max)``
  with dtype float or int;
* :meth:`HyperSpace.add_categorical_knob` — a finite candidate list.

Knobs may declare ``depends`` (other knobs whose values must be drawn
first) plus ``pre_hook``/``post_hook`` callables: the pre-hook can
adjust the domain given already-drawn values, the post-hook can adjust
the drawn value (the paper's example: a large initial learning rate
pushes the decay rate up). Sampling follows a topological order of the
dependency graph.

The space also provides a continuous encoding (every trial maps to a
point in the unit hypercube) used by the Bayesian-optimisation advisor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.exceptions import HyperSpaceError

__all__ = ["HyperSpace", "RangeKnob", "CategoricalKnob", "Knob"]

PreHook = Callable[[dict[str, Any], "Knob"], "Knob"]
PostHook = Callable[[dict[str, Any], Any], Any]


@dataclass(frozen=True)
class Knob:
    """Common knob attributes."""

    name: str
    dtype: str
    depends: tuple[str, ...] = ()
    pre_hook: PreHook | None = None
    post_hook: PostHook | None = None


@dataclass(frozen=True)
class RangeKnob(Knob):
    """A numeric knob over ``[min, max)``, optionally log-scaled."""

    min: float = 0.0
    max: float = 1.0
    log_scale: bool = False

    def sample(self, rng: np.random.Generator) -> Any:
        if self.log_scale:
            value = math.exp(rng.uniform(math.log(self.min), math.log(self.max)))
        else:
            value = rng.uniform(self.min, self.max)
        if self.dtype == "int":
            return int(value)
        return float(value)

    def encode(self, value: Any) -> float:
        """Map a value to [0, 1] for the continuous advisors."""
        if self.log_scale:
            lo, hi = math.log(self.min), math.log(self.max)
            return (math.log(max(float(value), self.min)) - lo) / (hi - lo)
        return (float(value) - self.min) / (self.max - self.min)

    def decode(self, unit: float) -> Any:
        unit = min(max(unit, 0.0), 1.0 - 1e-12)
        if self.log_scale:
            lo, hi = math.log(self.min), math.log(self.max)
            value = math.exp(lo + unit * (hi - lo))
        else:
            value = self.min + unit * (self.max - self.min)
        if self.dtype == "int":
            return int(value)
        return float(value)

    def grid(self, resolution: int) -> list[Any]:
        points = [self.decode((i + 0.5) / resolution) for i in range(resolution)]
        if self.dtype == "int":
            deduped = sorted(set(points))
            return deduped
        return points


@dataclass(frozen=True)
class CategoricalKnob(Knob):
    """A knob over a finite candidate list."""

    candidates: tuple[Any, ...] = ()

    def sample(self, rng: np.random.Generator) -> Any:
        return self.candidates[int(rng.integers(0, len(self.candidates)))]

    def encode(self, value: Any) -> float:
        try:
            index = self.candidates.index(value)
        except ValueError as exc:
            raise HyperSpaceError(f"{value!r} is not a candidate of {self.name!r}") from exc
        return (index + 0.5) / len(self.candidates)

    def decode(self, unit: float) -> Any:
        unit = min(max(unit, 0.0), 1.0 - 1e-12)
        return self.candidates[int(unit * len(self.candidates))]

    def grid(self, resolution: int) -> list[Any]:
        return list(self.candidates)


@dataclass
class HyperSpace:
    """A named collection of knobs with dependency-aware sampling."""

    knobs: dict[str, Knob] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # definition API (Figure 4)
    # ------------------------------------------------------------------

    def add_range_knob(
        self,
        name: str,
        dtype: str,
        min: float,
        max: float,
        depends: Sequence[str] | None = None,
        pre_hook: PreHook | None = None,
        post_hook: PostHook | None = None,
        log_scale: bool = False,
    ) -> "HyperSpace":
        """Declare a numeric knob over ``[min, max)``."""
        self._check_new_name(name)
        if dtype not in ("float", "int"):
            raise HyperSpaceError(f"range knob dtype must be float or int, got {dtype!r}")
        if not max > min:
            raise HyperSpaceError(f"knob {name!r}: max ({max}) must exceed min ({min})")
        if log_scale and min <= 0:
            raise HyperSpaceError(f"knob {name!r}: log_scale requires min > 0")
        self.knobs[name] = RangeKnob(
            name=name,
            dtype=dtype,
            min=float(min),
            max=float(max),
            depends=tuple(depends or ()),
            pre_hook=pre_hook,
            post_hook=post_hook,
            log_scale=log_scale,
        )
        self._check_dependencies()
        return self

    def add_categorical_knob(
        self,
        name: str,
        dtype: str,
        candidates: Sequence[Any],
        depends: Sequence[str] | None = None,
        pre_hook: PreHook | None = None,
        post_hook: PostHook | None = None,
    ) -> "HyperSpace":
        """Declare a categorical knob over ``candidates``."""
        self._check_new_name(name)
        if not candidates:
            raise HyperSpaceError(f"knob {name!r}: empty candidate list")
        self.knobs[name] = CategoricalKnob(
            name=name,
            dtype=dtype,
            candidates=tuple(candidates),
            depends=tuple(depends or ()),
            pre_hook=pre_hook,
            post_hook=post_hook,
        )
        self._check_dependencies()
        return self

    def _check_new_name(self, name: str) -> None:
        if not name:
            raise HyperSpaceError("knob name must be non-empty")
        if name in self.knobs:
            raise HyperSpaceError(f"duplicate knob name {name!r}")

    def _check_dependencies(self) -> None:
        self.sample_order()  # raises on unknown names or cycles

    # ------------------------------------------------------------------
    # sampling / encoding
    # ------------------------------------------------------------------

    def sample_order(self) -> list[str]:
        """Topological order respecting every knob's ``depends`` list.

        A depth-first walk in declaration order, each knob after its
        dependencies. It is a loop over an explicit stack: a recursive
        local function would leave a reference cycle on every call.
        """
        order: list[str] = []
        done: set[str] = set()
        for root in self.knobs:
            if root in done:
                continue
            # The knobs being visited, each with its unvisited dependencies.
            path = [root]
            pending = [iter(self.knobs[root].depends)]
            while path:
                for dep in pending[-1]:
                    if dep in done:
                        continue
                    if dep in path:
                        raise HyperSpaceError(f"dependency cycle involving knob {dep!r}")
                    if dep not in self.knobs:
                        raise HyperSpaceError(f"unknown knob in depends: {dep!r}")
                    path.append(dep)
                    pending.append(iter(self.knobs[dep].depends))
                    break
                else:
                    pending.pop()
                    name = path.pop()
                    done.add(name)
                    order.append(name)
        return order

    def sample(self, rng: np.random.Generator) -> dict[str, Any]:
        """Draw one trial, honouring depends and hooks."""
        values: dict[str, Any] = {}
        for name in self.sample_order():
            knob = self.knobs[name]
            if knob.pre_hook is not None:
                knob = knob.pre_hook(values, knob)
            value = knob.sample(rng)
            if knob.post_hook is not None:
                value = knob.post_hook(values, value)
            values[name] = value
        return values

    def encode(self, values: dict[str, Any]) -> np.ndarray:
        """Map a trial to the unit hypercube (knob order = sample order)."""
        return np.array(
            [self.knobs[name].encode(values[name]) for name in self.sample_order()]
        )

    def decode(self, point: np.ndarray) -> dict[str, Any]:
        """Inverse of :meth:`encode`; hooks are re-applied."""
        order = self.sample_order()
        if point.shape[0] != len(order):
            raise HyperSpaceError(f"expected {len(order)} dims, got {point.shape[0]}")
        values: dict[str, Any] = {}
        for unit, name in zip(point, order):
            knob = self.knobs[name]
            if knob.pre_hook is not None:
                knob = knob.pre_hook(values, knob)
            value = knob.decode(float(unit))
            if knob.post_hook is not None:
                value = knob.post_hook(values, value)
            values[name] = value
        return values

    def grid(self, resolution: int = 3) -> list[dict[str, Any]]:
        """The cartesian grid over all knobs (grid search)."""
        order = self.sample_order()
        combos: list[dict[str, Any]] = [{}]
        for name in order:
            knob = self.knobs[name]
            new_combos = []
            for partial in combos:
                effective = knob.pre_hook(partial, knob) if knob.pre_hook else knob
                for value in effective.grid(resolution):
                    if knob.post_hook is not None:
                        value = knob.post_hook(partial, value)
                    merged = dict(partial)
                    merged[name] = value
                    new_combos.append(merged)
            combos = new_combos
        return combos

    @property
    def dimensions(self) -> int:
        return len(self.knobs)

    def validate(self, values: dict[str, Any]) -> None:
        """Check that a trial assigns every knob (raises otherwise)."""
        missing = sorted(set(self.knobs) - set(values))
        if missing:
            raise HyperSpaceError(f"trial is missing knobs: {missing}")
        unknown = sorted(set(values) - set(self.knobs))
        if unknown:
            raise HyperSpaceError(f"trial has unknown knobs: {unknown}")
