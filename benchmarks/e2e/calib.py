"""Calibrated time: the unit kernels, ``CalClock`` and the machine stamp.

Why: on the 2-core sandbox this benchmark has to repeat on, fixed work
runs anywhere between 1x and 1.5x its best speed from one run to the
next (and 2.5x from one second to the next), with CPU time equal to
wall time — so neither longer windows nor ``process_time`` steady a
measurement. What does is measuring the machine alongside the program:
a fixed *calibration unit* of about 10 ms runs between timed sections,
never inside one, and every timed section is scaled by the reference
unit time over the unit time measured around it. A *calibrated second*
is therefore "the work this machine does in 100 units"; the raw wall
figures stay visible as ``machine.*`` layer metrics.

The unit has two parts, timed apart, because the box's slow spells do
not hit all code alike: a *compute* part (interpreter bytecode, JSON,
BLAS, small batched float32 products; ~7.5 ms) swings widely, a
*memory* part (4 MiB copies, 1 MiB pickles; ~2.5 ms) barely moves. A
workload states what share of its time is memory streaming
(``mem_share``: 0.25 unless it says otherwise) and is scaled by that
blend. The share is part of a workload's definition, like its op
counts: change it and the workload's history starts again.

Import this module before NumPy: it pins BLAS/OpenMP to one thread
(the default two threads burn 2x CPU on this box for no gain and fight
the event loop for the second core).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

__all__ = ["REF_UNIT_S", "REF_COMPUTE_S", "REF_MEMORY_S", "TICK_EVERY_S",
           "DEFAULT_MEM_SHARE", "CalClock", "Segment", "machine_stamp",
           "peak_rss_mb", "process_startup_s", "percentile", "quiesce"]

#: reference durations of the unit's two parts. Constants, not
#: measurements: calibrated seconds are defined against them, so
#: changing either rescales every committed number.
REF_COMPUTE_S = 0.0075
REF_MEMORY_S = 0.0025
REF_UNIT_S = REF_COMPUTE_S + REF_MEMORY_S  # 0.010
#: the unit's own memory share, and the default for a workload.
DEFAULT_MEM_SHARE = REF_MEMORY_S / REF_UNIT_S
#: ``begin`` re-measures the machine when the last tick is this old.
TICK_EVERY_S = 0.25
#: ticks on each side of a timed segment whose median sets its scale.
_NEIGHBOURS = 2

_perf = time.perf_counter


def _make_unit():
    """Build the unit: ``unit() -> (compute seconds, memory seconds)``."""
    rng = np.random.default_rng(12345)
    matrix = rng.standard_normal((112, 112))
    doc = {"img": rng.standard_normal((3, 16, 16)).round(4).tolist()}
    patches = rng.standard_normal((16, 27, 196)).astype(np.float32)
    filters = rng.standard_normal((8, 27)).astype(np.float32)
    big = rng.standard_normal(512 * 1024)  # 4 MiB: larger than L2
    state = {"a": rng.standard_normal((512, 256)).astype(np.float32),
             "b": rng.standard_normal((512, 256)).astype(np.float32)}

    def unit() -> tuple[float, float]:
        start = _perf()
        acc = 0
        for i in range(40000):
            acc += i * i
        for _ in range(6):
            json.loads(json.dumps(doc))
        for _ in range(20):
            (matrix @ matrix).sum()
        for _ in range(44):
            np.maximum(np.matmul(filters, patches), 0).sum()
        middle = _perf()
        for _ in range(4):
            big.copy()
        for _ in range(5):
            pickle.loads(pickle.dumps(state, pickle.HIGHEST_PROTOCOL))
        return middle - start, _perf() - middle

    return unit


@dataclass
class Segment:
    """One timed stretch of work between two machine ticks."""

    phase: str
    kind: str
    start: float
    end: float = 0.0
    ops: int = 0
    #: raw per-op latencies (seconds) observed inside this segment.
    latencies: list[float] = field(default_factory=list)
    scale: float = 1.0

    @property
    def raw_s(self) -> float:
        return self.end - self.start

    @property
    def cal_s(self) -> float:
        return self.raw_s * self.scale


class CalClock:
    """Raw wall time in, calibrated seconds out.

    ``begin(phase, kind)`` opens a timed segment and ``end()`` closes
    it; ``lap()`` closes and reopens it, which is how a long call (a
    whole study) lets the machine be re-measured from inside: the tick
    runs in the gap, outside every timed span. ``finish()`` gives each
    segment its scale: one over the median, across the ticks around it,
    of the blended slow-down ``(1 - m) * compute / REF_COMPUTE_S + m *
    memory / REF_MEMORY_S`` with ``m = mem_share``. The unit's own cost
    is reported as ``machine.calib_overhead_share``.
    """

    def __init__(self, mem_share: float = DEFAULT_MEM_SHARE):
        self.mem_share = mem_share
        self._unit = _make_unit()
        self.tick_at: list[float] = []
        self.tick_compute: list[float] = []
        self.tick_memory: list[float] = []
        #: when each tick began; with ``tick_at`` (its end) the interval a
        #: span that was open across it must not count as its own time.
        self.tick_began: list[float] = []
        self.segments: list[Segment] = []
        self.open: Segment | None = None
        self.tick()

    def tick(self) -> None:
        start = _perf()
        self._unit()  # warms the caches the program just emptied; not recorded
        compute, memory = self._unit()
        self.tick_began.append(start)
        self.tick_at.append(_perf())
        self.tick_compute.append(compute)
        self.tick_memory.append(memory)

    @property
    def tick_s(self) -> list[float]:
        """Whole-unit seconds per tick (the ``machine.calib_unit_*`` metrics)."""
        return [c + m for c, m in zip(self.tick_compute, self.tick_memory)]

    def begin(self, phase: str, kind: str = "") -> Segment:
        if self.open is not None:
            raise RuntimeError(f"segment {self.open.phase!r} is still open")
        if _perf() - self.tick_at[-1] >= TICK_EVERY_S:
            self.tick()
        self.open = Segment(phase, kind, _perf())
        return self.open

    def end(self) -> Segment:
        segment, self.open = self.open, None
        segment.end = _perf()
        self.segments.append(segment)
        return segment

    def lap(self, kind: str | None = None) -> Segment:
        """Close the open segment and continue in a new one of ``kind``."""
        closed = self.end()
        return self.begin(closed.phase, closed.kind if kind is None else kind)

    def slowdown(self) -> list[float]:
        """Per tick: how much slower than the reference machine, blended."""
        m = self.mem_share
        return [(1.0 - m) * c / REF_COMPUTE_S + m * s / REF_MEMORY_S
                for c, s in zip(self.tick_compute, self.tick_memory)]

    def scale_between(self, start: float, end: float, slowdown=None) -> float:
        """One over the median slow-down of the ticks around [start, end]."""
        slowdown = self.slowdown() if slowdown is None else slowdown
        lo = bisect.bisect_right(self.tick_at, start)
        hi = bisect.bisect_left(self.tick_at, end)
        return 1.0 / statistics.median(slowdown[max(0, lo - _NEIGHBOURS):hi + _NEIGHBOURS])

    def finish(self) -> None:
        self.tick()
        slowdown = self.slowdown()
        for segment in self.segments:
            segment.scale = self.scale_between(segment.start, segment.end, slowdown)

    # -- aggregates ---------------------------------------------------

    def phase(self, name: str) -> list[Segment]:
        return [s for s in self.segments if s.phase == name]

    def cal_seconds(self, name: str) -> float:
        return sum(s.cal_s for s in self.phase(name))

    def raw_seconds(self, name: str) -> float:
        return sum(s.raw_s for s in self.phase(name))

    def ops(self, name: str) -> int:
        return sum(s.ops for s in self.phase(name))

    def steady_seconds(self, name: str) -> float:
        """Calibrated seconds with each segment at its kind's median.

        Segments of one kind do the same work, so pricing each at the
        median of its kind drops the ones a noise burst hit between two
        ticks while still counting every kind in proportion.
        """
        by_kind: dict[str, list[float]] = {}
        for segment in self.phase(name):
            by_kind.setdefault(segment.kind, []).append(segment.cal_s)
        return sum(len(v) * statistics.median(v) for v in by_kind.values())

    def rate(self, name: str) -> float:
        """Operations per steady calibrated second."""
        return self.ops(name) / self.steady_seconds(name)

    def cal_latencies(self, name: str) -> list[float]:
        return [lat * s.scale for s in self.phase(name) for lat in s.latencies]

    def latency_p50(self, name: str) -> float:
        """Median calibrated latency of the phase's slowest kind of operation.

        A phase that mixes kinds (two models' epochs, three queries) has a
        multi-modal latency sample whose plain median sits on an edge
        between modes and jumps from run to run; the median *within* the
        slowest kind is the latency a user waits for, and it is steady.
        """
        by_kind: dict[str, list[float]] = {}
        for segment in self.phase(name):
            by_kind.setdefault(segment.kind, []).extend(
                lat * segment.scale for lat in segment.latencies)
        return max((statistics.median(v) for v in by_kind.values() if v), default=0.0)

    def tick_seconds_within(self, start: float, end: float) -> float:
        """Seconds spent in ticks that ran wholly inside [start, end]."""
        lo = bisect.bisect_left(self.tick_began, start)
        hi = bisect.bisect_right(self.tick_at, end)
        return sum(self.tick_at[i] - self.tick_began[i] for i in range(lo, hi))

    def overhead_share(self) -> float:
        busy = sum(s.raw_s for s in self.segments)
        cost = self.tick_seconds_within(self.tick_began[0], self.tick_at[-1])
        return cost / busy if busy else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return float(ordered[rank])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_startup_s() -> float:
    """Seconds from process creation to now (interpreter start + imports)."""
    try:
        with open("/proc/self/stat") as handle:
            start_ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
        return uptime - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def machine_stamp(root: str) -> dict:
    """Where these numbers were taken: written into every result file."""
    commit = "unknown"
    try:
        with open(os.path.join(root, ".git", "HEAD")) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as handle:
                commit = handle.read().strip()
        else:
            commit = ref
    except OSError:
        pass  # a benchmark checkout is not a git repository
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "commit": commit,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "ref_unit_s": REF_UNIT_S,
    }


def quiesce() -> None:
    """Collect garbage now so a collection does not land in a timed op."""
    gc.collect()


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``TrialPool`` joins its own workers, but the shared-memory arena it
    opens starts ``multiprocessing``'s resource tracker, which otherwise
    ends only some time *after* this process has: a run would leave a
    process behind. ``multiprocessing`` is the only thing under ``src/``
    that starts processes.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    # A worker still alive (a study that raised) holds the tracker's pipe
    # open, and waiting for the tracker would then never return.
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)  # the tracker's main loop ends at EOF
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None
