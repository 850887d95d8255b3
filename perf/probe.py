"""Machine-speed probes: what makes a 15-second timing repeatable here.

The sandbox this benchmark runs in shares its host.  Over ten
back-to-back runs of one commit the raw median op time spread (quartile
distance over median) by 12-52 % in a noisy hour and 4-11 % in a quiet
one, and a pure-Python loop by 27 % -- more than a regression gate's
bound (README, "Why times are normalised").  The drift is not uniform
either: cache and memory contention slows pointer-chasing interpreter
code, small-array NumPy dispatch and large-array streaming by different
factors, and none of it shows as steal time.

So the harness cuts what it times into segments of a few tens of
milliseconds (:class:`SegmentClock`) and, with the clock stopped, takes
one sample of five small fixed kernels before each segment and after
the last, each kernel stressing one of those resources.  The *slowdown*
of a segment is the geometric mean, over the five probes, of the time
the probe took next to it over its :data:`NOMINAL_SECONDS`.  Dividing
measured seconds by it gives seconds "at nominal machine speed", which
is what every ``*_ms`` / ``*_s`` / ``1/s`` host-time metric reports.
On the same runs that brought the spread of the median op time down to
2-7 %.

The probes are part of the frozen benchmark, so the unit is the same on
every commit.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe names, in sampling order.
PROBES = ("core", "chase", "dispatch", "stream", "latency")

#: Cost of one sample of each probe between ops: lower quartile over
#: fifty 15-second runs (ten of each workload) on the reference sandbox
#: in a quiet hour (seconds).  These constants only
#: fix the unit: a machine twice as fast reports half the milliseconds,
#: as a wall clock would.
NOMINAL_SECONDS = {
    "core": 0.00037,
    "chase": 0.00029,
    "dispatch": 0.00042,
    "stream": 0.00045,
    "latency": 0.00074,
}


class _Node:
    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.attrs = {f"k{i}": float(i) for i in range(8)}
        self.kids: list[_Node] = []


def _tree(depth: int, fanout: int) -> _Node:
    node = _Node(depth)
    if depth:
        node.kids = [_tree(depth - 1, fanout) for _ in range(fanout)]
    return node


def _walk(node: _Node, acc: dict) -> None:
    acc[node.depth] = acc.get(node.depth, 0.0) + node.attrs["k3"]
    for kid in node.kids:
        _walk(kid, acc)


class Probes:
    """The five kernels and their fixed inputs (about 14 MB)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20130101)
        self._tree = _tree(5, 4)                      # 1365 objects + dicts
        self._small = [rng.random(2048).astype(np.float32) for _ in range(16)]
        self._big = rng.random(2 ** 19).astype(np.float32)
        self._heap = [float(i) for i in range(400_000)]
        self._order = rng.permutation(len(self._heap))[:3500].tolist()
        self._kernels = (self._core, self._chase, self._dispatch,
                         self._stream, self._latency)

    def _core(self) -> None:
        """Interpreter arithmetic on locals: core speed alone."""
        x = 0
        for i in range(14000):
            x += i

    def _chase(self) -> None:
        """Interpreter walking an object graph that fits the cache."""
        _walk(self._tree, {})

    def _dispatch(self) -> None:
        """Many NumPy calls on arrays too small to matter."""
        for _ in range(2):
            for s in self._small:
                v = s[1:-1] * 0.5 + s[:-2]
                w = np.where(v > 0.5, v, s[2:])
                w.sum()

    def _stream(self) -> None:
        """Few NumPy calls over 2 MB arrays: allocation and bandwidth."""
        self._big * 2.0 + self._big

    def _latency(self) -> None:
        """Dependent loads scattered over a heap larger than the cache."""
        heap = self._heap
        s = 0.0
        for i in self._order:
            s += heap[i]

    def sample(self) -> list[float]:
        """Seconds taken by one call of each kernel, in PROBES order."""
        clock = time.perf_counter
        out = []
        for kernel in self._kernels:
            t = clock()
            kernel()
            out.append(clock() - t)
        return out


def slowdowns(probe_seconds) -> np.ndarray:
    """Per-segment slowdown factors from the samples around each.

    ``probe_seconds`` has one more row than there are segments (a
    sample before the first and one after each), so segment ``i`` is
    bracketed by rows ``i`` and ``i + 1``.
    """
    samples = np.asarray(probe_seconds, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != len(PROBES) \
            or len(samples) < 2:
        raise ValueError(f"need segments + 1 samples of {len(PROBES)} "
                         f"probes, got shape {samples.shape}")
    nominal = np.array([NOMINAL_SECONDS[p] for p in PROBES])
    local = (samples[:-1] + samples[1:]) / 2.0
    return np.exp(np.log(local / nominal).mean(axis=1))


def no_sample() -> list[float]:
    """Stand-in for :meth:`Probes.sample` where speed is not sampled."""
    return []


class SegmentClock:
    """Wall time cut into segments, a probe sample between them.

    The clock is stopped while a sample is taken (and from
    :meth:`mark` until :meth:`restart`, for work that is not to be
    timed), so ``segments`` holds only the work and ``samples`` one
    more entry than ``segments``.
    """

    def __init__(self, sample=no_sample, first: list[float] | None = None,
                 elapsed: float = 0.0) -> None:
        """``first``: a sample taken before the first segment began
        (else one is taken now); ``elapsed``: seconds of it already
        gone, for a segment that began in another process."""
        self._sample = sample
        self.samples = [sample() if first is None else first]
        self.segments: list[float] = []
        self._t = time.perf_counter() - elapsed

    def restart(self) -> None:
        self._t = time.perf_counter()

    def mark(self) -> None:
        """End the running segment, sample, start the next."""
        self.segments.append(time.perf_counter() - self._t)
        self.samples.append(self._sample())
        self._t = time.perf_counter()

    @property
    def seconds(self) -> float:
        return sum(self.segments)

    def nominal_seconds(self) -> float:
        """The segments' total at nominal machine speed."""
        return float((np.array(self.segments)
                      / slowdowns(self.samples)).sum())
