"""Task and array partitioning across GPUs.

Section IV-B2: "the tasks in the parallel loop are equally divided
among the GPUs".  :func:`split_tasks` produces the per-GPU iteration
slices; :func:`window_for_tasks` evaluates a ``localaccess`` read
window over a task slice, giving the array block (plus halo) the data
loader must place on that GPU.  Window bounds run as compiled code
(:func:`window_bounds`), not as a walk of their expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..frontend import cast as C
from ..translator.array_config import ReadWindow
from ..translator.hostgen import bound_functions


class PartitionError(ValueError):
    pass


def split_tasks(lower: int, upper: int, ngpus: int) -> list[tuple[int, int]]:
    """Equal block split of ``[lower, upper)`` into ``ngpus`` slices.

    The first ``r`` slices get one extra task when the count does not
    divide evenly; empty slices are legal (more GPUs than tasks).
    """
    if ngpus < 1:
        raise PartitionError("need at least one GPU")
    total = max(0, upper - lower)
    base = total // ngpus
    extra = total % ngpus
    out: list[tuple[int, int]] = []
    start = lower
    for g in range(ngpus):
        size = base + (1 if g < extra else 0)
        out.append((start, start + size))
        start += size
    return out


def split_tasks_weighted(
    lower: int,
    upper: int,
    weights: list[float],
    min_chunk: int = 0,
) -> list[tuple[int, int]]:
    """Contiguous split of ``[lower, upper)`` proportional to ``weights``.

    The adaptive balancer's mapping primitive: slice ``g`` gets
    ``total * weights[g] / sum(weights)`` tasks.  Sizes are floored and
    the remainder is distributed one task at a time to the slices with
    the largest fractional parts (ties broken by lowest GPU index), so
    the split is deterministic and the remainder never piles onto one
    GPU.

    ``min_chunk`` raises undersized slices with *positive* weight to at
    least ``min_chunk`` tasks (taking from the largest slices) so tiny
    slices don't degenerate; zero-weight GPUs legitimately receive
    empty slices (the balancer starves devices that cannot pull their
    weight at any size).  When the range cannot give every active GPU
    ``min_chunk`` tasks -- or the weights are degenerate -- the split
    falls back to the equal block split.
    """
    ngpus = len(weights)
    if ngpus < 1:
        raise PartitionError("need at least one GPU")
    total = max(0, upper - lower)
    # NaN (a garbage measurement) clamps to zero weight -- explicitly,
    # not via comparison-order luck; negative weights clamp the same
    # way.  An all-zero vector or an infinite weight degenerates to the
    # equal split: both carry no usable proportion information.
    w = [0.0 if x != x else max(0.0, float(x)) for x in weights]
    s = sum(w)
    if total == 0 or s <= 0.0 or not all(np.isfinite(x) for x in w):
        return split_tasks(lower, upper, ngpus)
    active = [g for g in range(ngpus) if w[g] > 0.0]
    if min_chunk > 0 and total < len(active) * min_chunk:
        return split_tasks(lower, upper, ngpus)
    raw = [total * x / s for x in w]
    sizes = [int(r) for r in raw]
    rem = total - sum(sizes)
    order = sorted(active, key=lambda g: (-(raw[g] - sizes[g]), g))
    # rem == sum of the active slices' fractional parts, so rem < len(active).
    for g in order[:rem]:
        sizes[g] += 1
    if min_chunk > 0:
        for g in active:
            while sizes[g] < min_chunk:
                donor = max(range(ngpus), key=lambda d: sizes[d])
                take = min(min_chunk - sizes[g], sizes[donor] - min_chunk)
                if take <= 0:
                    return split_tasks(lower, upper, ngpus)
                sizes[g] += take
                sizes[donor] -= take
    out: list[tuple[int, int]] = []
    start = lower
    for g in range(ngpus):
        out.append((start, start + sizes[g]))
        start += sizes[g]
    # Defense in depth: a weighted split that is not an exact
    # contiguous cover of [lower, upper) (negative slice, gap, or
    # overlap) would silently drop or duplicate iterations downstream.
    if start != upper or any(b < a for a, b in out):
        raise PartitionError(
            f"weighted split produced an invalid cover of "
            f"[{lower}, {upper}): {out}")
    return out


def split_tasks_hierarchical(
    lower: int,
    upper: int,
    weights: list[float],
    node_ranges: list[tuple[int, int]],
    min_chunk: int = 0,
) -> list[tuple[int, int]]:
    """Two-level contiguous split: nodes first, then GPUs within each.

    ``node_ranges`` lists each node's ``[gpu_lo, gpu_hi)`` slice of the
    weight vector (contiguous, in order, covering it exactly).  Level
    one splits ``[lower, upper)`` across nodes proportional to each
    node's *aggregate* weight; level two hands each node's sub-range to
    :func:`split_tasks_weighted` with the node's own GPU weights.  The
    result is indexed per GPU, exactly like the flat splitter, and is
    an exact contiguous cover (each level already guarantees its own).

    A node's ``min_chunk`` at level one is ``min_chunk`` per
    positive-weight GPU it hosts, so the inner splits retain enough
    tasks to honour the per-GPU floor.  Degenerate weights degrade the
    same way the flat splitter does, level by level.
    """
    ngpus = len(weights)
    if ngpus < 1:
        raise PartitionError("need at least one GPU")
    if not node_ranges or node_ranges[0][0] != 0 \
            or node_ranges[-1][1] != ngpus \
            or any(node_ranges[i][1] != node_ranges[i + 1][0]
                   for i in range(len(node_ranges) - 1)) \
            or any(hi <= lo for lo, hi in node_ranges):
        raise PartitionError(
            f"node_ranges {node_ranges} is not a contiguous non-empty "
            f"cover of [0, {ngpus})")
    # Clamp exactly like the flat splitter so node aggregates see the
    # same sanitized weights their members will.
    w = [0.0 if x != x else max(0.0, float(x)) for x in weights]
    node_weights = [sum(w[lo:hi]) for lo, hi in node_ranges]
    node_min = [
        min_chunk * sum(1 for g in range(lo, hi) if w[g] > 0.0)
        for lo, hi in node_ranges
    ]
    node_tasks = split_tasks_weighted(lower, upper, node_weights,
                                      min_chunk=max(node_min, default=0))
    out: list[tuple[int, int]] = []
    for (glo, ghi), (tlo, thi) in zip(node_ranges, node_tasks):
        out.extend(split_tasks_weighted(tlo, thi, w[glo:ghi],
                                        min_chunk=min_chunk))
    if out[0][0] != lower or out[-1][1] != upper \
            or any(out[i][1] != out[i + 1][0] for i in range(len(out) - 1)):
        raise PartitionError(
            f"hierarchical split produced an invalid cover of "
            f"[{lower}, {upper}): {out}")
    return out


@dataclass(frozen=True)
class Block:
    """A loaded array block: global element range [lo, hi)."""

    lo: int
    hi: int

    @property
    def size(self) -> int:
        return max(0, self.hi - self.lo)

    def clamp(self, length: int) -> "Block":
        return Block(max(0, min(self.lo, length)), max(0, min(self.hi, length)))

    def intersect(self, other: "Block") -> "Block":
        return Block(max(self.lo, other.lo), min(self.hi, other.hi))

    def contains(self, other: "Block") -> bool:
        return other.size == 0 or (self.lo <= other.lo and other.hi <= self.hi)


def _bound_var(E: dict[str, Any], name: str) -> Any:
    if name in E:
        return E[name]
    raise PartitionError(f"unknown name {name!r} in localaccess bounds")


def _bound_elem(E: dict[str, Any], name: str, idx: int) -> Any:
    arr = E.get(name)
    if not isinstance(arr, np.ndarray):
        raise PartitionError(
            f"localaccess bounds read array {name!r} which is not "
            "host-resident")
    if not (0 <= idx < arr.shape[0]):
        raise PartitionError(
            f"localaccess bounds read {name}[{idx}] out of range")
    return arr[idx]


_LOOKUPS = {"_var": _bound_var, "_elem": _bound_elem}


def window_bounds(window: ReadWindow, loop_var: str
                  ) -> tuple[Callable[[int, dict], int],
                             Callable[[int, dict], int]]:
    """The bounds of ``window`` as compiled ``(i, E) -> int`` callables:
    ``i`` the iteration, ``E`` the names they read
    (:meth:`~repro.runtime.data_loader.DataLoader.bound_env`).

    Bounds may read *host-resident* arrays (the BFS
    ``col[bounds(row[i], row[i+1]-1)]`` case): the data loader runs on
    the host where those arrays are available, exactly as in the paper.
    Emitted once per window and kept on it; a pickled window drops them
    and emits them again at its first use.
    """
    fns = window.compiled
    if fns is None or fns[0] != loop_var:
        fns = window.compiled = (loop_var, *bound_functions(
            window.lower, window.upper, loop_var, _LOOKUPS))
    return fns[1], fns[2]


def window_free_names(window: ReadWindow) -> tuple[str, ...] | None:
    """Names the bounds of ``window`` read (the loop variable included),
    or ``None`` when a bound subscripts a host array.

    The blocks :func:`window_for_tasks` derives are a pure function of
    the task slice, the array length and the values of these names, so
    the data loader derives them once per distinct combination; a bound
    that reads array *elements* (the BFS case) depends on data the
    names do not capture and is re-evaluated on every launch.
    """
    names: list[str] = []
    for bound in (window.lower, window.upper):
        for e in C.walk_expr(bound):
            if isinstance(e, C.Index):
                return None
            if isinstance(e, C.Ident) and e.name not in names:
                names.append(e.name)
    return tuple(names)


def window_for_tasks(
    window: ReadWindow,
    tasks: tuple[int, int],
    array_length: int,
    loop_var: str,
    host_env: dict[str, Any],
) -> Block:
    """Array block a GPU with task slice ``tasks`` may read.

    The window bounds are inclusive and must be monotone non-decreasing
    in the loop variable (validated at the slice endpoints): the block
    is then ``[lower(t0), upper(t1-1) + 1)`` clamped to the array.
    """
    t0, t1 = tasks
    if t1 <= t0:
        return Block(0, 0)
    lower, upper = window_bounds(window, loop_var)
    lo_first = lower(t0, host_env)
    lo_last = lower(t1 - 1, host_env)
    up_first = upper(t0, host_env)
    up_last = upper(t1 - 1, host_env)
    if lo_last < lo_first or up_last < up_first:
        raise PartitionError(
            "localaccess window bounds must be monotone non-decreasing in "
            "the loop variable")
    return Block(lo_first, up_last + 1).clamp(array_length)


def primary_blocks(windows: list[Block], length: int) -> list[Block]:
    """Disjoint ownership blocks derived from per-GPU (halo'd) windows.

    Owner of element x = the GPU whose window midpoint region covers it;
    computed by splitting at the midpoints of consecutive windows'
    overlap.  With zero halo this returns the windows themselves.
    Elements outside every window are assigned to the nearest block so
    that ownership always covers ``[0, length)``.
    """
    n = len(windows)
    if n == 0:
        return []
    cuts = [0]
    for g in range(1, n):
        left = windows[g - 1]
        right = windows[g]
        if right.size == 0:
            cuts.append(min(max(left.hi, cuts[-1]), length))
            continue
        if left.size == 0:
            cuts.append(right.lo)
            continue
        mid = (min(left.hi, length) + max(right.lo, 0) + 1) // 2
        cuts.append(max(cuts[-1], min(mid, length)))
    cuts.append(length)
    out = []
    for g in range(n):
        lo = min(cuts[g], length)
        hi = min(max(cuts[g + 1], lo), length)
        out.append(Block(lo, hi))
    return out


def owner_of(indices: np.ndarray, blocks: list[Block]) -> np.ndarray:
    """Vectorized ownership lookup: GPU index per global element index."""
    bounds = np.array([b.lo for b in blocks[1:]], dtype=np.int64)
    return np.searchsorted(bounds, indices, side="right")
