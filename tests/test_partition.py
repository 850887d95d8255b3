"""Task/array partitioning tests (+ hypothesis invariants)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend.parser import parse_expr
from repro.runtime.partition import (
    Block,
    PartitionError,
    owner_of,
    primary_blocks,
    split_tasks,
    split_tasks_weighted,
    window_bounds,
    window_for_tasks,
)
from repro.translator.array_config import ReadWindow


class TestSplitTasks:
    def test_even_split(self):
        assert split_tasks(0, 12, 3) == [(0, 4), (4, 8), (8, 12)]

    def test_remainder_goes_first(self):
        assert split_tasks(0, 10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_offset_range(self):
        assert split_tasks(5, 11, 2) == [(5, 8), (8, 11)]

    def test_more_gpus_than_tasks(self):
        slices = split_tasks(0, 2, 4)
        assert slices == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_empty_range(self):
        assert split_tasks(3, 3, 2) == [(3, 3), (3, 3)]

    def test_zero_gpus_rejected(self):
        with pytest.raises(PartitionError):
            split_tasks(0, 10, 0)

    @given(st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_partition_invariants(self, lo, size, g):
        hi = lo + size
        slices = split_tasks(lo, hi, g)
        # Cover exactly [lo, hi) with contiguous, ordered, disjoint slices.
        assert len(slices) == g
        assert slices[0][0] == lo and slices[-1][1] == hi
        for (a0, a1), (b0, b1) in zip(slices, slices[1:]):
            assert a1 == b0
            assert a0 <= a1
        sizes = [b - a for a, b in slices]
        assert max(sizes) - min(sizes) <= 1  # equal block split


class TestSplitTasksWeighted:
    def test_equal_weights_match_equal_split(self):
        for total, g in [(12, 3), (10, 3), (7, 4), (0, 2), (2, 4)]:
            assert split_tasks_weighted(0, total, [1.0] * g) == \
                split_tasks(0, total, g)

    def test_proportional_sizes(self):
        slices = split_tasks_weighted(0, 100, [3.0, 1.0])
        assert slices == [(0, 75), (75, 100)]

    def test_remainder_follows_fractional_parts(self):
        # raw = [3.33.., 3.33.., 3.33..] over 10 tasks: the two extra
        # tasks go to the lowest-indexed GPUs (deterministic ties).
        assert split_tasks_weighted(0, 10, [1.0, 1.0, 1.0]) == \
            [(0, 4), (4, 7), (7, 10)]
        # raw = [1.8, 7.2]: GPU 0 has the larger fractional part.
        assert split_tasks_weighted(0, 9, [1.0, 4.0]) == [(0, 2), (2, 9)]

    def test_zero_weight_gets_empty_slice(self):
        slices = split_tasks_weighted(0, 10, [1.0, 0.0, 1.0], min_chunk=1)
        assert slices == [(0, 5), (5, 5), (5, 10)]

    def test_min_chunk_raises_small_active_slices(self):
        slices = split_tasks_weighted(0, 100, [99.0, 1.0], min_chunk=8)
        assert slices == [(0, 92), (92, 100)]

    def test_min_chunk_infeasible_falls_back_to_equal(self):
        assert split_tasks_weighted(0, 3, [1.0, 1.0], min_chunk=2) == \
            split_tasks(0, 3, 2)

    def test_degenerate_weights_fall_back_to_equal(self):
        for bad in ([0.0, 0.0], [-1.0, -2.0], [float("inf"), 1.0]):
            assert split_tasks_weighted(0, 10, bad) == split_tasks(0, 10, 2)
        # NaN clamps to zero weight: the finite peer takes everything.
        assert split_tasks_weighted(0, 10, [float("nan"), 1.0]) == \
            [(0, 0), (0, 10)]

    def test_zero_gpus_rejected(self):
        with pytest.raises(PartitionError):
            split_tasks_weighted(0, 10, [])

    def test_fewer_tasks_than_gpus_still_covers(self):
        # total < ngpus with skewed weights: every task lands exactly
        # once, trailing slices may be empty but never negative.
        slices = split_tasks_weighted(0, 2, [1.0, 2.0, 3.0, 4.0])
        assert slices[0][0] == 0 and slices[-1][1] == 2
        for (a0, a1), (b0, b1) in zip(slices, slices[1:]):
            assert a1 == b0
            assert a0 <= a1
        assert sum(b - a for a, b in slices) == 2

    def test_single_task_all_weight_on_one_gpu(self):
        assert split_tasks_weighted(0, 1, [0.0, 5.0]) == [(0, 0), (0, 1)]

    def test_all_zero_weights_fewer_tasks_than_gpus(self):
        # Degenerate weights AND total < ngpus at once: falls back to
        # the equal split, which handles short ranges.
        assert split_tasks_weighted(0, 2, [0.0, 0.0, 0.0]) == \
            split_tasks(0, 2, 3)

    @given(st.integers(0, 1000), st.integers(0, 500), st.integers(1, 8),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_weighted_invariants(self, lo, size, g, data):
        hi = lo + size
        weights = data.draw(st.lists(
            st.floats(0.0, 100.0, allow_nan=False), min_size=g, max_size=g))
        min_chunk = data.draw(st.integers(0, 4))
        slices = split_tasks_weighted(lo, hi, weights, min_chunk)
        # Same tiling invariants as the equal split: exact contiguous
        # cover of [lo, hi), no negative slices, regardless of weights.
        assert len(slices) == g
        assert slices[0][0] == lo and slices[-1][1] == hi
        for (a0, a1), (b0, b1) in zip(slices, slices[1:]):
            assert a1 == b0
        for a0, a1 in slices:
            assert a0 <= a1

    @given(st.integers(1, 500), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_weighted_tracks_weights(self, size, g):
        # One GPU weighted 3x its peers gets the largest slice.
        weights = [1.0] * g
        weights[0] = 3.0
        slices = split_tasks_weighted(0, size, weights)
        sizes = [b - a for a, b in slices]
        assert sizes[0] == max(sizes)


class TestBlocks:
    def test_clamp(self):
        assert Block(-5, 20).clamp(10) == Block(0, 10)

    def test_intersect(self):
        assert Block(0, 10).intersect(Block(5, 15)) == Block(5, 10)
        assert Block(0, 3).intersect(Block(5, 8)).size == 0

    def test_contains(self):
        assert Block(0, 10).contains(Block(2, 5))
        assert Block(0, 10).contains(Block(5, 5))  # empty always contained
        assert not Block(0, 10).contains(Block(5, 12))


class TestWindowEvaluation:
    def make_eval(self, scalars=None, arrays=None):
        """The host environment the compiled bounds read."""
        return {**(scalars or {}), **(arrays or {})}

    def window(self, lo_src, hi_src):
        return ReadWindow(lower=parse_expr(lo_src), upper=parse_expr(hi_src))

    def test_stride_window(self):
        # stride(3): [3i, 3i+2]
        w = self.window("3*i", "3*(i+1) - 1")
        ev = self.make_eval()
        blk = window_for_tasks(w, (2, 5), 100, "i", ev)
        assert blk == Block(6, 15)

    def test_halo_window(self):
        w = self.window("i - 1", "i + 1")
        blk = window_for_tasks(w, (4, 8), 100, "i", self.make_eval())
        assert blk == Block(3, 9)

    def test_clamped_to_array(self):
        w = self.window("i - 1", "i + 1")
        blk = window_for_tasks(w, (0, 10), 10, "i", self.make_eval())
        assert blk == Block(0, 10)

    def test_empty_tasks_empty_window(self):
        w = self.window("i", "i")
        assert window_for_tasks(w, (5, 5), 10, "i", self.make_eval()).size == 0

    def test_host_scalar_in_bounds(self):
        w = self.window("i * m", "i * m + m - 1")
        ev = self.make_eval(scalars={"m": 4})
        assert window_for_tasks(w, (0, 3), 100, "i", ev) == Block(0, 12)

    def test_indirect_bounds_via_host_array(self):
        # The BFS col window: bounds(row[i], row[i+1]-1).
        row = np.array([0, 2, 7, 9], dtype=np.int64)
        w = self.window("row[i]", "row[i+1] - 1")
        ev = self.make_eval(arrays={"row": row})
        assert window_for_tasks(w, (0, 2), 100, "i", ev) == Block(0, 7)
        assert window_for_tasks(w, (2, 3), 100, "i", ev) == Block(7, 9)

    def test_non_monotone_rejected(self):
        w = self.window("10 - i", "20 - i")
        with pytest.raises(PartitionError):
            window_for_tasks(w, (0, 5), 100, "i", self.make_eval())

    def test_unknown_name_rejected(self):
        w = self.window("q * i", "q * i")
        with pytest.raises(PartitionError, match="unknown name 'q'"):
            window_for_tasks(w, (0, 2), 10, "i", self.make_eval())

    def test_missing_host_array_rejected(self):
        w = self.window("row[i]", "row[i]")
        with pytest.raises(PartitionError):
            window_for_tasks(w, (0, 2), 10, "i", self.make_eval())

    def test_out_of_range_host_read_rejected(self):
        w = self.window("row[i]", "row[i + 1] - 1")
        ev = self.make_eval(arrays={"row": np.array([0, 2, 7], np.int64)})
        with pytest.raises(PartitionError, match=r"row\[3\] out of range"):
            window_for_tasks(w, (0, 3), 10, "i", ev)

    def test_bounds_are_compiled_once_per_window(self):
        w = self.window("2*i - 1", "2*i + 1")
        lower, upper = window_bounds(w, "i")
        assert window_bounds(w, "i") == (lower, upper)
        assert (lower(5, {}), upper(5, {})) == (9, 11)
        # Integer division truncates toward zero, as in C.
        lower, _ = window_bounds(self.window("(i - 7) / 2", "i"), "i")
        assert lower(0, {}) == -3


class TestOwnership:
    def test_disjoint_windows_are_their_own_primaries(self):
        wins = [Block(0, 5), Block(5, 10)]
        assert primary_blocks(wins, 10) == [Block(0, 5), Block(5, 10)]

    def test_halo_overlap_split_at_midpoint(self):
        wins = [Block(0, 6), Block(4, 10)]
        prims = primary_blocks(wins, 10)
        assert prims[0].hi == prims[1].lo
        assert 4 <= prims[0].hi <= 6

    def test_ownership_covers_whole_array(self):
        wins = [Block(0, 4), Block(3, 8), Block(7, 12)]
        prims = primary_blocks(wins, 12)
        assert prims[0].lo == 0 and prims[-1].hi == 12
        for a, b in zip(prims, prims[1:]):
            assert a.hi == b.lo

    def test_empty_window_gets_empty_primary(self):
        wins = [Block(0, 10), Block(0, 0)]
        prims = primary_blocks(wins, 10)
        assert prims[1].size == 0
        assert prims[0] == Block(0, 10)

    def test_owner_of_vectorized(self):
        prims = [Block(0, 4), Block(4, 8), Block(8, 12)]
        idx = np.array([0, 3, 4, 7, 8, 11])
        np.testing.assert_array_equal(owner_of(idx, prims),
                                      [0, 0, 1, 1, 2, 2])

    @given(st.lists(st.integers(0, 30), min_size=2, max_size=5),
           st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_primary_blocks_always_tile(self, sizes, halo):
        # Build overlapping windows from consecutive spans + halo.
        length = sum(sizes)
        wins = []
        pos = 0
        for s in sizes:
            wins.append(Block(max(0, pos - halo),
                              min(length, pos + s + halo)))
            pos += s
        prims = primary_blocks(wins, length)
        assert prims[0].lo == 0
        assert prims[-1].hi == length
        for a, b in zip(prims, prims[1:]):
            assert a.hi == b.lo
