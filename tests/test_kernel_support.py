"""Property-based tests on the generated-code helper primitives, and on
the retired mask-lowering helpers kept as oracles
(``tests/kernel_support_oracle.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.translator import kernel_support as ks
from tests import kernel_support_oracle as oracle


class TestFlatRanges:
    def test_simple(self):
        lo = np.array([0, 5, 2])
        cnt = np.array([2, 0, 3])
        np.testing.assert_array_equal(ks.flat_ranges(lo, cnt),
                                      [0, 1, 2, 3, 4])

    def test_empty(self):
        out = ks.flat_ranges(np.array([3]), np.array([0]))
        assert out.size == 0

    def test_negative_counts_clamped(self):
        out = ks.flat_ranges(np.array([0, 1]), np.array([-3, 2]))
        np.testing.assert_array_equal(out, [1, 2])

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 6)),
                    min_size=0, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_matches_python_ranges(self, pairs):
        lo = np.array([p[0] for p in pairs], dtype=np.int64)
        cnt = np.array([p[1] for p in pairs], dtype=np.int64)
        expect = [v for l, c in pairs for v in range(l, l + c)]
        np.testing.assert_array_equal(ks.flat_ranges(lo, cnt), expect)


class TestSelectionHelpers:
    """``msel`` / ``bcv`` / ``merge`` are the oracle's; ``ld`` is live."""

    def test_msel_none_passthrough(self):
        v = np.arange(4)
        assert oracle.msel(v, None) is v
        assert oracle.msel(3.5, None) == 3.5

    def test_msel_scalar_passthrough_under_mask(self):
        assert oracle.msel(3.5, np.array([True, False])) == 3.5

    def test_msel_vector(self):
        v = np.arange(4)
        np.testing.assert_array_equal(
            oracle.msel(v, np.array([True, False, True, False])), [0, 2])

    def test_bcv_scalar(self):
        out = oracle.bcv(2.0, 4, np.float32)
        assert out.shape == (4,) and out.dtype == np.float32

    def test_bcv_vector_passthrough(self):
        v = np.arange(4, dtype=np.float32)
        assert oracle.bcv(v, 4, None) is v

    def test_bcv_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            oracle.bcv(np.arange(3), 4, None)

    def test_ld_clips(self):
        arr = np.arange(4.0)
        out = ks.ld(arr, np.array([-5, 0, 3, 99]))
        np.testing.assert_array_equal(out, [0, 0, 3, 3])
        assert ks.ld(arr, 99) == 3.0

    def test_merge_none_mask(self):
        old = np.zeros(3)
        out = oracle.merge(old, np.ones(3), None)
        np.testing.assert_array_equal(out, 1)

    def test_merge_masked(self):
        out = oracle.merge(np.zeros(3), np.ones(3),
                           np.array([True, False, True]))
        np.testing.assert_array_equal(out, [1, 0, 1])

    def test_merge_scalar_new_value(self):
        out = oracle.merge(np.zeros(3), 5.0, None)
        np.testing.assert_array_equal(out, [5, 5, 5])

    def test_retired_helpers_left_kernel_support(self):
        for name in ("msel", "bcv", "merge", "lanes_of"):
            assert not hasattr(ks, name), name


class TestStore:
    def test_plain_assign(self):
        a = np.zeros(4)
        ks.store(a, np.array([1, 3]), np.array([10.0, 30.0]))
        np.testing.assert_array_equal(a, [0, 10, 0, 30])

    def test_compound_accumulates_duplicates(self):
        a = np.zeros(3)
        ks.store(a, np.array([1, 1, 1]), np.array([1.0, 2.0, 3.0]), "+")
        assert a[1] == 6.0

    def test_max_store(self):
        a = np.zeros(2)
        ks.store(a, np.array([0, 0]), np.array([3.0, 1.0]), "max")
        assert a[0] == 3.0

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            ks.store(np.zeros(2), np.array([0]), np.array([1.0]), "?")

    @pytest.mark.parametrize("idx,bad", [([1, -1], -1), ([3, 0], 3),
                                         ([-2, 9], -2)])
    @pytest.mark.parametrize("op", ["", "+", "max"])
    def test_index_outside_the_buffer_raises_before_any_write(self, idx,
                                                              bad, op):
        """A negative index would write from the buffer's end: it is
        refused, with the index and the buffer length, before the
        in-range lanes are written."""
        a = np.zeros(3)
        with pytest.raises(IndexError,
                           match=f"store index {bad} outside a buffer of 3"):
            ks.store(a, np.array(idx), np.array([7.0, 8.0]), op)
        assert not a.any()

    def test_empty_index_writes_nothing(self):
        a = np.zeros(2)
        ks.store(a, np.array([], dtype=np.int64), 1.0, "+")
        assert not a.any()


class TestRedFold:
    def test_sum_vector(self):
        acc = ks.red_fold("+", 0.0, np.arange(5.0), None, 5)
        assert acc == 10.0

    def test_sum_scalar_times_lanes(self):
        acc = ks.red_fold("+", 0.0, 2.0, None, 6)
        assert acc == 12.0

    def test_sum_scalar_under_mask(self):
        mask = np.array([True, False, True])
        assert ks.red_fold("+", 0.0, 1.0, mask, 3) == 2.0

    def test_selects_its_own_lanes(self):
        """``red_fold`` counts and selects the lanes of its mask itself,
        as ``msel`` / ``lanes_of`` did, a broadcast mask included."""
        v = np.array([1.0, 2.0, 4.0])
        for mask in (np.array([True, False, True]),
                     np.broadcast_to(True, (3,))):
            assert ks.red_fold("+", 0.5, v, mask, 3) == \
                0.5 + oracle.msel(v, mask).sum()
        assert ks.red_fold("*", 1.0, 3.0, np.broadcast_to(True, (3,)),
                           3) == 27.0

    def test_empty_mask_identity(self):
        mask = np.zeros(3, dtype=bool)
        assert ks.red_fold("+", 7.0, np.arange(3.0), mask, 3) == 7.0

    def test_max_min(self):
        assert ks.red_fold("max", ks.red_identity("max"),
                           np.array([3.0, 9.0]), None, 2) == 9.0
        assert ks.red_fold("min", ks.red_identity("min"),
                           np.array([3.0, 9.0]), None, 2) == 3.0

    def test_logical_or_and(self):
        assert ks.red_fold("||", False, np.array([0, 1, 0]), None, 3) is True
        assert ks.red_fold("&&", True, np.array([1, 0]), None, 2) is False

    def test_product(self):
        assert ks.red_fold("*", 1.0, np.array([2.0, 3.0]), None, 2) == 6.0

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3, width=32),
                    min_size=0, max_size=30),
           st.sampled_from(["+", "max", "min"]))
    @settings(max_examples=80, deadline=None)
    def test_fold_matches_sequential(self, vals, op):
        arr = np.array(vals, dtype=np.float64)
        acc = ks.red_fold(op, ks.red_identity(op), arr, None, len(vals)) \
            if len(vals) else ks.red_identity(op)
        seq = ks.red_identity(op)
        for v in vals:
            seq = {"+": lambda a, b: a + b,
                   "max": max, "min": min}[op](seq, v)
        assert acc == pytest.approx(seq, rel=1e-9) if vals else True

    def test_cast_to(self):
        assert ks.cast_to(3.7, np.int32) == 3
        out = ks.cast_to(np.array([1.9, 2.1]), np.int32)
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, [1, 2])
