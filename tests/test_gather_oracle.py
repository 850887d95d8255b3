"""The guarded gathers against the clip-gather they replaced, and the
strided span stores against the scatter they replace.

``tests/kernel_support_oracle.py`` holds ``ks.ld`` as it was until
``701b56d`` (``arr[np.clip(idx, 0, size - 1)]``).  ``ks.ld``, the
``np.take(..., mode="clip", out=slot)`` the plain-axis lowering writes
inline and ``ks.ld_span(arr, lo, n, step)`` must return its values for
every index a predicated lane can hold: negative, past the end, on an
empty array, as ``int32`` or ``int64``, over an empty lane span, with a
stride that is not positive (no slice: the fallback).

A slice silently truncates where a scatter would fail, so the store side
is an injection suite: a strided destination that leaves the buffer at
its first or its last element raises ``IndexError`` from ``ks.span_out``
and from a generated kernel run on a hand-built ``KernelContext``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.runtime.kernelctx import KernelContext
from repro.translator import kernel_support as ks
from tests import kernel_support_oracle as oracle

SIZES = st.integers(0, 24)
DTYPES = st.sampled_from([np.float32, np.float64, np.int32])
STEPS = st.sampled_from([1, 2, 3, 7, 0, -1, -3])


def array_of(size, dtype):
    return (np.arange(size) * 3 + 1).astype(dtype)


@st.composite
def index_vectors(draw):
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    far = 2 ** 31 - 1 if dtype is np.int32 else 2 ** 40
    values = draw(st.lists(
        st.one_of(st.integers(-30, 30), st.integers(-far, far)),
        min_size=0, max_size=12))
    return np.array(values, dtype=dtype)


def same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@given(size=SIZES, dtype=DTYPES, idx=index_vectors())
@settings(max_examples=200, deadline=None)
def test_ld_and_take_match_the_clip_gather(size, dtype, idx):
    arr = array_of(size, dtype)
    slot = np.empty(idx.shape[0], dtype=dtype)
    if size == 0 and idx.size:
        # Nothing to clamp to: all three refuse.
        for gather in (lambda: oracle.ld(arr, idx), lambda: ks.ld(arr, idx),
                       lambda: np.take(arr, idx, mode="clip", out=slot)):
            with pytest.raises(IndexError):
                gather()
        return
    expect = oracle.ld(arr, idx)
    same(ks.ld(arr, idx), expect)
    assert np.take(arr, idx, mode="clip", out=slot) is slot
    same(slot, expect)


@given(size=SIZES, idx=st.integers(-2 ** 40, 2 ** 40))
def test_lane_invariant_ld_matches(size, idx):
    arr = array_of(max(size, 1), np.float32)
    assert ks.ld(arr, idx) == oracle.ld(arr, idx)


@given(size=SIZES, dtype=DTYPES, lo=st.integers(-12, 36), n=st.integers(-1, 12),
       step=STEPS, copy=st.booleans())
@settings(max_examples=400, deadline=None)
def test_ld_span_matches_the_clip_gather(size, dtype, lo, n, step, copy):
    arr = array_of(size, dtype)
    idx = lo + step * np.arange(max(n, 0), dtype=np.int64)
    if size == 0 and n > 0:
        with pytest.raises(IndexError):
            oracle.ld(arr, idx)
        with pytest.raises(IndexError):
            ks.ld_span(arr, lo, n, step, copy)
        return
    got = ks.ld_span(arr, lo, n, step, copy)
    same(got, oracle.ld(arr, idx))
    inside = n > 0 and lo >= 0 and lo + (n - 1) * step < size
    # A view exactly where a slice walks the lanes: inside the buffer,
    # with a positive stride.
    assert np.shares_memory(got, arr) == (
        inside and step >= 1 and not copy)


@given(size=st.integers(1, 24), lo=st.integers(-4, 30), n=st.integers(0, 10),
       step=STEPS, op=st.sampled_from(["", "+", "max"]))
@settings(max_examples=300, deadline=None)
def test_store_span_matches_the_scatter(size, lo, n, step, op):
    values = np.arange(n, dtype=np.float32) - 2.5
    idx = lo + step * np.arange(n, dtype=np.int64)
    expect = array_of(size, np.float32)
    inside = n == 0 or (idx.min() >= 0 and idx.max() < size)
    if inside and (step >= 1 or op == ""):
        # (Compound scatters over a repeated element accumulate; only
        # the span form with unique elements is compared for them.)
        ks.store(expect, idx, values, op)
        got = array_of(size, np.float32)
        ks.store_span(got, lo, n, values, op, step)
        same(got, expect)
    elif not inside and step >= 1:
        with pytest.raises(IndexError):
            ks.store_span(array_of(size, np.float32), lo, n, values, op, step)


class TestSpanOut:
    def test_strided_view_of_exactly_the_lanes(self):
        arr = np.zeros(10, np.float32)
        dst = ks.span_out(arr, 1, 3, 4)          # elements 1, 5, 9
        dst[...] = [1, 2, 3]
        np.testing.assert_array_equal(np.flatnonzero(arr), [1, 5, 9])
        assert ks.span_out(arr, 7, 0, 5).shape == (0,)

    @pytest.mark.parametrize("lo,n,step", [
        (-1, 2, 3),    # first element before the buffer
        (-3, 2, 3),    # ... whose last element is inside
        (1, 4, 3),     # last element (10) one past the end
        (9, 2, 7),     # first inside, last far outside
        (10, 1, 2),    # a single lane at the end
    ])
    def test_leaving_the_buffer_raises(self, lo, n, step):
        arr = np.zeros(10, np.float32)
        with pytest.raises(IndexError, match="outside a buffer of 10"):
            ks.span_out(arr, lo, n, step)
        with pytest.raises(IndexError):
            ks.store_span(arr, lo, n, 1.0, "", step)
        assert not arr.any()                     # nothing was truncated in

    def test_unit_stride_keeps_its_check(self):
        arr = np.zeros(4, np.float32)
        with pytest.raises(IndexError):
            ks.span_out(arr, 2, 3)
        assert ks.span_out(arr, 1, 3).shape == (3,)


STRIDED_STORE = """
void k(int n, int m, float *x, float *y, float *z) {
  #pragma acc localaccess y[stride(3)]
  #pragma acc parallel loop
  for (int i = 0; i < n; i++) {
    y[i * 3 + 1] = x[i];
    z[i * m + 1] = x[i];
  }
}
"""


class TestStridedStoreInjection:
    """A generated strided store on a hand-built context: the device
    buffer is what the loader would have sized, or one element short at
    either end."""

    N = 6

    def launch(self, y_len, y_base=0, m=2, engine="vector"):
        prog = repro.compile(STRIDED_STORE)
        x = np.arange(1, self.N + 1, dtype=np.float32)
        ctx = KernelContext(device_index=0, i0=0, i1=self.N,
                            scalars={"n": self.N, "m": m}, permissive=True)
        ctx.arrays = {"x": x, "y": np.zeros(y_len, np.float32),
                      "z": np.zeros(self.N * 2 + 2, np.float32)}
        ctx.base = {"x": 0, "y": y_base, "z": 0}
        prog.kernel("k_L0").execute(ctx, engine)
        return ctx.arrays

    def test_the_stores_are_span_stores(self):
        text = repro.compile(STRIDED_STORE).kernel_source("k_L0")
        assert "ks.store_span(v_y, 3 * ctx.i0 + 1 - _b_y, _n, " in text
        # ``z`` is a replica: its marks are the elements, not their span.
        assert ", '', v_m)" in text and "ctx.mark_dirty('z', _u" in text
        assert "ks.store(" not in text and "mark_dirty_span" not in text

    def test_exact_buffer_is_written_lane_for_lane(self):
        out = self.launch(y_len=3 * self.N - 1)   # last element: 3N - 2
        np.testing.assert_array_equal(out["y"][1::3], out["x"])
        assert out["y"].sum() == out["x"].sum()
        np.testing.assert_array_equal(out["z"][1:2 * self.N:2], out["x"])

    def test_last_element_outside_raises(self):
        with pytest.raises(IndexError, match="outside a buffer"):
            self.launch(y_len=3 * self.N - 2)

    def test_first_element_outside_raises(self):
        with pytest.raises(IndexError, match="outside a buffer"):
            self.launch(y_len=3 * self.N + 2, y_base=2)

    def test_a_stride_of_zero_takes_the_scatter(self):
        """Every lane writes ``z[1]``: no slice repeats an element, the
        last lane's value stands -- as on the interpreter."""
        out = self.launch(y_len=3 * self.N, m=0)
        ref = self.launch(y_len=3 * self.N, m=0, engine="interp")
        np.testing.assert_array_equal(out["z"], ref["z"])
        assert out["z"][1] == self.N and out["z"].sum() == self.N
