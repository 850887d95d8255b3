"""Two-level dirty bits and write-miss buffer tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.runtime.dirty import TwoLevelDirty
from repro.runtime.writemiss import (
    MissBufferOverflow,
    RECORD_BYTES,
    WriteMissBuffer,
)
from repro.vcuda.memory import DeviceMemory, PURPOSE_SYSTEM
from tests.dirty_oracle import ReferenceTwoLevelDirty


class TestTwoLevelDirty:
    def make(self, n=1000, itemsize=4, chunk_bytes=64):
        return TwoLevelDirty("a", n, itemsize, chunk_bytes=chunk_bytes)

    def test_initially_clean(self):
        d = self.make()
        assert not d.any_dirty
        assert d.dirty_chunks().size == 0
        assert d.transfer_bytes() == 0

    def test_mark_sets_both_levels(self):
        d = self.make()  # 16 elems/chunk
        d.mark(np.array([5, 17]))
        assert d.element_bits[5] == 1 and d.element_bits[17] == 1
        np.testing.assert_array_equal(d.dirty_chunks(), [0, 1])

    def test_dirty_elements_scan(self):
        d = self.make()
        idx = np.array([3, 100, 999])
        d.mark(idx)
        np.testing.assert_array_equal(d.dirty_elements(), [3, 100, 999])

    def test_transfer_at_chunk_granularity(self):
        d = self.make(n=1000, itemsize=4, chunk_bytes=64)
        d.mark(np.array([0]))  # one dirty element -> one whole chunk
        assert d.transfer_bytes() == 64

    def test_last_partial_chunk(self):
        d = self.make(n=20, itemsize=4, chunk_bytes=64)  # chunk=16 elems
        d.mark(np.array([19]))
        assert d.transfer_bytes() == 4 * (20 - 16)

    def test_clear(self):
        d = self.make()
        d.mark(np.array([1, 2, 3]))
        d.clear()
        assert not d.any_dirty
        assert d.dirty_elements().size == 0

    def test_out_of_range_mark_rejected(self):
        d = self.make(n=10)
        with pytest.raises(IndexError):
            d.mark(np.array([10]))
        with pytest.raises(IndexError):
            d.mark(np.array([-1]))

    def test_scalar_mark(self):
        d = self.make()
        d.mark(np.int64(7))
        assert d.element_bits[7] == 1

    def test_device_memory_accounted_as_system(self):
        mem = DeviceMemory(0, 1 << 20)
        d = TwoLevelDirty("a", 1000, 4, memory=mem, chunk_bytes=64)
        assert mem.live_bytes_of(PURPOSE_SYSTEM) > 0
        d.release(mem)
        assert mem.live_bytes_of(PURPOSE_SYSTEM) == 0

    def test_chunk_smaller_than_item_rejected(self):
        with pytest.raises(ValueError):
            TwoLevelDirty("a", 10, 8, chunk_bytes=4)

    def test_zero_length_array(self):
        # An empty array block must get genuinely empty bitmaps: no
        # phantom chunk 0, nothing to scan, nothing to transfer.
        d = self.make(n=0)
        assert d.n_chunks == 0
        assert d.element_bits.size == 0
        assert not d.any_dirty
        assert d.dirty_chunks().size == 0
        assert d.dirty_elements().size == 0
        assert d.transfer_bytes() == 0
        d.mark(np.empty(0, dtype=np.int64))  # legal no-op
        d.clear()
        assert not d.any_dirty
        with pytest.raises(IndexError):
            d.mark(np.array([0]))  # every index is out of range

    def test_zero_length_device_accounting(self):
        mem = DeviceMemory(0, 1 << 20)
        d = TwoLevelDirty("a", 0, 4, memory=mem, chunk_bytes=64)
        assert d.n_chunks == 0
        d.release(mem)
        assert mem.live_bytes_of(PURPOSE_SYSTEM) == 0

    def test_single_element_array(self):
        d = self.make(n=1)
        assert d.n_chunks == 1
        d.mark(np.array([0]))
        np.testing.assert_array_equal(d.dirty_elements(), [0])
        assert d.transfer_bytes() == 4  # one partial chunk of one item

    @given(st.lists(st.integers(0, 499), min_size=1, max_size=60),
           st.sampled_from([16, 64, 256, 1024]))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, indices, chunk_bytes):
        d = TwoLevelDirty("a", 500, 4, chunk_bytes=chunk_bytes)
        d.mark(np.array(indices))
        elems = d.dirty_elements()
        # Exactly the marked set, sorted unique.
        np.testing.assert_array_equal(elems, np.unique(indices))
        # Every dirty element's chunk has its summary bit set, and
        # transfer bytes cover at least the dirty elements.
        epc = d.elems_per_chunk
        assert set(np.unique(np.array(indices) // epc)) == \
            set(d.dirty_chunks().tolist())
        assert d.transfer_bytes() >= elems.size * 4


def _dirty_ops(n):
    """Strategy: one (op, payload) step applicable to an n-element array."""
    ops = [st.tuples(st.just("clear"), st.just(None))]
    # Spans with lo <= hi <= n (empty spans included on purpose).
    ops.append(st.tuples(
        st.just("span"),
        st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted)))
    if n > 0:
        ops.append(st.tuples(
            st.just("mark"),
            st.lists(st.integers(0, n - 1), min_size=0, max_size=40)))
    return st.one_of(ops)


@st.composite
def dirty_scenarios(draw):
    n = draw(st.sampled_from([0, 1, 2, 15, 16, 17, 63, 64, 65, 500, 1000]))
    chunk_bytes = draw(st.sampled_from([4, 16, 64, 256, 1024]))
    steps = draw(st.lists(_dirty_ops(n), min_size=0, max_size=10))
    return n, chunk_bytes, steps


class TestDifferentialDirty:
    """Packed-word engine vs the byte-per-flag reference, differentially.

    Every observable of the packed ``TwoLevelDirty`` (scans, summaries,
    transfer sizing, the unpacked bit views) must match
    ``ReferenceTwoLevelDirty`` after any interleaving of random marks,
    span marks and clears -- including zero-length and single-element
    arrays and chunk sizes straddling the 64-bit word boundary.
    """

    @staticmethod
    def assert_same(fast, ref):
        assert fast.elems_per_chunk == ref.elems_per_chunk
        assert fast.n_chunks == ref.n_chunks
        assert fast.any_dirty == ref.any_dirty
        np.testing.assert_array_equal(fast.dirty_chunks(),
                                      ref.dirty_chunks())
        np.testing.assert_array_equal(fast.dirty_elements(),
                                      ref.dirty_elements())
        assert fast.dirty_chunk_runs() == ref.dirty_chunk_runs()
        assert fast.transfer_bytes() == ref.transfer_bytes()
        np.testing.assert_array_equal(np.asarray(fast.element_bits) != 0,
                                      np.asarray(ref.element_bits) != 0)
        np.testing.assert_array_equal(np.asarray(fast.chunk_bits) != 0,
                                      np.asarray(ref.chunk_bits) != 0)
        # When the packed engine claims a dense dirty slice it must
        # describe exactly the dirty element set.
        sl = fast.dirty_slice()
        if sl is not None:
            lo, hi = sl
            np.testing.assert_array_equal(fast.dirty_elements(),
                                          np.arange(lo, hi))

    @given(dirty_scenarios())
    @settings(max_examples=120, deadline=None)
    def test_differential(self, scenario):
        n, chunk_bytes, steps = scenario
        fast = TwoLevelDirty("a", n, 4, chunk_bytes=chunk_bytes)
        ref = ReferenceTwoLevelDirty("a", n, 4, chunk_bytes=chunk_bytes)
        self.assert_same(fast, ref)
        for op, payload in steps:
            if op == "clear":
                fast.clear()
                ref.clear()
            elif op == "span":
                lo, hi = payload
                fast.mark_span(lo, hi)
                ref.mark_span(lo, hi)
            else:
                idx = np.array(payload, dtype=np.int64)
                fast.mark(idx)
                ref.mark(idx)
            self.assert_same(fast, ref)
        assert fast.stats.marks == ref.stats.marks

    @given(st.sampled_from([0, 1, 10]),
           st.sampled_from([(-1, "neg"), (0, "end"), (5, "past")]))
    @settings(max_examples=30, deadline=None)
    def test_differential_out_of_range(self, n, probe):
        off, _ = probe
        bad = n + off if off >= 0 else off
        fast = TwoLevelDirty("a", n, 4, chunk_bytes=64)
        ref = ReferenceTwoLevelDirty("a", n, 4, chunk_bytes=64)
        with pytest.raises(IndexError):
            fast.mark(np.array([bad]))
        with pytest.raises(IndexError):
            ref.mark(np.array([bad]))
        with pytest.raises(IndexError):
            fast.mark_span(bad, bad + 1)
        with pytest.raises(IndexError):
            ref.mark_span(bad, bad + 1)


class TestWriteMissBuffer:
    def test_record_and_drain(self):
        b = WriteMissBuffer("a", capacity=16)
        b.record(np.array([1, 2]), np.array([10.0, 20.0]), "")
        b.record(np.array([3]), np.array([30.0]), "+")
        assert b.count == 3
        drained = b.drain()
        assert len(drained) == 2
        assert drained[1][2] == "+"
        assert b.count == 0

    def test_scalar_value_broadcast(self):
        b = WriteMissBuffer("a", capacity=16)
        b.record(np.array([1, 2, 3]), np.float32(5.0), "")
        addrs, vals, _ = b.drain()[0]
        assert vals.shape == (3,)
        assert (vals == 5.0).all()

    def test_growth(self):
        b = WriteMissBuffer("a", capacity=2)
        b.record(np.arange(5), np.arange(5.0), "")
        assert b.capacity >= 5
        assert b.high_water == 5

    def test_overflow_without_growth(self):
        b = WriteMissBuffer("a", capacity=2, allow_growth=False)
        with pytest.raises(MissBufferOverflow):
            b.record(np.arange(5), np.arange(5.0), "")

    def test_empty_record_is_noop(self):
        b = WriteMissBuffer("a", capacity=4)
        b.record(np.empty(0, np.int64), np.empty(0), "")
        assert b.count == 0

    def test_record_bytes(self):
        b = WriteMissBuffer("a", capacity=16)
        b.record(np.arange(3), np.arange(3.0), "")
        assert b.record_bytes == 3 * RECORD_BYTES

    def test_device_memory_accounting(self):
        mem = DeviceMemory(0, 1 << 20)
        b = WriteMissBuffer("a", capacity=4, memory=mem)
        assert mem.live_bytes_of(PURPOSE_SYSTEM) == 4 * RECORD_BYTES
        b.record(np.arange(10), np.arange(10.0), "")  # forces growth
        assert mem.live_bytes_of(PURPOSE_SYSTEM) > 4 * RECORD_BYTES
        b.release()
        assert mem.live_bytes_of(PURPOSE_SYSTEM) == 0

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            WriteMissBuffer("a", capacity=0)

    def test_reset_releases_growth_steps(self):
        mem = DeviceMemory(0, 1 << 20)
        b = WriteMissBuffer("a", capacity=4, memory=mem)
        base_bytes = mem.live_bytes_of(PURPOSE_SYSTEM)
        b.record(np.arange(10), np.arange(10.0), "")  # forces growth
        assert mem.live_bytes_of(PURPOSE_SYSTEM) > base_bytes
        b.drain()
        b.reset()
        # Live system bytes return to the up-front allocation; the
        # peak record count survives for Fig. 9.
        assert mem.live_bytes_of(PURPOSE_SYSTEM) == base_bytes
        assert b.capacity == b.base_capacity == 4
        assert b.high_water == 10

    def test_repeated_overflow_does_not_ratchet(self):
        mem = DeviceMemory(0, 1 << 20)
        b = WriteMissBuffer("a", capacity=4, memory=mem)
        base_bytes = mem.live_bytes_of(PURPOSE_SYSTEM)
        for _ in range(5):
            b.record(np.arange(9), np.arange(9.0), "")
            b.drain()
            b.reset()
        assert mem.live_bytes_of(PURPOSE_SYSTEM) == base_bytes
        assert mem.high_water_of(PURPOSE_SYSTEM) > base_bytes
        assert b.high_water == 9

    def test_reset_discards_leftover_records(self):
        b = WriteMissBuffer("a", capacity=4)
        b.record(np.arange(2), np.arange(2.0), "")
        b.reset()
        assert b.count == 0
        assert b.drain() == []

    def test_reset_without_memory(self):
        b = WriteMissBuffer("a", capacity=2)
        b.record(np.arange(7), np.arange(7.0), "")
        b.reset()
        assert b.capacity == 2
