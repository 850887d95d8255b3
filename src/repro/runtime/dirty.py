"""Two-level dirty-bit tracking for replicated arrays (section IV-D1).

Each GPU keeps, per written replicated array, one dirty flag per
element plus a second-level flag per fixed-size *chunk*.  The kernel
instrumentation sets both on every store; after the kernel the
communication manager transfers only the chunks whose second-level bit
is set -- with a clean single-level scheme it would have to ship the
whole array because scanning the element bits on the sender is itself
expensive, which is exactly the problem the paper's two-level design
avoids.

The paper picks 1 MB chunks experimentally; :data:`DEFAULT_CHUNK_BYTES`
matches, and the ablation benchmark sweeps it.

:class:`TwoLevelDirty` packs both bit levels into ``np.uint64`` bitsets
(64 flags per word: 8x less memory than one byte per flag, and
``any_dirty`` tests a word at a time).  Scans are vectorized --
``np.flatnonzero`` over the nonzero words plus bit arithmetic instead of
per-chunk Python loops -- and contiguous marks (the common kernel write
pattern) take an O(words) span fast path that never builds an index
array.  While every mark since the last clear has been a contiguous
span and the union of those spans is itself contiguous, the tracker also
remembers the exact dirty interval (:meth:`dirty_slice`), which lets the
communication manager propagate with slice copies instead of
gather/scatter.

The original ``uint8``-per-flag engine lives in the test tree
(``tests/dirty_oracle.py``) as the differential oracle: its observable
behavior (scan results, transfer bytes, error cases) defines the
contract the packed engine must match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..vcuda.memory import DeviceMemory, PURPOSE_SYSTEM

DEFAULT_CHUNK_BYTES = 1 << 20

#: All 64 bits of one bitset word.
_FULL_WORD = (1 << 64) - 1


@dataclass
class DirtyStats:
    """Telemetry for tests and the chunk-size ablation."""

    marks: int = 0
    elements_dirty: int = 0


def _n_words(bits: int) -> int:
    return (bits + 63) >> 6


def _unpack_bits(words: np.ndarray, count: int) -> np.ndarray:
    """Expand a packed word array to ``count`` uint8 0/1 flags."""
    if count == 0:
        return np.empty(0, dtype=np.uint8)
    return np.unpackbits(words.view(np.uint8), count=count,
                         bitorder="little")


def _set_span(words: np.ndarray, lo: int, hi: int) -> None:
    """Set bits [lo, hi) of a packed bitset; O(words touched)."""
    w0 = lo >> 6
    w1 = (hi - 1) >> 6
    first = (_FULL_WORD << (lo & 63)) & _FULL_WORD
    last = _FULL_WORD >> (63 - ((hi - 1) & 63))
    if w0 == w1:
        words[w0] |= np.uint64(first & last)
    else:
        words[w0] |= np.uint64(first)
        words[w0 + 1:w1] = np.uint64(_FULL_WORD)
        words[w1] |= np.uint64(last)


def _set_indices(words: np.ndarray, idx: np.ndarray) -> None:
    """Set bits at ``idx`` (may contain duplicates) of a packed bitset."""
    bits = np.left_shift(np.uint64(1), (idx & np.int64(63)).astype(np.uint64))
    np.bitwise_or.at(words, idx >> np.int64(6), bits)


def _nonzero_bits(words: np.ndarray) -> np.ndarray:
    """Ascending positions of the set bits of a packed bitset.

    Gathers only the nonzero words, unpacks those, and rebuilds global
    positions with shifts -- no per-word Python loop.
    """
    nz = np.flatnonzero(words)
    if nz.size == 0:
        return np.empty(0, dtype=np.int64)
    local = np.flatnonzero(np.unpackbits(
        words[nz].view(np.uint8), bitorder="little"))
    return (nz[local >> 6] << np.int64(6)) + (local & np.int64(63))


class TwoLevelDirty:
    """Dirty bits for one replicated array on one GPU (packed bitsets)."""

    def __init__(
        self,
        name: str,
        n_elements: int,
        itemsize: int,
        memory: DeviceMemory | None = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> None:
        if n_elements < 0:
            raise ValueError("element count must be non-negative")
        if chunk_bytes < itemsize:
            raise ValueError("chunk must hold at least one element")
        self.name = name
        self.n_elements = n_elements
        self.itemsize = itemsize
        self.chunk_bytes = chunk_bytes
        self.elems_per_chunk = max(1, chunk_bytes // itemsize)
        self.n_chunks = max(1, -(-n_elements // self.elems_per_chunk)) if n_elements else 0
        self.stats = DirtyStats()
        self._bufs = []
        # Both bitsets are sized exactly (an empty array gets empty
        # bitmaps): a phantom chunk 0 for zero-length arrays would make
        # the element and chunk levels disagree about what exists.
        ewords = _n_words(n_elements)
        cwords = _n_words(self.n_chunks)
        if memory is not None:
            # Account the bitsets as runtime ("System") device memory:
            # ceil(n/64) words of 8 bytes per level.
            self._bufs.append(memory.alloc(
                f"dirty:{name}", ewords, np.uint64,
                purpose=PURPOSE_SYSTEM, fill=0))
            self._bufs.append(memory.alloc(
                f"dirty2:{name}", cwords, np.uint64,
                purpose=PURPOSE_SYSTEM, fill=0))
            self._ewords = self._bufs[0].data
            self._cwords = self._bufs[1].data
        else:
            self._ewords = np.zeros(ewords, dtype=np.uint64)
            self._cwords = np.zeros(cwords, dtype=np.uint64)
        # Dense-interval hint: while every mark has been a contiguous
        # span and their union is contiguous, the dirty set is exactly
        # [_dense_lo, _dense_hi).  Any random-index mark drops the hint
        # (the bitsets stay authoritative either way).
        self._dense = True
        self._dense_lo = 0
        self._dense_hi = 0

    # -- kernel-side operations ------------------------------------------------

    def mark(self, indices: np.ndarray) -> None:
        """Set element + chunk bits for ``indices`` (global positions)."""
        if np.ndim(indices) == 0:
            indices = np.array([indices], dtype=np.int64)
        if indices.size == 0:
            return
        # Bounds are computed once and reused in the error message --
        # the seed implementation scanned the array twice for the check
        # and twice more to format the failure.
        mn = int(indices.min())
        mx = int(indices.max())
        if mn < 0 or mx >= self.n_elements:
            raise IndexError(
                f"dirty mark outside array {self.name!r}: "
                f"[{mn}, {mx}] vs {self.n_elements}")
        idx = np.asarray(indices, dtype=np.int64)
        _set_indices(self._ewords, idx)
        _set_indices(self._cwords, idx // self.elems_per_chunk)
        self._dense = False
        self.stats.marks += int(indices.size)

    def mark_span(self, lo: int, hi: int) -> None:
        """Contiguous-slice fast path: mark elements [lo, hi).

        The common kernel write pattern (unit-stride stores over the
        iteration slice) marks a contiguous span; setting whole words
        plus two edge masks skips the index-array round trip entirely.
        """
        lo = int(lo)
        hi = int(hi)
        if hi <= lo:
            return
        if lo < 0 or hi > self.n_elements:
            raise IndexError(
                f"dirty mark outside array {self.name!r}: "
                f"[{lo}, {hi - 1}] vs {self.n_elements}")
        _set_span(self._ewords, lo, hi)
        _set_span(self._cwords, lo // self.elems_per_chunk,
                  (hi - 1) // self.elems_per_chunk + 1)
        if self._dense:
            if self._dense_lo == self._dense_hi:
                self._dense_lo, self._dense_hi = lo, hi
            elif lo <= self._dense_hi and hi >= self._dense_lo:
                # Overlapping or adjacent: the union stays an exactly
                # covered interval.
                self._dense_lo = min(self._dense_lo, lo)
                self._dense_hi = max(self._dense_hi, hi)
            else:
                self._dense = False
        self.stats.marks += hi - lo

    # -- manager-side operations ------------------------------------------------

    @property
    def any_dirty(self) -> bool:
        return bool(self._cwords.any())

    def dirty_slice(self) -> tuple[int, int] | None:
        """``(lo, hi)`` when the dirty set is exactly one contiguous
        interval built from span marks, else None.  Lets the sender
        gather values with a slice instead of an index vector."""
        if self._dense and self._dense_hi > self._dense_lo:
            return (self._dense_lo, self._dense_hi)
        return None

    def dirty_chunks(self) -> np.ndarray:
        """Second-level scan: indices of chunks holding any dirty element."""
        return _nonzero_bits(self._cwords)

    def dirty_elements(self) -> np.ndarray:
        """Global indices of dirty elements (scans only dirty words)."""
        sl = self.dirty_slice()
        if sl is not None:
            return np.arange(sl[0], sl[1], dtype=np.int64)
        return _nonzero_bits(self._ewords)

    def dirty_chunk_runs(self) -> list[tuple[int, int]]:
        """``(byte_offset, nbytes)`` of each dirty chunk, ascending.

        The communication manager ships these one transaction per chunk
        by default, or merged per contiguous run when transfer
        coalescing is enabled (:meth:`Bus.coalesce_runs`).
        """
        chunks = self.dirty_chunks()
        if chunks.size == 0:
            return []
        epc = self.elems_per_chunk
        lo = chunks * epc
        hi = np.minimum(lo + epc, self.n_elements)
        return list(zip((lo * self.itemsize).tolist(),
                        ((hi - lo) * self.itemsize).tolist()))

    def transfer_bytes(self) -> int:
        """Bytes the communication manager ships: whole dirty chunks.

        The paper transfers at chunk granularity (scanning element bits
        on the sender GPU is what the second level exists to avoid).
        Closed-form byte math over the second-level popcount: every
        dirty chunk is full-size except a dirty *last* chunk, which
        sheds the tail overshoot -- no per-chunk loop, no re-derived
        lo/hi spans.
        """
        n_dirty = int(np.bitwise_count(self._cwords).sum())
        if n_dirty == 0:
            return 0
        elems = n_dirty * self.elems_per_chunk
        last = self.n_chunks - 1
        if self._cwords[last >> 6] >> np.uint64(last & 63) & np.uint64(1):
            elems -= self.n_chunks * self.elems_per_chunk - self.n_elements
        return elems * self.itemsize

    def clear(self) -> None:
        self._ewords[:] = 0
        self._cwords[:] = 0
        self._dense = True
        self._dense_lo = self._dense_hi = 0

    # -- compatibility views -----------------------------------------------------

    @property
    def element_bits(self) -> np.ndarray:
        """Unpacked per-element flags (sanitizer / test compatibility).

        A fresh uint8 array of 0/1 flags; read-only in spirit -- writes
        to it do not reach the packed bitset.
        """
        return _unpack_bits(self._ewords, self.n_elements)

    @property
    def chunk_bits(self) -> np.ndarray:
        """Unpacked per-chunk flags (sanitizer / test compatibility)."""
        return _unpack_bits(self._cwords, self.n_chunks)

    def release(self, memory: DeviceMemory) -> None:
        """Free the device-resident bitsets."""
        for b in self._bufs:
            memory.free(b)
        self._bufs = []
