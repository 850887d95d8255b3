"""The byte-per-flag two-level dirty engine, kept as the oracle that
``TestDifferentialDirty`` checks :class:`repro.runtime.dirty.TwoLevelDirty`
against."""

from __future__ import annotations

import numpy as np

from repro.runtime.dirty import DEFAULT_CHUNK_BYTES, DirtyStats
from repro.vcuda.memory import DeviceMemory, PURPOSE_SYSTEM


class ReferenceTwoLevelDirty:
    """The seed ``uint8``-per-flag engine.  One byte per element flag,
    one per chunk flag, per-chunk Python scan loops -- intentionally
    kept byte-for-byte faithful to the original behavior."""

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
        if memory is not None:
            self._bufs.append(memory.alloc(
                f"dirty:{name}", n_elements, np.uint8,
                purpose=PURPOSE_SYSTEM, fill=0))
            self._bufs.append(memory.alloc(
                f"dirty2:{name}", self.n_chunks, np.uint8,
                purpose=PURPOSE_SYSTEM, fill=0))
            self.element_bits = self._bufs[0].data
            self.chunk_bits = self._bufs[1].data
        else:
            self.element_bits = np.zeros(n_elements, dtype=np.uint8)
            self.chunk_bits = np.zeros(self.n_chunks, dtype=np.uint8)

    def mark(self, indices: np.ndarray) -> None:
        if np.ndim(indices) == 0:
            indices = np.array([indices], dtype=np.int64)
        if indices.size == 0:
            return
        mn = int(indices.min())
        mx = int(indices.max())
        if mn < 0 or mx >= self.n_elements:
            raise IndexError(
                f"dirty mark outside array {self.name!r}: "
                f"[{mn}, {mx}] vs {self.n_elements}")
        self.element_bits[indices] = 1
        self.chunk_bits[indices // self.elems_per_chunk] = 1
        self.stats.marks += int(indices.size)

    def mark_span(self, lo: int, hi: int) -> None:
        """Interface parity with the packed engine: a span mark is just
        a mark of the contiguous index range."""
        if hi <= lo:
            return
        self.mark(np.arange(lo, hi, dtype=np.int64))

    @property
    def any_dirty(self) -> bool:
        return bool(self.chunk_bits.any())

    def dirty_slice(self) -> None:
        return None  # the baseline never shortcuts the element scan

    def dirty_chunks(self) -> np.ndarray:
        return np.nonzero(self.chunk_bits)[0]

    def dirty_elements(self) -> np.ndarray:
        chunks = self.dirty_chunks()
        if chunks.size == 0:
            return np.empty(0, dtype=np.int64)
        out = []
        for c in chunks:
            lo = int(c) * self.elems_per_chunk
            hi = min(lo + self.elems_per_chunk, self.n_elements)
            local = np.nonzero(self.element_bits[lo:hi])[0]
            if local.size:
                out.append(local + lo)
        if not out:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(out)

    def dirty_chunk_runs(self) -> list[tuple[int, int]]:
        runs: list[tuple[int, int]] = []
        for c in self.dirty_chunks():
            lo = int(c) * self.elems_per_chunk
            hi = min(lo + self.elems_per_chunk, self.n_elements)
            runs.append((lo * self.itemsize, (hi - lo) * self.itemsize))
        return runs

    def transfer_bytes(self) -> int:
        chunks = self.dirty_chunks()
        if chunks.size == 0:
            return 0
        total = 0
        for c in chunks:
            lo = int(c) * self.elems_per_chunk
            hi = min(lo + self.elems_per_chunk, self.n_elements)
            total += (hi - lo) * self.itemsize
        return total

    def clear(self) -> None:
        self.element_bits[:] = 0
        self.chunk_bits[:] = 0

    def release(self, memory: DeviceMemory) -> None:
        for b in self._bufs:
            memory.free(b)
        self._bufs = []
