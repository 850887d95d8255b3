"""Device memory: buffers and a byte-accounted allocator.

The paper's Fig. 9 reports, per application and per GPU count, how much
device memory holds *user* data (the program's arrays, including
replicas) versus *system* data (dirty-bit arrays, write-miss buffers,
reduction scratch).  The allocator therefore tags every allocation with
a purpose and keeps running and high-water totals per purpose.

Buffers are plain NumPy arrays underneath -- the hpc-parallel guides'
advice to keep data in contiguous vectorizable storage applies to the
simulated device memory exactly as it would to real pinned host memory.

The accountant is the *model*; the NumPy storage behind a buffer is the
host's business.  Large blocks are views over raw byte blocks that
:data:`RECYCLER` keeps across runs, so a program's second run does not
page-fault its device memory and kernel scratch again.  Recycled
storage holds whatever its last owner left there: every hand-out must be
written in full before it is read.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

#: Allocation purposes recognized by the accounting (Fig. 9 buckets).
PURPOSE_USER = "user"
PURPOSE_SYSTEM = "system"
_PURPOSES = (PURPOSE_USER, PURPOSE_SYSTEM)


class OutOfDeviceMemory(MemoryError):
    """Raised when an allocation exceeds the device's capacity."""


#: Requests below this many bytes keep calling ``np.empty``: under its
#: 128 KiB mmap threshold the C allocator reuses blocks without a page
#: fault, and a lock plus a dict lookup per block costs more than that.
RECYCLE_FLOOR = 64 << 10
#: Most bytes the free list may hold (oldest evicted first): room for
#: one benchmark-size run's device blocks and kernel scratch, 42 MB.
RECYCLE_CAP = 64 << 20


class StorageRecycler:
    """Free list of raw ``uint8`` blocks keyed by exact byte size.

    A block is here only between :meth:`give` and the next :meth:`take`
    of its size; the recycler never references a block somebody owns, so
    an owner that dies without giving its blocks back just lets them be
    garbage-collected.  When the held bytes pass ``cap`` the oldest
    blocks go first, so sizes that stop recurring age out.
    """

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self._lock = threading.Lock()
        #: Per size, ``(age stamp, block)`` oldest first.
        self._free: dict[int, deque[tuple[int, np.ndarray]]] = {}
        self._stamp = 0
        #: Blocks handed out, and how many of them came off the free list.
        self.takes = 0
        self.hits = 0
        self.bytes_held = 0

    def take(self, nbytes: int) -> np.ndarray:
        """A block of exactly ``nbytes`` bytes, contents unspecified."""
        with self._lock:
            self.takes += 1
            blocks = self._free.get(nbytes)
            if blocks:
                self.hits += 1
                self.bytes_held -= nbytes
                # Newest first: the block most likely still in cache.
                return blocks.pop()[1]
        return np.empty(nbytes, dtype=np.uint8)

    def give(self, raw: np.ndarray) -> None:
        """Return a block nobody references any more."""
        nbytes = raw.shape[0]
        if nbytes < max(RECYCLE_FLOOR, 1) or nbytes > self.cap:
            return
        with self._lock:
            while self.bytes_held + nbytes > self.cap:
                size = min((s for s, q in self._free.items() if q),
                           key=lambda s: self._free[s][0][0])
                self._free[size].popleft()
                self.bytes_held -= size
            self._stamp += 1
            self._free.setdefault(nbytes, deque()).append((self._stamp, raw))
            self.bytes_held += nbytes


#: The process's recycler: simulator storage outlives the run that
#: first touched it.
RECYCLER = StorageRecycler(RECYCLE_CAP)


@dataclass
class DeviceBuffer:
    """A contiguous allocation in one GPU's memory.

    ``data`` is the backing NumPy array.  ``base`` records which global
    index of the source host array element 0 of this buffer corresponds
    to; the translator's index rewriting (paper section IV-B3) subtracts
    it when a kernel accesses a partially-loaded array.
    """

    name: str
    data: np.ndarray
    device_index: int
    purpose: str = PURPOSE_USER
    base: int = 0
    #: True once freed; guards use-after-free in tests.
    freed: bool = False
    #: The recycler block ``data`` is a view of (None below the floor).
    storage: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def check_alive(self) -> None:
        if self.freed:
            raise RuntimeError(f"use of freed device buffer {self.name!r}")

    def view(self) -> np.ndarray:
        """The live array contents (a view, per the guides: not a copy)."""
        self.check_alive()
        return self.data


@dataclass
class MemoryAccountant:
    """Tracks live and high-water bytes per purpose for one device."""

    capacity: int
    live: dict[str, int] = field(default_factory=lambda: {p: 0 for p in _PURPOSES})
    high_water: dict[str, int] = field(default_factory=lambda: {p: 0 for p in _PURPOSES})

    @property
    def live_total(self) -> int:
        return sum(self.live.values())

    @property
    def high_water_total(self) -> int:
        """Peak of the *sum*, tracked at allocation time."""
        return self._peak_total

    _peak_total: int = 0

    def allocate(self, nbytes: int, purpose: str) -> None:
        if purpose not in _PURPOSES:
            raise ValueError(f"unknown allocation purpose {purpose!r}")
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if self.live_total + nbytes > self.capacity:
            raise OutOfDeviceMemory(
                f"allocation of {nbytes} bytes exceeds device capacity "
                f"({self.live_total} of {self.capacity} in use)"
            )
        self.live[purpose] += nbytes
        self.high_water[purpose] = max(self.high_water[purpose], self.live[purpose])
        self._peak_total = max(self._peak_total, self.live_total)

    def free(self, nbytes: int, purpose: str) -> None:
        if purpose not in _PURPOSES:
            raise ValueError(f"unknown allocation purpose {purpose!r}")
        if nbytes > self.live[purpose]:
            raise RuntimeError(
                f"double free: releasing {nbytes} {purpose} bytes with only "
                f"{self.live[purpose]} live"
            )
        self.live[purpose] -= nbytes


class DeviceMemory:
    """Allocator facade for one device.

    Allocations return :class:`DeviceBuffer`; all byte accounting flows
    through a :class:`MemoryAccountant` so Fig. 9 can be regenerated
    from high-water marks.
    """

    def __init__(self, device_index: int, capacity: int) -> None:
        self.device_index = device_index
        self.accountant = MemoryAccountant(capacity=capacity)
        self._buffers: list[DeviceBuffer] = []
        #: Sanitizer support: overwrite freed buffers with a poison
        #: pattern (NaN for floats, a large sentinel for integers) so a
        #: stale reference that survives the free produces loudly wrong
        #: values instead of silently reading the old contents.
        self.poison_on_free = False

    def alloc(
        self,
        name: str,
        shape: int | tuple[int, ...],
        dtype: np.dtype | type = np.float32,
        purpose: str = PURPOSE_USER,
        base: int = 0,
        fill: float | int | None = None,
    ) -> DeviceBuffer:
        """Allocate a buffer; optionally fill it with a constant.

        Without ``fill`` the contents are unspecified (not zero): the
        caller writes the whole buffer before anything reads it.
        """
        dtype = np.dtype(dtype)
        dims = shape if isinstance(shape, tuple) else (shape,)
        nbytes = int(math.prod(dims)) * dtype.itemsize
        # The model decides first: a request beyond the device must fail
        # as OutOfDeviceMemory before any host storage is taken.
        self.accountant.allocate(nbytes, purpose)
        if nbytes < RECYCLE_FLOOR:
            storage = None
            arr = np.empty(shape, dtype=dtype)
        else:
            storage = RECYCLER.take(nbytes)
            arr = storage.view(dtype).reshape(shape)
        if fill is not None:
            arr.fill(fill)
        buf = DeviceBuffer(
            name=name,
            data=arr,
            device_index=self.device_index,
            purpose=purpose,
            base=base,
            storage=storage,
        )
        self._buffers.append(buf)
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        if buf.device_index != self.device_index:
            raise ValueError("buffer belongs to a different device")
        buf.check_alive()
        self.accountant.free(buf.nbytes, buf.purpose)
        buf.freed = True
        if self.poison_on_free:
            # Poisoned storage is not recycled: a stale reference must
            # keep reading poison, never another array's live data.
            if buf.data.size:
                if np.issubdtype(buf.data.dtype, np.floating):
                    buf.data.fill(np.nan)
                elif np.issubdtype(buf.data.dtype, np.integer):
                    buf.data.fill(np.iinfo(buf.data.dtype).max)
        elif buf.storage is not None:
            RECYCLER.give(buf.storage)
        buf.storage = None
        self._buffers.remove(buf)

    def free_all(self) -> None:
        """Release every live buffer (device reset)."""
        for buf in list(self._buffers):
            self.free(buf)

    @property
    def live_bytes(self) -> int:
        return self.accountant.live_total

    def live_bytes_of(self, purpose: str) -> int:
        return self.accountant.live[purpose]

    def high_water_of(self, purpose: str) -> int:
        return self.accountant.high_water[purpose]
