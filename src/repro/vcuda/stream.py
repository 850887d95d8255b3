"""Streams and events over virtual time.

A :class:`Stream` is an in-order queue of timed operations bound to one
device; operations on different streams may overlap.  An
:class:`Event` captures the completion timestamp of the most recent
operation in a stream, and host code can block on either.

These mirror the CUDA primitives the paper's runtime uses to make
inter-GPU exchanges asynchronous; the runtime's communication manager
issues one stream per device pair and synchronizes the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .clock import VirtualClock


@dataclass
class Event:
    """Completion marker; ``timestamp`` is in virtual seconds."""

    timestamp: float = 0.0
    recorded: bool = False

    def query(self, clock: VirtualClock) -> bool:
        """True when the event has completed by the clock's *current* time."""
        return self.recorded and self.timestamp <= clock.now


@dataclass
class Stream:
    """An in-order operation queue on one device."""

    device_index: int
    clock: VirtualClock
    #: Virtual time at which the last queued operation finishes.
    tail: float = 0.0
    ops: list[tuple[str, float, float]] = field(default_factory=list)

    def enqueue(self, label: str, seconds: float, not_before: float = 0.0) -> float:
        """Append an operation of ``seconds`` duration; returns its end time.

        The op starts when the stream's previous op has finished, the
        host has issued it (``clock.now``), and any cross-stream
        dependency (``not_before``) is satisfied.
        """
        if seconds < 0:
            raise ValueError("operation duration must be non-negative")
        start = max(self.tail, self.clock.now, not_before)
        end = start + seconds
        self.ops.append((label, start, end))
        self.tail = end
        return end

    def enqueue_at(self, label: str, start: float, end: float) -> float:
        """Mirror an externally scheduled operation into the stream.

        The bus scheduler decides DMA start/end times from link
        availability; a caller that wants events recorded on a stream
        to cover a device's outstanding DMA mirrors each transfer onto
        the endpoint GPUs' streams with this.
        """
        if end < start:
            raise ValueError("operation may not end before it starts")
        self.ops.append((label, start, end))
        self.tail = max(self.tail, end)
        return end

    def record_event(self) -> Event:
        """CUDA ``cudaEventRecord``: marks the current tail of the stream."""
        return Event(timestamp=self.tail, recorded=True)

    def wait_event(self, event: Event) -> None:
        """CUDA ``cudaStreamWaitEvent``: later ops wait for ``event``."""
        if not event.recorded:
            raise RuntimeError("waiting on an unrecorded event")
        self.tail = max(self.tail, event.timestamp)

    def synchronize(self, category: str | None = None) -> float:
        """Block the host until the stream drains; advances the clock."""
        before = self.clock.now
        self.clock.advance_to(self.tail, category)
        return self.clock.now - before
