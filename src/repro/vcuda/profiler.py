"""Execution-time profiler with the paper's Fig. 8 categories.

The paper breaks parallel-region time into three buckets: time in GPU
kernels (``KERNELS``), host-device transfer time (``CPU-GPU``), and
inter-GPU transfer time (``GPU-GPU``).  The profiler reads these from
the shared :class:`~repro.vcuda.clock.VirtualClock` category
accumulators and can snapshot/diff them around a region of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bus import (
    CATEGORY_CPU_GPU,
    CATEGORY_GPU_GPU,
    CATEGORY_GPU_GPU_OVERLAPPED,
    CATEGORY_KERNELS,
    CATEGORY_NET,
    CATEGORY_NET_OVERLAPPED,
)
from .clock import VirtualClock

ALL_CATEGORIES = (CATEGORY_KERNELS, CATEGORY_CPU_GPU, CATEGORY_GPU_GPU,
                  CATEGORY_NET)


@dataclass(frozen=True)
class TimeBreakdown:
    """Seconds per category plus anything uncategorized."""

    kernels: float
    cpu_gpu: float
    gpu_gpu: float
    other: float = 0.0
    #: Inter-GPU transfer seconds hidden under kernels by the async
    #: communication layer.  Not part of ``total``: the clock never
    #: advanced for it, so ``gpu_gpu`` stays *exposed* comm (Fig. 8)
    #: and this field reports how much the overlap machinery hid.
    gpu_gpu_overlapped: float = 0.0
    #: Exposed inter-node (NIC) transfer seconds -- the fourth lane
    #: multi-node breakdowns report next to Fig. 8's three buckets.
    #: Always zero on a single-node machine.
    net: float = 0.0
    #: NET seconds hidden under accounted work (NET analogue of
    #: ``gpu_gpu_overlapped``; not part of ``total``).
    net_overlapped: float = 0.0

    @property
    def total(self) -> float:
        return self.kernels + self.cpu_gpu + self.gpu_gpu + self.net \
            + self.other

    def normalized_to(self, denom: float) -> "TimeBreakdown":
        """Breakdown scaled by ``1/denom`` (Fig. 8 normalizes to the
        single-GPU total)."""
        if denom <= 0:
            raise ValueError("normalization denominator must be positive")
        return TimeBreakdown(
            kernels=self.kernels / denom,
            cpu_gpu=self.cpu_gpu / denom,
            gpu_gpu=self.gpu_gpu / denom,
            other=self.other / denom,
            gpu_gpu_overlapped=self.gpu_gpu_overlapped / denom,
            net=self.net / denom,
            net_overlapped=self.net_overlapped / denom,
        )

    def __sub__(self, other: "TimeBreakdown") -> "TimeBreakdown":
        return TimeBreakdown(
            kernels=self.kernels - other.kernels,
            cpu_gpu=self.cpu_gpu - other.cpu_gpu,
            gpu_gpu=self.gpu_gpu - other.gpu_gpu,
            other=self.other - other.other,
            gpu_gpu_overlapped=self.gpu_gpu_overlapped - other.gpu_gpu_overlapped,
            net=self.net - other.net,
            net_overlapped=self.net_overlapped - other.net_overlapped,
        )


class Profiler:
    """Snapshots the clock's category accumulators around regions."""

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self._region_start: tuple[float, TimeBreakdown] | None = None

    def snapshot(self) -> TimeBreakdown:
        c = self.clock
        kernels = c.elapsed_in(CATEGORY_KERNELS)
        cpu_gpu = c.elapsed_in(CATEGORY_CPU_GPU)
        gpu_gpu = c.elapsed_in(CATEGORY_GPU_GPU)
        net = c.elapsed_in(CATEGORY_NET)
        other = c.now - kernels - cpu_gpu - gpu_gpu - net
        return TimeBreakdown(kernels=kernels, cpu_gpu=cpu_gpu, gpu_gpu=gpu_gpu,
                             other=other,
                             gpu_gpu_overlapped=c.elapsed_in(
                                 CATEGORY_GPU_GPU_OVERLAPPED),
                             net=net,
                             net_overlapped=c.elapsed_in(
                                 CATEGORY_NET_OVERLAPPED))

    def begin_region(self) -> None:
        self._region_start = (self.clock.now, self.snapshot())

    def end_region(self) -> TimeBreakdown:
        if self._region_start is None:
            raise RuntimeError("end_region without begin_region")
        _, start = self._region_start
        self._region_start = None
        return self.snapshot() - start
