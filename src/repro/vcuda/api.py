"""The virtual CUDA platform facade.

:class:`Platform` bundles the devices, the PCIe bus, the clock, and the
profiler of one machine, and exposes a CUDA-flavoured API:

* ``malloc`` / ``free`` -- device allocations (byte-accounted),
* ``memcpy_h2d`` / ``memcpy_d2h`` / ``memcpy_p2p`` -- data movement that
  both performs the copy (NumPy) and reserves link time on the bus,
* ``launch`` / ``sync_devices`` -- kernel execution with inter-device
  concurrency: kernels launched on different GPUs before a sync overlap
  in virtual time, exactly like CUDA kernels issued from one host
  thread onto several devices.

Hand-written baseline programs (the paper's "CUDA" version) are written
directly against this class; the OpenACC runtime sits on top of it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence

import numpy as np

from .bus import (
    Bus,
    CATEGORY_CPU_GPU,
    CATEGORY_GPU_GPU,
    CATEGORY_GPU_GPU_OVERLAPPED,
    CATEGORY_KERNELS,
    CATEGORY_NET,
    CATEGORY_NET_OVERLAPPED,
    Transfer,
)
from .clock import VirtualClock
from .device import Device, KernelWork, LaunchConfig
from .memory import DeviceBuffer
from .profiler import Profiler
from .specs import ClusterSpec, MachineSpec


class Platform:
    """One machine instance: devices + bus + clock + profiler."""

    def __init__(self, machine: MachineSpec | ClusterSpec,
                 ngpus: int | None = None) -> None:
        if ngpus is None:
            ngpus = machine.gpu_count
        if not (1 <= ngpus <= machine.gpu_count):
            raise ValueError(
                f"{machine.name} has {machine.gpu_count} GPUs; requested {ngpus}"
            )
        self.machine = machine
        self.clock = VirtualClock()
        self.devices = [Device(i, spec)
                        for i, spec in enumerate(machine.gpu_specs[:ngpus])]
        self.bus = Bus(machine, self.clock)
        self.profiler = Profiler(self.clock, ngpus=ngpus)
        #: Node of each active device, resolved once (a cluster's
        #: ``node_of`` walks its node list on every call).
        self._nodes = [machine.node_of(g) for g in range(ngpus)]

    @property
    def ngpus(self) -> int:
        return len(self.devices)

    @property
    def node_count(self) -> int:
        """Nodes actually holding active devices.  Device indices are a
        contiguous prefix of the machine's GPUs and ``node_of`` is
        monotone, so the last device's node bounds the active set."""
        return self._nodes[-1] + 1

    def node_of(self, device: int) -> int:
        return self._nodes[device]

    def node_devices(self, node: int) -> range:
        """Active device indices hosted on ``node``."""
        lo, hi = self.machine.node_gpu_range(node)
        return range(lo, min(hi, self.ngpus))

    def device(self, index: int) -> Device:
        return self.devices[index]

    # -- memory ---------------------------------------------------------------

    def malloc(
        self,
        device: int,
        name: str,
        shape: int | tuple[int, ...],
        dtype: np.dtype | type = np.float32,
        purpose: str = "user",
        base: int = 0,
        fill: float | int | None = None,
    ) -> DeviceBuffer:
        return self.devices[device].memory.alloc(
            name, shape, dtype, purpose=purpose, base=base, fill=fill
        )

    def free(self, buf: DeviceBuffer) -> None:
        self.devices[buf.device_index].memory.free(buf)

    # -- data movement (copy + timed) ------------------------------------------

    def memcpy_h2d(
        self, buf: DeviceBuffer, host: np.ndarray, *, asynchronous: bool = False
    ) -> Transfer:
        """Copy ``host`` into the device buffer; reserves H2D link time."""
        buf.check_alive()
        np.copyto(buf.data, host)
        t = self.bus.h2d(buf.device_index, int(host.nbytes))
        if not asynchronous:
            self.bus.sync()
        return t

    def memcpy_d2h(
        self, host: np.ndarray, buf: DeviceBuffer, *, asynchronous: bool = False
    ) -> Transfer:
        """Copy the device buffer into ``host``; reserves D2H link time."""
        buf.check_alive()
        np.copyto(host, buf.data)
        t = self.bus.d2h(buf.device_index, int(buf.nbytes))
        if not asynchronous:
            self.bus.sync()
        return t

    def memcpy_p2p(
        self,
        dst: DeviceBuffer,
        src: DeviceBuffer,
        nbytes: int | None = None,
        *,
        dst_slice: slice | np.ndarray | None = None,
        src_slice: slice | np.ndarray | None = None,
        asynchronous: bool = True,
    ) -> Transfer:
        """Direct GPU-to-GPU copy (optionally of a sub-range)."""
        dst.check_alive()
        src.check_alive()
        src_view = src.data if src_slice is None else src.data[src_slice]
        if dst_slice is None:
            np.copyto(dst.data, src_view)
        else:
            dst.data[dst_slice] = src_view
        moved = int(src_view.nbytes) if nbytes is None else nbytes
        t = self.bus.p2p(src.device_index, dst.device_index, moved)
        if not asynchronous:
            self.bus.sync()
        return t

    # -- kernels ----------------------------------------------------------------

    def launch(
        self,
        device: int,
        kernel_name: str,
        fn: Callable[..., None],
        args: Sequence[object],
        work: KernelWork,
        config: LaunchConfig,
    ) -> float:
        """Execute ``fn(*args)`` on ``device`` and reserve compute time.

        The data effects happen immediately (NumPy executes now); the
        *time* is queued on the device so that kernels launched on other
        devices before :meth:`sync_devices` overlap.  Returns the
        modeled duration in seconds.
        """
        fn(*args)
        dev = self.devices[device]
        seconds = dev.kernel_time(work, config)
        dev.place_launch(kernel_name, work, config, seconds, self.clock.now)
        return seconds

    def sync_devices(self, category: str = CATEGORY_KERNELS) -> float:
        """Host-side ``cudaDeviceSynchronize`` over all devices.

        Advances the clock to the latest ``busy_until``; the wall time is
        attributed to ``category`` (kernels, by default).
        """
        latest = max((d.busy_until for d in self.devices), default=self.clock.now)
        before = self.clock.now
        self.clock.advance_to(latest, category)
        return self.clock.now - before

    # -- overlapped-communication accounting ------------------------------------

    def enable_overlap_accounting(self) -> None:
        """Route bus waits through :meth:`timeline_advance`.

        The async communication layer leaves GPU-GPU transfers in
        flight across synchronization points; plain ``advance_to``
        would charge whole waits to one bucket.  With this enabled,
        every wait is split into kernel / exposed-comm / hidden-comm
        segments.
        """
        self.bus.advancer = self.timeline_advance

    def timeline_advance(self, target: float,
                         idle_category: str | None = None) -> float:
        """Advance the clock to ``target``, attributing each sub-interval
        to what the platform was doing during it.

        Priority per segment: a kernel running on any device wins
        (``KERNELS``); otherwise an active transfer's bucket; otherwise
        ``idle_category``.  Peer transfers active under a kernel
        segment are additionally charged to the *hidden* bucket
        (:data:`CATEGORY_GPU_GPU_OVERLAPPED`) without moving the clock:
        that is the "overlapped vs exposed" split Fig. 8's GPU-GPU bar
        relies on.  Finished transfers are retired.  Returns the
        seconds advanced.
        """
        clock = self.clock
        now = clock.now
        if target <= now:
            self.bus.retire()
            return 0.0
        # Clipped (start, end) lists per lane: kernels, GPU-GPU, NET and
        # CPU-GPU transfers overlapping (now, target).
        kernels, gpu, net, cpu = lanes = tuple(([], []) for _ in range(4))
        for d in self.devices:
            for s, e in d.busy_intervals(now):
                if s < target:
                    kernels[0].append(max(s, now))
                    kernels[1].append(min(e, target))
        for t in self.bus.pending:
            if t.end > now and t.start < target:
                if t.category == CATEGORY_GPU_GPU:
                    dest = gpu
                elif t.category == CATEGORY_NET:
                    dest = net
                else:
                    dest = cpu
                dest[0].append(max(t.start, now))
                dest[1].append(min(t.end, target))
        points = {now, target}
        for starts, ends in lanes:
            points.update(starts)
            points.update(ends)
            starts.sort()
            ends.sort()
        pts = sorted(points)
        for a, b in zip(pts, pts[1:]):
            mid = (a + b) / 2.0
            # A lane is active at ``mid`` when more of its intervals have
            # started than ended by then (every start <= its end).
            in_kernel = (bisect_right(kernels[0], mid)
                         > bisect_right(kernels[1], mid))
            in_gpu = bisect_right(gpu[0], mid) > bisect_right(gpu[1], mid)
            in_net = bisect_right(net[0], mid) > bisect_right(net[1], mid)
            if in_kernel:
                clock.advance_to(b, CATEGORY_KERNELS)
                if in_gpu:
                    clock.charge(b - a, CATEGORY_GPU_GPU_OVERLAPPED)
                if in_net:
                    clock.charge(b - a, CATEGORY_NET_OVERLAPPED)
            elif in_gpu:
                clock.advance_to(b, CATEGORY_GPU_GPU)
                if in_net:
                    clock.charge(b - a, CATEGORY_NET_OVERLAPPED)
            elif in_net:
                clock.advance_to(b, CATEGORY_NET)
            elif bisect_right(cpu[0], mid) > bisect_right(cpu[1], mid):
                clock.advance_to(b, CATEGORY_CPU_GPU)
            else:
                clock.advance_to(b, idle_category)
        self.bus.retire()
        return target - now

    # -- bookkeeping --------------------------------------------------------------

    def elapsed(self) -> float:
        return self.clock.now

    def memory_usage(self, purpose: str | None = None) -> int:
        """Sum of live device bytes across GPUs (optionally one purpose)."""
        if purpose is None:
            return sum(d.memory.live_bytes for d in self.devices)
        return sum(d.memory.live_bytes_of(purpose) for d in self.devices)

    def memory_high_water(self, purpose: str) -> int:
        return sum(d.memory.high_water_of(purpose) for d in self.devices)

    def reset(self) -> None:
        self.clock.reset()
        for d in self.devices:
            d.reset()
        self.bus = Bus(self.machine, self.clock)
        self.profiler = Profiler(self.clock, ngpus=self.ngpus)
