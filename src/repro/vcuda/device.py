"""Virtual GPU device: memory, launch configuration, kernel timing.

A :class:`Device` owns a :class:`~repro.vcuda.memory.DeviceMemory` and
prices kernel executions with a roofline-style model::

    t = launch_overhead + max(compute_time, memory_time)

where compute time is total FLOPs over derated peak throughput and
memory time is the sum of coalesced and random traffic over their
respective effective bandwidths.  The translator's static cost analysis
(:mod:`repro.translator.cost`) produces the per-iteration
:class:`KernelWork`; the runtime fills in dynamic totals (actual inner
trip counts) before launching.
"""

from __future__ import annotations

from dataclasses import dataclass

from .memory import DeviceMemory
from .specs import GpuSpec


@dataclass
class KernelWork:
    """Work volume of one kernel launch, used for pricing only.

    All values are *totals* over the launch's iteration slice.  The
    static analyzer produces per-iteration figures and multiplies by the
    slice length; data-dependent inner loops contribute their measured
    dynamic totals instead (paper apps: BFS edge visits).
    """

    #: Total floating-point operations.
    flops: float = 0.0
    #: Integer/address ALU operations (priced at the same unit as flops
    #: but Fermi issues them on the same pipes, so they just add in).
    int_ops: float = 0.0
    #: Bytes moved with unit-stride (coalesced) access.
    coalesced_bytes: float = 0.0
    #: Bytes moved with data-dependent/strided (uncoalesced) access.
    random_bytes: float = 0.0
    #: Extra serialization factor >= 1 (e.g. atomics, divergence).
    serialization: float = 1.0

    def scaled(self, factor: float) -> "KernelWork":
        """Work scaled by ``factor`` iterations (static -> launch total)."""
        return KernelWork(
            flops=self.flops * factor,
            int_ops=self.int_ops * factor,
            coalesced_bytes=self.coalesced_bytes * factor,
            random_bytes=self.random_bytes * factor,
            serialization=self.serialization,
        )

    def __add__(self, other: "KernelWork") -> "KernelWork":
        return KernelWork(
            flops=self.flops + other.flops,
            int_ops=self.int_ops + other.int_ops,
            coalesced_bytes=self.coalesced_bytes + other.coalesced_bytes,
            random_bytes=self.random_bytes + other.random_bytes,
            serialization=max(self.serialization, other.serialization),
        )


@dataclass
class LaunchConfig:
    """CUDA-style launch geometry chosen by the generated host code.

    The translator sizes the grid from the number of tasks assigned to
    this GPU (paper section IV-B2: tasks equally divided, thread count
    derived per GPU).
    """

    grid_dim: int
    block_dim: int = 256

    @classmethod
    def for_tasks(cls, n_tasks: int, block_dim: int = 256) -> "LaunchConfig":
        if n_tasks < 0:
            raise ValueError("task count must be non-negative")
        grid = max(1, -(-n_tasks // block_dim))
        return cls(grid_dim=grid, block_dim=block_dim)


@dataclass(slots=True)
class KernelLaunchRecord:
    """One priced kernel launch (kept for profiling/tests)."""

    kernel_name: str
    device_index: int
    config: LaunchConfig
    work: KernelWork
    seconds: float
    #: Virtual-time start of the launch (set by the scheduler).
    start: float = 0.0

    @property
    def end(self) -> float:
        return self.start + self.seconds


class Device:
    """One virtual GPU."""

    def __init__(self, index: int, spec: GpuSpec) -> None:
        self.index = index
        self.spec = spec
        self.memory = DeviceMemory(index, spec.mem_capacity)
        self.launches: list[KernelLaunchRecord] = []
        #: Absolute virtual time at which this device's queued work ends;
        #: lets kernels on different devices run concurrently.
        self.busy_until: float = 0.0
        #: ``busy_intervals`` cursor: every launch before it had ended by
        #: ``_live_since``.
        self._live_from = 0
        self._live_since = 0.0

    # -- timing ------------------------------------------------------------

    def kernel_time(self, work: KernelWork, config: LaunchConfig) -> float:
        """Price a launch with the roofline model (seconds)."""
        spec = self.spec
        ops = work.flops + 0.5 * work.int_ops
        compute_t = ops / (spec.peak_sp_flops * spec.compute_efficiency)
        mem_t = work.coalesced_bytes / (
            spec.mem_bandwidth * spec.coalesced_efficiency
        ) + work.random_bytes / (spec.mem_bandwidth * spec.random_efficiency)
        occupancy = self._occupancy(config)
        body = max(compute_t, mem_t) * work.serialization / occupancy
        return spec.launch_overhead + body

    def _occupancy(self, config: LaunchConfig) -> float:
        """Throughput derating for undersized grids.

        A launch needs roughly ``2 * sm_count`` resident blocks to cover
        latency; smaller grids run proportionally slower.
        """
        needed = 2 * self.spec.sm_count
        if config.grid_dim >= needed:
            return 1.0
        return max(config.grid_dim / needed, 1.0 / needed)

    def record_launch(
        self, kernel_name: str, work: KernelWork, config: LaunchConfig,
        seconds: float, start: float = 0.0,
    ) -> KernelLaunchRecord:
        rec = KernelLaunchRecord(kernel_name, self.index, config, work,
                                 seconds, start)
        self.launches.append(rec)
        return rec

    def place_launch(self, kernel_name: str, work: KernelWork,
                     config: LaunchConfig, seconds: float,
                     *floors: float) -> None:
        """Put a launch priced at ``seconds`` on this device's timeline.

        It starts when the device's queued work ends or at the latest of
        ``floors`` (the host clock, input readiness), whichever is
        later.
        """
        start = max(self.busy_until, *floors)
        self.record_launch(kernel_name, work, config, seconds, start)
        self.busy_until = start + seconds

    def busy_intervals(self, since: float) -> list[tuple[float, float]]:
        """``(start, end)`` of recorded launches still running at ``since``.

        The timeline-attributing clock advance uses these to decide
        which parts of a waited interval were covered by kernel work.
        """
        launches = self.launches
        if since < self._live_since:
            self._live_from = 0
        # Launch ends are monotone (each launch starts at or after
        # ``busy_until``, the previous one's end), so the launches that
        # ended by ``since`` are a prefix, and the clock that supplies
        # ``since`` only moves forward: resume from where the last call
        # stopped instead of filtering the whole history.
        i = self._live_from
        while i < len(launches) and launches[i].end <= since:
            i += 1
        self._live_from = i
        self._live_since = since
        return [(l.start, l.end) for l in launches[i:]]

    def reset(self) -> None:
        self.memory.free_all()
        self.launches.clear()
        self.busy_until = 0.0
        self._live_from = 0
        self._live_since = 0.0
