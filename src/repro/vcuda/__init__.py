"""Virtual CUDA platform: devices, memory, PCIe bus, profiler.

This package stands in for the CUDA 4.0 platform the paper's prototype
was built on.  Kernels really execute (on NumPy-backed device buffers);
time is modeled by analytic cost models over the Table I hardware
specifications, so benchmark results are deterministic and reproduce
the paper's *relative* performance structure.
"""

from .api import Platform
from .bus import (
    Bus,
    CATEGORY_CPU_GPU,
    CATEGORY_GPU_GPU,
    CATEGORY_GPU_GPU_OVERLAPPED,
    CATEGORY_KERNELS,
    Transfer,
)
from .clock import VirtualClock
from .device import Device, KernelLaunchRecord, KernelWork, LaunchConfig
from .memory import (
    DeviceBuffer,
    DeviceMemory,
    MemoryAccountant,
    OutOfDeviceMemory,
    PURPOSE_SYSTEM,
    PURPOSE_USER,
)
from .profiler import Profiler, TimeBreakdown
from .specs import (
    BusSpec,
    CpuSpec,
    DESKTOP_MACHINE,
    GpuSpec,
    MACHINES,
    MachineSpec,
    SUPERCOMPUTER_NODE,
    TESLA_C2075,
    TESLA_M2050,
)

__all__ = [
    "Platform",
    "Bus",
    "Transfer",
    "CATEGORY_CPU_GPU",
    "CATEGORY_GPU_GPU",
    "CATEGORY_GPU_GPU_OVERLAPPED",
    "CATEGORY_KERNELS",
    "VirtualClock",
    "Device",
    "KernelLaunchRecord",
    "KernelWork",
    "LaunchConfig",
    "DeviceBuffer",
    "DeviceMemory",
    "MemoryAccountant",
    "OutOfDeviceMemory",
    "PURPOSE_USER",
    "PURPOSE_SYSTEM",
    "Profiler",
    "TimeBreakdown",
    "GpuSpec",
    "CpuSpec",
    "BusSpec",
    "MachineSpec",
    "MACHINES",
    "DESKTOP_MACHINE",
    "SUPERCOMPUTER_NODE",
    "TESLA_C2075",
    "TESLA_M2050",
]
