"""Translator: OpenACC C -> vectorized kernels + host program + configs."""

from .array_config import (
    ArrayConfig,
    LoopConfig,
    Placement,
    ReadWindow,
    WriteHandling,
    window_from_spec,
)
from .compiler import (
    CompileError,
    CompileOptions,
    CompiledProgram,
    KernelPlan,
    ParallelRegion,
    compile_source,
)
from .cost import CostCollector, KernelCostInfo
from .cscalar import ScalarError
from .host import HostError, HostExecutor, RunResult, run_program
from .vectorizer import (
    KernelSourceInfo,
    VectorizeError,
    Vectorizer,
    compile_kernel_source,
)

__all__ = [
    "ArrayConfig",
    "LoopConfig",
    "Placement",
    "WriteHandling",
    "ReadWindow",
    "window_from_spec",
    "CompileError",
    "CompileOptions",
    "CompiledProgram",
    "KernelPlan",
    "ParallelRegion",
    "compile_source",
    "CostCollector",
    "KernelCostInfo",
    "HostExecutor",
    "HostError",
    "RunResult",
    "run_program",
    "ScalarError",
    "KernelSourceInfo",
    "VectorizeError",
    "Vectorizer",
    "compile_kernel_source",
]
