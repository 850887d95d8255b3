"""Multi-GPU OpenACC runtime: data loader, communication manager, executor."""

from .comm import CommError, CommunicationManager
from .context import AccExecutor, LoopRunStats
from .data_loader import DataEnvironmentError, DataLoader, ManagedArray
from .dirty import DEFAULT_CHUNK_BYTES, TwoLevelDirty
from .kernelctx import KernelContext
from .partition import (
    Block,
    PartitionError,
    owner_of,
    primary_blocks,
    split_tasks,
    window_bounds,
    window_for_tasks,
)
from .reduction_rt import finalize_scalar_reductions
from .writemiss import MissBufferOverflow, RECORD_BYTES, WriteMissBuffer

__all__ = [
    "AccExecutor",
    "LoopRunStats",
    "CommunicationManager",
    "CommError",
    "DataLoader",
    "ManagedArray",
    "DataEnvironmentError",
    "TwoLevelDirty",
    "DEFAULT_CHUNK_BYTES",
    "KernelContext",
    "Block",
    "PartitionError",
    "split_tasks",
    "window_for_tasks",
    "window_bounds",
    "primary_blocks",
    "owner_of",
    "finalize_scalar_reductions",
    "WriteMissBuffer",
    "MissBufferOverflow",
    "RECORD_BYTES",
]
