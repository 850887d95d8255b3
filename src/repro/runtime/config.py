"""One run's configuration: the behaviour flags of
:meth:`repro.AccProgram.run`, validated once and threaded as one frozen,
hashable value through the executor, the data loader, the communication
manager and the transport.

Flags other than ``sanitize`` and ``trace`` change *timing* and leave
results bit-identical, with two known exceptions: a flat reduction merge
(``tree_reduction=False``) on more than two GPUs adds float partials in
another order, and without ``reload_skipping`` a relayout leaves device
values in the host image of a ``create`` array.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, fields

import numpy as np

from .dirty import DEFAULT_CHUNK_BYTES

#: Valid values of the ``collective`` run flag.
COLLECTIVE_MODES = ("none", "auto", "ring", "tree")
#: The transports the (``internode``, ``collective``) run flags select.
TRANSPORTS = ("naive", "staged", "ring", "tree", "auto")

#: What a flag left at ``None`` reads: on unless unset, empty or "0".
_ENVIRONMENT = {"sanitize": "REPRO_SANITIZE", "trace": "REPRO_TRACE"}


@dataclass(frozen=True)
class RunConfig:
    """The behaviour flags of one program run."""

    #: Dirty-bit chunk size in bytes, the unit of replica write
    #: propagation: one DMA per dirty chunk (paper section IV-D1: 1 MB).
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    #: Keep an array resident while its layout matches what the next
    #: loop needs (paper section IV-C).
    reload_skipping: bool = True
    #: Merge reduction partials over a binary tree of GPUs (the
    #: inter-GPU level of the paper's hierarchical reduction, section
    #: IV-B4); ``False`` is the flat gather to GPU 0 of the ablation.
    tree_reduction: bool = True
    #: Pipeline inter-GPU communication with later kernels: each kernel
    #: waits only for the transfers of the arrays it touches, and hidden
    #: GPU-GPU seconds are reported apart from exposed ones.
    overlap: bool = False
    #: Merge adjacent dirty chunks into one bus transaction.
    coalesce: bool = False
    #: Profile-guided task mapping and placement switching
    #: (:mod:`repro.runtime.balancer`); the loader then moves only the
    #: deltas between an array's old and new blocks.
    adaptive: bool = False
    #: Shadow-execute every loop single-GPU and diff it, assert the
    #: coherence invariants and audit ``localaccess`` windows
    #: (:mod:`repro.sanitizer`; raises
    #: :class:`~repro.sanitizer.CoherenceViolation`).  Costs about one
    #: extra launch per task slice, plus one per iteration of a loop with
    #: an audited window.  ``None`` reads ``REPRO_SANITIZE``.
    sanitize: bool | None = None
    #: Record every launch, tagged transfer and runtime decision with its
    #: modeled start and duration on :attr:`repro.ProgramRun.tracer`
    #: (:mod:`repro.trace`).  ``None`` reads ``REPRO_TRACE``.
    trace: bool | None = None
    #: Cross-node route on clusters: ``"staged"`` gathers coherence
    #: traffic to the node host and sends one NIC transfer per node pair;
    #: ``"naive"``, the ablation baseline, sends one per GPU pair.
    internode: str = "staged"
    #: Schedule of the staged route's broadcasts and exchanges
    #: (docs/COLLECTIVES.md): ``"ring"`` (chunked, pipelined), ``"tree"``
    #: (binomial), ``"auto"`` (the cheaper per transfer) or ``"none"``;
    #: any but ``"none"`` also pipelines the staged exchange in NIC-sized
    #: chunks.
    collective: str = "none"

    def __post_init__(self) -> None:
        chunk = self.chunk_bytes
        if isinstance(chunk, bool) or not isinstance(chunk, numbers.Integral):
            raise TypeError(f"chunk_bytes must be an integer, got {chunk!r}")
        if chunk < 1:
            raise ValueError(f"chunk_bytes must be at least 1, got {chunk!r}")
        object.__setattr__(self, "chunk_bytes", int(chunk))
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name in _ENVIRONMENT:
                value = os.environ.get(_ENVIRONMENT[f.name], "") not in (
                    "", "0")
            elif not f.type.startswith("bool"):
                continue
            elif not isinstance(value, (bool, np.bool_)):
                raise TypeError(f"{f.name} must be a bool, got {value!r}")
            object.__setattr__(self, f.name, bool(value))
        if self.internode not in ("staged", "naive"):
            raise ValueError(f"internode must be 'staged' or 'naive', "
                             f"got {self.internode!r}")
        if self.collective not in COLLECTIVE_MODES:
            raise ValueError(f"collective must be one of {COLLECTIVE_MODES}, "
                             f"got {self.collective!r}")
        if self.internode == "naive" and self.collective != "none":
            # The naive transport is the undisturbed ablation baseline:
            # collective schedules only upgrade the staged one.
            raise ValueError(
                f"internode='naive' takes no collective schedule, got "
                f"collective={self.collective!r}: use internode='staged' "
                "or collective='none'")

    @property
    def transport(self) -> str:
        """The one of :data:`TRANSPORTS` that ``internode`` and
        ``collective`` select."""
        return ("naive" if self.internode == "naive" else "staged"
                if self.collective == "none" else self.collective)
