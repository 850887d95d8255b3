"""repro: a reproduction of "Integrating Multi-GPU Execution in an
OpenACC Compiler" (Komoda, Miwa, Nakamura, Maruyama -- ICPP 2013).

The package implements the paper's full stack:

* :mod:`repro.frontend` -- C-subset + OpenACC frontend, including the
  paper's ``localaccess`` and ``reductiontoarray`` directive extensions;
* :mod:`repro.translator` -- the translator: vectorized NumPy kernel
  code generation, dirty-bit/write-miss instrumentation, array
  configuration information, automatic ``localaccess`` inference,
  static cost analysis, host execution;
* :mod:`repro.runtime` -- the multi-GPU runtime: data loader with
  replica/distribution placement, two-level dirty-bit inter-GPU
  communication manager, write-miss routing, hierarchical reductions;
* :mod:`repro.vcuda` -- the virtual CUDA platform (devices, PCIe bus,
  virtual clock) standing in for the paper's 2-GPU desktop and 3-GPU
  TSUBAME2.0 node;
* :mod:`repro.cpu` -- the OpenMP baseline executor;
* :mod:`repro.apps` -- the paper's benchmarks (MD, KMEANS, BFS) in
  OpenACC C, with input generators and NumPy references;
* :mod:`repro.bench` -- the harness regenerating the paper's tables
  and figures;
* :mod:`repro.explain` -- per-loop, per-array placement reports
  (declared vs inferred vs replica; also
  ``python -m repro.explain``).
"""

from .api import AccProgram, ProgramRun, compile, compile_fortran
from .sanitizer import CoherenceViolation
from .translator.compiler import CompileError, CompileOptions
from .vcuda.specs import (CLUSTERS, DESKTOP_MACHINE, MACHINES,
                          SUPERCOMPUTER_NODE, TSUBAME_CLUSTER, cluster_of)

__version__ = "1.0.0"

__all__ = [
    "compile",
    "compile_fortran",
    "AccProgram",
    "ProgramRun",
    "CompileOptions",
    "CompileError",
    "CoherenceViolation",
    "MACHINES",
    "CLUSTERS",
    "DESKTOP_MACHINE",
    "SUPERCOMPUTER_NODE",
    "TSUBAME_CLUSTER",
    "cluster_of",
    "__version__",
]
