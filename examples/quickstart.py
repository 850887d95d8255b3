#!/usr/bin/env python
"""Quickstart: compile a single-GPU OpenACC program and run it on 1 and
2 virtual GPUs, unchanged -- the paper's core promise.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro

# A plain OpenACC program (no multi-GPU code anywhere).  The only
# additions over stock OpenACC are the paper's `localaccess` hints,
# which tell the compiler each iteration's read window so the runtime
# can *distribute* the arrays instead of replicating them.
SOURCE = r"""
void saxpy(int n, float a, float *x, float *y) {
  #pragma acc data copyin(x[0:n]) copy(y[0:n])
  {
    #pragma acc parallel
    {
      #pragma acc localaccess x[stride(1)] y[stride(1)]
      #pragma acc loop gang
      for (int i = 0; i < n; i++) {
        y[i] = a * x[i] + y[i];
      }
    }
  }
}
"""


def main() -> None:
    prog = repro.compile(SOURCE)

    print("=== generated kernel (vectorized NumPy) ===")
    print(prog.kernel_source("saxpy_L0"))

    n = 1 << 20
    for ngpus in (1, 2):
        x = np.arange(n, dtype=np.float32)
        y = np.ones(n, dtype=np.float32)
        run = prog.run("saxpy", {"n": n, "a": 2.0, "x": x, "y": y},
                       machine="desktop", ngpus=ngpus, trace=True)
        ok = np.allclose(y, 2.0 * np.arange(n) + 1.0)
        bd = run.breakdown
        print(f"\n--- {ngpus} GPU(s) ---")
        print(f"correct:          {ok}")
        print(f"modeled time:     {run.elapsed * 1e3:.3f} ms")
        print(f"  kernels:        {bd.kernels * 1e3:.3f} ms")
        print(f"  host<->device:  {bd.cpu_gpu * 1e3:.3f} ms")
        print(f"  GPU<->GPU:      {bd.gpu_gpu * 1e3:.3f} ms")
        print(f"device memory:    {run.memory_high_water() / 1e6:.2f} MB "
              f"(user {run.memory_high_water('user') / 1e6:.2f} MB)")
        assert ok
        if ngpus == 2:
            print("\ntimeline (virtual time):")
            print(repro.trace.gantt(run.tracer))


if __name__ == "__main__":
    main()
