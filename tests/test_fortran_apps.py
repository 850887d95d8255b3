"""Cross-frontend application check: the MD benchmark written in
Fortran must produce bit-identical results to the C version -- both
lower to the same AST and the same generated kernels."""

import numpy as np

import repro
from repro.apps.md import SPEC as MD_C

MD_FORTRAN = """
subroutine md(natoms, maxneigh, cutsq, lj1, lj2, pos, neigh, force)
  integer :: natoms, maxneigh
  real :: cutsq, lj1, lj2
  real :: pos(natoms * 3)
  integer :: neigh(natoms * maxneigh)
  real :: force(natoms * 3)
  integer :: i, jj, j
  real :: ix, iy, iz, fx, fy, fz
  real :: dx, dy, dz, r2, r2inv, r6inv, fc
  !$acc data copyin(pos[0:natoms*3], neigh[0:natoms*maxneigh]) copyout(force[0:natoms*3])
  !$acc parallel
  !$acc localaccess neigh[stride(maxneigh)] force[stride(3)]
  !$acc loop gang private(ix, iy, iz, fx, fy, fz, dx, dy, dz, r2, r2inv, r6inv, fc, j)
  do i = 1, natoms
    ix = pos((i - 1) * 3 + 1)
    iy = pos((i - 1) * 3 + 2)
    iz = pos((i - 1) * 3 + 3)
    fx = 0.0
    fy = 0.0
    fz = 0.0
    do jj = 1, maxneigh
      j = neigh((i - 1) * maxneigh + jj)
      dx = ix - pos(j * 3 + 1)
      dy = iy - pos(j * 3 + 2)
      dz = iz - pos(j * 3 + 3)
      r2 = dx * dx + dy * dy + dz * dz
      if (r2 < cutsq) then
        r2inv = 1.0 / r2
        r6inv = r2inv * r2inv * r2inv
        fc = r2inv * r6inv * (lj1 * r6inv - lj2)
        fx = fx + dx * fc
        fy = fy + dy * fc
        fz = fz + dz * fc
      end if
    end do
    force((i - 1) * 3 + 1) = fx
    force((i - 1) * 3 + 2) = fy
    force((i - 1) * 3 + 3) = fz
  end do
  !$acc end parallel
  !$acc end data
end subroutine md
"""
# Note the neighbor gather: the C source indexes pos[j*3] with j a
# 0-based atom id; the Fortran twin therefore reads pos(j*3 + 1) --
# element number j*3+1 is 0-based index j*3.


class TestFortranMd:
    def run_both(self, ngpus):
        args_c = MD_C.args_for("tiny")
        c_prog = repro.compile(MD_C.source)
        c_prog.run(MD_C.entry, args_c, machine="desktop", ngpus=ngpus)

        args_f = MD_C.args_for("tiny")
        f_prog = repro.compile_fortran(MD_FORTRAN)
        f_prog.run("md", args_f, machine="desktop", ngpus=ngpus)
        return args_c, args_f, c_prog, f_prog

    def test_identical_forces_1gpu(self):
        c, f, _, _ = self.run_both(1)
        np.testing.assert_array_equal(c["force"], f["force"])

    def test_identical_forces_2gpu(self):
        c, f, _, _ = self.run_both(2)
        np.testing.assert_array_equal(c["force"], f["force"])

    def test_identical_array_configs(self):
        _, _, c_prog, f_prog = self.run_both(1)
        c_cfg = c_prog.kernel("md_L0").config.arrays
        f_cfg = f_prog.kernel("md_L0").config.arrays
        assert set(c_cfg) == set(f_cfg)
        for name in c_cfg:
            assert c_cfg[name].placement == f_cfg[name].placement, name
            assert c_cfg[name].write_handling == \
                f_cfg[name].write_handling, name

    def test_fortran_kernel_vectorized(self):
        f_prog = repro.compile_fortran(MD_FORTRAN)
        plan = f_prog.kernel("md_L0")
        assert plan.fn is not None
