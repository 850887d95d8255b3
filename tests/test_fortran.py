"""Fortran frontend tests: lowering, directives, and end-to-end runs
through the shared compiler/runtime pipeline."""

import numpy as np
import pytest

import repro
from repro.frontend import cast as C
from repro.frontend.fortran import FortranError, parse_fortran
from repro.translator.array_config import Placement, WriteHandling
from tests.interp_oracle import oracle


def run_f(src, args, ngpus=1, interp=False, entry=None):
    prog = repro.compile_fortran(src)
    if entry is None:
        entry = prog.compiled.program.functions[0].name
    args = dict(args)
    run = (oracle(prog) if interp else prog).run(
        entry, args, machine="desktop", ngpus=ngpus)
    return args, run, prog


SAXPY_F = """
subroutine saxpy(n, a, x, y)
  integer :: n
  real :: a
  real :: x(n), y(n)
  integer :: i
  !$acc data copyin(x[0:n]) copy(y[0:n])
  !$acc parallel
  !$acc localaccess x[stride(1)] y[stride(1)]
  !$acc loop gang
  do i = 1, n
    y(i) = a * x(i) + y(i)
  end do
  !$acc end parallel
  !$acc end data
end subroutine saxpy
"""


class TestLowering:
    def test_subscripts_become_zero_based(self):
        prog = parse_fortran(SAXPY_F)
        f = prog.function("saxpy")
        subs = [e for e in C.all_exprs(f.body) if isinstance(e, C.Index)]
        # x(i) -> x[i-1]
        for s in subs:
            idx = s.indices[0]
            assert isinstance(idx, C.BinOp) and idx.op == "-"

    def test_do_loop_becomes_canonical_for(self):
        prog = parse_fortran(SAXPY_F)
        loops = [s for s in C.walk(prog.function("saxpy").body)
                 if isinstance(s, C.For)]
        assert len(loops) == 1
        assert loops[0].cond.op == "<="

    def test_declarations(self):
        src = """
        subroutine t(n, x)
          integer :: n
          real :: x(n)
          double precision :: d
          integer :: counter = 0
          real :: scratch(2 * n)
        end subroutine t
        """
        prog = parse_fortran(src)
        f = prog.function("t")
        assert f.params[1].ctype.pointers == 1
        decls = {s.name: s for s in C.walk(f.body) if isinstance(s, C.Decl)}
        assert decls["d"].ctype.base == "double"
        assert decls["counter"].init.value == 0
        assert decls["scratch"].ctype.is_array

    def test_undeclared_dummy_rejected(self):
        src = """
        subroutine t(n)
        end subroutine t
        """
        with pytest.raises(FortranError):
            parse_fortran(src)

    def test_operators(self):
        src = """
        subroutine ops(n, x, y)
          integer :: n
          real :: x(n), y(n)
          integer :: i
          !$acc parallel loop
          do i = 1, n
            if (x(i) .gt. 0.0 .and. x(i) .lt. 10.0) then
              y(i) = x(i) ** 2
            else
              y(i) = abs(x(i)) + mod(i, 3)
            end if
          end do
        end subroutine ops
        """
        x = np.array([2.0, -3.0, 20.0], dtype=np.float32)
        args, _, _ = run_f(src, {"n": 3, "x": x,
                                 "y": np.zeros(3, np.float32)}, ngpus=2)
        # i is 1-based: mod(1,3)=1, mod(2,3)=2, mod(3,3)=0.
        np.testing.assert_allclose(args["y"], [4.0, 3.0 + 2, 20.0 + 0])

    def test_continuation_lines(self):
        src = """
        subroutine t(n, x)
          integer :: n
          real :: x(n)
          integer :: i
          !$acc parallel loop
          do i = 1, n
            x(i) = 1.0 + &
                   2.0
          end do
        end subroutine t
        """
        args, _, _ = run_f(src, {"n": 4, "x": np.zeros(4, np.float32)})
        assert (args["x"] == 3.0).all()

    def test_comments_stripped(self):
        src = """
        ! leading comment
        subroutine t(n, x)   ! trailing
          integer :: n
          real :: x(n)       ! arrays
          integer :: i
          !$acc parallel loop
          do i = 1, n
            x(i) = 5.0       ! set
          end do
        end subroutine t
        """
        args, _, _ = run_f(src, {"n": 2, "x": np.zeros(2, np.float32)})
        assert (args["x"] == 5.0).all()


class TestEndToEnd:
    def test_saxpy_multi_gpu(self):
        n = 1000
        x = np.arange(n, dtype=np.float32)
        y = np.ones(n, dtype=np.float32)
        args, run, prog = run_f(SAXPY_F, {"n": n, "a": 2.0, "x": x, "y": y},
                                ngpus=2)
        np.testing.assert_allclose(args["y"], 2 * np.arange(n) + 1)
        # The re-based window still proves writes local: no miss checks.
        cfg = prog.kernel("saxpy_L0").config.arrays["y"]
        assert cfg.write_handling == WriteHandling.LOCAL_PROVEN
        assert cfg.placement == Placement.DISTRIBUTED

    def test_engines_agree(self):
        n = 257
        base = None
        for engine in ("vector", "interp"):
            x = np.linspace(-3, 3, n).astype(np.float32)
            y = np.ones(n, dtype=np.float32)
            args, _, _ = run_f(SAXPY_F, {"n": n, "a": 1.5, "x": x, "y": y},
                               ngpus=2, interp=engine == "interp")
            if base is None:
                base = args["y"].copy()
            else:
                np.testing.assert_allclose(args["y"], base)

    def test_reduction(self):
        src = """
        subroutine total(n, x, result)
          integer :: n
          real :: x(n)
          real :: result(1)
          real :: acc = 0.0
          integer :: i
          !$acc parallel
          !$acc loop gang reduction(+:acc)
          do i = 1, n
            acc = acc + x(i)
          end do
          !$acc end parallel
          result(1) = acc
        end subroutine total
        """
        x = np.arange(100, dtype=np.float32)
        out = np.zeros(1, dtype=np.float32)
        args, _, _ = run_f(src, {"n": 100, "x": x, "result": out}, ngpus=2)
        assert args["result"][0] == pytest.approx(x.sum())

    def test_stencil_with_halo(self):
        src = """
        subroutine smooth(n, a, b)
          integer :: n
          real :: a(n), b(n)
          integer :: i
          !$acc parallel
          !$acc localaccess a[stride(1, 1, 1)] b[stride(1)]
          !$acc loop gang
          do i = 1, n
            if (i > 1 .and. i < n) then
              b(i) = (a(i - 1) + a(i) + a(i + 1)) / 3.0
            else
              b(i) = a(i)
            end if
          end do
          !$acc end parallel
        end subroutine smooth
        """
        n = 64
        a = np.arange(n, dtype=np.float32)
        args, run, _ = run_f(src, {"n": n, "a": a,
                                   "b": np.zeros(n, np.float32)}, ngpus=2)
        expect = a.copy()
        expect[1:-1] = (a[:-2] + a[1:-1] + a[2:]) / np.float32(3.0)
        np.testing.assert_allclose(args["b"], expect, rtol=1e-6)

    def test_host_do_while_and_iterative_kernels(self):
        src = """
        subroutine iterate(n, x, steps)
          integer :: n, steps
          real :: x(n)
          integer :: i
          integer :: s = 0
          !$acc data copy(x[0:n])
          do while (s < steps)
            !$acc parallel loop
            do i = 1, n
              x(i) = x(i) + 1.0
            end do
            s = s + 1
          end do
          !$acc end data
        end subroutine iterate
        """
        x = np.zeros(16, dtype=np.float32)
        args, run, _ = run_f(src, {"n": 16, "x": x, "steps": 5}, ngpus=2)
        assert (args["x"] == 5.0).all()
        assert len(run.loop_stats) == 5

    INTEGER_POWER = """
    subroutine sq(n, k, h)
      integer :: n
      integer :: k(n), h(n)
      integer :: i
      !$acc parallel loop copyout(k)
      do i = 1, n
        k(i) = i ** 2
      end do
      do i = 1, n
        h(i) = i ** 2
      end do
    end subroutine sq
    """

    NEGATIVE_POWER = """
    subroutine ng(n, m, k, h)
      integer :: n, m
      integer :: k(n), h(n)
      integer :: i
      !$acc parallel loop copyout(k)
      do i = 1, n
        k(i) = (2 * i - 7) ** m
      end do
      do i = 1, n
        h(i) = (2 * i - 7) ** m
      end do
    end subroutine ng
    """

    @pytest.mark.parametrize("m,want", [(-1, [0, 0, -1, 1, 0]),
                                        (-2, [0, 0, 1, 1, 0]),
                                        (3, [-125, -27, -1, 1, 27])])
    def test_negative_integer_power_truncates(self, m, want):
        """``x ** m`` of integers with ``m < 0`` is ``1 / x**-m``
        truncated (bases -5, -3, -1, 1, 3), in the kernel as on the
        host."""
        args, _, _ = run_f(self.NEGATIVE_POWER, {
            "n": 5, "m": m, "k": np.zeros(5, np.int32),
            "h": np.zeros(5, np.int32)}, ngpus=2)
        assert args["k"].tolist() == want and args["h"].tolist() == want

    @pytest.mark.parametrize("ngpus", [1, 2])
    def test_integer_power_stays_an_integer(self, ngpus):
        """``i ** 2`` of an ``integer`` is an ``integer`` in the kernel
        and on the host: 4099 ** 2 is 16801801, which a float32 power
        rounds to 16801800."""
        n = 4099
        args, _, prog = run_f(self.INTEGER_POWER, {
            "n": n, "k": np.zeros(n, np.int32), "h": np.zeros(n, np.int32)},
            ngpus=ngpus)
        want = (np.arange(1, n + 1, dtype=np.int64) ** 2).tolist()
        assert args["k"].tolist() == want and args["h"].tolist() == want
        text = prog.kernel_source("sq_L0")
        assert "ks.ipow(_i, 2)" in text and "float" not in text

    def test_exit_and_cycle_on_host(self):
        src = """
        subroutine count(n, out)
          integer :: n
          integer :: out(1)
          integer :: i
          integer :: total = 0
          do i = 1, n
            if (mod(i, 2) == 0) then
              cycle
            end if
            if (i > 7) then
              exit
            end if
            total = total + 1
          end do
          out(1) = total
        end subroutine count
        """
        out = np.zeros(1, dtype=np.int32)
        args, _, _ = run_f(src, {"n": 100, "out": out})
        assert args["out"][0] == 4  # 1, 3, 5, 7

    def test_reductiontoarray_from_fortran(self):
        src = """
        subroutine histo(n, nb, bins, w, hist)
          integer :: n, nb
          integer :: bins(n)
          real :: w(n), hist(nb)
          integer :: i
          !$acc parallel loop
          do i = 1, n
            !$acc reductiontoarray(+: hist[0:nb])
            hist(bins(i)) = hist(bins(i)) + w(i)
          end do
        end subroutine histo
        """
        # NOTE: plain 'a = a + v' on an array element is a compound
        # update after lowering?  It is not -- the translator requires
        # the compound form; Fortran has no +=, so the frontend must
        # recognize 'dest(e) = dest(e) + v' under a reductiontoarray
        # directive.  This test pins that behavior.
        bins = np.array([1, 2, 1, 3, 1], dtype=np.int32)  # 1-based bins
        w = np.array([1, 2, 3, 4, 5], dtype=np.float32)
        hist = np.zeros(3, dtype=np.float32)
        args, _, _ = run_f(src, {"n": 5, "nb": 3, "bins": bins, "w": w,
                                 "hist": hist}, ngpus=2)
        np.testing.assert_allclose(args["hist"], [9, 2, 4])


class TestErrors:
    def test_nonunit_step_rejected(self):
        src = """
        subroutine t(n, x)
          integer :: n
          real :: x(n)
          integer :: i
          do i = 1, n, 2
            x(i) = 1.0
          end do
        end subroutine t
        """
        with pytest.raises(FortranError):
            parse_fortran(src)

    def test_unbalanced_end(self):
        src = """
        subroutine t(n)
          integer :: n
          do i = 1, n
        end subroutine t
        """
        with pytest.raises(FortranError):
            parse_fortran(src)

    def test_multidim_array_rejected(self):
        src = """
        subroutine t(n, m)
          integer :: n
          real :: m(n)
          integer :: i
          do i = 1, n
            m(i, 2) = 1.0
          end do
        end subroutine t
        """
        with pytest.raises(FortranError):
            parse_fortran(src)


class TestSharedExpressionParser:
    """The Fortran expression grammar runs on the C parser's cursor and
    precedence climb; these pin what the private copy used to decide."""

    def value_of(self, text):
        prog = parse_fortran(f"""
        subroutine t(a, b, c)
          real :: a, b, c
          a = {text}
        end subroutine t
        """)
        return C.render_expr(prog.functions[0].body.body[0].expr.value)

    def test_power_is_right_associative_and_binds_tightest(self):
        assert self.value_of("a ** b ** c * 2") == \
            self.value_of("(a ** (b ** c)) * 2")

    def test_unary_minus_binds_before_power(self):
        # Not Fortran's -(a**2): the grouping this front end always had.
        assert self.value_of("-a ** 2") == self.value_of("(-a) ** 2")

    def test_dot_operators_share_the_c_ladder(self):
        assert self.value_of("a + b * c .lt. b .and. .not. a /= c") == \
            self.value_of("(((a + (b * c)) < b) .and. ((.not. a) /= c))")

    def test_unreadable_character_is_a_fortran_error(self):
        src = """
        subroutine t(a)
          real :: a
          a = a + $ 1
        end subroutine t
        """
        with pytest.raises(FortranError, match=r"line 4: cannot tokenize '\$ 1'"):
            parse_fortran(src)

    def test_missing_parenthesis_names_the_token(self):
        src = """
        subroutine t(a)
          real :: a
          a = (a + 1
        end subroutine t
        """
        with pytest.raises(FortranError, match=r"expected '\)' near ''"):
            parse_fortran(src)


class TestFortranExpressions:
    def run_expr(self, expr, env):
        decls = "\n          ".join(
            f"real :: {k}" if isinstance(v, float) else f"integer :: {k}"
            for k, v in env.items())
        src = f"""
        subroutine f({', '.join(env)}, out)
          {decls}
          real :: out(1)
          out(1) = {expr}
        end subroutine f
        """
        out = np.zeros(1, dtype=np.float32)
        prog = repro.compile_fortran(src)
        prog.run("f", {**env, "out": out})
        return float(out[0])

    def test_power_operator(self):
        assert self.run_expr("a ** 3", {"a": 2.0}) == pytest.approx(8.0)

    def test_power_right_associative(self):
        assert self.run_expr("a ** 2 ** 3", {"a": 2.0}) == \
            pytest.approx(2.0 ** 8)

    def test_dot_comparisons_and_logicals(self):
        v = self.run_expr(
            "abs(a)", {"a": -4.5})
        assert v == pytest.approx(4.5)

    def test_d_exponent_literal(self):
        assert self.run_expr("1.5d0 * a", {"a": 2.0}) == pytest.approx(3.0)

    def test_e_exponent_literal(self):
        assert self.run_expr("2.5e1 + a", {"a": 0.5}) == pytest.approx(25.5)

    def test_intrinsics(self):
        assert self.run_expr("max(a, 2.0) + min(a, 2.0)", {"a": 5.0}) == \
            pytest.approx(7.0)
        assert self.run_expr("sqrt(a)", {"a": 16.0}) == pytest.approx(4.0)

    def test_integer_mod(self):
        assert self.run_expr("real(mod(k, 3))", {"k": 7}) == \
            pytest.approx(1.0)

    def test_unary_minus_precedence(self):
        assert self.run_expr("-a * 2.0", {"a": 3.0}) == pytest.approx(-6.0)

    def test_division(self):
        assert self.run_expr("a / 4.0", {"a": 10.0}) == pytest.approx(2.5)

    def test_single_line_if(self):
        src = """
        subroutine f(a, out)
          real :: a
          real :: out(1)
          out(1) = 0.0
          if (a > 1.0) out(1) = 9.0
        end subroutine f
        """
        out = np.zeros(1, dtype=np.float32)
        repro.compile_fortran(src).run("f", {"a": 2.0, "out": out})
        assert out[0] == 9.0

    def test_else_if_chain(self):
        src = """
        subroutine f(a, out)
          real :: a
          real :: out(1)
          if (a < 0.0) then
            out(1) = -1.0
          else if (a < 10.0) then
            out(1) = 1.0
          else
            out(1) = 2.0
          end if
        end subroutine f
        """
        prog = repro.compile_fortran(src)
        for val, want in ((-5.0, -1.0), (5.0, 1.0), (50.0, 2.0)):
            out = np.zeros(1, dtype=np.float32)
            prog.run("f", {"a": val, "out": out})
            assert out[0] == want, val

    def test_true_false_literals(self):
        src = """
        subroutine f(out)
          real :: out(1)
          integer :: flag = 0
          if (.true.) then
            flag = 1
          end if
          out(1) = real(flag)
        end subroutine f
        """
        out = np.zeros(1, dtype=np.float32)
        repro.compile_fortran(src).run("f", {"out": out})
        assert out[0] == 1.0


SCALE_F = """
subroutine scale(n, x, y)
  integer :: n
  {kind} :: x(n), y(n)
  integer :: i
  !$acc data copyin(x[0:n]) copyout(y[0:n])
  !$acc parallel
  !$acc localaccess x[stride(1)] y[stride(1)]
  !$acc loop gang
  do i = 1, n
    y(i) = x(i) * {literal}
  end do
  !$acc end parallel
  !$acc end data
end subroutine scale
"""


class TestRealLiteralKind:
    """A real literal keeps its kind, as gfortran reads it: ``0.1d0`` or
    ``0.1_8`` is the double 0.1, a plain ``0.1`` the default-kind real
    (widened where it meets a ``real(8)``)."""

    @pytest.mark.parametrize("text,ty", [
        ("0.1", "float"), ("2.5E-3", "float"), ("1.0_4", "float"),
        ("1.e3_sp", "float"), ("0.1d0", "double"), ("1D+4", "double"),
        ("1.0_8", "double"), ("3.0_dp", "double"), ("1.e3_real64", "double"),
    ])
    def test_kind_gives_the_c_type(self, text, ty):
        tree = parse_fortran(f"""
        subroutine f(a)
          real(8) :: a
          a = {text}
        end subroutine f
        """)
        lit = tree.functions[0].body.body[-1].expr.value
        assert isinstance(lit, C.FloatLit) and lit.ty == ty

    @pytest.mark.parametrize("ngpus", [1, 2])
    @pytest.mark.parametrize("kind,literal,want", [
        ("real(8)", "0.1d0", lambda x: x * 0.1),
        ("real(8)", "0.1_8", lambda x: x * 0.1),
        ("real(8)", "0.1", lambda x: x * np.float64(np.float32(0.1))),
        ("real", "0.1d0",
         lambda x: (x.astype(np.float64) * 0.1).astype(np.float32)),
        ("real", "0.1", lambda x: x * np.float32(0.1)),
    ])
    def test_scaled_array_matches_numpy(self, kind, literal, want, ngpus):
        dtype = np.float64 if kind == "real(8)" else np.float32
        n = 257
        x = np.random.default_rng(5).random(n).astype(dtype)
        y = np.zeros(n, dtype)
        prog = repro.compile_fortran(
            SCALE_F.format(kind=kind, literal=literal))
        prog.run("scale", {"n": n, "x": x, "y": y}, ngpus=ngpus)
        expected = want(x)
        assert expected.dtype == dtype
        assert y.tobytes() == expected.tobytes()
