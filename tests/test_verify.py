import dataclasses
import json
import math
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tbdde import verify
from tbdde import (DdeModel, Functionals, InputError, NearSingular, TbCandidate,
                   TbddeError, build, certify, compute_basis, linalg, linearize,
                   newton_solve, predator_prey, spectral_scan, synthetic_tb)
from tbdde.defining import jacobian, residual
from tbdde.eigenstructure import tb_existence_test
from tbdde.model import eval_f, jac_x, jac_y
from tbdde.verify import characteristic, double_zero_check, quadratic_check

TB_X = np.array([1.0, 1.0])
TB_SOL = TbCandidate(x=TB_X, phi1=np.array([1.0, 0.0]),
                     phi2=np.array([0.0, -2.0]), lam=0.5, mu=2.0)

# frozen from the independent scalar root finder (Lambert W of -1, see
# tools/synthetic_oracle.py)
DELAYED_SCALAR_ROOT = -0.31813150520476413 + 1.3372357014306894j


def scalar_model(delayed):
    if delayed:
        return DdeModel(n=1, tau=1.0, f=lambda x, y, l, u: -y)
    return DdeModel(n=1, tau=1.0, f=lambda x, y, l, u: -x)


def pp_equilibrium(D, K=2.0):
    x1 = (1.0 - np.sqrt(1.0 - 4.0 * D * D)) / (2.0 * D)
    return np.array([x1, (1.0 - x1 / K) * (1.0 + x1 * x1)])


def double_zero_scalar(tau=1.0):
    """x' = lambda + 2x + mu x(t-tau) - x^2: a double zero at x = 1 - 1/(2 tau),
    mu = -1/tau (x = 1/2, mu = -1 for tau = 1)."""
    return DdeModel(n=1, tau=tau,
                    f=lambda x, y, l, u: l + 2.0 * x + u * y - x ** 2,
                    d1=lambda x, y, l, u: np.array([[2.0 - 2.0 * x[0]]]),
                    d2=lambda x, y, l, u: np.array([[u]]))


def synthetic_with_hidden_component():
    """synthetic-tb plus x2' = x0 - (pi/2) x2(t-1), whose factor of Delta,
    z + (pi/2) exp(-z), vanishes at z = +-i pi/2."""
    base = synthetic_tb()

    def d1(x, y, l, u):
        J = np.zeros((3, 3))
        J[:2, :2] = base.d1(x[:2], y[:2], l, u)
        J[2, 0] = 1.0
        return J

    def d2(x, y, l, u):
        J = np.zeros((3, 3))
        J[:2, :2] = base.d2(x[:2], y[:2], l, u)
        J[2, 2] = -0.5 * np.pi
        return J

    return DdeModel(
        n=3, tau=1.0,
        f=lambda x, y, l, u: np.append(base.f(x[:2], y[:2], l, u),
                                       x[0] - 0.5 * np.pi * y[2]),
        d1=d1, d2=d2)


def lifted_linear(n, seed, hidden=False, turns=0):
    """The linearization of a lifted model at its double zero, as a linear model.

    synthetic-tb's f1 and f2 on (x0, x1), plus n - 2 components
    x_k' = -a_k x_k + b_k x_k(t-1) + c_k x0 with a_k in [1, 2] and |b_k| <= 1/2,
    whose roots have Re z < -0.3.  A hidden last component,
    x_k' = -w x_k(t-1) + c_k x0 with w = pi/2 + 2 pi turns, adds the roots
    +-i w and, for turns > 0, others off the axis.
    """
    base = synthetic_tb()
    rng = np.random.default_rng([seed, n, int(hidden)])
    a, b, c = (rng.uniform(lo, hi, n - 2) for lo, hi in ((1.0, 2.0), (-0.5, 0.5), (-1.0, 1.0)))
    if hidden:
        a[-1], b[-1] = 0.0, -(0.5 + 2.0 * turns) * np.pi
    F1, F2 = np.zeros((n, n)), np.zeros((n, n))
    F1[:2, :2] = jac_x(base, np.zeros(2), np.zeros(2), 0.0, 0.0)
    F2[:2, :2] = jac_y(base, np.zeros(2), np.zeros(2), 0.0, 0.0)
    rows = np.arange(2, n)
    F1[rows, rows], F2[rows, rows], F1[2:, 0] = -a, b, c
    return DdeModel(n=n, tau=1.0, f=lambda x, y, l, u: F1 @ x + F2 @ y,
                    d1=lambda x, y, l, u: F1, d2=lambda x, y, l, u: F2)


DEFAULT_BOX = ((-1.0, 1.0), (-8.0, 8.0))


def counted_matrices(monkeypatch, *names):
    """Count, by name, the matrices given to the np.linalg functions ``names``
    from now on: a stack counts each of its matrices."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(M, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += len(M) if np.ndim(M) == 3 else 1
            return _fn(M, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def linear_model(f1, f2):
    """x' = f1 x + f2 x(t-1), with both matrices supplied."""
    f1, f2 = np.atleast_2d(f1).astype(float), np.atleast_2d(f2).astype(float)
    return DdeModel(n=f1.shape[0], tau=1.0, f=lambda x, y, l, u: f1 @ x + f2 @ y,
                    d1=lambda x, y, l, u: f1, d2=lambda x, y, l, u: f2)


def todays_size(box):
    """The collocation oracle's number of Chebyshev intervals on ``box``."""
    return max(12, math.ceil(2.0 * max(abs(box[1][0]), abs(box[1][1]))))


def chebyshev_diff(N):
    """Differentiation matrix on the N+1 Chebyshev points cos(pi j / N) of [-1, 1]."""
    t = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.ones(N + 1)
    c[0] = c[N] = 2.0
    c *= (-1.0) ** np.arange(N + 1)
    D = np.outer(c, 1.0 / c) / (t[:, None] - t[None, :] + np.eye(N + 1))
    return D - np.diag(D.sum(axis=1))


def collocation_roots(model, x, lam, mu, box=DEFAULT_BOX):
    """The oracle: every root of Delta in ``box`` widened by 0.5, found in a box
    rather than by excluding the axis.

    The seeds are the eigenvalues of a Chebyshev collocation of the DDE's
    infinitesimal generator on [-1, 0] with N = todays_size(box) intervals
    (Breda, Maset and Vermiglio, SIAM J. Sci. Comput. 27, 2005): the first
    block row imposes phi'(0) = f1 phi(0) + f2 phi(-1), the others are the
    differentiation matrix.  They are polished together by Newton on Delta
    with central differences, and a result is kept when |Delta| is at
    rounding level, 1e-10 |M|^n with |M| <= |z| + |f1|_2 + |f2|_2 |e^{-z}|
    (Hadamard).  Sorted by modulus, duplicates within 1e-6 dropped.
    """
    x = np.asarray(x, dtype=float)
    f1, f2 = jac_x(model, x, x, lam, mu), jac_y(model, x, x, lam, mu)
    n, N = model.n, todays_size(box)
    (re_lo, re_hi), (im_lo, im_hi) = box
    A = np.kron(2.0 * chebyshev_diff(N), np.eye(n))
    A[:n] = 0.0
    A[:n, :n], A[:n, -n:] = f1, f2

    def delta(z):
        return np.linalg.det(z[:, None, None] * np.eye(n) - f1
                             - np.exp(-z)[:, None, None] * f2)

    z = np.linalg.eigvals(A)
    with np.errstate(all="ignore"):
        for _ in range(40):
            h = np.finfo(float).eps ** (1.0 / 3.0) * np.maximum(1.0, np.abs(z))
            d, dp, dm = delta(np.concatenate([z, z + h, z - h])).reshape(3, -1)
            z = z - d * 2.0 * h / (dp - dm)
        norm = np.abs(z) + np.linalg.norm(f1, 2) + np.linalg.norm(f2, 2) * np.abs(np.exp(-z))
        z = z[(re_lo - 0.5 <= z.real) & (z.real <= re_hi + 0.5) & (im_lo - 0.5 <= z.imag)
              & (z.imag <= im_hi + 0.5) & (np.abs(delta(z)) <= 1e-10 * norm ** n)]
    roots = []
    for r in sorted(z.tolist(), key=lambda r: (abs(r), r.imag)):
        if not any(abs(r - q) < 1e-6 for q in roots):
            roots.append(r)
    return roots


def stand_in_error(N, box, h):
    """max |r_N(z) e^z - 1| on the boundary of ``box`` widened by 0.5, sampled
    every h, where r_N(z) = e_N^T (zI - E)^-1 d, E = 2 D_N[1:, 1:] and
    d = 2 D_N[1:, 0], is the collocation's stand-in for e^{-z}; inf when an
    eigenvalue of E lies inside the widened box."""
    D = 2.0 * chebyshev_diff(N)
    E, d = D[1:, 1:], D[1:, 0]
    (a, b), (c, e) = box
    a, b, c, e = a - 0.5, b + 0.5, c - 0.5, e + 0.5
    poles = np.linalg.eigvals(E)
    if np.any((a <= poles.real) & (poles.real <= b) & (c <= poles.imag) & (poles.imag <= e)):
        return np.inf
    corners = [complex(a, c), complex(b, c), complex(b, e), complex(a, e)]
    worst = 0.0
    for z0, z1 in zip(corners, corners[1:] + corners[:1]):
        m = math.ceil(abs(z1 - z0) / h)
        for z in z0 + (z1 - z0) * np.arange(m) / m:
            r = np.linalg.solve(z * np.eye(N) - E, d.astype(complex))[-1]
            worst = max(worst, abs(r * np.exp(z) - 1.0))
    return worst


@pytest.fixture
def pp():
    return predator_prey()


class TestCharacteristic:
    def test_tb_point_zero(self, pp):
        assert characteristic(pp, TB_X, 0.5, 2.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_undelayed(self):
        m = scalar_model(delayed=False)
        assert characteristic(m, [0.0], 0.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-9)
        z = 0.7 + 0.3j
        assert characteristic(m, [0.0], 0.0, 0.0, z) == pytest.approx(z + 1.0, abs=1e-9)

    def test_scalar_delayed_on_imaginary_axis(self):
        # Delta(i pi/2) = i pi/2 + exp(-i pi/2) = i (pi/2 - 1)
        m = scalar_model(delayed=True)
        got = characteristic(m, [0.0], 0.0, 0.0, 0.5j * np.pi)
        assert got == pytest.approx(1j * (np.pi / 2.0 - 1.0), abs=1e-9)

    def test_complex_step_vs_central_difference(self, pp):
        hc = 1e-100
        cs = characteristic(pp, TB_X, 0.5, 2.0, 1j * hc).imag / hc
        h = np.finfo(float).eps ** (1.0 / 3.0)
        cd = ((characteristic(pp, TB_X, 0.5, 2.0, h)
               - characteristic(pp, TB_X, 0.5, 2.0, -h)) / (2.0 * h)).real
        assert cs == pytest.approx(cd, abs=1e-6 * max(1.0, abs(cs)))

    @pytest.mark.parametrize("z", [[0.1, 0.2], np.ones(3), "0.1", None, True, np.nan,
                                   complex(np.inf, 0.0)],
                             ids=["list", "vector", "string", "none", "bool", "nan", "inf"])
    def test_z_that_is_not_one_finite_number_is_input_error(self, pp, z):
        # a list raised TypeError ("bad operand type for unary -"), a vector
        # numpy's broadcasting ValueError, a string UFuncTypeError, and nan or
        # inf a RuntimeWarning from det
        with pytest.raises(InputError, match="^z must be one finite number"):
            characteristic(pp, TB_X, 0.5, 2.0, z)

    def test_numpy_numbers_are_accepted_as_z(self, pp):
        for z in (np.float64(0.1), np.complex128(0.1j), np.int64(1)):
            assert characteristic(pp, TB_X, 0.5, 2.0, z) == characteristic(
                pp, TB_X, 0.5, 2.0, complex(z))


class TestDoubleZeroCheck:
    def test_tb_point_passes(self, pp):
        res, range_value, nd_value, ok = double_zero_check(pp, TB_X, 0.5, 2.0)
        assert ok
        assert res == 0.0 and range_value == 0.0
        assert nd_value == pytest.approx(-2.0, abs=1e-12)

    def test_perturbed_parameters_fail(self, pp):
        D = 0.45
        x = pp_equilibrium(D)
        res, _, _, ok = double_zero_check(pp, x, D, 2.0)
        assert res <= 1e-15 and not ok

    def test_scalar_undelayed_fails(self):
        # an equilibrium whose f1 + f2 = -1 is regular: no zero root
        m = scalar_model(delayed=False)
        res, range_value, _, ok = double_zero_check(m, [0.0], 0.0, 0.0)
        assert not ok and res == 0.0 and np.isnan(range_value)

    def test_off_equilibrium_fails_without_warning(self, pp):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not double_zero_check(pp, [1.3, 1.3], 0.5, 2.0)[3]

    def test_off_equilibrium_fails(self):
        # Delta has a double zero at x = 0.5 for every lambda, but x is an
        # equilibrium only at lambda = -1/4; at lambda = 3, |f| = 3.25
        m = double_zero_scalar()
        res, range_value, nd_value, ok = double_zero_check(m, [0.5], 3.0, -1.0)
        assert res == 3.25 and range_value == 0.0 and nd_value == 0.5
        assert not ok
        v = certify(linearize(m, [0.5], 3.0, -1.0))
        assert v.checks["equilibrium"].value == 3.25
        assert all(v.checks[name].ok for name in ("rank", "range", "nondegeneracy"))
        assert not v.checks["equilibrium"].ok and not v.passed


class TestBorderedCharacteristic:
    """The existence test's values are the derivatives at 0 of Govaerts' g(z),
    the last component of the solution of [[M(z), psi2^T], [phi1^T, 0]] (v, g)
    = (0, 1), M(z) = zI - f1 - f2 e^{-z}: g'(0) = -range and g''(0) =
    -2 nondegeneracy.  g is Delta / det B, Delta's double root without
    its scale, and its stencil here is the oracle of that identity."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2 ** 16), tau=st.floats(0.5, 2.0),
           shift=st.just(0.0) | st.floats(-1.0, 1.0))
    def test_existence_values_are_derivatives_of_g(self, n, seed, tau, shift):
        # shift moves a coupling x1' = shift (x0(t-1) - x0(t)) behind the
        # delay: f1 + f2 stays the same, and "range" fails unless shift = 0
        m = dataclasses.replace(lifted_linear(n, seed), tau=tau)
        x = np.zeros(n)
        E = np.outer(np.eye(n)[1], np.eye(n)[0])
        f1 = jac_x(m, x, x, 0.0, 0.0) - shift * E
        f2 = jac_y(m, x, x, 0.0, 0.0) + shift * E
        existence = tb_existence_test(f1, f2)
        _, phi1, psi2, _ = linalg.rank_and_nullspace(f1 + f2)

        def g(z):
            B = np.zeros((n + 1, n + 1), dtype=complex)
            B[:n, :n] = z * np.eye(n) - f1 - f2 * np.exp(-z)
            B[:n, n], B[n, :n] = psi2, phi1
            return np.linalg.solve(B, np.eye(n + 1)[n])[n]

        hc, h = 1e-100, np.finfo(float).eps ** 0.25
        slope = g(1j * hc).imag / hc
        range_check = existence.checks["range"]
        assert abs(slope + range_check.value) <= 1e-8 * max(1.0, abs(range_check.value))
        if range_check.ok:
            curvature = ((g(h) - 2.0 * g(0.0) + g(-h)) / (h * h)).real
            nondegeneracy = existence.checks["nondegeneracy"].value
            assert curvature == pytest.approx(-2.0 * nondegeneracy, rel=1e-5)


class TestSpectralScan:
    # the box tests of the former collocation scan run on the oracle
    def test_scalar_undelayed_single_root(self):
        m = scalar_model(delayed=False)
        roots = collocation_roots(m, [0.0], 0.0, 0.0, box=((-2.0, 0.0), (-1.0, 1.0)))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(-1.0, abs=1e-9)
        assert spectral_scan(m, [0.0], 0.0, 0.0) == ([], [])

    def test_scalar_delayed_principal_pair(self):
        m = scalar_model(delayed=True)
        roots = collocation_roots(m, [0.0], 0.0, 0.0, box=((-1.0, 1.0), (0.0, 8.0)))
        assert any(abs(r - DELAYED_SCALAR_ROOT) < 1e-8 for r in roots)

    def test_scalar_delayed_default_box_exact(self):
        # every other root of z + exp(-z) has Re z < -2, and none is near the axis
        m = scalar_model(delayed=True)
        roots = collocation_roots(m, [0.0], 0.0, 0.0)
        assert len(roots) == 2
        want = sorted([DELAYED_SCALAR_ROOT, DELAYED_SCALAR_ROOT.conjugate()],
                      key=lambda z: z.imag)
        for got, z in zip(sorted(roots, key=lambda z: z.imag), want):
            assert abs(got - z) <= 1e-12
        assert spectral_scan(m, [0.0], 0.0, 0.0) == ([], [])

    @pytest.mark.parametrize("a", [0.3, 2.0, 6.0])
    def test_scalar_delayed_all_branches(self, a):
        # the roots of z + a exp(-z) are the branches W_k(-a) of Lambert W;
        # the oracle must return every one inside the box widened by 0.5
        mpmath = pytest.importorskip("mpmath")
        want = {complex(mpmath.lambertw(-a, k)) for k in range(-8, 9)}
        want = [z for z in want if abs(z.real) <= 1.5 and abs(z.imag) <= 8.5]
        m = DdeModel(n=1, tau=1.0, f=lambda x, y, l, u: -a * y)
        roots = collocation_roots(m, [0.0], 0.0, 0.0)
        assert len(roots) == len(want) > 0
        for z in want:
            assert min(abs(z - r) for r in roots) <= 1e-10

    def test_tb_point_contains_zero(self, pp):
        roots = collocation_roots(pp, TB_X, 0.5, 2.0)
        assert any(abs(r) < 1e-8 for r in roots)

    @pytest.mark.parametrize("omega", [0.5 * np.pi, 2.5 * np.pi, 8.5 * np.pi],
                             ids=["pi/2", "5pi/2", "17pi/2"])
    def test_imaginary_pair_warns(self, omega):
        # x' = -omega x(t-1) has roots +-i omega, and R = omega e^delta bounds
        # the search: no box to outgrow
        m = DdeModel(n=1, tau=1.0, f=lambda x, y, l, u: -omega * y,
                     d1=lambda x, y, l, u: np.zeros((1, 1)),
                     d2=lambda x, y, l, u: np.array([[-omega]]))
        roots, warn = spectral_scan(m, [0.0], 0.0, 0.0)
        assert len(warn) == 2 and roots == warn
        got = sorted(warn, key=lambda z: z.imag)
        assert abs(got[0] + 1j * omega) <= 1e-10
        assert abs(got[1] - 1j * omega) <= 1e-10

    def test_hidden_axis_pair_beside_double_zero(self):
        m = synthetic_with_hidden_component()
        x = np.zeros(3)
        assert double_zero_check(m, x, 0.0, 0.0)[3]
        roots, warn = spectral_scan(m, x, 0.0, 0.0)
        assert roots == [0j] + warn
        got = sorted(warn, key=lambda z: z.imag)
        assert len(got) == 2
        assert abs(got[0] + 0.5j * np.pi) <= 1e-10
        assert abs(got[1] - 0.5j * np.pi) <= 1e-10

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_hidden_pair_of_a_larger_model(self, n):
        # a product of n - 1 factors of Delta made the former |Delta| <= 1e-10
        # acceptance drop +-i pi/2 from n = 24
        roots, warn = spectral_scan(lifted_linear(n, 0, hidden=True), np.zeros(n), 0.0, 0.0)
        assert roots == [0j] + warn and len(warn) == 2
        assert abs(warn[0] + 0.5j * np.pi) <= 1e-10
        assert abs(warn[1] - 0.5j * np.pi) <= 1e-10

    @pytest.mark.parametrize("n", [4, 8])
    def test_seventeen_pi_halves_without_a_box(self, n):
        omega = 8.5 * np.pi
        roots, warn = spectral_scan(lifted_linear(n, 3, True, 4), np.zeros(n), 0.0, 0.0)
        assert roots == [0j] + warn and len(warn) == 2
        assert abs(warn[0] + 1j * omega) <= 1e-10
        assert abs(warn[1] - 1j * omega) <= 1e-10

    def test_large_model_proved_clear(self):
        n = 128
        assert spectral_scan(lifted_linear(n, 0), np.zeros(n), 0.0, 0.0) == ([0j], [])

    def test_tb_point_roots_are_the_double_zero(self, pp):
        assert spectral_scan(pp, TB_X, 0.5, 2.0) == ([0j], [])

    @pytest.mark.parametrize("f1,f2,want,double", [
        (np.zeros((1, 1)), np.zeros((1, 1)), [0j], False),
        (np.diag([0.0, -1.0]), np.zeros((2, 2)), [0j], False),
        (np.array([[1.0]]), np.array([[-1.0]]), [], True),
        (np.array([[0.0, 0.1], [-0.1, 0.0]]), np.zeros((2, 2)), [-0.1j, 0.1j], False),
        (np.array([[0.0, 0.01], [-0.01, 0.0]]), np.zeros((2, 2)), [-0.01j, 0.01j], False),
        (np.diag([0.002, -0.002]), np.zeros((2, 2)), [], False),
    ], ids=["simple-zero", "fold", "double-zero", "pair-0.1", "pair-0.01", "split"])
    def test_roots_at_zero(self, f1, f2, want, double):
        # one root in the disk is an axis root like any other; two are the
        # double zero, reported in roots only, when both are within delta of
        # 0: a small Hopf pair +-i w or a real pair +-0.002 is not it
        roots, warn = spectral_scan(linear_model(f1, f2), np.zeros(len(f1)), 0.0, 0.0)
        assert len(warn) == len(want)
        assert all(abs(r - q) <= 1e-12 for r, q in zip(warn, want))
        assert roots == [0j] * double + warn

    def test_newton_that_does_not_converge_is_near_singular(self, monkeypatch):
        # one Newton step cannot reach +-i pi/2 to 1e-12: no root and no
        # proof of a clear axis, so the scan refuses instead of dropping it
        monkeypatch.setattr(verify, "_NEWTON_STEPS", 1)
        with pytest.raises(NearSingular, match="not at a root"):
            spectral_scan(lifted_linear(3, 0, hidden=True), np.zeros(3), 0.0, 0.0)

    def test_strong_delayed_coupling_stays_cheap(self, monkeypatch):
        # |f2|_2 = 102: each centre clears its own first-order radius, so the
        # scan takes a few hundred matrices, where a grid sized for the worst
        # case, (R - rho)(1 + |f2|_2 e^delta) / 0.5 intervals, took 21,717
        matrices = counted_matrices(monkeypatch, "svd", "inv", "solve")
        omega = 32.5 * np.pi
        roots, warn = spectral_scan(lifted_linear(8, 3, True, 16), np.zeros(8), 0.0, 0.0)
        assert roots == [0j] + warn and len(warn) == 2
        assert abs(warn[0] + 1j * omega) <= 1e-10
        assert abs(warn[1] - 1j * omega) <= 1e-10
        assert sum(matrices.values()) < 500

    @pytest.mark.parametrize("n", range(3, 9))
    def test_hidden_pair_takes_few_rounds(self, monkeypatch, n):
        # near a simple root the first-order radius is about the distance to
        # it, so the exclusion ends within 5 rounds of inverses
        rounds = []
        cleared = verify._cleared
        monkeypatch.setattr(verify, "_cleared", lambda *a: rounds.append(1) or cleared(*a))
        for seed in range(4):
            rounds.clear()
            assert len(spectral_scan(lifted_linear(n, seed, True), np.zeros(n), 0.0, 0.0)[1]) == 2
            assert len(rounds) <= 5

    def test_disk_count_solves_the_upper_half_circle(self, monkeypatch):
        # M(conj z) = conj M(z) for real f1 and f2, so the 64-node count
        # inverts M only at its 33 nodes with Im z >= 0; this plain model's
        # disk takes one radius, every other inverse is at a centre on the
        # axis, and nothing is solved
        batches, inverse_map = [], verify._inverse_map

        def recorded(f1, f2, z, *args):
            batches.append(z)
            return inverse_map(f1, f2, z, *args)

        monkeypatch.setattr(verify, "_inverse_map", recorded)
        solves = counted_matrices(monkeypatch, "solve")
        assert spectral_scan(lifted_linear(8, 0), np.zeros(8), 0.0, 0.0) == ([0j], [])
        assert [len(z) for z in batches if np.any(z.real)] == [33]
        assert np.array_equal(batches[0], 0.3 * verify._UNIT)
        assert solves == {"solve": 0}

    @pytest.mark.parametrize("fill", [np.inf, np.nan])
    def test_non_finite_inverse_clears_nothing(self, monkeypatch, fill):
        # every inverse after the disk count's is non-finite, as if it
        # overflowed: its radius clears nothing, so the axis is not reported
        # clear; Newton, from the same inverses, then refuses
        inv, calls = np.linalg.inv, []

        def overflowing(M):
            calls.append(len(M))
            return inv(M) if len(calls) == 1 else np.full(M.shape, fill, dtype=complex)

        monkeypatch.setattr(np.linalg, "inv", overflowing)
        with pytest.raises(NearSingular, match="not at a root"):
            spectral_scan(lifted_linear(3, 0, hidden=True), np.zeros(3), 0.0, 0.0)
        assert calls[0] == 33

    def test_inverses_come_in_batches_of_at_most_2_20_entries(self, monkeypatch):
        # at n = 128 a batch holds 2^20 / 128^2 = 64 matrices, so 100 points
        # take two, and the slope is the trace of the solve at every one
        n, z = 128, 1j * np.linspace(1.0, 2.0, 100)
        rng = np.random.default_rng(0)
        f1, f2 = rng.normal(size=(2, n, n)) / np.sqrt(n)
        inverses = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda M: inverses.append(len(M)) or inv(M))
        got = verify._log_det_slope(f1, f2, z)
        assert inverses == [64, 36]
        e = np.exp(-z)[:, None, None]
        M, dM = z[:, None, None] * np.eye(n) - f1 - e * f2, np.eye(n) + e * f2
        want = np.trace(np.linalg.solve(M, dM), axis1=1, axis2=2)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_slope_tells_a_root_from_a_non_finite_point(self):
        # at an exact root M has no inverse and the slope is inf, so Newton
        # stops there; at a non-finite z, as where a run diverged, it is NaN,
        # so the run is not taken for a root
        z = np.array([1.0, 0.0, np.nan]) + 0j
        with np.errstate(all="ignore"):   # as in the scan's Newton loop
            got = verify._log_det_slope(np.zeros((2, 2)), np.zeros((2, 2)), z)
        assert got[0] == 2.0 and got[1] == np.inf and np.isnan(got[2])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n=st.integers(3, 6), seed=st.integers(0, 2 ** 16), turns=st.integers(0, 15))
    def test_cleared_boxes_hold_no_root(self, n, seed, turns):
        # every box [-delta, delta] x [w - r, w + r] that the exclusion
        # clears is nonsingular on a grid, corners included, and holds
        # neither hidden root +-i w0, w0 = (1/2 + 2 turns) pi; |f2|_2 reaches
        # w0, up to about 96
        boxes, cleared = [], verify._cleared

        def recorded(f1, f2, w, a, b):
            r = cleared(f1, f2, w, a, b)
            boxes.append((w, r))
            return r

        m, x = lifted_linear(n, seed, hidden=True, turns=turns), np.zeros(n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_cleared", recorded)
            warn = spectral_scan(m, x, 0.0, 0.0)[1]
        w0 = (0.5 + 2.0 * turns) * np.pi
        assert len(warn) == 2 and abs(warn[1] - 1j * w0) <= 1e-10
        w, r = (np.concatenate(v) for v in zip(*boxes))
        w, r = w[r > 0], r[r > 0]
        assert not np.any(np.abs(w - w0) <= r)
        z = (np.array([-verify._DELTA, 0.0, verify._DELTA])[:, None, None]
             + 1j * (w + r * np.linspace(-1.0, 1.0, 5)[:, None])).ravel()
        f1, f2 = jac_x(m, x, x, 0.0, 0.0), jac_y(m, x, x, 0.0, 0.0)
        M = z[:, None, None] * np.eye(n) - f1 - np.exp(-z)[:, None, None] * f2
        assert np.all(np.linalg.svd(M, compute_uv=False)[:, -1] > 0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 16),
           scale=st.sampled_from([0.1, 1.0, 3.0]), rho=st.sampled_from([0.3, 0.0375]))
    def test_disk_sums_are_the_whole_trapezoid_rule(self, n, seed, scale, rho):
        # the half-circle sums equal the plain 64-node rule over all of
        # |z| = rho, to rounding relative to the terms summed
        rng = np.random.default_rng(seed)
        f1, f2 = scale * rng.normal(size=(2, n, n))
        z = rho * np.exp(2j * np.pi * np.arange(64) / 64)
        slope = np.array([np.trace(np.linalg.solve(
            zk * np.eye(n) - f1 - np.exp(-zk) * f2, np.eye(n) + np.exp(-zk) * f2))
            for zk in z])
        got = verify._disk_sums(f1, f2, rho)
        for p in range(3):
            terms = slope * z ** (p + 1) / 64
            assert abs(got[p] - terms.sum()) <= 1e-12 * np.abs(terms).sum()

    def test_triple_zero_is_near_singular(self):
        with pytest.raises(NearSingular, match="count to 3"):
            spectral_scan(linear_model(np.zeros((3, 3)), np.zeros((3, 3))),
                          np.zeros(3), 0.0, 0.0)


class TestCollocationSize:
    """The oracle's fixed N and its stand-in for e^{-z}."""

    @pytest.mark.parametrize("box,want", [
        (((-1.0, 1.0), (-8.0, 8.0)), 11),
        (((-1.0, 1.0), (-28.0, 28.0)), 23),
        (((-1.0, 1.0), (0.0, 8.0)), None),
        (((-2.0, 0.0), (-1.0, 1.0)), None),
        (((-5.0, 1.0), (-3.0, 3.0)), None),
    ], ids=["default", "28", "upper-half", "small", "left"])
    def test_smallest_size_that_fits(self, box, want):
        # the oracle's N keeps the stand-in within 1e-3 on a boundary sample
        # every 0.0625; where it is known, the smallest N that does is below
        N = todays_size(box)
        assert stand_in_error(N, box, 0.0625) <= 1e-3
        if want is not None:
            assert want <= N
            assert stand_in_error(want, box, 0.0625) <= 1e-3 < stand_in_error(want - 1, box, 0.0625)

    @pytest.mark.parametrize("box", [((-1.0, 1.0), (-8.0, 8.0)), ((-1.0, 1.0), (-28.0, 28.0)),
                                     ((-1.0, 1.0), (-300.0, 300.0)), ((-10.0, 2.0), (-4.0, 4.0)),
                                     ((-20.0, 1.0), (-2.0, 2.0)), ((0.0, 0.0), (0.0, 0.0)),
                                     ((-1.0, 1e6), (-1.0, 1.0)), ((-1e6, 1.0), (-1.0, 1.0))])
    def test_never_above_todays_size(self, box):
        # no more intervals than today's size are needed: with it the oracle
        # finds every Lambert-W root of z + a exp(-z) in the widened box
        mpmath = pytest.importorskip("mpmath")
        (re_lo, re_hi), (im_lo, im_hi) = box
        found = 0
        for a in (0.3, 6.0):
            want = {complex(mpmath.lambertw(-a, k)) for k in range(-60, 61)}
            want = [z for z in want if re_lo - 0.5 <= z.real <= re_hi + 0.5
                    and im_lo - 0.5 <= z.imag <= im_hi + 0.5]
            roots = collocation_roots(linear_model(0.0, -a), [0.0], 0.0, 0.0, box=box)
            assert len(roots) == len(want)
            for z in want:
                assert min(abs(z - r) for r in roots) <= 1e-10
            found += len(want)
        assert found > 0

    def test_deep_left_box_keeps_todays_size_at_once(self):
        # deep in the left half plane e^{-z} is huge, and no collocation
        # reaches 1e-3 of it in double precision: the stand-in's error stalls
        # near 1e-2 from N = 40 to 64.  The oracle keeps today's 16, and its
        # polish still finds the roots
        box = ((-30.0, 1.0), (-8.0, 8.0))
        assert todays_size(box) == 16
        for N in (40, 64):
            assert 1e-3 < stand_in_error(N, box, 0.1) < 1e-1
        mpmath = pytest.importorskip("mpmath")
        want = [complex(mpmath.lambertw(-1.0, k)) for k in (-2, -1, 0, 1)]
        roots = collocation_roots(scalar_model(delayed=True), [0.0], 0.0, 0.0, box=box)
        assert len(roots) == len(want)
        for z in want:
            assert min(abs(z - r) for r in roots) <= 1e-10

    def test_infeasible_box_is_an_input_error(self, monkeypatch):
        # R = 600 e^delta bounds the roots near the axis: above 512 it is
        # refused before any M(z) is factored or inverted
        calls = []
        for name in ("svd", "inv"):
            monkeypatch.setattr(np.linalg, name, lambda *a, **k: calls.append(a))
        with pytest.raises(InputError, match=r"R = 600\.6"):
            spectral_scan(linear_model(0.0, -600.0), [0.0], 0.0, 0.0)
        assert not calls

    def test_large_model_on_the_default_box_is_not_refused(self):
        # n = 400 needs 4800 rows at N = 11; the size check lets it through
        # to the model, whose non-finite linearization then stops the scan
        # before anything of that size is allocated
        n = 400
        nan = np.full((n, n), np.nan)
        model = DdeModel(n=n, tau=1.0, f=lambda x, y, l, u: x,
                         d1=lambda x, y, l, u: nan, d2=lambda x, y, l, u: nan)
        with pytest.raises(NearSingular, match="not finite"):
            spectral_scan(model, np.zeros(n), 0.0, 0.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(2, 8), hidden=st.booleans(), turns=st.integers(0, 4),
           seed=st.integers(0, 2 ** 16))
    def test_same_roots_as_todays_size(self, n, hidden, turns, seed):
        # warn holds exactly the oracle's roots on the axis, |Re z| <= 5e-4
        # and |Delta| at rounding level, other than the double zero, which
        # the oracle's polish leaves split by up to about 1e-5; the oracle's
        # box reaches past R
        hidden = hidden and n > 2
        m = lifted_linear(n, seed, hidden, turns)
        x = np.zeros(n)
        roots, warn = spectral_scan(m, x, 0.0, 0.0)
        f1, f2 = jac_x(m, x, x, 0.0, 0.0), jac_y(m, x, x, 0.0, 0.0)
        top = math.ceil(np.linalg.norm(f1, 2) + np.linalg.norm(f2, 2)) + 1.0
        want = [z for z in collocation_roots(m, x, 0.0, 0.0, box=((-1.0, 1.0), (-top, top)))
                if abs(z.real) <= 5e-4 and abs(z) > 1e-3]

        def covers(found, others):
            return all(min((abs(r - q) for q in found), default=np.inf) <= 1e-8
                       for r in others)

        assert roots == [0j] + warn
        assert covers(warn, want) and covers(want, warn)
        if turns == 0:
            assert len(warn) == (2 if hidden else 0)


#: the basis at predator-prey's TB point, from models not counted
TB_BASIS = compute_basis(jac_x(predator_prey(), TB_X, TB_X, 0.5, 2.0),
                         jac_y(predator_prey(), TB_X, TB_X, 0.5, 2.0))

#: the verify entry points that take a point x, as functions of it
POINT_CHECKS = {
    "characteristic": lambda pp, x: characteristic(pp, x, 0.5, 2.0, 0.1j),
    "double_zero_check": lambda pp, x: double_zero_check(pp, x, 0.5, 2.0),
    "spectral_scan": lambda pp, x: spectral_scan(pp, x, 0.5, 2.0),
    "quadratic_check": lambda pp, x: quadratic_check(
        pp, dataclasses.replace(TB_SOL, x=x), TB_BASIS),
}


class TestNonFiniteLinearization:
    @pytest.mark.parametrize("x", [[np.nan, 1.0], [1e200, 1e200]], ids=["nan", "overflow"])
    @pytest.mark.parametrize("check", ["spectral_scan", "double_zero_check", "characteristic"])
    def test_near_singular_without_warning(self, pp, check, x):
        # characteristic returned nan, with a RuntimeWarning from det
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NearSingular, match="not finite") as exc:
                POINT_CHECKS[check](pp, x)
        assert np.isnan(exc.value.cond)

    def test_zero_carrying_capacity_is_near_singular(self, pp):
        # predator-prey divides by mu = K, which on Python floats raises
        with pytest.raises(NearSingular, match="not finite"):
            double_zero_check(pp, TB_X, 0.5, 0.0)


@pytest.mark.parametrize("entry", sorted(POINT_CHECKS))
def test_complex_point_is_input_error(pp, entry):
    # cast to float, x = (1 + 1j, 1) was the TB point (1, 1): double_zero_check
    # returned ok, spectral_scan the double zero alone and quadratic_check PASS
    with pytest.raises(InputError, match="^x has complex128 values, not real"):
        POINT_CHECKS[entry](pp, np.array([1.0 + 1.0j, 1.0]))


@pytest.mark.parametrize("entry", sorted(POINT_CHECKS))
def test_one_evaluation_per_entry_point(pp, counted_model, entry):
    # each point check reads f, f1 and f2 from one linearization, the
    # benchmark's quadratic_check too (its other derivatives come from
    # predator-prey's dlam, dmu and ddir)
    model, counts = counted_model(pp)
    POINT_CHECKS[entry](model, TB_X)
    assert counts == {"f": 1, "d1": 1, "d2": 1}


class TestQuadraticCheck:
    def test_predator_prey_passes(self, pp):
        v = certify(linearize(pp, TB_X, 0.5, 2.0))
        assert v.passed
        # f_mu has no component along psi2, so the parameter ratio vanishes
        assert v.c_lam_mu == pytest.approx(0.0, abs=1e-12)
        assert abs(v.d0) > 1e-3
        assert np.max(np.abs(v.nu - np.array([0.0, 0.5]))) <= 1e-9

    def test_synthetic_frozen_values(self):
        v = certify(linearize(synthetic_tb(), np.zeros(2), 0.0, 0.0))
        assert v.passed
        assert v.c_lam_mu == pytest.approx(-1.0, abs=1e-12)
        assert v.d0 == pytest.approx(11.0 * np.sqrt(2.0) / 4.0, abs=1e-9)
        assert np.max(np.abs(v.nu - np.array([0.0, -1.0]))) <= 1e-12
        assert v.psi2_nu == pytest.approx(-np.sqrt(2.0) / 2.0, abs=1e-12)

    def test_two_directions_per_certificate(self, pp):
        # f1 and f2 are differentiated along phi1 and along J's kernel
        # direction (nu, nu, c, 1) only: the directional supplier twice, the
        # parameter suppliers once each, and f, f1 and f2 not again, read
        # from the linearization
        calls = {"f": 0, "d1": 0, "d2": 0, "ddir": 0, "dlam": 0, "dmu": 0}

        def counted(name):
            fn = getattr(pp, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        model = dataclasses.replace(pp, **{name: counted(name) for name in calls})
        lin = linearize(model, TB_X, 0.5, 2.0)
        calls.update(dict.fromkeys(calls, 0))
        assert certify(lin).passed
        assert calls == {"f": 0, "d1": 0, "d2": 0, "ddir": 2, "dlam": 1, "dmu": 1}

    def test_one_svd_per_certificate(self, pp, counted_calls):
        # phi2', psi1' and nu are products with the basis's pseudoinverse,
        # from the SVD of S that gives its null vectors: nothing else is
        # factored, inverted or solved
        lin = linearize(pp, TB_X, 0.5, 2.0)
        calls = counted_calls(np.linalg, "svd", "inv", "solve")
        v = certify(lin)
        assert v.passed and calls == {"svd": 1, "inv": 0, "solve": 0}
        # pinv's rows are orthogonal to phi1 and its columns to psi2
        basis = compute_basis(lin.f1, lin.f2)
        assert np.max(np.abs(basis.phi1 @ basis.pinv)) <= 1e-15
        assert np.max(np.abs(basis.pinv @ basis.psi2)) <= 1e-15

    def test_passed_is_the_conjunction_of_the_checks(self, rank_deficient):
        # over random rank-(n-1) pairs, half with (f2 + I) phi1 in the range of
        # S, random parameter and second derivatives, and f off zero or
        # f_lambda zero a quarter of the time each: PASS is every check's ok,
        # and each ok is its value's relation to its threshold
        def within(c):
            return abs(c.value) <= c.threshold

        def above(c):
            return abs(c.value) > c.threshold

        relation = {"rank": lambda c: c.value == c.threshold, "range": within,
                    "nondegeneracy": above, "transversality": above, "d0": above,
                    "equilibrium": within}
        rng = np.random.default_rng(13)
        outcomes = set()
        for _ in range(500):
            n = int(rng.integers(1, 8))
            S = rank_deficient(rng, n)
            f2 = rng.standard_normal((n, n))
            if rng.random() < 0.5:
                _, ph1, ps2, _ = linalg.rank_and_nullspace(S)
                f2 -= (ps2 @ (f2 + np.eye(n)) @ ph1) * np.outer(ps2, ph1)
            basis = compute_basis(S - f2, f2)
            f = rng.standard_normal(n) * (rng.random() < 0.25)
            flam = rng.standard_normal(n) * (rng.random() >= 0.25)
            fmu, T = rng.standard_normal(n), rng.standard_normal((2, n, n, n))
            model = DdeModel(n=n, tau=1.0, f=lambda x, y, l, u, f=f: f,
                             d1=lambda x, y, l, u, b=basis: b.f1,
                             d2=lambda x, y, l, u, b=basis: b.f2,
                             dlam=lambda x, y, l, u, v=flam: v,
                             dmu=lambda x, y, l, u, v=fmu: v,
                             ddir=lambda x, y, l, u, dx, dy, dl, du, T=T: T @ (dx + dy))
            v = certify(linearize(model, np.zeros(n), 0.0, 0.0))
            assert list(v.checks) == list(relation)
            assert v.passed == all(c.ok for c in v.checks.values())
            for name, c in v.checks.items():
                assert c.ok == relation[name](c), name
                outcomes.add((name, c.ok))
            outcomes.add(("passed", v.passed))
        assert outcomes == {(name, ok) for name in [*relation, "passed"]
                            for ok in (False, True)} - {("rank", False)}

    @pytest.mark.parametrize("fixture", ["verify_pp_point", "verify_pp_off",
                                         "verify_pp_full_rank"])
    def test_verdict_opens_with_the_basis_checks(self, pp, fixture):
        # one table: its first three rows are the basis's checks, and the
        # verdict PASSes exactly when every row is ok
        path = Path(__file__).parent / "fixtures" / f"{fixture}.json"
        point = json.loads(path.read_text())["point"]
        lin = linearize(pp, point["x"], point["lambda"], point["mu"])
        v = certify(lin)
        np.testing.assert_equal(list(v.checks.items())[:3],
                                list(compute_basis(lin.f1, lin.f2).checks.items()))
        assert v.passed == all(c.ok for c in v.checks.values())

    def test_mu_independent_model_zero_ratio(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        m = DdeModel(
            n=2, tau=1.0,
            f=lambda x, y, l, u: A @ x + l * np.array([0.0, 1.0])
            + np.array([x[0] ** 2, 0.0]),
            d1=lambda x, y, l, u: A + np.array([[2.0 * x[0], 0.0], [0.0, 0.0]]),
            d2=lambda x, y, l, u: np.zeros((2, 2)),
            dlam=lambda x, y, l, u: np.array([0.0, 1.0]),
            dmu=lambda x, y, l, u: np.zeros(2),
            ddir=lambda x, y, l, u, dx, dy, dl, du: [[[2.0 * dx[0], 0.0], [0.0, 0.0]],
                                                     np.zeros((2, 2))])
        v = certify(linearize(m, np.zeros(2), 0.0, 0.0))
        assert v.c_lam_mu == 0.0

    def test_swapped_parameter_roles_reciprocal_ratio(self):
        # on a model where both transversality quantities are nonzero the
        # ratio inverts (up to sign, per its definition) when the roles swap
        base = synthetic_tb()
        swapped = DdeModel(
            n=2, tau=1.0,
            f=lambda x, y, l, u: base.f(x, y, u, l),
            d1=lambda x, y, l, u: base.d1(x, y, u, l),
            d2=lambda x, y, l, u: base.d2(x, y, u, l),
            dlam=lambda x, y, l, u: base.dmu(x, y, u, l),
            dmu=lambda x, y, l, u: base.dlam(x, y, u, l),
            ddir=lambda x, y, l, u, dx, dy, dl, du: base.ddir(x, y, u, l, dx, dy, du, dl))
        c1, c2 = (certify(linearize(m, np.zeros(2), 0.0, 0.0)).c_lam_mu
                  for m in (base, swapped))
        assert c2 == pytest.approx(1.0 / c1, abs=1e-10)

    def test_condition_i_failure_is_a_fail_verdict(self, pp, counted_model):
        # swapping D and K for the predator-prey system puts the vanishing
        # parameter direction in the denominator: the verdict FAILs on
        # transversality, and no kernel direction is formed, so f is evaluated
        # only for the linearization and nothing is differentiated along one
        swapped, counts = counted_model(DdeModel(
            n=2, tau=1.0,
            f=lambda x, y, l, u: pp.f(x, y, u, l),
            d1=lambda x, y, l, u: pp.d1(x, y, u, l),
            d2=lambda x, y, l, u: pp.d2(x, y, u, l),
            dlam=lambda x, y, l, u: pp.dmu(x, y, u, l),
            dmu=lambda x, y, l, u: pp.dlam(x, y, u, l)), ("f",))
        v = certify(linearize(swapped, TB_X, 2.0, 0.5))
        assert counts["f"] == 1
        transversality = v.checks["transversality"]
        assert not v.passed and not transversality.ok
        assert abs(transversality.value) <= transversality.threshold
        assert all(v.checks[name].ok for name in ("rank", "range", "nondegeneracy",
                                                   "equilibrium"))
        assert math.isnan(v.c_lam_mu) and math.isnan(v.psi2_nu)
        assert math.isnan(v.d0) and not v.checks["d0"].ok
        assert v.nu.shape == (2,) and np.isnan(v.nu).all()

    def test_basis_of_another_point_is_input_error(self, pp):
        # the D = 0.45, K = 2 equilibrium is no TB point and FAILs on its own
        # basis; certified with the TB point's basis (f1 and f2 at (1, 1, 0.5,
        # 2)) and only its own f, it PASSed with transversality 0.676 and d0 0.113
        D, K = 0.45, 2.0
        x1 = (1.0 - np.sqrt(1.0 - 4.0 * D ** 2)) / (2.0 * D)
        sol = TbCandidate(x=np.array([x1, (1.0 - x1 / K) * (1.0 + x1 * x1)]),
                          phi1=TB_SOL.phi1, phi2=TB_SOL.phi2, lam=D, mu=K)
        assert not certify(linearize(pp, sol.x, D, K)).passed
        tb = linearize(pp, TB_X, 0.5, 2.0)
        with pytest.raises(InputError, match="basis must be built from the f1 and f2 at solution"):
            quadratic_check(pp, sol, compute_basis(tb.f1, tb.f2))

    def test_certify_takes_a_linearization(self, pp):
        # a report, a point or None failed on a missing attribute f1; the
        # typed error names the report's linearization to pass instead
        report = newton_solve(pp, TB_SOL, Functionals([1.0, 0.0], [1.0, 0.0]))
        assert certify(report.linearization).passed
        for wrong, name in ((report, "NewtonReport"), (TB_SOL, "TbCandidate"),
                            (None, "NoneType")):
            with pytest.raises(InputError, match=f"report.linearization .* not {name}$"):
                certify(wrong)

    @pytest.mark.parametrize("tau, point, passes", [
        (2.0, (0.75, -0.5625, -0.5), True),    # the tau = 2 point
        (2.0, (0.5, -0.25, -1.0), False),      # the tau = 1 point, at tau = 2
        (1.0, (0.5, -0.25, -1.0), True),
    ], ids=["tau2-point", "tau1-point-at-tau2", "tau1-point"])
    def test_certificate_uses_the_delay(self, tau, point, passes):
        # the range value is 1 + tau mu, Delta'(0) at n = 1: the tau = 1
        # point is a double zero only when the delay is 1
        m = double_zero_scalar(tau)
        x, lam, mu = point
        v = certify(linearize(m, [x], lam, mu))
        assert v.checks["equilibrium"].value == 0.0 and v.checks["equilibrium"].ok
        assert v.checks["range"].ok == passes and v.passed == passes
        assert v.checks["range"].value == pytest.approx(1.0 + tau * mu, abs=1e-9)

    def test_one_threshold_per_point(self):
        # at tau = 8, max|f1| + max|f2| = 4: every check but the rank is
        # decided against 4e-8, the basis's tol
        m = build("predator-prey", {"tau": 8.0})
        lin = linearize(m, TB_X, 0.5, 2.0)
        v, tol = certify(lin), compute_basis(lin.f1, lin.f2).tol
        assert v.passed
        assert tol == pytest.approx(4e-8, rel=1e-15)
        assert {c.threshold for c in v.checks.values()} == {1, tol}

    def test_nu_residual(self, pp):
        v = certify(linearize(pp, TB_X, 0.5, 2.0))
        f1 = jac_x(pp, TB_X, TB_X, 0.5, 2.0)
        f2 = jac_y(pp, TB_X, TB_X, 0.5, 2.0)
        flam = np.array([0.0, -1.0])
        fmu = np.array([0.25, 0.0])
        res = (f1 + f2) @ v.nu + v.c_lam_mu * flam + fmu
        assert np.max(np.abs(res)) <= 1e-9


def _synthetic_origin(model):
    """certify's verdict at the exact origin of a synthetic-tb ``model`` (False
    where it raises) and sigma_min / sigma_max of the defining system's Jacobian
    there, at the basis chain with the basis's own functionals L = (psi1, psi2)."""
    lin = linearize(model, np.zeros(2), 0.0, 0.0)
    try:
        basis = compute_basis(lin.f1, lin.f2)
        sol = TbCandidate(lin.x, basis.phi1, basis.phi2, 0.0, 0.0)
        passed = certify(lin).passed
    except TbddeError:
        return False, math.nan
    L = Functionals(basis.psi1, basis.psi2)
    assert np.max(np.abs(residual(model, sol, L))) <= 1e-14
    sigma = np.linalg.svd(jacobian(model, sol, L), compute_uv=False)
    return passed, sigma[-1] / sigma[0]


def _with_quadratic(base, Q):
    """``base`` plus z^T Q[i] z / 2 in component i, z = (x, y), for symmetric
    4 x 4 matrices Q[i], with every derivative supplied."""
    def grad(x, y):
        return Q @ np.concatenate([x, y])

    def f(x, y, lam, mu):
        return base.f(x, y, lam, mu) + 0.5 * grad(x, y) @ np.concatenate([x, y])

    def d1(x, y, lam, mu):
        return base.d1(x, y, lam, mu) + grad(x, y)[:, :2]

    def d2(x, y, lam, mu):
        return base.d2(x, y, lam, mu) + grad(x, y)[:, 2:]

    def ddir(x, y, lam, mu, dx, dy, dlam, dmu):
        g = grad(dx, dy)
        return base.ddir(x, y, lam, mu, dx, dy, dlam, dmu) + np.array([g[:, :2], g[:, 2:]])

    return dataclasses.replace(base, f=f, d1=d1, d2=d2, ddir=ddir)


class TestRegularRoot:
    """A PASS is a regular root of the defining system: d0 = 0 exactly where
    its Jacobian J is singular (the solvability argument of ``verify._verdict``)."""

    @pytest.mark.parametrize("name, value, passes", [
        ("a4", -1.75, False), ("a6", 1.2, False), ("a4", -2.0, True), ("a6", 1.0, True)],
        ids=["a4=-1.75", "a6=1.2", "a4=-2.0", "a6=1.0"])
    def test_synthetic_origin(self, name, value, passes):
        passed, ratio = _synthetic_origin(synthetic_tb(**{name: value}))
        assert passed is passes
        # d0 = (a1 a5 + a1 + a2 a5 + a2 - 4 a4 a6 + a5^2 + a5 - a6) sqrt(2) / 4
        # (tools/synthetic_oracle.py): 0 at the first two, -+sqrt(2)/4 at the others
        assert ratio > 1e-3 if passes else ratio <= 1e-12

    def test_d0_is_a_fixed_multiple_of_det_j(self):
        # with the linear part, the chain and the functionals fixed, det J is
        # a fixed multiple of d0 (the solvability argument), whatever the
        # quadratic terms and whichever slots they couple; synthetic-tb's own
        # terms cannot show a missing slot, since its delayed-slot terms
        # along nu leave d0 unchanged
        base = synthetic_tb(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        rng = np.random.default_rng(21)
        ratios = []
        for _ in range(12):
            R = rng.standard_normal((2, 4, 4))
            model = _with_quadratic(base, R + R.transpose(0, 2, 1))
            lin = linearize(model, np.zeros(2), 0.0, 0.0)
            basis = compute_basis(lin.f1, lin.f2)
            sol = TbCandidate(lin.x, basis.phi1, basis.phi2, 0.0, 0.0)
            d0 = certify(lin).d0
            det_j = np.linalg.det(jacobian(model, sol, Functionals(basis.psi1, basis.psi2)))
            ratios.append(d0 / det_j)
        # the oracle's ratio for synthetic-tb's own terms: d0 = sqrt(2) P / 4,
        # det J = 2 P (tools/synthetic_oracle.py)
        assert ratios == pytest.approx([np.sqrt(2.0) / 8.0] * len(ratios), rel=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(coeffs=st.lists(st.integers(-12, 12).map(lambda k: k / 4.0),
                           min_size=6, max_size=6),
           tau=st.integers(1, 16).map(lambda k: k / 4.0))
    def test_pass_implies_regular_jacobian(self, coeffs, tau):
        # quarter-integer coefficients and delays make det J = 0 exactly on
        # a share of the draws, where d0 must read as zero too
        passed, ratio = _synthetic_origin(synthetic_tb(*coeffs, tau=tau))
        if passed:
            assert ratio > 1e-8


class TestSyntheticOracle:
    def test_exact_derivation_matches(self):
        pytest.importorskip("sympy")
        script = Path(__file__).resolve().parents[1] / "tools" / "synthetic_oracle.py"
        # the script asserts that the model's callbacks are its exact
        # derivatives to a few ulps, then derives the reference values
        ref = runpy.run_path(str(script))
        v = certify(linearize(synthetic_tb(), np.zeros(2), 0.0, 0.0))
        assert v.d0 == pytest.approx(float(ref["d0"]), abs=1e-12)
        assert v.c_lam_mu == pytest.approx(float(ref["clm"]), abs=1e-12)
        nu = np.array([float(c) for c in ref["nu"]])
        assert np.max(np.abs(v.nu - nu)) <= 1e-12
        assert abs(complex(ref["w"]) - DELAYED_SCALAR_ROOT) <= 1e-15
