import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest

from tbdde import (ConditionIFailed, DdeModel, InputError, TbCandidate,
                   characteristic, compute_basis, double_zero_check, eval_f,
                   jac_x, jac_y, predator_prey, quadratic_check, spectral_scan,
                   synthetic_tb)

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


class TestDoubleZeroCheck:
    def test_tb_point_passes(self, pp):
        d0, d1, d2, ok = double_zero_check(pp, TB_X, 0.5, 2.0)
        assert ok
        assert abs(d0) <= 1e-12
        assert abs(d1) <= 1e-10
        assert abs(d2) > 1e-4

    def test_perturbed_parameters_fail(self, pp):
        D = 0.45
        x = pp_equilibrium(D)
        _, _, _, ok = double_zero_check(pp, x, D, 2.0)
        assert not ok

    def test_scalar_undelayed_fails(self):
        m = scalar_model(delayed=False)
        d0, _, _, ok = double_zero_check(m, [0.0], 0.0, 0.0)
        assert not ok and d0 == pytest.approx(1.0, abs=1e-9)

    def test_off_equilibrium_fails_without_warning(self, pp):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not double_zero_check(pp, [1.3, 1.3], 0.5, 2.0)[3]

    def test_off_equilibrium_fails(self):
        # Delta has a double zero at x = 0.5 for every lambda, but x is an
        # equilibrium only at lambda = -1/4; at lambda = 3, |f| = 3.25
        m = double_zero_scalar()
        d0, d1, _, ok = double_zero_check(m, [0.5], 3.0, -1.0)
        assert abs(d0) <= 1e-12 and abs(d1) <= 1e-10
        assert not ok
        v = quadratic_check(m, TbCandidate(x=np.array([0.5]), phi1=np.array([1.0]),
                                           phi2=np.array([0.0]), lam=3.0, mu=-1.0),
                            compute_basis(np.array([[1.0]]), np.array([[-1.0]])))
        assert v.equilibrium_residual == 3.25
        assert not v.char_ok and not v.passed


class TestSpectralScan:
    def test_scalar_undelayed_single_root(self):
        m = scalar_model(delayed=False)
        roots, warn = spectral_scan(m, [0.0], 0.0, 0.0,
                                    box=((-2.0, 0.0), (-1.0, 1.0)))
        assert len(roots) == 1
        assert roots[0] == pytest.approx(-1.0, abs=1e-9)
        assert not warn

    def test_scalar_delayed_principal_pair(self):
        m = scalar_model(delayed=True)
        roots, _ = spectral_scan(m, [0.0], 0.0, 0.0,
                                 box=((-1.0, 1.0), (0.0, 8.0)))
        assert any(abs(r - DELAYED_SCALAR_ROOT) < 1e-8 for r in roots)

    def test_scalar_delayed_default_box_exact(self):
        # every other root of z + exp(-z) has Re z < -2
        roots, warn = spectral_scan(scalar_model(delayed=True), [0.0], 0.0, 0.0)
        assert len(roots) == 2 and not warn
        want = sorted([DELAYED_SCALAR_ROOT, DELAYED_SCALAR_ROOT.conjugate()],
                      key=lambda z: z.imag)
        for got, z in zip(sorted(roots, key=lambda z: z.imag), want):
            assert abs(got - z) <= 1e-12

    @pytest.mark.parametrize("omega,im_hi", [(0.5 * np.pi, 8.0), (2.5 * np.pi, 8.0),
                                             (8.5 * np.pi, 28.0)],
                             ids=["pi/2", "5pi/2", "17pi/2"])
    def test_imaginary_pair_warns(self, omega, im_hi):
        # x' = -omega x(t-1) has roots +-i omega.  5 pi / 2 sits near the
        # edge of the default box; at 17 pi / 2 the collocation size has to
        # grow with the box (a fixed N = 12 misses that pair)
        m = DdeModel(n=1, tau=1.0, f=lambda x, y, l, u: -omega * y,
                     d1=lambda x, y, l, u: np.zeros((1, 1)),
                     d2=lambda x, y, l, u: np.array([[-omega]]))
        _, warn = spectral_scan(m, [0.0], 0.0, 0.0,
                                box=((-1.0, 1.0), (-im_hi, im_hi)))
        assert len(warn) == 2
        got = sorted(warn, key=lambda z: z.imag)
        assert abs(got[0] + 1j * omega) <= 1e-10
        assert abs(got[1] - 1j * omega) <= 1e-10

    @pytest.mark.parametrize("a", [0.3, 2.0, 6.0])
    def test_scalar_delayed_all_branches(self, a):
        # the roots of z + a exp(-z) are the branches W_k(-a) of Lambert W;
        # the scan must return every one inside the box widened by 0.5
        mpmath = pytest.importorskip("mpmath")
        want = {complex(mpmath.lambertw(-a, k)) for k in range(-8, 9)}
        want = [z for z in want if abs(z.real) <= 1.5 and abs(z.imag) <= 8.5]
        m = DdeModel(n=1, tau=1.0, f=lambda x, y, l, u: -a * y)
        roots, _ = spectral_scan(m, [0.0], 0.0, 0.0)
        assert len(roots) == len(want) > 0
        for z in want:
            assert min(abs(z - r) for r in roots) <= 1e-10

    def test_hidden_axis_pair_beside_double_zero(self):
        m = synthetic_with_hidden_component()
        x = np.zeros(3)
        assert double_zero_check(m, x, 0.0, 0.0)[3]
        roots, warn = spectral_scan(m, x, 0.0, 0.0)
        assert any(abs(r) < 1e-6 for r in roots)
        got = sorted(warn, key=lambda z: z.imag)
        assert len(got) == 2
        assert abs(got[0] + 0.5j * np.pi) <= 1e-10
        assert abs(got[1] - 0.5j * np.pi) <= 1e-10

    @pytest.mark.parametrize("box", [((-1.0, 1.0), (np.inf, 8.0)),
                                     ((-1.0, np.nan), (-8.0, 8.0)),
                                     ((1.0, -1.0), (-8.0, 8.0))],
                             ids=["inf", "nan", "inverted"])
    def test_bad_box_rejected(self, box):
        with pytest.raises(InputError, match="box"):
            spectral_scan(scalar_model(delayed=True), [0.0], 0.0, 0.0, box=box)

    def test_tb_point_contains_zero(self, pp):
        roots, _ = spectral_scan(pp, TB_X, 0.5, 2.0,
                                 box=((-1.0, 1.0), (-8.0, 8.0)))
        assert any(abs(r) < 1e-8 for r in roots)


class TestQuadraticCheck:
    def basis_for(self, model, x, lam, mu, **kw):
        f1 = jac_x(model, x, x, lam, mu)
        f2 = jac_y(model, x, x, lam, mu)
        return compute_basis(f1, f2, **kw)

    def test_predator_prey_passes(self, pp):
        basis = self.basis_for(pp, TB_X, 0.5, 2.0)
        v = quadratic_check(pp, TB_SOL, basis)
        assert v.passed
        # f_mu has no component along psi2, so the parameter ratio vanishes
        assert v.c_lam_mu == pytest.approx(0.0, abs=1e-12)
        assert abs(v.d0) > 1e-3
        assert v.cond_iii_value == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(v.nu - np.array([0.0, 0.5]))) <= 1e-9

    def test_synthetic_frozen_values(self):
        m = synthetic_tb()
        sol = TbCandidate(x=np.zeros(2), phi1=np.array([2.0 / 3.0, 0.0]),
                          phi2=np.array([4.0 / 27.0, 4.0 / 3.0]), lam=0.0, mu=0.0)
        basis = self.basis_for(m, sol.x, 0.0, 0.0)
        v = quadratic_check(m, sol, basis)
        assert v.passed
        assert v.c_lam_mu == pytest.approx(-1.0, abs=1e-12)
        assert v.d0 == pytest.approx(3.0 * np.sqrt(2.0), abs=1e-9)
        assert v.cond_iii_value == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(v.nu - np.array([0.0, -1.0]))) <= 1e-12
        assert v.psi2_nu == pytest.approx(-np.sqrt(2.0) / 2.0, abs=1e-12)

    def test_mu_independent_model_zero_ratio(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        zero2 = lambda x, y, l, u: np.zeros((2, 2))
        zerob = lambda x, y, l, u, a, b: np.zeros(2)
        m = DdeModel(
            n=2, tau=1.0,
            f=lambda x, y, l, u: A @ x + l * np.array([0.0, 1.0])
            + np.array([x[0] ** 2, 0.0]),
            d1=lambda x, y, l, u: A + np.array([[2.0 * x[0], 0.0], [0.0, 0.0]]),
            d2=zero2,
            dlam=lambda x, y, l, u: np.array([0.0, 1.0]),
            dmu=lambda x, y, l, u: np.zeros(2),
            d11=lambda x, y, l, u, a, b: np.array([2.0 * a[0] * b[0], 0.0]),
            d12=zerob, d21=zerob, d22=zerob,
            d1lam=zero2, d2lam=zero2, d1mu=zero2, d2mu=zero2)
        sol = TbCandidate(x=np.zeros(2), phi1=np.array([1.0, 0.0]),
                          phi2=np.array([0.0, 1.0]), lam=0.0, mu=0.0)
        basis = self.basis_for(m, sol.x, 0.0, 0.0)
        v = quadratic_check(m, sol, basis)
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
            d11=lambda x, y, l, u, a, b: base.d11(x, y, u, l, a, b),
            d12=lambda x, y, l, u, a, b: base.d12(x, y, u, l, a, b),
            d21=lambda x, y, l, u, a, b: base.d21(x, y, u, l, a, b),
            d22=lambda x, y, l, u, a, b: base.d22(x, y, u, l, a, b),
            d1lam=lambda x, y, l, u: base.d1mu(x, y, u, l),
            d2lam=lambda x, y, l, u: base.d2mu(x, y, u, l),
            d1mu=lambda x, y, l, u: base.d1lam(x, y, u, l),
            d2mu=lambda x, y, l, u: base.d2lam(x, y, u, l))
        sol = TbCandidate(x=np.zeros(2), phi1=np.array([2.0 / 3.0, 0.0]),
                          phi2=np.array([4.0 / 27.0, 4.0 / 3.0]), lam=0.0, mu=0.0)
        b1 = self.basis_for(base, sol.x, 0.0, 0.0)
        b2 = self.basis_for(swapped, sol.x, 0.0, 0.0)
        c1 = quadratic_check(base, sol, b1).c_lam_mu
        c2 = quadratic_check(swapped, sol, b2).c_lam_mu
        assert c2 == pytest.approx(1.0 / c1, abs=1e-10)

    def test_condition_i_failure_raises(self, pp):
        # swapping D and K for the predator-prey system puts the vanishing
        # parameter direction in the denominator
        swapped = DdeModel(
            n=2, tau=1.0,
            f=lambda x, y, l, u: pp.f(x, y, u, l),
            dlam=lambda x, y, l, u: pp.dmu(x, y, u, l),
            dmu=lambda x, y, l, u: pp.dlam(x, y, u, l))
        basis = self.basis_for(pp, TB_X, 0.5, 2.0)
        sol = TbCandidate(x=TB_X, phi1=TB_SOL.phi1, phi2=TB_SOL.phi2,
                          lam=2.0, mu=0.5)
        with pytest.raises(ConditionIFailed):
            quadratic_check(swapped, sol, basis)

    @pytest.mark.parametrize("tau, point, passes", [
        (2.0, (0.75, -0.5625, -0.5), True),    # the tau = 2 point
        (2.0, (0.5, -0.25, -1.0), False),      # the tau = 1 point, at tau = 2
        (1.0, (0.5, -0.25, -1.0), True),
    ], ids=["tau2-point", "tau1-point-at-tau2", "tau1-point"])
    def test_certificate_uses_the_delay(self, tau, point, passes):
        # Delta'(0) = 1 + tau mu: the tau = 1 point is a double zero only
        # when the delay is 1
        m = double_zero_scalar(tau)
        x, lam, mu = point
        sol = TbCandidate(x=np.array([x]), phi1=np.array([1.0]),
                          phi2=np.array([0.0]), lam=lam, mu=mu)
        v = quadratic_check(m, sol, self.basis_for(m, sol.x, lam, mu))
        assert v.equilibrium_residual == 0.0
        assert v.char_ok == passes and v.passed == passes
        assert v.char_values[1] == pytest.approx(1.0 + tau * mu, abs=1e-9)

    def test_d0_invariant_under_pinning_offset(self, pp):
        sol = TB_SOL
        b0 = self.basis_for(pp, TB_X, 0.5, 2.0)
        b1 = self.basis_for(pp, TB_X, 0.5, 2.0, beta_phi2=0.3)
        d0a = quadratic_check(pp, sol, b0).d0
        d0b = quadratic_check(pp, sol, b1).d0
        assert d0b == pytest.approx(d0a, rel=1e-8)

    def test_nu_residual(self, pp):
        basis = self.basis_for(pp, TB_X, 0.5, 2.0)
        v = quadratic_check(pp, TB_SOL, basis)
        f1 = jac_x(pp, TB_X, TB_X, 0.5, 2.0)
        f2 = jac_y(pp, TB_X, TB_X, 0.5, 2.0)
        flam = np.array([0.0, -1.0])
        fmu = np.array([0.25, 0.0])
        res = (f1 + f2) @ v.nu + v.c_lam_mu * flam + fmu
        assert np.max(np.abs(res)) <= 1e-9


class TestSyntheticOracle:
    def test_exact_derivation_matches(self):
        pytest.importorskip("sympy")
        script = Path(__file__).resolve().parents[1] / "tools" / "synthetic_oracle.py"
        ref = runpy.run_path(str(script))
        m = synthetic_tb()
        sol = TbCandidate(x=np.zeros(2), phi1=np.array([2.0 / 3.0, 0.0]),
                          phi2=np.array([4.0 / 27.0, 4.0 / 3.0]), lam=0.0, mu=0.0)
        f1 = jac_x(m, sol.x, sol.x, 0.0, 0.0)
        f2 = jac_y(m, sol.x, sol.x, 0.0, 0.0)
        v = quadratic_check(m, sol, compute_basis(f1, f2))
        assert v.d0 == pytest.approx(float(ref["d0"]), abs=1e-12)
        assert v.c_lam_mu == pytest.approx(float(ref["clm"]), abs=1e-12)
        assert v.cond_iii_value == pytest.approx(float(ref["cond_iii"]), abs=1e-12)
        nu = np.array([float(c) for c in ref["nu"]])
        assert np.max(np.abs(v.nu - nu)) <= 1e-12
        assert abs(complex(ref["w"]) - DELAYED_SCALAR_ROOT) <= 1e-15
