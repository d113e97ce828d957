import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tbdde import (DdeModel, Functionals, InputError, NewtonOptions,
                   TbCandidate, jacobian, newton_solve, predator_prey, residual,
                   synthetic_tb)
from tbdde import linalg

L10 = Functionals(l1=[1.0, 0.0], l2=[1.0, 0.0])

V_STAR = TbCandidate(x=np.array([1.0, 1.0]), phi1=np.array([1.0, 0.0]),
                     phi2=np.array([0.0, -2.0]), lam=0.5, mu=2.0)

TABLE1 = [
    # (initial value, reference iteration count)
    (([1.1, 1.1], [1.0, 0.0], [3.0, 0.0], 0.4, 1.0), 5),
    (([1.2, 1.2], [1.2, 1.0], [1.0, 0.0], 0.5, 0.5), 7),
    (([1.5, 1.5], [1.5, 1.5], [1.5, 1.5], 0.6, 1.6), 7),
    (([3.0, 1.5], [1.2, 0.5], [1.8, -1.8], 0.45, 1.9), 6),
]


def first_order(model):
    """The same model with only f, d1 and d2: every other derivative is differenced."""
    return DdeModel(n=model.n, tau=model.tau, f=model.f, d1=model.d1, d2=model.d2)


def coupled3():
    """A 3-d model with x-x, x-y and y-y curvature that supplies only f, d1, d2."""
    def f(x, y, lam, mu):
        return np.array([-x[0] + lam * y[1] + x[0] * y[2],
                         mu * x[1] - y[0] ** 2 + np.sin(x[2]),
                         x[0] * x[1] - y[2] + lam * mu * y[0] + x[2] * y[1]])

    def d1(x, y, lam, mu):
        return np.array([[-1.0 + y[2], 0.0, 0.0],
                         [0.0, mu, np.cos(x[2])],
                         [x[1], x[0], y[1]]])

    def d2(x, y, lam, mu):
        return np.array([[0.0, lam, x[0]],
                         [-2.0 * y[0], 0.0, 0.0],
                         [lam * mu, x[2], -1.0]])

    return DdeModel(n=3, tau=1.0, f=f, d1=d1, d2=d2, name="coupled3")


def scalar_tb(tau):
    """x' = lambda + 2x + mu x(t - tau) - x^2 and its exact TB point.

    In delay-1 time f1 = tau (2 - 2x) and f2 = tau mu, so Delta'(0) = 1 + f2
    and Delta(0) = -(f1 + f2) vanish at mu = -1/tau, x = 1 - 1/(2 tau); the
    equilibrium gives lambda.  With l1 = l2 = 1 the normalizations fix
    phi1 = 2 and phi2 = -4/3 for every tau.
    """
    model = DdeModel(n=1, tau=tau,
                     f=lambda x, y, l, u: l + 2.0 * x + u * y - x ** 2,
                     d1=lambda x, y, l, u: np.array([[2.0 - 2.0 * x[0]]]),
                     d2=lambda x, y, l, u: np.array([[u]]))
    x, mu = 1.0 - 0.5 / tau, -1.0 / tau
    exact = TbCandidate(x=np.array([x]), phi1=np.array([2.0]),
                        phi2=np.array([-4.0 / 3.0]), lam=x * x - (2.0 + mu) * x, mu=mu)
    return model, exact


L_SCALAR = Functionals(l1=[1.0], l2=[1.0])


def candidate(row):
    x, p1, p2, lam, mu = row
    return TbCandidate(x=np.array(x), phi1=np.array(p1), phi2=np.array(p2),
                       lam=lam, mu=mu)


@pytest.fixture
def pp():
    return predator_prey()


class TestCandidate:
    def test_pack_roundtrip_bitwise(self):
        v = candidate(TABLE1[3][0])
        w = TbCandidate.unpack(v.pack(), 2)
        assert np.array_equal(v.pack(), w.pack())

    def test_unpack_wrong_length(self):
        with pytest.raises(InputError):
            TbCandidate.unpack(np.zeros(7), 2)

    def test_functionals_not_both_zero(self):
        with pytest.raises(InputError):
            Functionals(l1=[0.0, 0.0], l2=[0.0, 0.0])


class TestResidual:
    def test_zero_at_solution(self, pp):
        r = residual(pp, V_STAR, L10)
        assert np.max(np.abs(r)) <= 1e-14

    def test_perturbed_death_rate(self, pp):
        v = TbCandidate(x=V_STAR.x, phi1=V_STAR.phi1, phi2=V_STAR.phi2,
                        lam=0.6, mu=2.0)
        r = residual(pp, v, L10)
        assert r[1] == pytest.approx(-0.1)

    def test_block4_with_zero_phi1(self, pp):
        v = TbCandidate(x=np.array([1.3, 0.8]), phi1=np.zeros(2),
                        phi2=np.array([1.0, 1.0]), lam=0.4, mu=1.7)
        r = residual(pp, v, L10)
        assert r[6] == -1.0

    def test_bitwise_deterministic_after_roundtrip(self, pp):
        v = candidate(TABLE1[1][0])
        w = TbCandidate.unpack(v.pack(), 2)
        assert np.array_equal(residual(pp, v, L10), residual(pp, w, L10))


class TestJacobian:
    def test_analytic_vs_fd_near_solution(self, pp, fd_jacobian):
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = TbCandidate.unpack(V_STAR.pack() + 0.1 * rng.uniform(-1, 1, 8), 2)
            Ja = jacobian(pp, v, L10)
            Jf = fd_jacobian(pp, v, L10)
            assert np.max(np.abs(Ja - Jf)) <= 1e-5 * np.max(np.abs(Ja))

    def test_first_order_model_vs_fd(self, pp, fd_jacobian):
        # second and parameter derivatives all come from differences of d1, d2
        model = first_order(pp)
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = TbCandidate.unpack(V_STAR.pack() + 0.1 * rng.uniform(-1, 1, 8), 2)
            Jb = jacobian(model, v, L10)
            Jf = fd_jacobian(model, v, L10)
            assert np.max(np.abs(Jb - Jf)) <= 1e-5 * np.max(np.abs(Jb))
            Ja = jacobian(pp, v, L10)
            assert np.max(np.abs(Jb - Ja)) <= 1e-5 * np.max(np.abs(Ja))

    def test_three_dimensional_first_order_model_vs_fd(self, fd_jacobian):
        model = coupled3()
        L = Functionals(l1=[1.0, -0.5, 0.25], l2=[0.3, 1.0, -0.7])
        rng = np.random.default_rng(6)
        for _ in range(5):
            v = TbCandidate.unpack(rng.uniform(-1.0, 1.0, 11), 3)
            Jb = jacobian(model, v, L)
            Jf = fd_jacobian(model, v, L)
            assert np.max(np.abs(Jb - Jf)) <= 1e-5 * np.max(np.abs(Jb))

    def test_condition_finite_at_solution(self, pp):
        J = jacobian(pp, V_STAR, L10)
        c = linalg.cond_estimate(J)
        assert np.isfinite(c) and c < 1e6

    def test_no_delay_model_zero_x_columns_in_scalar_rows(self):
        # without a delayed term the normalization rows reduce to l1.phi1 - 1
        # and l1.phi2: no x dependence at all
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        zero2 = lambda x, y, l, u: np.zeros((2, 2))
        zerov = lambda x, y, l, u: np.zeros(2)
        zerob = lambda x, y, l, u, a, b: np.zeros(2)
        m = DdeModel(n=2, tau=1.0, f=lambda x, y, l, u: A @ x,
                     d1=lambda x, y, l, u: A, d2=zero2,
                     dlam=zerov, dmu=zerov,
                     d11=zerob, d12=zerob, d21=zerob, d22=zerob,
                     d1lam=zero2, d2lam=zero2, d1mu=zero2, d2mu=zero2)
        v = TbCandidate(x=np.array([0.2, -0.4]), phi1=np.array([1.0, 0.3]),
                        phi2=np.array([0.5, -0.2]), lam=0.1, mu=0.2)
        J = jacobian(m, v, L10)
        assert np.max(np.abs(J[6, :2])) == 0.0
        assert np.max(np.abs(J[7, :2])) == 0.0


class TestNewton:
    @pytest.mark.parametrize("row, ref_iters", TABLE1)
    def test_table_rows(self, pp, row, ref_iters):
        report = newton_solve(pp, candidate(row), L10)
        assert report.converged
        assert abs(report.iterations - ref_iters) <= 2
        assert np.max(np.abs(report.solution.pack() - V_STAR.pack())) <= 1e-9

    def test_exact_solution_fixed_point(self, pp):
        report = newton_solve(pp, V_STAR, L10)
        assert report.converged and report.iterations <= 1
        assert report.residual_history[-1] <= 1e-12

    def test_quadratic_convergence(self, pp):
        report = newton_solve(pp, candidate(TABLE1[0][0]), L10)
        r = [v for v in report.residual_history if v > 0]
        for a, b in list(zip(r, r[1:]))[-3:]:
            assert b <= 1e4 * a * a

    def test_limit_point_independent_of_start(self, pp):
        sols = [newton_solve(pp, candidate(row), L10).solution.pack()
                for row, _ in TABLE1]
        for s in sols[1:]:
            assert np.max(np.abs(s - sols[0])) <= 1e-9

    def test_first_order_model_converges(self, pp):
        report = newton_solve(first_order(pp), candidate(TABLE1[0][0]), L10)
        assert report.converged
        assert np.max(np.abs(report.solution.pack() - V_STAR.pack())) <= 1e-9

    def test_bare_model_converges_from_every_nearby_start(self, pp):
        # f alone: every derivative is a finite difference, so the residual
        # levels off near 1e-11 and tol_res=1e-10 is what it can meet
        bare = DdeModel(n=2, tau=1.0, f=pp.f)
        base = candidate(TABLE1[0][0]).pack()
        rng = np.random.default_rng(0)
        opts = NewtonOptions(tol_res=1e-10)
        for _ in range(200):
            start = base + 0.02 * np.maximum(1.0, np.abs(base)) * rng.uniform(-1, 1, 8)
            report = newton_solve(bare, TbCandidate.unpack(start, 2), L10, opts)
            assert report.converged
            assert report.residual_history[-1] <= 1e-10
            assert np.max(np.abs(report.solution.pack() - V_STAR.pack())) <= 1e-8

    def test_stalled_step_above_tol_res_not_converged(self, pp):
        # the step falls below tol_step while the residual (about 2e-11) is
        # still above the requested tol_res: that is a stall, not convergence
        opts = NewtonOptions(tol_res=1e-15, tol_step=1e-3)
        report = newton_solve(pp, candidate(TABLE1[0][0]), L10, opts)
        assert not report.converged
        assert report.failure_reason == "stalled"
        assert report.residual_history[-1] > opts.tol_res

    def test_divergence_reported(self, pp):
        far = TbCandidate(x=np.array([100.0, 100.0]), phi1=np.array([100.0, 100.0]),
                          phi2=np.array([100.0, 100.0]), lam=100.0, mu=100.0)
        report = newton_solve(pp, far, L10)
        assert not report.converged
        assert report.failure_reason in ("diverged", "singular_jacobian", "max_iter")

    def test_singular_jacobian_aborts(self):
        # phi1 = 0 makes the chain rows and normalization rows degenerate
        m = synthetic_tb()
        v = TbCandidate(x=np.zeros(2), phi1=np.zeros(2), phi2=np.zeros(2),
                        lam=0.0, mu=0.0)
        # the jacobian at phi1 = phi2 = 0 has two zero rows in the phi blocks
        report = newton_solve(m, v, Functionals(l1=[0.0, 1.0], l2=[0.0, 1.0]),
                              NewtonOptions(max_iter=3))
        assert not report.converged

    def test_synthetic_recovery(self):
        m = synthetic_tb()
        target = TbCandidate(x=np.zeros(2), phi1=np.array([2.0 / 3.0, 0.0]),
                             phi2=np.array([4.0 / 27.0, 4.0 / 3.0]),
                             lam=0.0, mu=0.0)
        assert np.max(np.abs(residual(m, target, L10))) <= 1e-15
        rng = np.random.default_rng(8)
        for _ in range(3):
            v0 = TbCandidate.unpack(target.pack() + 0.1 * rng.uniform(-1, 1, 8), 2)
            report = newton_solve(m, v0, L10)
            assert report.converged
            assert np.max(np.abs(report.solution.pack() - target.pack())) <= 1e-10


class TestDelay:
    def test_tau_two_converges_to_delay_point(self):
        model, exact = scalar_tb(2.0)
        assert exact.pack().tolist() == [0.75, 2.0, -4.0 / 3.0, -0.5625, -0.5]
        v0 = TbCandidate.unpack(exact.pack() + [-0.05, 0.1, 0.05, 0.03, 0.04], 1)
        report = newton_solve(model, v0, L_SCALAR)
        assert report.converged
        assert np.max(np.abs(report.solution.pack() - exact.pack())) <= 1e-12

    def test_delay_one_point_is_not_a_root_at_tau_two(self):
        # the point of the same equation with delay 1
        model, _ = scalar_tb(2.0)
        _, point = scalar_tb(1.0)
        assert point.pack().tolist() == [0.5, 2.0, -4.0 / 3.0, -0.25, -1.0]
        assert np.max(np.abs(residual(model, point, L_SCALAR))) >= 0.5

    @settings(max_examples=40, deadline=None)
    @given(tau=st.floats(0.25, 4.0),
           offset=st.lists(st.floats(-0.05, 0.05), min_size=5, max_size=5))
    def test_newton_point_matches_closed_form(self, tau, offset):
        model, exact = scalar_tb(tau)
        start = exact.pack() + np.array(offset) * np.maximum(1.0, np.abs(exact.pack()))
        report = newton_solve(model, TbCandidate.unpack(start, 1), L_SCALAR)
        assert report.converged
        assert np.max(np.abs(report.solution.pack() - exact.pack())) <= 1e-10
