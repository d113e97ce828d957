import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from tbdde import (DdeModel, Functionals, InputError, NewtonOptions, TbCandidate, certify,
                   compute_basis, linearize, newton_solve, predator_prey, synthetic_tb)
from tbdde import defining, linalg, verify
from tbdde.defining import jacobian, residual
from tbdde.model import H1, H2, _call, _check_vec, _f, _first, param_der
from tbdde.verify import characteristic

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


def lifted(n, seed=0, ddir=False):
    """synthetic-tb on (x0, x1) plus n - 2 stable delayed components driven by x0.

    x_k' = -a_k x_k + b_k x_k(t-1) + c_k x0 + e_k x0^2 with a_k in [1, 2] and
    |b_k| <= 1/2, supplying only f, d1 and d2, and ``ddir`` too if asked;
    the origin at lambda = mu = 0 stays a TB point.  Returns the model and
    its exact point for L10: the synthetic chain (2/3, 0), (4/27, 4/3)
    continued into each component by the rows of S phi1 = 0 and
    S phi2 = (f2 + I) phi1.
    """
    base = synthetic_tb()
    rng = np.random.default_rng(seed)
    a, b, c, e = (rng.uniform(lo, hi, n - 2)
                  for lo, hi in ((1.0, 2.0), (-0.5, 0.5), (-1.0, 1.0), (-1.0, 1.0)))
    rows = np.arange(2, n)

    def f(x, y, lam, mu):
        return np.concatenate([base.f(x[:2], y[:2], lam, mu),
                               -a * x[2:] + b * y[2:] + c * x[0] + e * x[0] ** 2])

    def d1(x, y, lam, mu):
        J = np.zeros((n, n))
        J[:2, :2] = base.d1(x[:2], y[:2], lam, mu)
        J[rows, rows] = -a
        J[2:, 0] = c + 2.0 * e * x[0]
        return J

    def d2(x, y, lam, mu):
        J = np.zeros((n, n))
        J[:2, :2] = base.d2(x[:2], y[:2], lam, mu)
        J[rows, rows] = b
        return J

    p1 = np.concatenate([[2.0 / 3.0, 0.0], c * (2.0 / 3.0) / (a - b)])
    p2 = np.concatenate([[4.0 / 27.0, 4.0 / 3.0],
                         (c * 4.0 / 27.0 - (b + 1.0) * p1[2:]) / (a - b)])
    def dd(x, y, lam, mu, dx, dy, dlam, dmu):
        out = np.zeros((2, n, n))
        out[:, :2, :2] = base.ddir(x[:2], y[:2], lam, mu, dx[:2], dy[:2], dlam, dmu)
        out[0, 2:, 0] = 2.0 * e * dx[0]
        return out

    exact = TbCandidate(x=np.zeros(n), phi1=p1, phi2=p2, lam=0.0, mu=0.0)
    return DdeModel(n=n, tau=1.0, f=f, d1=d1, d2=d2, ddir=dd if ddir else None,
                    name=f"lifted-n{n}"), exact


def first_order(model):
    """The same model with only f, d1 and d2: every other derivative is differenced."""
    return DdeModel(n=model.n, tau=model.tau, f=model.f, d1=model.d1, d2=model.d2)


def coupled3(tau=1.0):
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

    return DdeModel(n=3, tau=tau, f=f, d1=d1, d2=d2, name="coupled3")


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

    @pytest.mark.parametrize("bad, expected", [
        (np.array([1.0 + 2.0j, 0.0]), "complex128 values, not real"),
        (["1", "0"], "<U1 values, not real"),
        ([1.0, [0.0, 0.0]], "no array of numbers")],
        ids=["complex", "strings", "ragged"])
    @pytest.mark.parametrize("label", ["l1", "l2"])
    def test_functionals_must_be_real(self, label, bad, expected):
        # a complex row is an error naming it, not cast to its real part
        rows = {"l1": [1.0, 0.0], "l2": [1.0, 0.0], label: bad}
        with pytest.raises(InputError, match=re.escape(f"{label} has {expected}")):
            Functionals(**rows)

    @pytest.mark.parametrize("bad", [[np.nan, 0.0], [1.0, np.inf]], ids=["nan", "inf"])
    @pytest.mark.parametrize("label", ["l1", "l2"])
    def test_functionals_must_be_finite(self, pp, label, bad):
        # a NaN row was accepted, and Newton then ended "diverged" at iteration 0
        rows = {"l1": [1.0, 0.0], "l2": [1.0, 0.0], label: bad}
        with pytest.raises(InputError, match=f"^{label} must be finite"):
            Functionals(**rows)


#: Newton options that are no stopping rule, with the error's wording
BAD_OPTIONS = {
    "max-iter-fraction": ({"max_iter": 2.5}, "max_iter must be a finite int, got 2.5"),
    "max-iter-string": ({"max_iter": "3"}, "max_iter must be a finite int, got '3'"),
    "max-iter-bool": ({"max_iter": True}, "max_iter must be a finite int, got True"),
    "max-iter-negative": ({"max_iter": -1}, "max_iter must be >= 0, got -1"),
    "tol-step-string": ({"tol_step": "x"}, "tol_step must be a finite float, got 'x'"),
    "tol-step-negative": ({"tol_step": -1.0}, "tol_step must be >= 0, got -1.0"),
    "tol-res-nan": ({"tol_res": np.nan}, "tol_res must be a finite float, got nan"),
    "tol-res-inf": ({"tol_res": np.inf}, "tol_res must be a finite float, got inf"),
    "tol-res-negative": ({"tol_res": -1e-12}, "tol_res must be >= 0, got -1e-12"),
}


@pytest.mark.parametrize("case", sorted(BAD_OPTIONS))
def test_newton_options_are_checked(case):
    # max_iter = 2.5 or "3" raised TypeError from range, tol_step = "x" a
    # TypeError, and a NaN or negative tol_res ended a run "stalled"
    fields, expected = BAD_OPTIONS[case]
    with pytest.raises(InputError, match="^" + re.escape(expected)):
        NewtonOptions(**fields)


def test_newton_options_take_numpy_numbers():
    opts = NewtonOptions(tol_res=np.float64(1e-10), tol_step=0, max_iter=np.int64(3))
    assert (opts.tol_res, opts.tol_step, opts.max_iter) == (1e-10, 0, 3)


BAD_SHAPES = {
    # the vectors of a candidate and of the functionals, against model.n = 2
    "l1-length": (V_STAR, Functionals(l1=np.ones(3), l2=[1.0, 0.0])),
    "l2-length": (V_STAR, Functionals(l1=[1.0, 0.0], l2=np.ones(1))),
    "l1-2d": (V_STAR, Functionals(l1=[[1.0, 0.0]], l2=[1.0, 0.0])),
    "phi1-length": (TbCandidate(x=V_STAR.x, phi1=np.ones(3), phi2=V_STAR.phi2,
                                lam=0.5, mu=2.0), L10),
    "phi2-2d": (TbCandidate(x=V_STAR.x, phi1=V_STAR.phi1, phi2=np.ones((2, 1)),
                            lam=0.5, mu=2.0), L10),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
@pytest.mark.parametrize("solve", ["newton_solve", "residual", "jacobian"])
def test_vector_of_wrong_shape_is_input_error(pp, case, solve):
    v, L = BAD_SHAPES[case]
    fn = {"newton_solve": newton_solve, "residual": residual, "jacobian": jacobian}[solve]
    with pytest.raises(InputError, match=case.split("-")[0]):
        fn(pp, v, L)


def test_complex_candidate_vector_is_input_error():
    with pytest.raises(InputError, match="^candidate vector has complex128 values"):
        TbCandidate.unpack(V_STAR.pack() + 1j, 2)


@pytest.mark.parametrize("label", ["x", "phi1", "phi2"])
@pytest.mark.parametrize("solve", ["newton_solve", "residual", "jacobian"])
def test_complex_vector_is_input_error(pp, solve, label):
    # a complex phi1 in the start surfaced only inside Newton, as "b has
    # complex128 values"; jacobian cast the chain vectors to float
    v = dataclasses.replace(V_STAR, **{label: getattr(V_STAR, label) + 1j})
    fn = {"newton_solve": newton_solve, "residual": residual, "jacobian": jacobian}[solve]
    with pytest.raises(InputError, match=f"^{label} has complex128 values, not real"):
        fn(pp, v, L10)


#: a chain vector or row that is not 2 real numbers, with the error's wording
BAD_GIVEN_LIN = {
    "phi1-complex": ("phi1", V_STAR.phi1 + 1j, "phi1 has complex128 values, not real"),
    "phi2-complex": ("phi2", V_STAR.phi2 + 1j, "phi2 has complex128 values, not real"),
    "phi1-length": ("phi1", np.ones(3), "phi1 must have length 2, got shape (3,)"),
    "phi2-length": ("phi2", np.ones(3), "phi2 must have length 2, got shape (3,)"),
    "l1-length": ("l1", np.ones(3), "l1 must have length 2, got shape (3,)"),
    "l2-length": ("l2", np.ones(3), "l2 must have length 2, got shape (3,)"),
}


@pytest.mark.parametrize("case", sorted(BAD_GIVEN_LIN))
@pytest.mark.parametrize("entry", ["residual", "jacobian"])
def test_given_a_linearization_the_vectors_are_still_checked(pp, entry, case):
    # residual and jacobian linearize at v themselves; a given linearization
    # once let a complex phi1 give a complex128 residual, a length-3 vector
    # numpy's "matmul: Input operand 1 has a mismatch", and l1, l2 go unchecked
    label, bad, expected = BAD_GIVEN_LIN[case]
    v, L = V_STAR, L10
    if label.startswith("l"):
        L = Functionals(**{"l1": L10.l1, "l2": L10.l2, label: bad})
    else:
        v = dataclasses.replace(V_STAR, **{label: bad})
    fn = {"residual": residual, "jacobian": jacobian}[entry]
    with pytest.raises(InputError, match="^" + re.escape(expected)):
        fn(pp, v, L)


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

    # fd_jacobian is a plain function, so sharing it between examples is safe
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tau=st.floats(0.25, 4.0),
           l1=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           l2=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_three_dimensional_first_order_model_vs_fd(self, fd_jacobian, tau,
                                                        l1, l2, seed):
        # the normalization rows at any delay, with distinct functionals
        assume(np.max(np.abs(l1)) >= 0.1 and np.max(np.abs(l2)) >= 0.1)
        assume(np.max(np.abs(np.subtract(l1, l2))) >= 0.1)
        model = coupled3(tau)
        L = Functionals(l1=l1, l2=l2)
        v = TbCandidate.unpack(np.random.default_rng(seed).uniform(-1.0, 1.0, 11), 3)
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
        zerov = lambda x, y, l, u: np.zeros(2)
        zerod = lambda x, y, l, u, dx, dy, dl, du: np.zeros((2, 2, 2))
        m = DdeModel(n=2, tau=1.0, f=lambda x, y, l, u: A @ x,
                     d1=lambda x, y, l, u: A, d2=lambda x, y, l, u: np.zeros((2, 2)),
                     dlam=zerov, dmu=zerov, ddir=zerod)
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

    @pytest.mark.parametrize("row", [row for row, _ in TABLE1])
    def test_steps_are_plain_newton_with_frobenius_cond(self, pp, row):
        # every step is the first column of np.linalg.solve(J, [-r | I]), one
        # LU, and final_cond is the Frobenius bound of the last Jacobian:
        # between cond_2(J) and (3n+2) cond_2(J)
        report = newton_solve(pp, candidate(row), L10)
        v, history = candidate(row), []
        while True:
            r = residual(pp, v, L10)
            history.append(float(np.max(np.abs(r))))
            if history[-1] <= NewtonOptions().tol_res:
                break
            J = jacobian(pp, v, L10)
            step = np.linalg.solve(J, np.column_stack([-r, np.eye(len(r))]))[:, 0]
            v = TbCandidate.unpack(v.pack() + step, 2)
        assert report.converged and report.iterations == len(history) - 1
        assert report.residual_history == history
        assert np.array_equal(report.solution.pack(), v.pack())
        exact, m = linalg.cond_estimate(J), J.shape[0]
        slack = 10 * m * exact * np.finfo(float).eps
        assert exact * (1.0 - slack) <= report.final_cond <= m * exact * (1.0 + slack)

    @pytest.mark.parametrize("n, seed", [
        pytest.param(6, 0, id="0"), pytest.param(6, 1, id="1"), pytest.param(6, 2, id="2"),
        pytest.param(32, 0, id="n32-0"), pytest.param(32, 1, id="n32-1")])
    def test_one_linearization_per_iterate_lifted(self, counted_model, monkeypatch, n, seed):
        # the Jacobian reuses the residual's f1 = d1 and f2 = d2 at its
        # iterate: per step, 12 of each for the table (x +- h phi and
        # y +- h phi for phi1, phi2; lambda +- h, mu +- h) and one for the
        # next residual; f is evaluated at lambda +- h, mu +- h and once
        # for the next residual.  At n = 32 every step is the structured
        # one, which calls no callback either; at n = 6 every step is the
        # dense guard's.
        dense = []
        guarded = linalg.solve_with_cond
        monkeypatch.setattr(linalg, "solve_with_cond",
                            lambda A, b: dense.append(A) or guarded(A, b))
        model, exact = lifted(n, seed)
        L = Functionals(l1=np.eye(n)[0], l2=np.eye(n)[0])
        assert np.max(np.abs(residual(model, exact, L))) <= 1e-14
        model, counts = counted_model(model)
        start = exact.pack() + 0.05 * np.random.default_rng(seed).uniform(-1, 1, 3 * n + 2)
        report = newton_solve(model, TbCandidate.unpack(start, n), L)
        k = report.iterations
        assert report.converged and k >= 3
        assert counts["d1"] == counts["d2"] == 1 + 13 * k
        assert counts["f"] == 1 + 5 * k
        assert len(dense) == (0 if n >= defining._STRUCTURED_N else k)

    @pytest.mark.parametrize("row", [row for row, _ in TABLE1])
    def test_one_linearization_per_iterate_predator_prey(self, pp, counted_model, row):
        # with every derivative supplied, f, d1 and d2 run once per iterate,
        # and ddir 6 times per step: along lambda and mu, and along phi1 and
        # phi2 in each slot
        model, counts = counted_model(pp, ("f", "d1", "d2", "ddir"))
        report = newton_solve(model, candidate(row), L10)
        k = report.iterations
        assert report.converged
        assert counts["d1"] == counts["d2"] == counts["f"] == 1 + k
        assert counts["ddir"] == 6 * k

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

    @pytest.mark.parametrize("max_iter, ending", [(0, ("max_iter", 0)), (1, ("diverged", 1)),
                                                  (2, ("diverged", 1)), (50, ("diverged", 1))])
    def test_divergence_after_any_step(self, max_iter, ending):
        # one step takes the residual from 1.6 to 3.3e290: with max_iter = 1
        # the run ended "max_iter" there, with 2 or 50 "diverged"
        model = DdeModel(n=1, tau=1.0, f=lambda x, y, lam, mu:
                         lam + mu * y + 2.0 * x - x * x + 1e-6 * np.exp(x))
        v0 = TbCandidate.unpack(np.array([1.55, -0.02, 0.18, 1.71, -0.51]), 1)
        report = newton_solve(model, v0, Functionals([1.0], [1.0]),
                              NewtonOptions(max_iter=max_iter))
        assert (report.failure_reason, report.iterations) == ending
        assert report.residual_history[-1] == pytest.approx(1.617 if max_iter == 0 else 3.327e290,
                                                            rel=1e-3)

    @pytest.mark.parametrize("max_iter", [0, 1, 50])
    def test_divergence_at_the_start(self, pp, max_iter):
        # a start residual of 1e19 ended "max_iter" at max_iter = 0
        far = dataclasses.replace(V_STAR, x=np.array([1e5, -1e5]), mu=1e-9)
        report = newton_solve(pp, far, L10, NewtonOptions(max_iter=max_iter))
        assert (report.failure_reason, report.iterations) == ("diverged", 0)
        assert report.residual_history == [pytest.approx(1e19, rel=1e-3)]

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


class TestStructuredStep:
    """From n = _STRUCTURED_N up, Newton's step is the block elimination's."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(defining._STRUCTURED_N, 40), seed=st.integers(0, 2 ** 16),
           tau=st.floats(0.5, 2.0), radius=st.floats(0.01, 0.1))
    def test_matches_the_dense_step(self, n, seed, tau, radius):
        # along a dense-step Newton loop: every structured step is proved
        # safe, its bound is at least ||J||_F ||J^-1||_F (so at least
        # cond_2(J)) up to rounding, and it is the dense step to 1e-12;
        # newton_solve takes the same number of steps to the same point
        model, exact = lifted(n, seed)
        model = dataclasses.replace(model, tau=tau)
        L = Functionals(l1=np.eye(n)[0], l2=np.eye(n)[0])
        start = exact.pack() + radius * np.random.default_rng(seed).uniform(-1, 1, 3 * n + 2)
        v, border, history = TbCandidate.unpack(start, n), np.full(n, n ** -0.5), []
        while True:
            r = residual(model, v, L)
            history.append(float(np.max(np.abs(r))))
            if history[-1] <= NewtonOptions().tol_res:
                break
            assert len(history) <= 10
            J = jacobian(model, v, L)
            dense = np.linalg.solve(J, -r)
            step, bound, border = defining._structured_step(J, r, v.phi1, border)
            assert step is not None
            cond = linalg.cond_estimate(J)
            assert bound >= cond
            frobenius = np.linalg.norm(J) * np.linalg.norm(np.linalg.inv(J))
            assert bound >= frobenius * (1.0 - 10 * J.shape[0] * cond * np.finfo(float).eps)
            assert np.linalg.norm(step - dense) <= 1e-12 * np.linalg.norm(dense)
            v = TbCandidate.unpack(v.pack() + dense, n)
        report = newton_solve(model, TbCandidate.unpack(start, n), L)
        assert report.converged and report.iterations == len(history) - 1
        assert np.max(np.abs(report.solution.pack() - v.pack())) <= 1e-12

    @pytest.mark.parametrize("case", ["zero-phi", "cond-above-limit"])
    def test_degenerate_iterate_is_refused_by_the_dense_guard(self, case):
        # phi1 = phi2 = 0 leaves gamma undefined; l1 = l2 = 1e-8 e0 scales
        # the normalization rows, so cond_2(J) is about 2e9 at the exact point
        n = 32
        model, exact = lifted(n, 0)
        scale = 1.0 if case == "zero-phi" else 1e-8
        L = Functionals(l1=scale * np.eye(n)[0], l2=scale * np.eye(n)[0])
        v = (dataclasses.replace(exact, phi1=np.zeros(n), phi2=np.zeros(n))
             if case == "zero-phi" else exact)
        J, r = jacobian(model, v, L), residual(model, v, L)
        cond = linalg.cond_estimate(J)
        assert cond > linalg.COND_LIMIT and not np.isnan(cond)
        step, bound, border = defining._structured_step(J, r, v.phi1, np.full(n, n ** -0.5))
        assert step is None and bound >= cond
        assert np.all(np.isfinite(border))
        report = newton_solve(model, v, L)
        assert report.failure_reason == "singular_jacobian" and report.iterations == 0
        assert report.final_cond == cond


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def reference_newton_solve(model, v0, L, opts=None):
    """``newton_solve`` as it was before its loop ran on one packed iterate,
    verbatim but for the entry check (``_linearize`` then, which checked v0
    and L and linearized at v0) and for ``residual`` and ``jacobian`` given
    the iterate's linearization, which are ``_residual`` and ``_jacobian``
    on it: the same arithmetic."""
    opts = opts or NewtonOptions()

    structured = model.n >= defining._STRUCTURED_N
    border = np.full(model.n, model.n ** -0.5)   # any fixed unit vector to start
    v = v0
    lin = defining.linearize(model, v.x, v.lam, v.mu)
    r = defining._residual(lin, v.phi1, v.phi2, L)
    res_hist = [float(np.max(np.abs(r)))]
    final_cond = np.nan

    for k in range(opts.max_iter):
        if res_hist[-1] <= opts.tol_res:
            return defining.NewtonReport(True, k, res_hist, final_cond, None, v, lin)
        if res_hist[-1] > 1e12 or not np.isfinite(res_hist[-1]):
            return defining.NewtonReport(False, k, res_hist, final_cond, "diverged", v, lin)
        J = defining._jacobian(lin, v.phi1, v.phi2, L)
        step = None
        if structured:
            step, final_cond, border = defining._structured_step(J, r, v.phi1, border)
        if step is None:
            try:
                step, final_cond = linalg.solve_with_cond(J, -r)
            except defining.NearSingular as exc:
                return defining.NewtonReport(False, k, res_hist, exc.cond, "singular_jacobian",
                                             v, lin)
        vnew = v.pack() + step
        v = TbCandidate.unpack(vnew, model.n)
        lin = defining.linearize(model, v.x, v.lam, v.mu)
        r = defining._residual(lin, v.phi1, v.phi2, L)
        res_hist.append(float(np.max(np.abs(r))))
        if np.max(np.abs(step)) <= opts.tol_step * max(1.0, np.max(np.abs(vnew))):
            converged = res_hist[-1] <= opts.tol_res
            return defining.NewtonReport(converged, k + 1, res_hist, final_cond,
                                         None if converged else "stalled", v, lin)

    converged = res_hist[-1] <= opts.tol_res
    return defining.NewtonReport(converged, opts.max_iter, res_hist, final_cond,
                                 None if converged else "max_iter", v, lin)


def newton_starts(kind):
    """(model, L, 20 starts): lifted n = 32 moved by up to 0.1 in every
    unknown, or the four predator-prey fixture starts moved by up to 2%."""
    rng = np.random.default_rng(32)
    if kind == "lifted-n32":
        model, exact = lifted(32)
        L = Functionals(l1=np.eye(32)[0], l2=np.eye(32)[0])
        return model, L, [TbCandidate.unpack(exact.pack() + 0.1 * rng.uniform(-1, 1, 98), 32)
                          for _ in range(20)]
    starts = [candidate(TABLE1[k % 4][0]).pack() for k in range(20)]
    return predator_prey(), L10, [
        TbCandidate.unpack(s + 0.02 * np.maximum(1.0, np.abs(s)) * rng.uniform(-1, 1, 8), 2)
        for s in starts]


class TestAgainstTheUnpackedLoop:
    """Newton on one packed iterate gives the reports of the loop that
    unpacked a candidate at every step, bit for bit."""

    @pytest.mark.parametrize("opts, ending", [
        (NewtonOptions(), None), (NewtonOptions(max_iter=2), "max_iter"),
        (NewtonOptions(tol_res=1e-15, tol_step=1e-3), "stalled")],
        ids=["default", "max-iter", "stall"])
    @pytest.mark.parametrize("kind", ["lifted-n32", "predator-prey"])
    def test_reports(self, kind, opts, ending):
        model, L, starts = newton_starts(kind)
        reasons = set()
        for v0 in starts:
            got, want = newton_solve(model, v0, L, opts), reference_newton_solve(model, v0, L, opts)
            assert got.residual_history == want.residual_history
            assert got.iterations == want.iterations
            assert got.failure_reason == want.failure_reason
            assert_same_bits(np.array([got.final_cond]), np.array([want.final_cond]))
            assert_same_bits(got.solution.pack(), want.solution.pack())
            for a, b in zip(got.linearization[1:], want.linearization[1:]):
                assert_same_bits(np.asarray(a), np.asarray(b))
            reasons.add(got.failure_reason)
        assert ending in reasons


class TestNewtonPointsCertify:
    """Newton's points on lifted models certify at any n: the certificate's
    rank cut and thresholds are relative, and nothing scales with Delta.

    The model is lifted(n, [0, n, 0]) and start k is the exact point plus
    0.1 times row k of a uniform [-1, 1] draw from seed [0, 2, n].
    """

    @staticmethod
    def verdicts(n, starts):
        model, exact = lifted(n, [0, n, 0])
        L = Functionals(l1=np.eye(n)[0], l2=np.eye(n)[0])
        noise = np.random.default_rng([0, 2, n]).uniform(-1.0, 1.0, (max(starts) + 1, 3 * n + 2))
        for k in starts:
            report = newton_solve(model, TbCandidate.unpack(exact.pack() + 0.1 * noise[k], n), L)
            assert report.converged
            sol, lin = report.solution, report.linearization
            assert np.max(np.abs(sol.pack() - exact.pack())) <= 1e-10
            yield model, sol, lin.f1 + lin.f2, certify(lin)

    def test_near_rank_n_minus_2_by_rounding_certifies(self):
        # sigma_min/sigma_max of f1 + f2 lies above n eps at these points,
        # where a rank cut at n eps sigma_max called f1 + f2 regular
        n, ratios = 32, []
        for _, _, S, verdict in self.verdicts(n, [3, 6, 20, 34]):
            s = np.linalg.svd(S, compute_uv=False)
            ratios.append(s[-1] / s[0])
            assert verdict.passed
            assert len({c.threshold for name, c in verdict.checks.items() if name != "rank"}) == 1
        assert any(n * np.finfo(float).eps < r < 1e-8 for r in ratios)

    def test_double_zero_decided_without_the_scale_of_delta(self):
        # Delta'(0) is above 1e-8 at these points, with the range value below
        # 1e-12: Delta carries the scale of the other 31 roots, so an
        # absolute test on Delta failed them
        slopes = []
        for model, sol, _, verdict in self.verdicts(32, [0, 13, 28, 37]):
            assert verdict.passed
            assert abs(verdict.checks["range"].value) <= 1e-12
            slopes.append(characteristic(model, sol.x, sol.lam, sol.mu, 1e-100j).imag / 1e-100)
        assert max(abs(d) for d in slopes) > 1e-8

    def test_n128_certifies(self):
        for _, _, _, verdict in self.verdicts(128, [0, 1]):
            assert verdict.passed


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


SYNTHETIC_STAR = TbCandidate(x=np.zeros(2), phi1=np.array([2.0 / 3.0, 0.0]),
                             phi2=np.array([4.0 / 27.0, 4.0 / 3.0]), lam=0.0, mu=0.0)

SCALED_MODELS = {
    # builder, TB point, d0 there, how close Newton gets to the point, and
    # (l1, l2): l2 f2 phi1 = 0 at the point, so identity (5) fixes the scale
    # of phi1 through l1 alone and no rescaling makes it degenerate
    "predator-prey": (predator_prey, V_STAR, np.sqrt(2.0) / 16.0, 1e-9,
                      [1.0, 0.0], [1.0, 0.0]),
    "synthetic-tb": (synthetic_tb, SYNTHETIC_STAR, 11.0 * np.sqrt(2.0) / 4.0, 1e-10,
                     [1.0, 0.0], [0.0, 1.0]),
}


class TestFunctionalScaling:
    """l1 -> a l1 and l2 -> b l2, with phi -> phi / a, scale the l2 terms of
    the normalization rows by b / a: Newton's iterates are invariant when
    b = a only.  With b apart from a, a run may converge to another TB point
    of the model (synthetic-tb has one at x = (0.2594, -0.3360))."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(SCALED_MODELS)),
           log_factors=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
           signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=2, max_size=2),
           offset=st.lists(st.floats(-0.05, 0.05), min_size=8, max_size=8))
    # with b apart from a, Newton took 39 steps to synthetic-tb's other TB
    # point from the first and ended singular_jacobian from the second
    @example(name="synthetic-tb", log_factors=[-0.8562448314810793, 0.7927557907071039],
             signs=[-1.0, 1.0], offset=[0.0465319819932392, 0.0, 0.0, 0.0, 0.0, 0.03125,
                                        0.0078125, 0.0])
    @example(name="synthetic-tb", log_factors=[-0.859375, 0.791015625], signs=[-1.0, 1.0],
             offset=[0.0465319819932392, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    def test_point_and_d0_do_not_depend_on_the_scale_of_l1_l2(
            self, name, log_factors, signs, offset):
        build, exact, d0, tol, l1, l2 = SCALED_MODELS[name]
        model = build()
        a, b = (sign * 10.0 ** e for sign, e in zip(signs, log_factors))
        start = exact.pack() + np.array(offset) * np.maximum(1.0, np.abs(exact.pack()))
        plain = newton_solve(model, TbCandidate.unpack(start, 2), Functionals(l1, l2))
        assert plain.converged
        sol = plain.solution
        assert np.max(np.abs(sol.x - exact.x)) <= tol
        assert max(abs(sol.lam - exact.lam), abs(sol.mu - exact.mu)) <= tol
        assert certify(plain.linearization).d0 == pytest.approx(d0, rel=1e-8)

        start[2:6] /= a   # at the point, phi1 and phi2 scale by 1/a
        same = newton_solve(model, TbCandidate.unpack(start, 2),
                            Functionals(l1=a * np.array(l1), l2=a * np.array(l2)))
        assert (same.converged, same.failure_reason) == (True, None)
        # the chain blocks of the residual scale by 1/a, so its stopping test
        # may end the same iterates one step apart
        assert abs(same.iterations - plain.iterations) <= 1
        assert np.max(np.abs(same.solution.x - sol.x)) <= tol
        assert max(abs(same.solution.lam - sol.lam), abs(same.solution.mu - sol.mu)) <= tol
        assert certify(same.linearization).d0 == pytest.approx(d0, rel=1e-8)

        report = newton_solve(model, TbCandidate.unpack(start, 2),
                              Functionals(l1=a * np.array(l1), l2=b * np.array(l2)))
        if report.converged:
            assert certify(report.linearization).passed


def reparametrized(s, a, b, swap=False):
    """synthetic-tb with lambda -> s (lambda - a), mu -> mu - b, supplying f, d1, d2.

    Its TB point is the origin at (lambda, mu) = (a, b), and f_lambda is s
    times synthetic-tb's, so c_lam_mu = -1/s there.  ``swap`` exchanges the
    two parameter slots: the point moves to (b, a).
    """
    base = synthetic_tb()

    def wrap(fn):
        if swap:
            return lambda x, y, lam, mu: fn(x, y, s * (mu - a), lam - b)
        return lambda x, y, lam, mu: fn(x, y, s * (lam - a), mu - b)

    return DdeModel(n=2, tau=1.0, f=wrap(base.f), d1=wrap(base.d1), d2=wrap(base.d2))


class TestParameterSwap:
    @settings(max_examples=40, deadline=None)
    @given(log_s=st.floats(-1.0, 1.0), sign=st.sampled_from([-1.0, 1.0]),
           a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
           offset=st.lists(st.floats(-0.05, 0.05), min_size=8, max_size=8))
    def test_swapped_parameters_swap_the_point_and_invert_c(self, log_s, sign, a, b,
                                                             offset):
        s = sign * 10.0 ** log_s
        assume(abs(abs(s) - 1.0) >= 0.05)   # c = -1/s away from +-1
        L = L10
        exact = SYNTHETIC_STAR.pack() + [0, 0, 0, 0, 0, 0, a, b]
        start = exact + np.array(offset) * np.maximum(1.0, np.abs(exact))
        swapped_start = start[[0, 1, 2, 3, 4, 5, 7, 6]]
        sol = newton_solve(reparametrized(s, a, b), TbCandidate.unpack(start, 2), L)
        sol_sw = newton_solve(reparametrized(s, a, b, swap=True),
                              TbCandidate.unpack(swapped_start, 2), L)
        assert sol.converged and sol_sw.converged
        got, got_sw = sol.solution.pack(), sol_sw.solution.pack()
        assert np.max(np.abs(got - exact)) <= 1e-10
        assert np.max(np.abs(got_sw - got[[0, 1, 2, 3, 4, 5, 7, 6]])) <= 1e-10

        # certified at the exact point in either orientation
        verdicts = []
        for swap, (lam, mu) in ((False, (a, b)), (True, (b, a))):
            verdicts.append(certify(linearize(reparametrized(s, a, b, swap), np.zeros(2),
                                              lam, mu)))
        c, c_sw = (v.c_lam_mu for v in verdicts)
        assert verdicts[0].passed and verdicts[1].passed
        assert c == pytest.approx(-1.0 / s, rel=1e-8)
        assert c_sw == pytest.approx(1.0 / c, rel=1e-12)


def scalar_ddir(x, y, lam, mu, dx, dy, dlam, dmu):
    """``scalar_tb``'s f1 = 2 - 2x and f2 = mu, differentiated along a direction."""
    return np.array([[[-2.0 * dx[0]]], [[dmu]]])


def coupled3_ddir(x, y, lam, mu, dx, dy, dlam, dmu):
    """``coupled3``'s f1 and f2, differentiated along a direction."""
    return np.array([[[dy[2], 0.0, 0.0], [0.0, dmu, -np.sin(x[2]) * dx[2]],
                      [dx[1], dx[0], dy[1]]],
                     [[0.0, dlam, dx[0]], [-2.0 * dy[0], 0.0, 0.0],
                      [dlam * mu + lam * dmu, dx[2], 0.0]]])


def reference_models(n):
    """(model, exact point or None) at state dimension n, supplying ddir."""
    if n == 1:
        model, exact = scalar_tb(1.0)
        return dataclasses.replace(model, ddir=scalar_ddir), exact
    if n == 2:
        return predator_prey(), V_STAR
    if n == 3:
        return dataclasses.replace(coupled3(), ddir=coupled3_ddir), None
    return lifted(n, 0, ddir=True)


def reference_dirder(model, x, y, lam, mu, dx=None, dy=None, dlam=None, dmu=None):
    """The one-direction derivative pair as the package computed it before its
    directions were batched (``model._dirder`` then), verbatim."""
    if model.ddir is not None:
        zero = np.zeros(model.n)
        out = _call(model, "ddir", (2, model.n, model.n), x, y, lam, mu,
                    zero if dx is None else dx, zero if dy is None else dy,
                    dlam or 0.0, dmu or 0.0)
        return out[0], out[1]
    top, size = 1.0, 0.0
    if dx is not None:
        top, size = max(top, np.abs(x).max()), max(size, np.abs(dx).max())
    if dy is not None:
        top, size = max(top, np.abs(y).max()), max(size, np.abs(dy).max())
    if dlam is not None:
        top, size = max(top, abs(lam)), max(size, abs(dlam))
    if dmu is not None:
        top, size = max(top, abs(mu)), max(size, abs(dmu))
    if size == 0.0:
        zero = np.zeros((2, model.n, model.n))
        return zero[0], zero[1]
    h = H2 * top / size
    hi, lo = [x, y, lam, mu], [x, y, lam, mu]
    for i, d in enumerate((dx, dy, dlam, dmu)):
        if d is not None:
            e = h * d
            hi[i], lo[i] = hi[i] + e, lo[i] - e
    return ((_first(model, "1", *hi) - _first(model, "1", *lo)) / (2.0 * h),
            (_first(model, "2", *hi) - _first(model, "2", *lo)) / (2.0 * h))


def reference_along(lin, dx=None, dy=None, dlam=None, dmu=None):
    return reference_dirder(lin.model, lin.x, lin.x, lin.lam, lin.mu, dx, dy, dlam, dmu)


def reference_jacobian(model, v, L, lin=None):
    """The Jacobian as assembled before (six ``along`` calls, seven tables), verbatim."""
    if lin is None:   # as the unchecked input's linearization was then
        lin = defining.linearize(model, v.x, v.lam, v.mu)
    n = model.n
    p1, p2, f2 = _check_vec(model, v.phi1, "phi1"), _check_vec(model, v.phi2, "phi2"), lin.f2
    S = lin.f1 + f2
    flam, fmu = lin.param_derivatives()
    f1lam, f2lam = reference_along(lin, dlam=1.0)
    f1mu, f2mu = reference_along(lin, dmu=1.0)
    Slam = f1lam + f2lam
    Smu = f1mu + f2mu
    Dx1, Dy1 = np.add(*reference_along(lin, p1)), np.add(*reference_along(lin, dy=p1))
    Dx2, Dy2 = np.add(*reference_along(lin, p2)), np.add(*reference_along(lin, dy=p2))
    I = np.eye(n)
    columns = (slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n), 3 * n, 3 * n + 1)

    def table(dx, dp1, dp2, dlam, dmu):
        """A datum's derivative table; None stands for a zero block."""
        T = np.zeros((n, 3 * n + 2))
        for j, block in zip(columns, (dx, dp1, dp2, dlam, dmu)):
            if block is not None:
                T[:, j] = block
        return T

    return defining._system(
        table(S, None, None, flam, fmu),
        table(Dx1 + Dy1, S, None, Slam @ p1, Smu @ p1),
        table(Dx2 + Dy2, None, S, Slam @ p2, Smu @ p2),
        table(Dy1, f2, None, f2lam @ p1, f2mu @ p1),
        table(Dy2, None, f2, f2lam @ p2, f2mu @ p2),
        table(None, I, None, None, None),
        table(None, None, I, None, None),
        L)


def assert_same_bits(got, want):
    """Equal values, NaN where NaN, and equal sign bits (so -0.0 is not 0.0)."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


#: which derivatives a reference model keeps
SUPPLIERS = {"ddir": ("d1", "d2", "ddir"), "d1-d2": ("d1", "d2"), "f-only": ()}


def reference_model(n, suppliers, tau):
    model, exact = reference_models(n)
    kept = {name: getattr(model, name) for name in SUPPLIERS[suppliers]}
    return DdeModel(n=n, tau=tau, f=model.f, **kept), exact


class TestAgainstTheUnbatchedDerivatives:
    """The batched derivative pairs give the unbatched code's bits: the
    Jacobian, and the four matrices of ``certify``."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 8, 32]), suppliers=st.sampled_from(sorted(SUPPLIERS)),
           tau=st.sampled_from([1.0, 1.3]), seed=st.integers(0, 2 ** 32 - 1),
           case=st.sampled_from(["plain", "zero-phi1", "zero-phi2", "nan-phi", "nan-x"]))
    def test_jacobian(self, n, suppliers, tau, seed, case):
        model, _ = reference_model(n, suppliers, tau)
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3.0, 1.0)
        x = rng.uniform(0.5, 1.5, n) * np.where(rng.random(n) < 0.5, 1.0, scale)
        p1, p2 = scale * rng.standard_normal(n), rng.standard_normal(n)
        if case.startswith("zero"):
            (p1 if case == "zero-phi1" else p2)[:] = 0.0
        elif case.startswith("nan"):
            (p1 if case == "nan-phi" else x)[rng.integers(n)] = np.nan
        v = TbCandidate(x=x, phi1=p1, phi2=p2, lam=rng.uniform(0.2, 0.8),
                        mu=rng.uniform(0.5, 2.5))
        L = Functionals(l1=np.eye(n)[0], l2=rng.standard_normal(n))
        with np.errstate(all="ignore"):
            lin = defining.linearize(model, x, v.lam, v.mu)
            assert_same_bits(defining._jacobian(lin, p1, p2, L),
                             reference_jacobian(model, v, L, lin))
            assert_same_bits(jacobian(model, v, L), reference_jacobian(model, v, L))

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2, 8, 32]), suppliers=st.sampled_from(sorted(SUPPLIERS)),
           tau=st.sampled_from([1.0, 1.3]), seed=st.integers(0, 2 ** 32 - 1))
    def test_quadratic_check(self, n, suppliers, tau, seed):
        # at a TB point (scalar_tb's moves with tau; the others are TB points
        # at tau = 1 only) moved by rounding-sized offsets
        if n == 1:
            model, exact = scalar_tb(tau)
            model = reference_model(1, suppliers, tau)[0]
        else:
            assume(tau == 1.0)
            model, exact = reference_model(n, suppliers, tau)
        rng = np.random.default_rng(seed)
        x = exact.x + 1e-14 * rng.standard_normal(n)
        lin = linearize(model, x, exact.lam, exact.mu)
        basis = compute_basis(lin.f1, lin.f2)
        assume(basis.passed)
        calls = []
        real = verify._dirder

        def dirder(*args):   # model, x, y, lam, mu, then the directions
            out = real(*args)
            calls.append((args[:5], args[5:], [tuple(m.copy() for m in pair) for pair in out]))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_dirder", dirder)
            verdict = certify(lin)
        if not verdict.checks["transversality"].ok:
            assert not calls
            return
        (at, directions, pairs), = calls
        (u, u2, none, none2), (nu, nu2, c, one) = directions
        assert u is u2 and np.array_equal(u, basis.phi1) and none is None and none2 is None
        assert nu is nu2 and np.array_equal(nu, verdict.nu) and c == verdict.c_lam_mu
        assert one == 1.0
        for direction, pair in zip(directions, pairs, strict=True):
            for got, want in zip(pair, reference_dirder(*at, *direction), strict=True):
                assert_same_bits(got, want)


def reference_fd_jac(func, base):
    """f1 or f2 by differences as the package computed them before f1, f2,
    f_lam and f_mu shared one rule (``model._fd_jac`` then), verbatim."""
    n = base.size
    J = np.empty((n, n))
    e = np.zeros(n)
    for i in range(n):
        h = H1 * max(1.0, abs(base[i]))
        e[i] = h
        J[:, i] = (func(base + e) - func(base - e)) / (2.0 * h)
        e[i] = 0.0
    return J


def reference_param(model, which, x, y, lam, mu):
    """f_lam or f_mu as the package computed them then (``model._param``), verbatim."""
    if (model.dlam if which == "lam" else model.dmu) is not None:
        return _call(model, "d" + which, (model.n,), x, y, lam, mu)
    p = lam if which == "lam" else mu
    h = H1 * max(1.0, abs(p))

    def g(pv):
        return _f(model, x, y, pv, mu) if which == "lam" else _f(model, x, y, lam, pv)

    return (g(p + h) - g(p - h)) / (2.0 * h)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2, 8, 32]), tau=st.sampled_from([1.0, 1.3]),
       seed=st.integers(0, 2 ** 32 - 1), delayed=st.booleans())
def test_one_difference_rule_keeps_the_bits(n, tau, seed, delayed):
    # f1, f2, f_lam and f_mu of an f-only model, by _first's one rule, are
    # the separate differences' bits, at a steady state (as linearize and
    # the certificate evaluate them) and at y != x, zeros of either sign included
    model, _ = reference_model(n, "f-only", tau)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 1.0)
    x = rng.uniform(-1.5, 1.5, n) * np.where(rng.random(n) < 0.5, 1.0, scale)
    x[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
    y = x + rng.standard_normal(n) if delayed else x
    lam, mu = scale * rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.5)
    want = {"1": reference_fd_jac(lambda xv: _f(model, xv, y, lam, mu), x),
            "2": reference_fd_jac(lambda yv: _f(model, x, yv, lam, mu), y),
            "lam": reference_param(model, "lam", x, y, lam, mu),
            "mu": reference_param(model, "mu", x, y, lam, mu)}
    for slot, value in want.items():
        assert_same_bits(_first(model, slot, x, y, lam, mu), value)
    for which in ("lam", "mu"):
        assert_same_bits(param_der(model, which, x, y, lam, mu), want[which])
    if not delayed:
        lin = defining.linearize(model, x, lam, mu)
        for got, slot in zip((lin.f1, lin.f2, *lin.param_derivatives()), want, strict=True):
            assert_same_bits(got, want[slot])


def pp_certificate(pp):
    """(solution, linearization, basis) of a converged predator-prey report."""
    report = newton_solve(pp, TbCandidate(*TABLE1[0][0]), L10)
    assert report.converged
    lin = report.linearization
    return report.solution, lin, compute_basis(lin.f1, lin.f2)


@pytest.mark.parametrize("moved", [{"x": np.array([5.0, 5.0])}, {"lam": 9.0}, {"mu": 9.0},
                                   {"x": np.array([5.0, 5.0]), "lam": 9.0, "mu": 9.0}],
                         ids=["x", "lam", "mu", "all"])
def test_linearization_at_another_point_is_input_error(pp, moved):
    # a point moved far off fails on its own linearization; a basis built
    # from the report's linearization must not certify it in its place
    sol, lin, basis = pp_certificate(pp)
    sol = dataclasses.replace(sol, **moved)
    assert not certify(linearize(pp, sol.x, sol.lam, sol.mu)).passed
    with pytest.raises(InputError, match="basis must be built from the f1 and f2 at solution"):
        verify.quadratic_check(pp, sol, basis)


def test_basis_of_another_linearization_is_input_error(pp):
    sol, lin, basis = pp_certificate(pp)
    other = defining.linearize(pp, [1.2, 0.9], 0.5, 2.0)
    for f1, f2 in ((other.f1, other.f2), (lin.f1, other.f2)):
        with pytest.raises(InputError, match="basis must be built from the f1 and f2 at solution"):
            verify.quadratic_check(pp, sol, compute_basis(f1, f2))


def verdict_bits(v) -> bytes:
    """Every number of a verdict, NaNs and signs included, as raw bytes."""
    return np.array([x for c in v.checks.values() for x in c]
                    + [v.c_lam_mu, v.psi2_nu, *v.nu]).tobytes()


def test_quadratic_check_is_certify_bit_for_bit():
    # the benchmark's three-argument form linearizes the point itself and
    # gives the verdict that certify gives on that linearization, on both
    # built-in models and a lifted one, at the TB point and off it
    for model, exact in ((predator_prey(), V_STAR), (synthetic_tb(), SYNTHETIC_STAR),
                         lifted(8)):
        for point in (exact, dataclasses.replace(exact, lam=exact.lam + 0.05)):
            lin = linearize(model, point.x, point.lam, point.mu)
            want = certify(lin)
            got = verify.quadratic_check(model, point, compute_basis(lin.f1, lin.f2))
            assert verdict_bits(got) == verdict_bits(want)
            assert got.passed == want.passed == (point is exact)


@pytest.mark.parametrize("f1, f2", [(np.eye(3), np.zeros((3, 3))), (np.eye(1), np.eye(1))],
                         ids=["3x3", "1x1"])
def test_basis_of_another_dimension_is_input_error(pp, f1, f2):
    # quadratic_check raised numpy's "matmul: Input operand 1 has a mismatch";
    # such a basis is not built from the point's 2 x 2 f1 and f2
    with pytest.raises(InputError, match="basis must be built from the f1 and f2 at solution"):
        verify.quadratic_check(pp, V_STAR, compute_basis(f1, f2))
