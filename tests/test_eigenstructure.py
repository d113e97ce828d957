import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tbdde import InputError, NearSingular, compute_basis, predator_prey, synthetic_tb
from tbdde.eigenstructure import tb_existence_test
from tbdde.model import eval_f, jac_x, jac_y
from tbdde.linalg import rank_and_nullspace

F1_PP = np.array([[0.0, -0.5], [0.0, 0.0]])
F2_PP = np.zeros((2, 2))


def assert_nan_basis(basis):
    for v in (basis.phi1, basis.phi2, basis.psi1, basis.psi2):
        assert v.shape == basis.f1.shape[:1] and np.isnan(v).all()


class TestExistenceTest:
    def test_predator_prey_point_passes(self):
        ex = tb_existence_test(F1_PP, F2_PP)
        assert ex.passed
        assert ex.checks["rank"] == (1, 1, True)
        assert ex.checks["range"].value == pytest.approx(0.0, abs=1e-12)
        # (f2+I) phi2 - f2 phi1 / 2 reduces to phi2 = (0, -2) here
        assert ex.checks["nondegeneracy"].value == pytest.approx(-2.0)

    def test_identity_fails_rank(self):
        ex = tb_existence_test(np.eye(2), np.zeros((2, 2)))
        assert not ex.passed and ex.checks["rank"] == (2, 1, False)

    def test_synthetic_positive_instance(self):
        f1 = np.array([[0.0, 1.0], [0.0, 0.0]])
        ex = tb_existence_test(f1, np.zeros((2, 2)))
        assert ex.checks["rank"].ok and ex.checks["range"].ok

    def test_perturbed_equilibrium_fails(self):
        # equilibrium of the predator-prey system at D = 0.45: prey solves
        # y/(1+y^2) = D, predator from the first equation
        model = predator_prey()
        D, K = 0.45, 2.0
        x1 = (1.0 - np.sqrt(1.0 - 4.0 * D * D)) / (2.0 * D)
        x2 = (1.0 - x1 / K) * (1.0 + x1 * x1)
        x = np.array([x1, x2])
        assert np.max(np.abs(eval_f(model, x, x, D, K))) < 1e-12
        f1 = jac_x(model, x, x, D, K)
        f2 = jac_y(model, x, x, D, K)
        assert not tb_existence_test(f1, f2).passed

    def test_one_svd_where_the_range_test_holds(self, counted_calls):
        # phi2 of the nondegeneracy check is a product with the pseudoinverse from
        # the SVD that gives the rank: no second factorization, no inverse
        calls = counted_calls(np.linalg, "svd", "inv", "solve")
        assert tb_existence_test(F1_PP, F2_PP).passed
        assert calls == {"svd": 1, "inv": 0, "solve": 0}


@pytest.mark.parametrize("check", [tb_existence_test, compute_basis])
@pytest.mark.parametrize("f1, f2", [
    (np.eye(2), np.eye(3)), (np.ones((2, 3)), np.ones((2, 3))),
    (np.ones(2), np.ones(2)), (np.zeros((0, 0)), np.zeros((0, 0)))],
    ids=["sizes", "non-square", "vectors", "empty"])
def test_malformed_pair_rejected(check, f1, f2):
    with pytest.raises(InputError, match="square matrices of one shape"):
        check(f1, f2)


@pytest.mark.parametrize("name", ["f1", "f2"])
def test_complex_matrix_rejected(name):
    # cast to float, F1_PP + 1j would pass the existence test
    args = {"f1": F1_PP, "f2": F2_PP}
    args[name] = args[name] + 1j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"^{name} has complex128 values"):
            compute_basis(**args)


class TestComputeBasis:
    def check_residuals(self, residuals, f1, f2, basis):
        scale = max(1.0, np.max(np.abs(f1)), np.max(np.abs(f2)))
        assert np.max(residuals(basis, f1, f2)) <= 1e-9 * scale

    def test_predator_prey_values(self, basis_residuals):
        basis = compute_basis(F1_PP, F2_PP)
        self.check_residuals(basis_residuals, F1_PP, F2_PP, basis)
        # phi1 along e1, phi2 along -e2 with |phi2| = 2 |phi1|
        assert basis.phi1[1] == pytest.approx(0.0, abs=1e-14)
        assert basis.phi1[0] > 0
        assert basis.phi2[1] / basis.phi1[0] == pytest.approx(-2.0)
        assert basis.psi2[0] == pytest.approx(0.0, abs=1e-14)

    def test_builtin_models(self, basis_residuals):
        cases = [
            (predator_prey(), np.array([1.0, 1.0]), 0.5, 2.0),
            (synthetic_tb(), np.zeros(2), 0.0, 0.0),
        ]
        for model, x, lam, mu in cases:
            f1 = jac_x(model, x, x, lam, mu)
            f2 = jac_y(model, x, x, lam, mu)
            self.check_residuals(basis_residuals, f1, f2, compute_basis(f1, f2))

    def test_scalar_closed_form(self, basis_residuals):
        # n = 1 with f1 = 1, f2 = -1: exact algebra gives
        # phi1 = sqrt(2), phi2 = sqrt(2)/3, psi1 = 0, psi2 = sqrt(2)
        f1 = np.array([[1.0]])
        f2 = np.array([[-1.0]])
        basis = compute_basis(f1, f2)
        self.check_residuals(basis_residuals, f1, f2, basis)
        r2 = np.sqrt(2.0)
        assert basis.phi1[0] == pytest.approx(r2)
        assert basis.phi2[0] == pytest.approx(r2 / 3.0)
        assert basis.psi1[0] == pytest.approx(0.0, abs=1e-14)
        assert basis.psi2[0] == pytest.approx(r2)

    def test_synthetic_frozen_values(self):
        # from the exact-arithmetic oracle (tools/synthetic_oracle.py)
        model = synthetic_tb()
        x = np.zeros(2)
        f1 = jac_x(model, x, x, 0.0, 0.0)
        f2 = jac_y(model, x, x, 0.0, 0.0)
        basis = compute_basis(f1, f2)
        r2 = np.sqrt(2.0)
        assert basis.phi1 == pytest.approx([r2 / 2.0, 0.0], abs=1e-12)
        assert basis.phi2 == pytest.approx([r2 / 8.0, r2], abs=1e-12)
        assert basis.psi1 == pytest.approx([r2 / 2.0, 0.0], abs=1e-12)
        assert basis.psi2 == pytest.approx([0.0, r2 / 2.0], abs=1e-12)

    def test_deterministic(self):
        a = compute_basis(F1_PP, F2_PP)
        b = compute_basis(F1_PP, F2_PP)
        for u, v in ((a.phi1, b.phi1), (a.phi2, b.phi2),
                     (a.psi1, b.psi1), (a.psi2, b.psi2)):
            assert np.array_equal(u, v)

    def test_scaling_does_not_break_identities(self, basis_residuals):
        # the identities are equalities in the given matrices: rescaling the
        # matrices gives a basis whose residuals still vanish
        for scale in (0.5, 3.0):
            f1, f2 = scale * F1_PP, scale * F2_PP
            basis = compute_basis(f1, f2)
            self.check_residuals(basis_residuals, f1, f2, basis)

    def test_full_rank_rejected(self):
        # no zero eigenvalue: the rank check fails and the basis is NaN
        basis = compute_basis(np.eye(2), np.zeros((2, 2)))
        assert basis.checks["rank"] == (2, 1, False)
        assert not basis.passed and basis.pinv is None
        assert_nan_basis(basis)

    def test_triple_zero_rejected(self):
        # f1 the nilpotent 3 x 3 Jordan block, f2 = 0: a triple zero, whose
        # chain does not terminate, so the normalization coefficient, the
        # nondegeneracy value, is 0 and the basis is NaN
        f1, f2 = np.diag([1.0, 1.0], 1), np.zeros((3, 3))
        basis = compute_basis(f1, f2)
        assert basis.checks["rank"].value == 2 and basis.checks["range"].ok
        assert basis.checks["nondegeneracy"] == (0.0, basis.tol, False)
        assert_nan_basis(basis)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 7), seed=st.integers(0, 2 ** 16),
           kind=st.sampled_from(["full", "tb", "rank-n-1", "low"]))
    def test_existence_decides_the_basis(self, n, seed, kind):
        # over random pairs with S = f1 + f2 of rank n, n-1 (a TB pair, with
        # f2 moved so that (f2 + I) ph1 is in the range, or any f2) and below
        # n-1: the only error is NearSingular, tb_existence_test's checks are
        # the basis's, and the basis is finite exactly where they all hold
        rng = np.random.default_rng(seed)
        if kind == "low":
            n = max(n, 2)
            rank = int(rng.integers(0, n - 1))
        else:
            rank = n if kind == "full" else n - 1
        U, _, Vt = np.linalg.svd(rng.standard_normal((n, n)))
        S = U @ np.diag(np.r_[rng.uniform(0.5, 2.0, rank), np.zeros(n - rank)]) @ Vt
        f2 = rng.standard_normal((n, n))
        if kind == "tb":
            _, ph1, ps2, _ = rank_and_nullspace(S)
            f2 -= (ps2 @ (f2 + np.eye(n)) @ ph1) * np.outer(ps2, ph1)
        try:
            basis = compute_basis(S - f2, f2)
        except NearSingular:
            with pytest.raises(NearSingular):
                tb_existence_test(S - f2, f2)
            return
        test = tb_existence_test(S - f2, f2)
        assert list(basis.checks) == list(test.checks) and basis.tol == test.tol
        assert np.array_equal(np.array(list(basis.checks.values()), dtype=float),
                              np.array(list(test.checks.values()), dtype=float),
                              equal_nan=True)
        assert basis.checks["rank"].value == rank
        assert basis.passed == (kind == "tb")
        vectors = np.stack([basis.phi1, basis.phi2, basis.psi1, basis.psi2])
        assert np.isfinite(vectors).all() if basis.passed else np.isnan(vectors).all()

    def test_normalization_coefficient_is_the_nondegeneracy_value(self):
        # with the unit null vectors ph1, ps2 of S = f1 + f2 that compute_basis
        # takes, its basis has phi1 = c ph1 and psi2 = d ps2 with
        # c d = 1 / alpha; alpha is the existence test's nondegeneracy value,
        # over random rank-(n-1) pairs with (f2 + I) ph1 in the range of S
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            U, _, Vt = np.linalg.svd(rng.standard_normal((n, n)))
            S = U @ np.diag(np.r_[rng.uniform(0.5, 2.0, n - 1), 0.0]) @ Vt
            _, ph1, ps2, _ = rank_and_nullspace(S)
            f2 = rng.standard_normal((n, n))
            f2 -= (ps2 @ (f2 + np.eye(n)) @ ph1) * np.outer(ps2, ph1)
            f1 = S - f2
            ex = tb_existence_test(f1, f2)
            assert ex.passed
            basis = compute_basis(f1, f2)
            _, ph1, ps2, _ = rank_and_nullspace(f1 + f2)
            alpha = 1.0 / ((basis.phi1 @ ph1) * (basis.psi2 @ ps2))
            assert alpha == pytest.approx(ex.checks["nondegeneracy"].value, rel=1e-12)

    def test_pinv_is_the_pseudoinverse(self, rank_deficient):
        # the pinv taken from the SVD of S is S^+, over random rank-(n-1)
        # pairs, TB points or not
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            S = rank_deficient(rng, n)
            f2 = rng.standard_normal((n, n))
            X = compute_basis(S - f2, f2).pinv
            want = np.linalg.pinv(S, rcond=1e-10)
            assert np.max(np.abs(X - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("s1, refused", [(1.2e-8, True), (2e-8, False)])
    def test_refusal_just_above_the_rank_cut(self, s1, refused):
        # S = U diag(1, s1, 0) V^T has rank 2 at both s1 (the cut is 1e-8),
        # and [[S, psi2], [phi1^T, 0]] has cond_2 = 1 / s1: above COND_LIMIT
        # = 6.7e7 at s1 = 1.2e-8, so the basis is refused with that number,
        # and below it at s1 = 2e-8, where the basis builds
        rng = np.random.default_rng(4)
        U, _, Vt = np.linalg.svd(rng.standard_normal((3, 3)))
        S, f2 = U @ np.diag([1.0, s1, 0.0]) @ Vt, np.zeros((3, 3))
        if refused:
            with pytest.raises(NearSingular) as exc:
                compute_basis(S, f2)
            assert exc.value.cond == pytest.approx(1.0 / s1, rel=1e-6)
        else:
            assert compute_basis(S, f2).checks["rank"].value == 2
