import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tbdde import InputError, NearSingular
from tbdde import linalg


def rational_solve(A_int, b_int):
    """Exact Gaussian elimination over the rationals (independent oracle)."""
    n = len(A_int)
    M = [[Fraction(A_int[i][j]) for j in range(n)] + [Fraction(b_int[i])]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                fac = M[r][col] / M[col][col]
                M[r] = [a - fac * b for a, b in zip(M[r], M[col])]
    return [float(M[i][n] / M[i][i]) for i in range(n)]


def cofactor_det(A):
    """Recursive cofactor expansion (independent oracle)."""
    A = [list(row) for row in A]
    if len(A) == 1:
        return A[0][0]
    total = 0.0
    for j in range(len(A)):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        total += (-1) ** j * A[0][j] * cofactor_det(minor)
    return total


def with_cond(rng, n, log_cond, log_scale):
    """A = U diag(sigma) V^T with cond_2 = 10**log_cond (1 when n = 1)."""
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    inner = rng.uniform(0.0, log_cond, size=max(n - 2, 0))
    log_sigma = np.concatenate([[0.0], -inner, [-log_cond]])[:n]
    return (U * 10.0 ** (log_scale + log_sigma)) @ V.T


class TestSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert linalg.solve(np.eye(3), b) == pytest.approx(b)

    def test_diagonal(self):
        assert linalg.solve(np.diag([2.0, 4.0]), [2.0, 8.0]) == pytest.approx([1.0, 2.0])

    def test_against_rational_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            A = rng.integers(-5, 6, size=(8, 8))
            while abs(np.linalg.det(A.astype(float))) < 1.0:
                A = rng.integers(-5, 6, size=(8, 8))
            b = rng.integers(-5, 6, size=8)
            want = rational_solve(A.tolist(), b.tolist())
            got = linalg.solve(A.astype(float), b.astype(float))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_near_singular_rejected(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        with pytest.raises(NearSingular):
            linalg.solve(A, np.ones(2))

    def test_roundtrip_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(2, 11)
            A = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            b = rng.standard_normal(n)
            x = linalg.solve(A, b)
            assert np.max(np.abs(A @ x - b)) <= 1e-10 * max(1.0, np.max(np.abs(b)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(NearSingular) as exc:
            linalg.solve_with_cond(np.array([[bad, 1.0], [1.0, 1.0]]), np.ones(2))
        assert np.isnan(exc.value.cond)

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_extreme_scale_decided_exactly(self, scale):
        # the Frobenius norm of A under- or overflows here
        _, c = linalg.solve_with_cond(scale * np.eye(2), np.ones(2))
        assert c == 1.0
        with pytest.raises(NearSingular) as exc:
            linalg.solve_with_cond(scale * np.diag([1.0, 1e-10]), np.ones(2))
        assert exc.value.cond == pytest.approx(1e10)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 40), log_cond=st.floats(0.0, 12.0),
           log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_guard_refuses_exactly_what_the_svd_refuses(self, n, log_cond,
                                                        log_scale, seed):
        rng = np.random.default_rng(seed)
        A = with_cond(rng, n, log_cond, log_scale)
        b = rng.standard_normal(n)
        exact = linalg.cond_estimate(A)
        assume(abs(exact / linalg.COND_LIMIT - 1.0) > 1e-6)
        if exact > linalg.COND_LIMIT:
            with pytest.raises(NearSingular) as exc:
                linalg.solve_with_cond(A, b)
            assert exc.value.cond == exact
        else:
            x, c = linalg.solve_with_cond(A, b)
            assert np.array_equal(x, np.linalg.solve(A, b))
            # cond_2 <= c <= n cond_2, up to rounding of order n cond_2 eps
            slack = 10 * n * exact * np.finfo(float).eps
            assert exact * (1.0 - slack) <= c <= n * exact * (1.0 + slack)


    def test_non_square_rejected(self):
        with pytest.raises(InputError, match="square matrix"):
            linalg.solve(np.ones((2, 3)), np.ones(2))

    @pytest.mark.parametrize("b", [np.ones(3), np.ones((2, 1)), 1.0])
    def test_rhs_shape_rejected(self, b):
        with pytest.raises(InputError, match="rhs shape"):
            linalg.solve_with_cond(np.eye(2), b)

    @pytest.mark.parametrize("name", ["A", "b"])
    def test_complex_input_rejected(self, name):
        # the imaginary part is not dropped with a ComplexWarning
        args = {"A": np.eye(2), "b": np.ones(2)}
        args[name] = args[name] + 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"^{name} has complex128 values"):
                linalg.solve_with_cond(args["A"], args["b"])


class TestRankAndNullspace:
    def test_hand_example(self):
        A = np.array([[0.0, -0.5], [0.0, 0.0]])
        rank, right, left, _ = linalg.rank_and_nullspace(A)
        assert rank == 1
        assert right == pytest.approx([1.0, 0.0])
        assert left == pytest.approx([0.0, 1.0])

    def test_full_rank(self):
        rank, right, left, pinv = linalg.rank_and_nullspace(np.eye(4))
        assert rank == 4 and right is None and left is None and pinv is None

    @pytest.mark.parametrize("s, rank", [
        ([1.0, 1e-12], 1), ([1.0, 2e-8], 2), ([1e-3, 1e-9], 1), ([1e-3, 2e-8], 2),
        ([1e4, 5e-5], 1), ([1e4, 2e-4], 2)])
    def test_rank_cut_is_relative(self, s, rank):
        # the cut is 1e-8 max(1, sigma_max); one at n eps sigma_max, 4.4e-16
        # in the first case, gave that case rank 2
        A = np.array([[0.6, 0.8], [-0.8, 0.6]]) @ np.diag(s)
        assert linalg.rank_and_nullspace(A)[0] == rank

    def test_rank_deficiency_mismatch(self):
        # rank 0 < n-1 is no error here: no null vectors and no pinv, and the
        # existence test reports the rank as a failed check
        assert linalg.rank_and_nullspace(np.zeros((2, 2))) == (0, None, None, None)

    def test_residuals_and_norms(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = rng.integers(2, 8)
            # rank n-1 by construction
            U = rng.standard_normal((n, n - 1))
            V = rng.standard_normal((n - 1, n))
            A = U @ V
            rank, right, left, _ = linalg.rank_and_nullspace(A)
            assert rank == n - 1
            scale = np.max(np.abs(A))
            assert np.max(np.abs(A @ right)) <= 1e-10 * scale
            assert np.max(np.abs(left @ A)) <= 1e-10 * scale
            assert np.linalg.norm(right) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(left) == pytest.approx(1.0, abs=1e-12)
            # sign convention
            for v in (right, left):
                assert v[int(np.argmax(np.abs(v)))] > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(NearSingular) as exc:
            linalg.rank_and_nullspace(np.array([[bad, 1.0], [1.0, 1.0]]))
        assert np.isnan(exc.value.cond)

    def test_complex_matrix_rejected(self):
        # cast to float, the predator-prey S + 1j would be rank 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="^A has complex128 values"):
                linalg.rank_and_nullspace(np.array([[0.0, -0.5], [0.0, 0.0]]) + 1j)


class TestBorderedSolve:
    A = np.diag([0.0, 1.0])
    e1 = np.array([1.0, 0.0])

    def test_rhs_in_range(self):
        x, s = linalg.bordered_solve(self.A, self.e1, self.e1, [0.0, 1.0])
        assert x == pytest.approx([0.0, 1.0]) and s == pytest.approx(0.0, abs=1e-14)

    def test_rhs_not_in_range(self):
        x, s = linalg.bordered_solve(self.A, self.e1, self.e1, [1.0, 0.0])
        assert x == pytest.approx([0.0, 0.0], abs=1e-14)
        assert s == pytest.approx(1.0)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = rng.integers(2, 7)
            U = rng.standard_normal((n, n - 1))
            V = rng.standard_normal((n - 1, n))
            A = U @ V
            _, right, left, _ = linalg.rank_and_nullspace(A)
            rhs = A @ rng.standard_normal(n)  # guaranteed in range
            x, s = linalg.bordered_solve(A, left, right, rhs)
            res = np.concatenate([A @ x + left * s - rhs, [right @ x]])
            scale = max(1.0, np.max(np.abs(rhs)))
            assert np.max(np.abs(res)) <= 1e-10 * scale
            assert abs(s) <= 1e-9 * scale

    @pytest.mark.parametrize("col, row, rhs", [
        ([1.0, 0.0, 0.0], [1.0, 0.0], [0.0, 1.0]),
        ([1.0, 0.0], [1.0], [0.0, 1.0]),
        ([1.0, 0.0], [1.0, 0.0], [0.0, 1.0, 2.0])])
    def test_wrong_length_rejected(self, col, row, rhs):
        with pytest.raises(InputError, match="length 2"):
            linalg.bordered_solve(self.A, col, row, rhs)

    @pytest.mark.parametrize("rhs", [np.ones((3, 2)), np.ones((2, 2, 1)), 1.0, np.ones((1, 2))],
                             ids=["rows", "3-d", "scalar", "row-vector"])
    def test_rhs_shape_rejected(self, rhs):
        with pytest.raises(InputError, match="length 2"):
            linalg.bordered_solve(self.A, self.e1, self.e1, rhs)

    @pytest.mark.parametrize("name", ["A", "col_border", "row_border", "rhs"])
    def test_complex_input_rejected(self, name):
        args = {"A": self.A, "col_border": self.e1, "row_border": self.e1, "rhs": [0.0, 1.0]}
        args[name] = np.asarray(args[name]) + 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"^{name} has complex128 values"):
                linalg.bordered_solve(**args)

    def test_bad_border_rejected(self):
        # column border inside range(A) leaves the bordered matrix singular
        A = np.diag([0.0, 1.0])
        with pytest.raises(NearSingular):
            linalg.bordered_solve(A, [0.0, 1.0], [0.0, 1.0], [0.0, 0.0])


class TestDet:
    def test_identity(self):
        assert linalg.det(np.eye(3)) == pytest.approx(1.0)

    def test_triangular_zero_diagonal(self):
        # det(-f1 - f2) at the predator-prey double-zero point
        assert linalg.det(np.array([[0.0, 0.5], [0.0, 0.0]])) == 0.0

    def test_cofactor_oracle_3x3(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.standard_normal((3, 3))
            assert linalg.det(A) == pytest.approx(cofactor_det(A), rel=1e-10, abs=1e-12)

    def test_complex_determinant(self):
        A = np.array([[1j, 0.0], [0.0, 2.0]])
        assert linalg.det(A) == pytest.approx(2j)

    def test_permutation_parity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = rng.integers(2, 7)
            perm = rng.permutation(n)
            P = np.eye(n)[perm]
            inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                             if perm[i] > perm[j])
            assert linalg.det(P) == pytest.approx((-1.0) ** inversions, abs=1e-12)


class TestCondEstimate:
    def test_identity(self):
        assert linalg.cond_estimate(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        c = linalg.cond_estimate(np.diag([1.0, 1e-8]))
        assert 1e7 <= c <= 1e9

    def test_singular(self):
        assert linalg.cond_estimate(np.zeros((2, 2))) == np.inf

    def test_non_finite(self):
        assert np.isnan(linalg.cond_estimate(np.array([[np.nan, 1.0], [1.0, 1.0]])))
