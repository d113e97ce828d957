"""Dense linear-algebra kernels for small matrices.

Everything here is a thin, contract-enforcing layer over numpy's LAPACK
bindings: solve with a condition guard, numerical rank with one-dimensional
nullspaces, bordered solves of rank-(n-1) systems, determinants, and a
condition estimate.  Sizes of interest are n up to a few hundred.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NearSingular, RankDeficiencyMismatch

_EPS = np.finfo(float).eps
#: solve() refuses systems with condition estimate above this
COND_LIMIT = 1.0 / np.sqrt(_EPS)


@dataclass(frozen=True)
class RankReport:
    rank: int
    singular_values: np.ndarray
    tol_used: float


def _square(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    return A


def solve_with_cond(A, b):
    """Solve A x = b and return (x, cond(A)), refusing near-singular systems.

    Raises NearSingular, carrying the estimate in its ``cond`` attribute,
    when the condition estimate exceeds 1/sqrt(eps); a Newton iteration
    hitting this must abort with a diagnostic rather than trust the step.
    One SVD serves both the guard and the returned condition number.
    """
    A = _square(A).astype(float)
    b = np.asarray(b, dtype=float)
    if b.shape != (A.shape[0],):
        raise InputError(f"rhs shape {b.shape} does not match matrix {A.shape}")
    c = cond_estimate(A)
    if not np.isfinite(c) or c > COND_LIMIT:
        raise NearSingular(f"condition estimate {c:.3e} exceeds {COND_LIMIT:.3e}",
                           cond=c)
    return np.linalg.solve(A, b), c


def solve(A, b) -> np.ndarray:
    """Solve A x = b, refusing near-singular systems (see solve_with_cond)."""
    return solve_with_cond(A, b)[0]


def _sign_fix(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component positive (first one on ties)."""
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def rank_and_nullspace(A, tol: float | None = None):
    """Numerical rank plus, when rank = n-1, the unit right/left null vectors.

    The theory requires a geometrically simple zero, so rank < n-1 is an
    error.  For full rank the null vectors are None.
    """
    A = _square(A).astype(float)
    n = A.shape[0]
    U, s, Vt = np.linalg.svd(A)
    if tol is None:
        tol = n * _EPS * (s[0] if s[0] > 0 else 1.0)
    rank = int(np.sum(s > tol))
    report = RankReport(rank=rank, singular_values=s, tol_used=tol)
    if rank < n - 1:
        raise RankDeficiencyMismatch(
            f"rank {rank} < n-1 = {n - 1}: zero eigenvalue is not simple")
    if rank == n:
        return report, None, None
    right = _sign_fix(Vt[-1])
    left = _sign_fix(U[:, -1])
    return report, right, left


def bordered_solve(A, col_border, row_border, rhs, beta: float):
    """Solve the bordered system [[A, c],[r^T, 0]] (x, s) = (rhs, beta).

    The standard device for solving inside the range of a rank-(n-1) matrix:
    when rhs lies in range(A) the scalar s comes out ~0 and x is the unique
    solution of A x = rhs pinned by r^T x = beta.  A near-singular bordered
    matrix (a bad border choice) raises NearSingular.
    """
    A = _square(A).astype(float)
    n = A.shape[0]
    col = np.asarray(col_border, dtype=float).reshape(n)
    row = np.asarray(row_border, dtype=float).reshape(n)
    rhs = np.asarray(rhs, dtype=float).reshape(n)
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A
    M[:n, n] = col
    M[n, :n] = row
    sol = solve(M, np.append(rhs, beta))
    return sol[:n], float(sol[n])


def det(A):
    """Determinant; complex input supported (characteristic function needs it)."""
    A = _square(A)
    return np.linalg.det(A)


def det2x2(m11, m12, m21, m22):
    return m11 * m22 - m12 * m21


def cond_estimate(A) -> float:
    """2-norm condition number; +inf on exact singularity.

    Exact via SVD rather than an estimator -- cheap at these sizes and well
    within the factor-of-10 guarantee the callers assume.
    """
    A = _square(A)
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])
