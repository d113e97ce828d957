"""Dense linear-algebra kernels for small matrices.

Everything here is a thin, contract-enforcing layer over numpy's LAPACK
bindings: solve with a condition guard, numerical rank with one-dimensional
nullspaces, bordered solves of rank-(n-1) systems, determinants, and the
exact 2-norm condition number.  Sizes of interest are n up to a few hundred.

The solve guard proves most systems safe without an SVD, from one of two
upper bounds on cond_2(A) (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, section 6 and Thm 7.2):

* the Frobenius bound ||A||_F ||A^-1||_F, between cond_2(A) and
  n cond_2(A), for one inverse;
* the anchored bound ||A||_F ||X||_F / (1 - q), for one matrix product,
  from an inverse X of an earlier, nearby matrix: with E = X A - I and
  q = ||E||_F + n eps ||X||_F ||A||_F < 1 (the second term bounds the
  rounding in forming X A), the Banach perturbation lemma gives
  ||A^-1||_F <= ||X||_F / (1 - q).

Either bound within the limit accepts only systems the exact condition
number accepts too (up to rounding, of relative order n cond_2(A) eps).

Newton on the defining system does not solve every step here: from state
dimension 24 up, ``defining`` eliminates the Jacobian's blocks with one
(n+1)-square bordered inverse and proves the step safe with a third bound
of this kind, ||J||_F times a bound on ||J^-1||_F from that elimination.
Where that bound cannot prove a step safe, the step comes to the guard
here, which decides it as above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NearSingular, RankDeficiencyMismatch

_EPS = float(np.finfo(float).eps)
#: solve() refuses systems whose exact 2-norm condition number exceeds this
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


def _frobenius(A: np.ndarray) -> float:
    """||A||_F as a Python float: inf where the sum of squares overflows."""
    return math.sqrt(np.vdot(A, A))


class SolveGuard:
    """The condition guard of a sequence of solves with nearby matrices.

    ``solve`` returns what ``solve_with_cond`` returns, refuses exactly what
    it refuses and computes x the same way.  Only c may differ: the guard
    keeps the last inverse it formed, with its Frobenius norm, and first
    tries the anchored bound from it, which costs one matrix product.  When
    that bound cannot prove a matrix safe, the guard forms a fresh inverse,
    which becomes the anchor, and tries the Frobenius bound; the exact
    cond_2 decides last.
    """

    def __init__(self):
        self._inverse = None          # the anchor X
        self._inverse_norm = np.nan   # ||X||_F

    def _anchored_bound(self, A: np.ndarray, norm: float) -> float:
        """||A||_F ||X||_F / (1 - q) if q < 1 (module docstring), else inf.

        Scale cannot make it too small: for n >= 2, q < 1 needs
        ||X||_F ||A||_F >= ||X A||_F > sqrt(2) - 1, so the argument of the
        Frobenius bound carries over; a 1 x 1 system with q < 1 is safe.
        """
        X = self._inverse
        if X is None or X.shape != A.shape:
            return np.inf
        n = A.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            E = X.dot(A)
            E.flat[::n + 1] -= 1.0
        q = _frobenius(E) + n * _EPS * self._inverse_norm * norm
        return norm * self._inverse_norm / (1.0 - q) if q < 1.0 else np.inf

    def _frobenius_bound(self, A: np.ndarray, norm: float) -> float:
        """||A||_F ||A^-1||_F, with A^-1 the new anchor; inf or nan if not formed.

        Scale cannot make it too small: ||A^-1||_F >= 1/||A||_F, so where the
        squares summed for ||A||_F underflow, those for ||A^-1||_F overflow, or
        (within a factor 2 of underflow) the subnormal sum keeps 15 digits.
        """
        try:
            inverse = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            return np.inf
        self._inverse, self._inverse_norm = inverse, _frobenius(inverse)
        return norm * self._inverse_norm

    def solve(self, A, b):
        """Solve A x = b and return (x, c), refusing near-singular systems.

        c is the first of the anchored bound, the Frobenius bound and the
        exact cond_2(A) (``cond_estimate``) that is within COND_LIMIT.
        Raises NearSingular, carrying the exact value (nan for a non-finite
        A), when cond_2(A) exceeds it.  x is ``np.linalg.solve(A, b)``.
        """
        A = _square(A).astype(float)
        b = np.asarray(b, dtype=float)
        if b.shape != (A.shape[0],):
            raise InputError(f"rhs shape {b.shape} does not match matrix {A.shape}")
        norm = _frobenius(A)
        c = self._anchored_bound(A, norm)
        if not c <= COND_LIMIT:
            c = self._frobenius_bound(A, norm)
        if not c <= COND_LIMIT:
            c = cond_estimate(A)
            if not c <= COND_LIMIT:
                raise NearSingular(f"condition estimate {c:.3e} exceeds {COND_LIMIT:.3e}",
                                   cond=c)
        return np.linalg.solve(A, b), c


def solve_with_cond(A, b):
    """Solve A x = b and return (x, c), refusing near-singular systems.

    c is first the Frobenius bound ||A||_F ||A^-1||_F, which lies between
    cond_2(A) and n cond_2(A); within COND_LIMIT it proves the system safe.
    Otherwise the exact cond_2(A) (``cond_estimate``) decides and is returned
    as c.  Raises NearSingular, carrying that exact value in its ``cond``
    attribute (nan for a non-finite A), when cond_2(A) exceeds 1/sqrt(eps);
    a Newton iteration hitting this must abort with a diagnostic rather than
    trust the step.  x is ``np.linalg.solve(A, b)`` on either path.  This is
    ``SolveGuard().solve``: a sequence of nearby systems, such as Newton's,
    shares one ``SolveGuard`` instead and pays for fewer inverses.
    """
    return SolveGuard().solve(A, b)


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
    error.  For full rank the null vectors are None.  A non-finite A has no
    numerical rank: it raises NearSingular with ``cond`` nan.
    """
    A = _square(A).astype(float)
    n = A.shape[0]
    if not np.isfinite(A).all():
        raise NearSingular("matrix has non-finite entries", cond=np.nan)
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
    """Exact 2-norm condition number: +inf if A is singular, nan if not finite.

    Computed from the singular values; the solve guard calls it only when
    neither of its bounds can prove a system safe.
    """
    A = _square(A)
    if not np.isfinite(A).all():
        return np.nan
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])
