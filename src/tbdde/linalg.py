"""Dense linear-algebra kernels for small matrices.

Everything here is a thin, contract-enforcing layer over numpy's LAPACK
bindings: solve with a condition guard, numerical rank with one-dimensional
nullspaces and the pseudoinverse, bordered solves of rank-(n-1) systems,
determinants, and the exact 2-norm condition number.  Sizes of interest are
n up to a few hundred.

The solve guard proves most systems safe without an SVD, from the
Frobenius bound ||A||_F ||A^-1||_F on cond_2(A) (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., 2002, section 6): it accepts
only systems the exact condition number accepts too, up to rounding of
relative order n cond_2(A) eps.  One LU factorization gives both the
inverse the bound needs and the solution.  From state dimension 20 up,
Newton takes most steps in ``defining`` instead, by block elimination,
proved safe by a bound of the same kind.  The certificate takes one SVD and
no inverse.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NearSingular
from .model import _real

_EPS = float(np.finfo(float).eps)
#: solve() refuses systems whose exact 2-norm condition number exceeds this
COND_LIMIT = 1.0 / np.sqrt(_EPS)
#: relative tolerance of the certificate: the rank cut here, and the
#: threshold ``eigenstructure`` derives from it for every other decision
DEFAULT_TOL = 1e-8


def _square(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    return A


def _frobenius(A: np.ndarray) -> float:
    """||A||_F as a Python float: inf where the sum of squares overflows."""
    return math.sqrt(np.vdot(A, A))


def solve_with_cond(A, b):
    """(x, c) for A x = b, refusing near-singular systems: c is first the
    Frobenius bound ||A||_F ||A^-1||_F, between cond_2(A) and n cond_2(A);
    within COND_LIMIT it proves A safe.  Scale cannot make it too small:
    ||A^-1||_F >= 1/||A||_F, so where the squares summed for ||A||_F
    underflow, those for ||A^-1||_F overflow, or (within a factor 2 of
    underflow) the subnormal sum keeps 15 digits.  Otherwise the exact
    cond_2(A) (``cond_estimate``) decides and is c; above COND_LIMIT it
    raises NearSingular with it as ``cond`` (nan for a non-finite A).  x and
    A^-1 come from one ``np.linalg.solve(A, [b | I])``, one LU: its last n
    columns are ``np.linalg.inv(A)`` bit for bit, and its first is x.
    """
    A, b = _square(_real(A, "A has")), _real(b, "b has")
    if b.shape != (A.shape[0],):
        raise InputError(f"rhs shape {b.shape} does not match matrix {A.shape}")
    n = A.shape[0]
    rhs = np.eye(n, n + 1, 1)   # [b | I]
    rhs[:, 0] = b
    try:
        X = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        X, c = None, np.inf
    else:
        c = _frobenius(A) * _frobenius(X[:, 1:])
    if not c <= COND_LIMIT:
        c = cond_estimate(A)
        if not c <= COND_LIMIT:
            raise NearSingular(f"condition estimate {c:.3e} exceeds {COND_LIMIT:.3e}",
                               cond=c)
    if X is None:   # an exactly singular LU of a system the SVD accepts
        raise NearSingular("LU factorization is exactly singular", cond=c)
    return X[:, 0], c


def solve(A, b) -> np.ndarray:
    """Solve A x = b, refusing near-singular systems (see solve_with_cond)."""
    return solve_with_cond(A, b)[0]


def _sign_fix(v: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component positive (first one on ties)."""
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def rank_and_nullspace(A):
    """(rank, right, left, pinv) from one SVD A = U diag(s) V^T.

    rank counts the singular values above DEFAULT_TOL max(1, max(s)).  At
    every rank but n-1 the other three are None: the double-zero theory
    needs a geometrically simple zero, and ``eigenstructure.compute_basis``
    reports any other rank as a failed check.  At rank n-1 they are the
    unit null vectors and pinv = V1 diag(1/s1) U1^T over the first n-1
    singular triples: it solves A x = r in range(A) with right.x = 0 (Golub
    & Van Loan, Matrix Computations, section 5.5).  So does the bordered matrix
    [[A, left], [right^T, 0]], whose singular values are s_0 ... s_{n-2} and
    (sqrt(e^2 + 4) +- e)/2, e = s_{n-1}: where its exact cond_2 exceeds
    COND_LIMIT, NearSingular carries it as ``cond``.  A non-finite A has no
    numerical rank: NearSingular with ``cond`` nan.
    """
    A = _square(_real(A, "A has"))
    n = A.shape[0]
    if not np.isfinite(A).all():
        raise NearSingular("matrix has non-finite entries", cond=np.nan)
    U, s, Vt = np.linalg.svd(A)
    rank = int(np.sum(s > DEFAULT_TOL * max(1.0, s[0])))
    if rank != n - 1:
        return rank, None, None, None
    sigma = (math.hypot(s[-1], 2.0) + s[-1]) / 2.0   # the other is 1 / sigma
    c = max(s[0], sigma) * (max(sigma, 1.0 / s[-2]) if n > 1 else sigma)
    if not c <= COND_LIMIT:
        raise NearSingular(f"condition estimate {c:.3e} exceeds {COND_LIMIT:.3e}", cond=c)
    pinv = (Vt[:-1].T / s[:-1]) @ U[:, :-1].T
    return rank, _sign_fix(Vt[-1]), _sign_fix(U[:, -1]), pinv


def bordered_solve(A, col_border, row_border, rhs):
    """Solve the bordered system [[A, c],[r^T, 0]] (x, s) = (rhs, 0).

    The standard device for solving inside the range of a rank-(n-1) matrix:
    when rhs lies in range(A) the scalar s comes out ~0 and x is the unique
    solution of A x = rhs pinned by r^T x = 0, which ``rank_and_nullspace``'s
    pinv gives without this second factorization.  A bad border raises
    NearSingular, and borders or rhs not vectors of length n InputError.
    """
    A = _square(_real(A, "A has"))
    n = A.shape[0]
    col = _real(col_border, "col_border has").ravel()
    row = _real(row_border, "row_border has").ravel()
    rhs = _real(rhs, "rhs has")
    if not col.size == row.size == n or rhs.shape != (n,):
        raise InputError(f"borders and rhs must have length {n}, "
                         f"got {col.size}, {row.size} and rhs shape {rhs.shape}")
    sol = solve(np.block([[A, col[:, None]], [row, 0.0]]), np.append(rhs, 0.0))
    return sol[:n], float(sol[n])


def det(A):
    """Determinant; complex input supported (characteristic function needs it)."""
    A = _square(A)
    return np.linalg.det(A)


def cond_estimate(A) -> float:
    """Exact 2-norm condition number: +inf if A is singular, nan if not finite.

    Computed from the singular values; the solve guard calls it only when
    the Frobenius bound cannot prove a system safe.
    """
    A = _square(A)
    if not np.isfinite(A).all():
        return np.nan
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])
