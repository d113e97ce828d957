"""Jordan-chain bases for the double-zero eigenvalue and the existence test.

Everything operates on the two linearization matrices f1 (instantaneous) and
f2 (delayed) evaluated at an equilibrium.  With S = f1 + f2 of rank n-1 the
chain vectors satisfy

    (1) S phi1 = 0                      (3) psi2 S = 0
    (2) S phi2 = (f2 + I) phi1          (4) psi1 S = psi2 (f2 + I)

and the normalization identities (5) and (6) of ``normalization`` fix the
remaining scale freedom.  The basis functions on the delay interval are
affine in theta with these coefficient vectors, so finite vectors suffice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import InputError
from .model import _real


def normalization(q1, q2, p1, p2, g1, g2):
    """Left-hand sides of the normalization identities (5) = 1 and (6) = 0.

    The basis puts (psi1, psi2, phi1, phi2) in (q1, q2, p1, p2); the defining
    system puts its row functionals (l1, l2) in place of (psi1, psi2).  With
    g = f2 p both sides are linear in (p, g): on derivative tables of p and g
    they give the identities' gradients.  Halving is exact, so q1 g1 and
    q2 g1 are formed once for both sides.
    """
    q1g1, q2g1 = q1 @ g1, q2 @ g1
    return (q1 @ p1 - 0.5 * q2g1 + q1g1,
            q1 @ p2 - 0.5 * q1g1 + q1 @ g2 + q2g1 / 6.0 - 0.5 * q2 @ g2)


class Check(NamedTuple):
    """One decision of a certificate: ``value`` against ``threshold``, and
    whether it holds (a named tuple, as ``model.Linearization`` is)."""

    value: float
    threshold: float
    ok: bool


@dataclass(frozen=True)
class EigenBasis:
    """Coefficient vectors of the double-zero eigenspace basis and its dual.

    The basis also carries the linearization it was built from, (f1, f2),
    the existence test's checks "rank", "range" and "nondegeneracy" by name
    against their threshold ``tol``, and the pseudoinverse ``pinv`` of
    S = f1 + f2, so a certificate taken with it needs neither matrix nor
    decomposition again.  Where a check fails, the four vectors are NaN.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    psi1: np.ndarray  # row vector
    psi2: np.ndarray  # row vector
    f1: np.ndarray
    f2: np.ndarray
    checks: dict
    tol: float
    pinv: np.ndarray

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks.values())


def tb_existence_test(f1, f2) -> EigenBasis:
    """The three double-zero checks on (f1, f2), with their ``tol`` and
    ``passed``: ``compute_basis(f1, f2)``, under the name the benchmark traces."""
    return compute_basis(f1, f2)


def compute_basis(f1, f2) -> EigenBasis:
    """The normalized double-zero basis of (f1, f2), with its existence test.

    One SVD of S = f1 + f2 gives its rank, the unit null vectors ph1, ps2
    of (1), (3) and X = S^+ (``pinv``), and nothing is inverted.
    ph2p = X (f2+I) ph1 and ps1p = ps2 (f2+I) X from (2), (4), so
    ph1.ph2p = ps1p.ps2 = 0.  The existence test decides, against
    tol = linalg.DEFAULT_TOL max(1, max|f1| + max|f2|), the point's one
    threshold for every check of ``verify`` too:

    - "rank": rank(S) = n-1 (``linalg.rank_and_nullspace``);
    - "range": (f2+I) ph1 in range(S), |ps2 (f2+I) ph1| <= tol;
    - "nondegeneracy": the chain terminates, (f2+I) ph2p - f2 ph1/2 is NOT
      in the range: |alpha| > tol, alpha = ps2 ((f2+I) ph2p - f2 ph1/2),
      NaN unless "range" holds.

    The last two values are -g'(0) and -g''(0)/2 for g(z), the last
    component of the solution of [[M(z), psi2^T], [phi1^T, 0]] (v, g) =
    (0, 1), M(z) = zI - f1 - f2 e^{-z} (Govaerts, Numerical Methods for
    Bifurcations of Dynamical Equilibria, SIAM 2000): g = det M / det of
    that matrix is the characteristic function without the scale of its
    other roots.  That no other root is on the imaginary axis is left to
    ``verify.spectral_scan``.

    With phi1 = c*ph1, psi2 = d*ps2, psi1 = d*ps1p and phi2 = c*ph2p + t*ph1
    the normalization identities (5) and (6) reduce to

        (5):  c*d*alpha = 1        (the psi2-range term vanishes at a T-B point)
        (6):  c*d*gamma + d*t*alpha = 0

    so c*d = 1/alpha and t follows; the magnitude split between c and d is a
    convention (square root), with c > 0 keeping the sign rule on phi1.
    alpha of (5) is the nondegeneracy value, ps1p (f2+I) ph1 =
    ps2 (f2+I) ph2p, so |alpha| > tol wherever every check holds.  Where
    one fails, the four vectors are NaN, and ``pinv`` is None unless the
    rank is n-1.  A non-finite S raises NearSingular, and so does a bordered
    matrix of ph2p too ill-conditioned, whether "range" holds or not.
    """
    f1, f2 = _real(f1, "f1 has"), _real(f2, "f2 has")
    if f1.ndim != 2 or f1.shape[0] != f1.shape[1] or f1.shape != f2.shape or not f1.size:
        raise InputError(f"f1 and f2 must be non-empty square matrices of one shape, "
                         f"got {f1.shape} and {f2.shape}")
    n = f1.shape[0]
    tol = linalg.DEFAULT_TOL * max(1.0, float(np.max(np.abs(f1)) + np.max(np.abs(f2))))
    rank, ph1, ps2, X = linalg.rank_and_nullspace(f1 + f2)
    range_value = alpha = np.nan
    if ph1 is not None:
        B = f2 + np.eye(n)
        range_value = float(ps2 @ (B @ ph1))
        if abs(range_value) <= tol:
            ph2p, ps1p = X @ (B @ ph1), (ps2 @ B) @ X
            alpha, gamma = map(float, normalization(ps1p, ps2, ph1, ph2p,
                                                    f2 @ ph1, f2 @ ph2p))
    checks = {"rank": Check(rank, n - 1, rank == n - 1),
              "range": Check(range_value, tol, abs(range_value) <= tol),
              "nondegeneracy": Check(alpha, tol, abs(alpha) > tol)}
    if not all(check.ok for check in checks.values()):
        nan = np.full(n, np.nan)
        return EigenBasis(nan, nan, nan, nan, f1, f2, checks, tol, X)
    c = 1.0 / np.sqrt(abs(alpha))
    d = np.sign(alpha) / np.sqrt(abs(alpha))
    t = -gamma / (alpha * alpha * d)
    return EigenBasis(c * ph1, c * ph2p + t * ph1, d * ps1p, d * ps2, f1, f2, checks, tol, X)
