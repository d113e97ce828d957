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
from .errors import DegenerateNormalization, InputError


def normalization(q1, q2, p1, p2, g1, g2):
    """Left-hand sides of the normalization identities (5) = 1 and (6) = 0.

    The basis puts (psi1, psi2, phi1, phi2) in (q1, q2, p1, p2); the defining
    system puts its row functionals (l1, l2) in place of (psi1, psi2).  With
    g = f2 p both sides are linear in (p, g): on derivative tables of p and g
    they give the identities' gradients.
    """
    return (q1 @ p1 - 0.5 * q2 @ g1 + q1 @ g1,
            q1 @ p2 - 0.5 * q1 @ g1 + q1 @ g2 + q2 @ g1 / 6.0 - 0.5 * q2 @ g2)


class Check(NamedTuple):
    """One decision of a certificate: ``value`` against ``threshold``, and
    whether it holds (a named tuple, as ``model.Linearization`` is)."""

    value: float
    threshold: float
    ok: bool


@dataclass(frozen=True)
class TbExistence:
    """The double-zero decision: the checks "rank", "range" and
    "nondegeneracy" of ``tb_existence_test``, by name."""

    checks: dict
    tol: float
    spectral_caveat: str = (
        "the test assumes no other eigenvalue on the imaginary axis; "
        "run a spectral scan to check"
    )

    @property
    def passed(self) -> bool:
        return all(check.ok for check in self.checks.values())


@dataclass(frozen=True)
class EigenBasis:
    """Coefficient vectors of the double-zero eigenspace basis and its dual.

    The basis also carries the linearization it was built from, (f1, f2),
    its existence test and the pseudoinverse ``pinv`` of S = f1 + f2, so a
    certificate taken with it needs neither matrix nor decomposition again.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    psi1: np.ndarray  # row vector
    psi2: np.ndarray  # row vector
    f1: np.ndarray
    f2: np.ndarray
    existence: TbExistence
    pinv: np.ndarray


def _pair(f1, f2):
    """(f1, f2) as float arrays; InputError unless square and of one shape."""
    f1, f2 = np.asarray(f1, dtype=float), np.asarray(f2, dtype=float)
    if f1.ndim != 2 or f1.shape[0] != f1.shape[1] or f1.shape != f2.shape:
        raise InputError(f"f1 and f2 must be square matrices of one shape, "
                         f"got {f1.shape} and {f2.shape}")
    return f1, f2


def _existence(f1, f2, rank: int, phi1, psi2, pinv) -> TbExistence:
    """The existence test on (f1, f2), given the rank of S = f1 + f2.

    When the rank is n-1, phi1 (right) and psi2 (left) are the unit null
    vectors and phi2 = S^+ (f2+I) phi1, with S^+ = ``pinv``, solves
    S phi2 = (f2+I) phi1 pinned by phi1.phi2 = 0.  tol = linalg.DEFAULT_TOL
    max(1, max|f1| + max|f2|) is the point's one threshold: "range" and
    "nondegeneracy" here, and every check of ``verify``, are decided against it.
    """
    n = f1.shape[0]
    tol = linalg.DEFAULT_TOL * max(1.0, float(np.max(np.abs(f1)) + np.max(np.abs(f2))))
    range_value = nd_value = np.nan
    if phi1 is not None:
        B = f2 + np.eye(n)
        range_value = float(psi2 @ (B @ phi1))
        if abs(range_value) <= tol:
            phi2 = pinv @ (B @ phi1)
            nd_value = float(psi2 @ (B @ phi2 - 0.5 * f2 @ phi1))
    return TbExistence({"rank": Check(rank, n - 1, rank == n - 1),
                        "range": Check(range_value, tol, abs(range_value) <= tol),
                        "nondegeneracy": Check(nd_value, tol, abs(nd_value) > tol)}, tol)


def tb_existence_test(f1, f2) -> TbExistence:
    """Check the three double-zero conditions on (f1, f2).

    "rank": rank(f1+f2) = n-1 (``linalg.rank_and_nullspace``); "range":
    (f2+I) phi1 in range(f1+f2), tested through the left null vector;
    "nondegeneracy": the chain terminates, (f2+I) phi2 - f2 phi1/2 is NOT in
    the range.  Their values are -g'(0) and -g''(0)/2 for g(z), the last
    component of the solution of [[M(z), psi2^T], [phi1^T, 0]] (v, g) = (0, 1) with
    M(z) = zI - f1 - f2 e^{-z} (Govaerts, Numerical Methods for Bifurcations
    of Dynamical Equilibria, SIAM 2000): g = det M / det of that matrix is
    the characteristic function without the scale of its other roots.  The
    imaginary-axis spectral hypothesis is reported as a caveat, not verified
    here.  It takes one SVD, as ``compute_basis`` does for its
    ``EigenBasis.existence``, and where phi2's bordered matrix is too
    ill-conditioned it raises NearSingular (``linalg.rank_and_nullspace``),
    whether "range" holds or not.
    """
    f1, f2 = _pair(f1, f2)
    return _existence(f1, f2, *linalg.rank_and_nullspace(f1 + f2))


def compute_basis(f1, f2) -> EigenBasis:
    """Construct the normalized double-zero basis from (f1, f2).

    Construction order: one SVD of S = f1 + f2 gives the unit null vectors
    ph1, ps2 of (1), (3) and X = S^+ (``pinv``), and nothing is inverted;
    ph2p = X (f2+I) ph1 and ps1p = ps2 (f2+I) X from (2), (4), so ph1.ph2p =
    ps1p.ps2 = 0; then the normalization identities (5) and (6) determine
    the common scales.  With phi1 = c*ph1, psi2 = d*ps2, psi1 = d*ps1p and
    phi2 = c*ph2p + t*ph1 the identities reduce to

        (5):  c*d*alpha = 1        (the psi2-range term vanishes at a T-B point)
        (6):  c*d*gamma + d*t*alpha = 0

    so c*d = 1/alpha and t follows; the magnitude split between c and d is a
    convention (square root), with c > 0 keeping the sign rule on phi1.  The
    existence test reuses the SVD.

    alpha is the existence test's nondegeneracy value, as ps1p (f2+I) ph1 =
    ps2 (f2+I) X (f2+I) ph1 = ps2 (f2+I) ph2p: the test decides it, and the
    cut |alpha| < 1e-12 max(1, max|f2|) below is a numerical guard on that
    value before dividing by it, not a second decision.
    """
    f1, f2 = _pair(f1, f2)
    B = f2 + np.eye(f2.shape[0])
    rank, ph1, ps2, X = linalg.rank_and_nullspace(f1 + f2)
    if ph1 is None:
        raise DegenerateNormalization("matrix has full rank: no zero eigenvalue")
    ph2p, ps1p = X @ (B @ ph1), (ps2 @ B) @ X
    existence = _existence(f1, f2, rank, ph1, ps2, X)

    alpha, gamma = normalization(ps1p, ps2, ph1, ph2p, f2 @ ph1, f2 @ ph2p)
    if abs(alpha) < 1e-12 * max(1.0, np.max(np.abs(f2))):
        raise DegenerateNormalization(
            f"normalization coefficient {alpha:.3e} too small: identities "
            "(5)/(6) have no stable solution")

    c = 1.0 / np.sqrt(abs(alpha))
    d = np.sign(alpha) / np.sqrt(abs(alpha))
    t = -gamma / (alpha * alpha * d)
    return EigenBasis(
        phi1=c * ph1,
        phi2=c * ph2p + t * ph1,
        psi1=d * ps1p,
        psi2=d * ps2,
        f1=f1,
        f2=f2,
        existence=existence,
        pinv=X,
    )
