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

import numpy as np

from . import linalg
from .errors import DegenerateNormalization

#: relative tolerance for rank/range decisions in the existence test
DEFAULT_TOL = 1e-8


def normalization(q1, q2, p1, p2, g1, g2):
    """Left-hand sides of the normalization identities (5) = 1 and (6) = 0.

    The basis puts (psi1, psi2, phi1, phi2) in (q1, q2, p1, p2); the defining
    system puts its row functionals (l1, l2) in place of (psi1, psi2).  With
    g = f2 p both sides are linear in (p, g): on derivative tables of p and g
    they give the identities' gradients.
    """
    return (q1 @ p1 - 0.5 * q2 @ g1 + q1 @ g1,
            q1 @ p2 - 0.5 * q1 @ g1 + q1 @ g2 + q2 @ g1 / 6.0 - 0.5 * q2 @ g2)


@dataclass(frozen=True)
class TbExistence:
    rank_ok: bool
    range_ok: bool
    nondegenerate: bool
    rank: int
    range_value: float
    nondegeneracy_value: float
    tol: float
    spectral_caveat: str = (
        "the test assumes no other eigenvalue on the imaginary axis; "
        "run a spectral scan to check"
    )

    @property
    def passed(self) -> bool:
        return self.rank_ok and self.range_ok and self.nondegenerate


@dataclass(frozen=True)
class EigenBasis:
    """Coefficient vectors of the double-zero eigenspace basis and its dual.

    The basis also carries the linearization it was built from, (f1, f2),
    and the existence test of that linearization, so a certificate taken
    with it needs neither matrix nor decomposition again.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    psi1: np.ndarray  # row vector
    psi2: np.ndarray  # row vector
    f1: np.ndarray
    f2: np.ndarray
    existence: TbExistence

    def residuals(self, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
        """The six chain/normalization identities as residual magnitudes."""
        S = f1 + f2
        B = f2 + np.eye(f2.shape[0])
        p1, p2, q1, q2 = self.phi1, self.phi2, self.psi1, self.psi2
        n5, n6 = normalization(q1, q2, p1, p2, f2 @ p1, f2 @ p2)
        return np.array([
            np.max(np.abs(S @ p1)),
            np.max(np.abs(S @ p2 - B @ p1)),
            np.max(np.abs(q2 @ S)),
            np.max(np.abs(q1 @ S - q2 @ B)),
            abs(n5 - 1.0),
            abs(n6),
        ])


def _existence(f2, S, rank: int, phi1, psi2, tol: float, phi2=None) -> TbExistence:
    """Conditions (ii) and (iii) of the existence test, given condition (i).

    S = f1 + f2 has rank n-1 with unit null vectors phi1 (right) and psi2
    (left).  ``phi2`` solves S phi2 = (f2+I) phi1 pinned by phi1.phi2 = 0;
    it is computed here when not given and (ii) holds.
    """
    B = f2 + np.eye(f2.shape[0])
    scale = max(1.0, np.max(np.abs(S)))
    range_value = float(psi2 @ (B @ phi1))
    if abs(range_value) > tol * scale:
        return TbExistence(True, False, False, rank, range_value, np.nan, tol)
    if phi2 is None:
        phi2, _ = linalg.bordered_solve(S, psi2, phi1, B @ phi1, 0.0)
    nd_value = float(psi2 @ (B @ phi2 - 0.5 * f2 @ phi1))
    return TbExistence(True, True, abs(nd_value) > tol * scale, rank, range_value,
                       nd_value, tol)


def tb_existence_test(f1, f2, tol: float = DEFAULT_TOL) -> TbExistence:
    """Check the three double-zero conditions on (f1, f2).

    (i) rank(f1+f2) = n-1; (ii) (f2+I) phi1 in range(f1+f2), tested through
    the left null vector; (iii) the chain terminates: (f2+I) phi2 - f2 phi1/2
    is NOT in the range.  The imaginary-axis spectral hypothesis is reported
    as a caveat, not verified here.  ``compute_basis`` runs the same test on
    the decomposition it makes anyway (``EigenBasis.existence``).
    """
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    S = f1 + f2
    report, phi1, psi2 = linalg.rank_and_nullspace(S)
    if phi1 is None:
        return TbExistence(False, False, False, report.rank, np.nan, np.nan, tol)
    return _existence(f2, S, report.rank, phi1, psi2, tol)


def compute_basis(f1, f2, beta_phi2: float = 0.0, beta_psi1: float = 0.0) -> EigenBasis:
    """Construct the normalized double-zero basis from (f1, f2).

    Construction order: unit null vectors from (1), (3) by one SVD of
    S = f1 + f2; generalized vectors from (2), (4) via bordered solves pinned
    by phi1.phi2p = beta_phi2 and psi1p.psi2 = beta_psi1 (the left null
    vector transposed is the one safe column border: phi1 itself lies in
    range(S) at a T-B point); then the normalization identities (5) and (6)
    determine the common scales.  With phi1 = c*ph1, psi2 = d*ps2,
    psi1 = d*ps1p and phi2 = c*ph2p + t*ph1 the identities reduce to

        (5):  c*d*alpha = 1        (the psi2-range term vanishes at a T-B point)
        (6):  c*d*gamma + d*t*alpha = 0

    so c*d = 1/alpha and t follows; the magnitude split between c and d is a
    convention (square root), with c > 0 keeping the sign rule on phi1.  The
    existence test reuses the SVD, and phi2p too when it is pinned at 0.
    """
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    S = f1 + f2
    B = f2 + np.eye(f2.shape[0])
    report, ph1, ps2 = linalg.rank_and_nullspace(S)
    if ph1 is None:
        raise DegenerateNormalization("matrix has full rank: no zero eigenvalue")
    ph2p, _ = linalg.bordered_solve(S, ps2, ph1, B @ ph1, beta_phi2)
    ps1p, _ = linalg.bordered_solve(S.T, ph1, ps2, B.T @ ps2, beta_psi1)
    existence = _existence(f2, S, report.rank, ph1, ps2, DEFAULT_TOL,
                           None if beta_phi2 else ph2p)

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
    )
