"""Post-solution certification of a computed double-zero point.

Three independent lines of evidence: the quadratic nondegeneracy conditions
(transversality, the 2x2 degeneracy determinant, the chain normalization),
a double root of the characteristic function Delta(z) = det(zI - f1 - f2
e^{-z}) at z = 0, and a spectral scan for other roots near the imaginary
axis.  The scan takes the eigenvalues of a Chebyshev collocation of the
DDE's infinitesimal generator and polishes them together by Newton on
Delta, so the roots in its box come from one eigenvalue problem rather
than from wherever Newton starts on a grid happen to converge.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .defining import TbCandidate
from .eigenstructure import EigenBasis, TbExistence, tb_existence_test
from .errors import ConditionIFailed, NearSingular, SingularNuSystem
from .model import DdeModel, eval_f, jac_x, jac_y, param_der, second_dirder

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class TbVerdict:
    existence: TbExistence
    cond_i_value: float          # psi2 @ f_lambda
    cond_i_ok: bool
    d0: float
    d0_ok: bool
    cond_iii_value: float        # psi2.phi2 - psi2 f2 phi1 / 2 + psi2 f2 phi2
    cond_iii_ok: bool
    c_lam_mu: float
    nu: np.ndarray
    psi2_nu: float               # reported, not enforced (see quadratic_check)
    char_values: tuple           # (Delta(0), Delta'(0), Delta''(0))
    char_ok: bool
    jac_cond: float = np.nan
    tol: float = np.nan

    @property
    def passed(self) -> bool:
        return (self.existence.passed and self.cond_i_ok and self.d0_ok
                and self.cond_iii_ok and self.char_ok)


def characteristic(model: DdeModel, x, lam: float, mu: float, z: complex) -> complex:
    """Delta(z) = det(zI - f1 - f2 exp(-z)) at the equilibrium x."""
    x = np.asarray(x, dtype=float)
    f1 = jac_x(model, x, x, lam, mu)
    f2 = jac_y(model, x, x, lam, mu)
    M = z * np.eye(model.n) - f1 - f2 * cmath.exp(-z)
    return complex(linalg.det(M))


def double_zero_check(model: DdeModel, x, lam: float, mu: float,
                      tol: float = 1e-8):
    """Certify an algebraically double, at-most-double root of Delta at z = 0.

    Delta(0) is exact; Delta'(0) uses a complex step (Delta is entire and
    real on the real axis, so the step is subtraction free); Delta''(0) uses
    a second central difference.  Passes when x is an equilibrium
    (|f| <= 1e-8; otherwise also warns), |Delta(0)| <= tol, |Delta'(0)| <= tol
    and |Delta''(0)| > sqrt(tol).
    """
    x = np.asarray(x, dtype=float)
    res = float(np.max(np.abs(eval_f(model, x, x, lam, mu))))
    equilibrium = res <= 1e-8
    if not equilibrium:
        warnings.warn(f"x is not an equilibrium (|f| = {res:.2e})")

    d0 = characteristic(model, x, lam, mu, 0.0).real
    hc = 1e-100
    d1 = characteristic(model, x, lam, mu, 1j * hc).imag / hc
    h = _EPS ** 0.25
    d2 = (characteristic(model, x, lam, mu, h).real
          - 2.0 * characteristic(model, x, lam, mu, 0.0).real
          + characteristic(model, x, lam, mu, -h).real) / (h * h)
    ok = (equilibrium and abs(d0) <= tol and abs(d1) <= tol
          and abs(d2) > np.sqrt(tol))
    return d0, d1, d2, ok


def _chebyshev_diff(N: int) -> np.ndarray:
    """Differentiation matrix on the N+1 Chebyshev points cos(pi j / N) of [-1, 1]."""
    t = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.ones(N + 1)
    c[0] = c[N] = 2.0
    c *= (-1.0) ** np.arange(N + 1)
    dt = t[:, None] - t[None, :]
    D = np.outer(c, 1.0 / c) / (dt + np.eye(N + 1))
    return D - np.diag(D.sum(axis=1))


def _delta(f1: np.ndarray, f2: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Delta at every entry of z, by one stacked determinant."""
    M = (z[:, None, None] * np.eye(f1.shape[0]) - f1
         - np.exp(-z)[:, None, None] * f2)
    return np.linalg.det(M)


def spectral_scan(model: DdeModel, x, lam: float, mu: float,
                  box=((-1.0, 1.0), (-8.0, 8.0)), re_margin: float = 0.05):
    """Roots of Delta in a rectangle of the complex plane, and those near the axis.

    The roots are the eigenvalues of the infinitesimal generator of the
    linearized DDE (delay 1, as in ``characteristic``).  The generator is
    discretized by Chebyshev collocation on [-1, 0] (Breda, Maset and
    Vermiglio, SIAM J. Sci. Comput. 27, 2005): the first block row imposes
    phi'(0) = f1 phi(0) + f2 phi(-1), the others are the differentiation
    matrix.  The number of Chebyshev intervals, N = max(12, ceil(2 max|Im|)),
    grows with the height of the box.  The eigenvalues inside the box
    widened by 0.5 are then polished together by complex Newton on Delta,
    and a polished root inside the widened box is kept when |Delta| <= 1e-10.
    ``warn`` lists the roots other than the double zero with
    |Re z| <= re_margin, which the existence theory assumes away.
    """
    x = np.asarray(x, dtype=float)
    n = model.n
    f1 = jac_x(model, x, x, lam, mu)
    f2 = jac_y(model, x, x, lam, mu)
    (re_lo, re_hi), (im_lo, im_hi) = box

    def inside(z):
        return ((re_lo - 0.5 <= z.real) & (z.real <= re_hi + 0.5)
                & (im_lo - 0.5 <= z.imag) & (z.imag <= im_hi + 0.5))

    N = max(12, math.ceil(2.0 * max(abs(im_lo), abs(im_hi))))
    A = np.kron(2.0 * _chebyshev_diff(N), np.eye(n))
    A[:n] = 0.0
    A[:n, :n] = f1
    A[:n, -n:] = f2
    z = np.linalg.eigvals(A)
    z = z[inside(z)]

    # an iterate stops when its step is negligible, when Delta' vanishes, or
    # when it escapes far outside the box; the acceptance test below then
    # decides whether it is a root
    escape = 10.0 + max(abs(re_lo), abs(re_hi), abs(im_lo), abs(im_hi))
    active = np.ones(z.shape, dtype=bool)
    for _ in range(60):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        za = z[idx]
        h = _EPS ** (1.0 / 3.0) * np.maximum(1.0, np.abs(za))
        d, dp, dm = _delta(f1, f2, np.concatenate([za, za + h, za - h])).reshape(3, -1)
        dz = (dp - dm) / (2.0 * h)
        flat = dz == 0
        step = d / np.where(flat, 1.0, dz)
        znew = za - step
        out = ~flat & (np.abs(znew) > escape)
        small = np.abs(step) < 1e-12 * np.maximum(1.0, np.abs(znew))
        z[idx] = np.where(flat, za, znew)
        active[idx] = ~(flat | out | small)
    z = z[(np.abs(_delta(f1, f2, z)) <= 1e-10) & inside(z)]

    roots = []
    for r in z.tolist():
        if not any(abs(r - q) < 1e-6 for q in roots):
            roots.append(r)
    roots.sort(key=lambda r: (abs(r), r.imag))
    warn = [r for r in roots if abs(r) > 1e-6 and abs(r.real) <= re_margin]
    return roots, warn


def _bilinear_sum(model, x, lam, mu, first, second, left_pair):
    """(f_i1 + f_i2)[first, second] for i = 1 (left_pair) or i = 2."""
    a = "11" if left_pair else "21"
    b = "12" if left_pair else "22"
    return (second_dirder(model, a, x, x, lam, mu, first, second)
            + second_dirder(model, b, x, x, lam, mu, first, second))


def quadratic_check(model: DdeModel, solution: TbCandidate, basis: EigenBasis,
                    tol: float | None = None) -> TbVerdict:
    """Evaluate the quadratic nondegeneracy conditions at a converged point.

    Computes the parameter-direction ratio c_lam_mu, the response vector nu
    from the bordered singular system, the four bilinear blocks, and the 2x2
    degeneracy determinant d0.  nu is pinned by phi1.nu = 0; the textbook
    side constraint psi2.nu = 0 is not always attainable by shifting along
    phi1 (psi2.phi1 vanishes at a double-zero point), so psi2.nu is computed
    and reported instead of enforced.
    """
    x, lam, mu = solution.x, solution.lam, solution.mu
    f1 = jac_x(model, x, x, lam, mu)
    f2 = jac_y(model, x, x, lam, mu)
    if tol is None:
        tol = 1e-8 * max(1.0, np.max(np.abs(f1)) + np.max(np.abs(f2)))

    existence = tb_existence_test(f1, f2)
    p1, p2 = basis.phi1, basis.phi2
    q1, q2 = basis.psi1, basis.psi2
    flam = param_der(model, "lam", x, x, lam, mu)
    fmu = param_der(model, "mu", x, x, lam, mu)
    f1lam = param_der(model, "1lam", x, x, lam, mu)
    f2lam = param_der(model, "2lam", x, x, lam, mu)
    f1mu = param_der(model, "1mu", x, x, lam, mu)
    f2mu = param_der(model, "2mu", x, x, lam, mu)

    cond_i = float(q2 @ flam)
    if abs(cond_i) <= tol:
        raise ConditionIFailed(
            f"psi2 . f_lambda = {cond_i:.3e} within tolerance {tol:.1e}")
    c = -float(q2 @ fmu) / cond_i

    S = f1 + f2
    try:
        nu, _ = linalg.bordered_solve(S, basis.psi2 / np.linalg.norm(basis.psi2),
                                      p1, -(c * flam + fmu), 0.0)
    except NearSingular as exc:
        raise SingularNuSystem(str(exc)) from exc
    psi2_nu = float(q2 @ nu)

    def A1(w):
        return _bilinear_sum(model, x, lam, mu, p1, w, left_pair=True)

    def A2(w):
        return _bilinear_sum(model, x, lam, mu, p1, w, left_pair=False)

    def B1(w):
        return (_bilinear_sum(model, x, lam, mu, nu, w, left_pair=True)
                + c * f1lam @ w + f1mu @ w)

    def B2(w):
        return (_bilinear_sum(model, x, lam, mu, nu, w, left_pair=False)
                + c * f2lam @ w + f2mu @ w)

    m11 = q2 @ (A1(p1) + A2(p1))
    m12 = q2 @ (B1(p1) + B2(p1))
    m21 = q1 @ (A1(p1) + A2(p1)) + q2 @ (A1(p2) + A2(p2)) - q2 @ A2(p1)
    m22 = q1 @ (B1(p1) + B2(p1)) + q2 @ (B1(p2) + B2(p2)) - q2 @ B2(p1)
    d0 = float(linalg.det2x2(m11, m12, m21, m22))

    cond_iii = float(q2 @ p2 - 0.5 * q2 @ f2 @ p1 + q2 @ f2 @ p2)
    cv = double_zero_check(model, x, lam, mu, tol=max(tol, 1e-10))

    return TbVerdict(
        existence=existence,
        cond_i_value=cond_i, cond_i_ok=abs(cond_i) > tol,
        d0=d0, d0_ok=abs(d0) > tol,
        cond_iii_value=cond_iii, cond_iii_ok=abs(cond_iii) > tol,
        c_lam_mu=c, nu=nu, psi2_nu=psi2_nu,
        char_values=(float(cv[0]), float(cv[1]), float(cv[2])), char_ok=cv[3],
        tol=tol,
    )
