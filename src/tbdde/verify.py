"""Post-solution certification of a computed double-zero point.

The verdict decides, against the existence test's one threshold per point,
that the point is an equilibrium, that the characteristic function
Delta(z) = det(zI - f1 - f2 e^{-z}) has a double root at z = 0 (the
existence test alone decides this), and that the quadratic nondegeneracy
conditions hold (transversality, the 2x2 degeneracy determinant, the chain
normalization).  A separate spectral scan looks for other roots near the
imaginary axis.  It takes the eigenvalues of a Chebyshev collocation of the
DDE's infinitesimal generator and polishes them together by Newton on
Delta, so the roots in its box come from one eigenvalue problem rather
than from wherever Newton starts on a grid happen to converge.  The
collocation only seeds that Newton, so its number of intervals N is the
smallest whose stand-in for e^{-z} is within a relative 1e-3 of it on the
box, at most 64 and at most the former max(12, ceil(2 max|Im z|)), which
stays the fallback where no smaller N reaches 1e-3.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .defining import TbCandidate
from .eigenstructure import EigenBasis, TbExistence, tb_existence_test
from .errors import ConditionIFailed, InputError, NearSingular, SingularNuSystem
from .model import DdeModel, Linearization, eval_f, jac_x, jac_y

_EPS = np.finfo(float).eps
#: spectral_scan's most Chebyshev intervals, N0 of a box with |Im| up to 512
_MAX_INTERVALS = 1024


@dataclass(frozen=True)
class TbVerdict:
    existence: TbExistence       # the one decision about the double zero
    cond_i_value: float          # psi2 @ f_lambda
    cond_i_ok: bool
    d0: float
    d0_ok: bool
    cond_iii_value: float        # psi2.phi2 - psi2 f2 phi1 / 2 + psi2 f2 phi2
    cond_iii_ok: bool
    c_lam_mu: float
    nu: np.ndarray
    psi2_nu: float               # reported, not enforced (see quadratic_check)
    equilibrium_residual: float  # |f(x, x)|_inf
    equilibrium_ok: bool         # equilibrium_residual <= tol
    tol: float                   # every *_ok's threshold, existence.tol

    @property
    def passed(self) -> bool:
        return (self.existence.passed and self.cond_i_ok and self.d0_ok
                and self.cond_iii_ok and self.equilibrium_ok)


def characteristic(model: DdeModel, x, lam: float, mu: float, z: complex) -> complex:
    """Delta(z) = det(zI - f1 - f2 exp(-z)) at the equilibrium x, in delay-1 time:
    a root z is tau times a root s of the model's det(sI - A - B exp(-s tau))."""
    x = np.asarray(x, dtype=float)
    f1 = jac_x(model, x, x, lam, mu)
    f2 = jac_y(model, x, x, lam, mu)
    M = z * np.eye(model.n) - f1 - f2 * cmath.exp(-z)
    return complex(linalg.det(M))


def _delta(f1: np.ndarray, f2: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Delta at every entry of z, by one stacked determinant."""
    M = (z[:, None, None] * np.eye(f1.shape[0]) - f1
         - np.exp(-z)[:, None, None] * f2)
    return np.linalg.det(M)


def double_zero_check(model: DdeModel, x, lam: float, mu: float):
    """Certify an equilibrium with a double zero at z = 0, without a basis.

    f, f1 and f2 are evaluated once; ``tb_existence_test`` on (f1, f2) decides
    the double zero, and x is an equilibrium when |f|_inf <= its threshold
    ``TbExistence.tol``.  Returns (|f|_inf, range_value, nondegeneracy_value,
    ok), the middle two the existence test's.  A non-finite linearization
    raises NearSingular, and f1 + f2 of rank below n-1 raises
    RankDeficiencyMismatch, as in the existence test.
    """
    f, f1, f2 = _finite_point(model, x, lam, mu, eval_f, jac_x, jac_y)
    existence = tb_existence_test(f1, f2)
    res = float(np.max(np.abs(f)))
    return (res, existence.range_value, existence.nondegeneracy_value,
            res <= existence.tol and existence.passed)


def _finite_point(model: DdeModel, x, lam: float, mu: float, *funcs) -> list:
    """Each of ``funcs`` (``eval_f``, ``jac_x``, ``jac_y``) at the equilibrium x.

    They are evaluated under np.errstate, and a non-finite value raises
    NearSingular with ``cond`` nan, as ``linalg.rank_and_nullspace`` does.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = [fn(model, x, x, lam, mu) for fn in funcs]
    if not all(np.isfinite(v).all() for v in out):
        raise NearSingular(f"the linearization at x = {x} is not finite", cond=np.nan)
    return out


def _chebyshev_diff(N: int) -> np.ndarray:
    """Differentiation matrix on the N+1 Chebyshev points cos(pi j / N) of [-1, 1]."""
    t = np.cos(np.pi * np.arange(N + 1) / N)
    c = np.ones(N + 1)
    c[0] = c[N] = 2.0
    c *= (-1.0) ** np.arange(N + 1)
    dt = t[:, None] - t[None, :]
    D = np.outer(c, 1.0 / c) / (dt + np.eye(N + 1))
    return D - np.diag(D.sum(axis=1))


def _stand_in_fits(N: int, lo: complex, hi: complex) -> bool:
    """Whether the collocation's stand-in for e^{-z} fits on the rectangle [lo, hi].

    Collocation on N intervals replaces e^{-z} by r_N(z) = e_N^T (zI - E)^-1 d,
    with E = 2 D_N[1:, 1:] and d = 2 D_N[1:, 0].  It fits when no eigenvalue
    of E (a pole of r_N) lies in the rectangle and |r_N(z) e^z - 1| <= 1e-3
    on its boundary, sampled every 0.25 or closer; r_N e^z - 1 is then analytic
    inside, so the maximum-modulus principle bounds it there too.  The
    boundary is solved for a few points at a time, so that the check needs
    little memory whatever the box.
    """
    D = 2.0 * _chebyshev_diff(N)
    E, d = D[1:, 1:], D[1:, 0]
    poles = np.linalg.eigvals(E)
    if np.any((lo.real <= poles.real) & (poles.real <= hi.real)
              & (lo.imag <= poles.imag) & (poles.imag <= hi.imag)):
        return False
    corners = (lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag))
    chunk = max(1, 4096 // (N * N))
    eye, rhs = np.eye(N), d.astype(complex)[:, None]
    for z0, z1 in zip(corners, corners[1:] + corners[:1]):
        m = max(1, math.ceil(abs(z1 - z0) / 0.25))
        for k in range(0, m, chunk):
            z = z0 + (z1 - z0) / m * np.arange(k, min(k + chunk, m))
            r = np.linalg.solve(z[:, None, None] * eye - E, rhs)[:, -1, 0]
            with np.errstate(over="ignore", invalid="ignore"):
                err = np.abs(r * np.exp(z) - 1.0)
            if not np.all(err <= 1e-3):
                return False
    return True


@functools.lru_cache(maxsize=64)
def _collocation_size(box) -> int:
    """The number of Chebyshev intervals N that ``spectral_scan`` uses on ``box``.

    The collocation's eigenvalues are the roots of det(zI - f1 - r_N(z) f2),
    where r_N stands in for e^{-z} (``_stand_in_fits``) and depends on N and
    the box only, not on the model.  N is the smallest in [4, min(N0, 64)]
    whose stand-in fits on the box widened by 0.5, where N0 = max(12,
    ceil(2 max|Im z|)); where none fits, N0 itself.  ``box`` is a tuple
    ((re_lo, re_hi), (im_lo, im_hi)) of floats.
    """
    (re_lo, re_hi), (im_lo, im_hi) = box
    fallback = max(12, math.ceil(2.0 * max(abs(im_lo), abs(im_hi))))
    lo, hi = complex(re_lo - 0.5, im_lo - 0.5), complex(re_hi + 0.5, im_hi + 0.5)
    return next((N for N in range(4, min(fallback, 64) + 1)
                 if _stand_in_fits(N, lo, hi)), fallback)


def spectral_scan(model: DdeModel, x, lam: float, mu: float,
                  box=((-1.0, 1.0), (-8.0, 8.0))):
    """Roots of Delta in a rectangle of the complex plane, and those near the axis.

    The roots are the eigenvalues of the infinitesimal generator of the
    linearized DDE in delay-1 time, as in ``characteristic``, so they are
    tau times the roots in the model's own time.  The generator is
    discretized by Chebyshev collocation on [-1, 0] (Breda, Maset and
    Vermiglio, SIAM J. Sci. Comput. 27, 2005): the first block row imposes
    phi'(0) = f1 phi(0) + f2 phi(-1), the others are the differentiation
    matrix.  The number of Chebyshev intervals N is the smallest, from 4 up
    to N0 = max(12, ceil(2 max|Im|)) but at most 64, for which the
    collocation's stand-in for e^{-z} is within a relative 1e-3 of it on the
    box widened by 0.5; where none is, N = N0 (``_collocation_size``).  A box
    that needs N > 1024 (|Im| above 512) raises InputError.  The eigenvalues
    inside the widened box are then polished together by complex Newton on
    Delta, and a polished root inside the widened box is kept when
    |Delta| <= 1e-10.  Where that test sits at rounding level, as on a real
    root far in the left half plane of a larger model, whether the root is
    kept can change with N: such a root may be reported at the former N0
    and not at the N used now, or the other way round.  ``warn`` lists the
    roots other than the double zero with |Re z| <= 0.05, which the
    existence theory assumes away.  A box not finite, or with a low end
    above its high end, raises InputError, and a non-finite linearization
    raises NearSingular.
    """
    (re_lo, re_hi), (im_lo, im_hi) = box
    if not all(-math.inf < lo <= hi < math.inf for lo, hi in box):
        raise InputError(f"box must be finite, each low end <= its high end, got {box}")
    n = model.n
    N = _collocation_size(((float(re_lo), float(re_hi)), (float(im_lo), float(im_hi))))
    if N > _MAX_INTERVALS:
        raise InputError(f"box {box} needs N = {N} > {_MAX_INTERVALS} Chebyshev intervals, "
                         f"a collocation matrix of {n * (N + 1)} rows for n = {n}")
    f1, f2 = _finite_point(model, x, lam, mu, jac_x, jac_y)

    def inside(z):
        return ((re_lo - 0.5 <= z.real) & (z.real <= re_hi + 0.5)
                & (im_lo - 0.5 <= z.imag) & (z.imag <= im_hi + 0.5))

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
    warn = [r for r in roots if abs(r) > 1e-6 and abs(r.real) <= 0.05]
    return roots, warn


def quadratic_check(model: DdeModel, solution: TbCandidate,
                    basis: EigenBasis) -> TbVerdict:
    """Evaluate the quadratic nondegeneracy conditions at a converged point.

    Computes the parameter-direction ratio c_lam_mu, the response vector nu
    from the bordered singular system, the four bilinear blocks, and the 2x2
    degeneracy determinant d0.  nu is pinned by phi1.nu = 0; the textbook
    side constraint psi2.nu = 0 is not always attainable by shifting along
    phi1 (psi2.phi1 vanishes at a double-zero point), so psi2.nu is computed
    and reported instead of enforced.  Each condition, and the equilibrium
    test |f|_inf <= tol, is decided against the existence test's threshold,
    which ``TbVerdict.tol`` reports; the existence test alone decides the
    double zero.

    ``basis`` must be the one built at ``solution``: its linearization
    (f1, f2) and existence test are the point's, so the point's f1 and f2
    are evaluated once, by the caller.
    With f they make the point's ``Linearization``, whose table gives the
    six parameter derivatives and the second-derivative blocks.
    """
    x, lam, mu = np.asarray(solution.x, dtype=float), solution.lam, solution.mu
    f1, f2 = basis.f1, basis.f2
    lin = Linearization(model, x, lam, mu, eval_f(model, x, x, lam, mu), f1, f2)
    existence = basis.existence
    tol = existence.tol
    p1, p2 = basis.phi1, basis.phi2
    q1, q2 = basis.psi1, basis.psi2
    flam, fmu, f1lam, f2lam, f1mu, f2mu = lin.param_derivatives()

    cond_i = float(q2 @ flam)
    if abs(cond_i) <= tol:
        raise ConditionIFailed(
            f"psi2 . f_lambda = {cond_i:.3e} within tolerance {tol:.1e}")
    c = -float(q2 @ fmu) / cond_i

    S = f1 + f2
    try:
        nu, _ = linalg.bordered_solve(S, basis.psi2 / np.linalg.norm(basis.psi2),
                                      p1, -(c * flam + fmu))
    except NearSingular as exc:
        raise SingularNuSystem(str(exc)) from exc
    psi2_nu = float(q2 @ nu)

    # bilinear blocks as matrices: A1 @ w = (f11 + f12)[phi1, w], A2 the
    # delayed-slot pair; B1, B2 the same along nu plus the parameter terms
    A1, A2 = lin.hessian_blocks(p1)
    B1, B2 = lin.hessian_blocks(nu)
    B1 = B1 + c * f1lam + f1mu
    B2 = B2 + c * f2lam + f2mu
    A, B = A1 + A2, B1 + B2

    m11 = q2 @ A @ p1
    m12 = q2 @ B @ p1
    m21 = q1 @ A @ p1 + q2 @ A @ p2 - q2 @ A2 @ p1
    m22 = q1 @ B @ p1 + q2 @ B @ p2 - q2 @ B2 @ p1
    d0 = float(m11 * m22 - m12 * m21)

    cond_iii = float(q2 @ p2 - 0.5 * q2 @ f2 @ p1 + q2 @ f2 @ p2)
    res = float(np.max(np.abs(lin.f)))

    return TbVerdict(
        existence=existence,
        cond_i_value=cond_i, cond_i_ok=abs(cond_i) > tol,
        d0=d0, d0_ok=abs(d0) > tol,
        cond_iii_value=cond_iii, cond_iii_ok=abs(cond_iii) > tol,
        c_lam_mu=c, nu=nu, psi2_nu=psi2_nu,
        equilibrium_residual=res, equilibrium_ok=res <= tol, tol=tol,
    )
