"""Post-solution certification of a computed double-zero point.

The verdict decides, against the existence test's one threshold per point,
that the point is an equilibrium, that the characteristic function
Delta(z) = det(zI - f1 - f2 e^{-z}) has a double root at z = 0 (the
existence test alone decides this), and that the quadratic nondegeneracy
conditions hold (transversality and the 2x2 degeneracy determinant d0),
each one named ``Check``; the verdict PASSes when every check holds.

A separate spectral scan checks that no other root lies on the imaginary
axis, the strip |Re z| <= delta = 1e-3, by excluding it: the roots near it
have |z| <= R = |f1|_2 + |f2|_2 e^delta, a trapezoid rule for the argument
principle counts and locates those near 0, and a first-order bound from
M(i w)^-1 clears the rest, up to the rounding of the inverses (Rump, Acta
Numerica 19, 2010).  f1 and f2 are real (``model`` rejects a complex
callback result), so M(conj z) = conj M(z): the roots come in conjugate
pairs, and the trapezoid rule needs only its nodes with Im z >= 0.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .defining import TbCandidate
from .eigenstructure import Check, EigenBasis, TbExistence, tb_existence_test
from .errors import InputError, NearSingular
from .model import DdeModel, Linearization, _check_params, _check_vec, _dirder, _f, linearize

#: half-width of the strip |Re z| <= delta that spectral_scan calls the axis
_DELTA = 1e-3
#: spectral_scan's largest bound R on the roots near the axis
_R_MAX = 512.0
#: trapezoid nodes of spectral_scan's disk count, and its Newton steps per seed
_NODES, _NEWTON_STEPS = 64, 50
#: the count's unit nodes with Im >= 0, e^{2 pi i k / _NODES} for k = 0 .. _NODES / 2,
#: and their weights in the whole rule (1 on the real axis, 2 for a node and
#: its conjugate, over _NODES) times their powers 1, 2, 3
_UNIT = np.exp(2j * np.pi * np.arange(_NODES // 2 + 1) / _NODES)
_UNIT_WEIGHTS = (np.r_[1.0, np.full(_NODES // 2 - 1, 2.0), 1.0] / _NODES)[:, None] \
    * _UNIT[:, None] ** np.arange(1, 4)
#: half-widths of spectral_scan's first and last exclusion intervals
_H_START, _H_MIN = 0.25, 1e-3


@dataclass(frozen=True)
class TbVerdict:
    """The certificate: ``existence`` and the checks "transversality"
    (psi2 f_lambda), "d0" and "equilibrium" (|f|_inf); see ``quadratic_check``."""

    existence: TbExistence
    checks: dict
    c_lam_mu: float
    nu: np.ndarray
    psi2_nu: float

    @property
    def d0(self) -> float:
        return self.checks["d0"].value

    @property
    def passed(self) -> bool:
        return self.existence.passed and all(c.ok for c in self.checks.values())


def characteristic(model: DdeModel, x, lam: float, mu: float, z: complex) -> complex:
    """Delta(z) = det(zI - f1 - f2 exp(-z)) at the equilibrium x, in delay-1 time:
    a root z is tau times a root s of the model's det(sI - A - B exp(-s tau)).
    f1 and f2 come from ``linearize``, which evaluates f too: a non-finite f,
    f1 or f2 raises NearSingular, and a z not one finite number InputError."""
    if isinstance(z, bool) or not isinstance(z, numbers.Complex) or not cmath.isfinite(z):
        raise InputError(f"z must be one finite number, real or complex, got {z!r}")
    lin = _linearized(model, x, lam, mu)
    M = z * np.eye(model.n) - lin.f1 - lin.f2 * cmath.exp(-z)
    return complex(linalg.det(M))


def double_zero_check(model: DdeModel, x, lam: float, mu: float):
    """Certify an equilibrium with a double zero at z = 0, without a basis.

    f, f1 and f2 are evaluated once, by ``linearize``; ``tb_existence_test``
    on (f1, f2) decides the double zero, and x is an equilibrium when |f|_inf
    <= its threshold ``TbExistence.tol``.  Returns (|f|_inf, range value,
    nondegeneracy value, ok), the middle two the existence test's (NaN where
    it stops before them): ok is False at any point that is no double zero.
    Only a non-finite or too ill-conditioned linearization raises
    NearSingular.
    """
    lin = _linearized(model, x, lam, mu)
    existence = tb_existence_test(lin.f1, lin.f2)
    res = float(np.max(np.abs(lin.f)))
    checks = existence.checks
    return (res, checks["range"].value, checks["nondegeneracy"].value,
            res <= existence.tol and existence.passed)


def _linearized(model: DdeModel, x, lam: float, mu: float) -> Linearization:
    """``linearize`` at the equilibrium x, under np.errstate: a non-finite f,
    f1 or f2 raises NearSingular with ``cond`` nan, as
    ``linalg.rank_and_nullspace`` does."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lin = linearize(model, x, lam, mu)
    if not all(np.isfinite(v).all() for v in (lin.f, lin.f1, lin.f2)):
        raise NearSingular(f"the linearization at x = {lin.x} is not finite", cond=np.nan)
    return lin


def _matrices(f1: np.ndarray, f2: np.ndarray, z: np.ndarray):
    """(k, M(z[k]), e^{-z[k]}) for slices k of z, M(z) = zI - f1 - f2 e^{-z},
    in batches of at most 2^20 matrix entries each."""
    n = f1.shape[0]
    step = max(1, 2 ** 20 // (n * n))
    for k in range(0, z.size, step):
        zk = z[k:k + step]
        e = np.exp(-zk)
        M = zk[:, None, None] * np.eye(n) - f1 - e[:, None, None] * f2
        yield slice(k, k + step), M, e


def _inverse_map(f1: np.ndarray, f2: np.ndarray, z: np.ndarray, fn, at_root) -> np.ndarray:
    """fn(X, e) at every entry of z, X = M(z)^-1 and e = e^{-z}, from one
    batched inverse per batch of ``_matrices``: ``at_root`` where M(z) is
    exactly singular (a zero pivot of its LU factors), that is at an exact
    root, and NaN where M(z) is not finite."""
    parts = []
    for _, M, e in _matrices(f1, f2, z):
        try:
            parts.append(fn(np.linalg.inv(M), e))
        except np.linalg.LinAlgError:
            finite = np.isfinite(M).all(axis=(1, 2))
            regular = finite & (np.linalg.slogdet(M)[0] != 0)
            part = np.where(finite, at_root, np.nan)
            part[regular] = fn(np.linalg.inv(M[regular]), e[regular])
            parts.append(part)
    return np.concatenate(parts)


def _log_det_slope(f1: np.ndarray, f2: np.ndarray, z: np.ndarray) -> np.ndarray:
    """tr(M(z)^-1 M'(z)) = Delta'(z) / Delta(z) at every entry of z, where
    M(z) = zI - f1 - f2 e^{-z} and M'(z) = I + e^{-z} f2, as tr(X) +
    e^{-z} <X, f2^T> from X = M(z)^-1; inf at an exact root."""
    n, f2t = f1.shape[0], f2.T.ravel()

    def slope(X, e):
        return np.einsum("kii->k", X) + e * (X.reshape(len(X), n * n) @ f2t)
    return _inverse_map(f1, f2, z, slope, complex(np.inf))


def _disk_sums(f1: np.ndarray, f2: np.ndarray, rho: float) -> tuple:
    """(count, s1, s2): the _NODES-point trapezoid rule for (1 / 2 pi i) times
    the contour integral of z^p Delta'(z) / Delta(z) over |z| = rho, p = 0, 1, 2,
    as the real part of its weighted sum over the nodes with Im z >= 0 (step 2
    of ``spectral_scan``).  A node at an exact root makes the sums non-finite.
    """
    with np.errstate(invalid="ignore"):
        sums = (_log_det_slope(f1, f2, rho * _UNIT) @ _UNIT_WEIGHTS).real
    return tuple(float(v) * rho ** p for p, v in enumerate(sums, 1))


def _cleared(f1: np.ndarray, f2: np.ndarray, w: np.ndarray, a: float, b: float) -> np.ndarray:
    """The half-width that step 3 of ``spectral_scan`` clears about each i w,
    from X = M(i w)^-1 and e = e^{-i w}: the larger of sqrt(rho^2 - delta^2),
    rho = 2 / (p + sqrt(p^2 + 2 q)) with p = |X + e X f2|_F and q =
    e^delta |X f2|_F, and (1 / |X|_F - a) / b; 0 where M(i w) is exactly
    singular, and NaN where neither is a number, as where X is not finite."""
    def radius(X, e):
        Y = X @ f2
        parts = np.concatenate([X + e[:, None, None] * Y, Y, X]).view(float)
        p, q, x = np.sqrt(np.einsum("kij,kij->k", parts, parts)).reshape(3, -1)
        rho = 2.0 / (p + np.sqrt(p * p + 2.0 * math.exp(_DELTA) * q))
        return np.fmax(np.sqrt(rho * rho - _DELTA * _DELTA), (1.0 / x - a) / b)
    return _inverse_map(f1, f2, 1j * w, radius, 0.0)


def _sigma_min(f1: np.ndarray, f2: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sigma_min(M(z)) at every entry of z, by one batched SVD per batch of
    ``_matrices``."""
    out = np.empty(z.shape)
    for k, M, _ in _matrices(f1, f2, z):
        out[k] = np.linalg.svd(M, compute_uv=False)[:, -1]
    return out


def spectral_scan(model: DdeModel, x, lam: float, mu: float):
    """The roots of Delta on the imaginary axis, found by excluding the rest of it.

    Delta(z) = det M(z), M(z) = zI - f1 - f2 e^{-z}, is in delay-1 time as in
    ``characteristic``.  "On the axis" means |Re z| <= delta = 1e-3.

    1. A root with Re z >= -delta has z v = f1 v + e^{-z} f2 v for a unit v,
       so |z| <= R = |f1|_2 + |f2|_2 e^delta.  Roots come in conjugate pairs,
       so Im z >= 0 is enough.  R > 512 raises InputError before any M(z) is
       formed.
    2. A 64-point trapezoid rule for (1/2 pi i) * contour integral of z^p
       tr(M^-1 M') = z^p Delta'/Delta on |z| = rho counts the roots inside
       (p = 0) and sums them and their squares (p = 1, 2); it converges
       exponentially (Trefethen and Weideman, SIAM Rev. 56, 2014).  f1 and
       f2 are real, as ``model._call`` rejects a complex callback
       result, so the term at a node's conjugate is the conjugate of the term
       at the node: the rule is evaluated at its 33 nodes with Im z >= 0, and
       the count and sums are real by symmetry (``_disk_sums``).  Two
       roots solve t^2 - s1 t + (s1^2 - s2) / 2 = 0, and are the double zero
       when both are within delta of 0.  rho halves from 0.3 until the count
       is within 0.01 of 0, or of 2 with the double zero, so a pair +-i w
       near it is left outside.  A count not within 0.01 of 0, 1 or 2 by
       rho = 4 delta raises NearSingular; other roots there seed step 4.
    3. On Im z in [sqrt(rho^2 - delta^2), R], take a centre i w and X =
       M(i w)^-1.  For |Re z| <= delta, M(z) = M(i w) + (z - i w) M'(i w)
       - eps f2 with |eps| <= |z - i w|^2 e^delta / 2, and X M'(i w) = X +
       e^{-i w} X f2.  So X M(z) = I + E, |E|_2 <= s p + s^2 q / 2 with
       s = |z - i w|, p = |X + e^{-i w} X f2|_F and q = e^delta |X f2|_F,
       and M(z) is nonsingular for s < rho_w = 2 / (p + sqrt(p^2 + 2 q)).
       The box [-delta, delta] x [w - r, w + r] then holds no root for r =
       sqrt(rho_w^2 - delta^2), and for r = (1 / |X|_F - a) / b as well:
       a + b r, a = delta + |f2|_2 (e^delta - 1), b = 1 + |f2|_2 e^delta,
       bounds |M(z) - M(i w)|_2 there (Weyl: sigma_min(A + E) >=
       sigma_min(A) - |E|_2, and sigma_min(M(i w)) >= 1 / |X|_F).  Each
       centre clears the larger (``_cleared``).  Near a simple root rho_w
       is close to the distance to it.  Intervals of half-width 0.25 lose
       that much from their middle, and the two pieces left go on, one
       batch of inverses per round, down to half-width 1e-3.  A radius
       that is not a number, as from a non-finite inverse, clears nothing.
    4. Newton on log Delta (step 1 / tr(M^-1 M'), with tr(M^-1 M') = tr(X)
       + e^{-z} <X, f2^T> from the same inverses) starts from every piece
       left.  A run that converges to |Re z| > delta, near a root off the
       strip, or, from step 3, into the disk, is dropped.  One that converges
       in the strip is a root when sigma_min(M(z)) <= 1e-12 (1 + |z| +
       |f1|_2 + |f2|_2 e^{-Re z}), 1 plus a bound on |M(z)|_2: relative where
       M is large, and unlike sigma_min / sigma_max, it holds at n = 1.  Any
       other run raises NearSingular: it does not show the axis clear.

    The exclusion holds up to the rounding of the inverses and norms, and
    the count only where it rounds with room to spare; a verified version
    would bound both (Rump).  SVDs give only |f1|_2, |f2|_2 and the
    acceptance of a root.  Returns (roots, warn):
    ``warn`` the axis roots other than the double zero, both of each pair,
    by modulus; ``roots`` is ``warn`` and, first, 0j when the disk holds the
    double zero.  f1 and f2 come from ``linearize``, which evaluates f too: a
    non-finite f, f1 or f2 raises NearSingular.
    """
    lin = _linearized(model, x, lam, mu)
    f1, f2 = lin.f1, lin.f2
    norm1, norm2 = np.linalg.norm(np.stack([f1, f2]), 2, axis=(1, 2))
    R = norm1 + norm2 * math.exp(_DELTA)
    if not R <= _R_MAX:
        raise InputError(f"the roots near the imaginary axis have |z| <= R = {R:.6g}, "
                         f"above the {_R_MAX:g} that spectral_scan covers")

    rho = 0.3
    while True:
        count, s1, s2 = _disk_sums(f1, f2, rho)
        k = round(count) if math.isfinite(count) else -1
        k = k if abs(count - k) <= 0.01 else -1
        d = cmath.sqrt(2 * s2 - s1 * s1) / 2 if k == 2 else 0
        disk = [s1] if k == 1 else [s1 / 2 + d, s1 / 2 - d] if k == 2 else []
        double_zero = k == 2 and max(map(abs, disk)) <= _DELTA
        if double_zero or k == 0 or rho / 2 < 4 * _DELTA:
            break
        rho /= 2
    if k not in (0, 1, 2):
        raise NearSingular(f"the roots of Delta in |z| < {rho:.3g} count to {count:.3g}, "
                           "not to an integer up to 2", cond=np.nan)
    disk = [] if double_zero else disk

    a, b = _DELTA + norm2 * math.expm1(_DELTA), 1.0 + norm2 * math.exp(_DELTA)
    lo = math.sqrt(rho * rho - _DELTA * _DELTA)
    edges = np.linspace(lo, R, math.ceil(max(0.0, R - lo) / (2 * _H_START)) + 1)
    left, right, seeds = edges[:-1], edges[1:], [disk]
    with np.errstate(all="ignore"):
        while left.size:
            c, h = (left + right) / 2, (right - left) / 2
            r = _cleared(f1, f2, c, a, b)
            live, last = ~(r >= h), h <= _H_MIN   # a NaN radius clears nothing
            seeds.append(1j * c[live & last])
            live &= ~last
            c, r = c[live], np.fmax(r[live], 0.0)
            left = np.concatenate([left[live], c + r])
            right = np.concatenate([c - r, right[live]])
    z = np.concatenate(seeds).astype(complex)
    in_disk = np.arange(z.size) < len(disk)

    done = np.zeros(z.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_STEPS):
            idx = np.flatnonzero(~done)
            if not idx.size:
                break
            step = 1.0 / _log_det_slope(f1, f2, z[idx])
            z[idx] -= step
            done[idx] = np.abs(step) <= 1e-12 * np.maximum(1.0, np.abs(z[idx]))
    keep = done & (np.abs(z.real) <= _DELTA) & (in_disk | (np.abs(z) >= rho))
    root = np.zeros(z.shape, dtype=bool)
    if keep.any():
        root[keep] = _sigma_min(f1, f2, z[keep]) <= 1e-12 * (
            1.0 + np.abs(z[keep]) + norm1 + norm2 * np.exp(-z[keep].real))
    lost = ~done | (keep != root) | (in_disk & (np.abs(z) >= rho))
    if lost.any():
        raise NearSingular(f"Newton ended at {z[lost][0]:.6g}, not at a root of Delta "
                           "nor off the imaginary axis", cond=np.nan)
    z = z[root]
    warn = []
    for r in z.tolist():
        r = complex(r.real, abs(r.imag))
        if not any(abs(r - q) <= 1e-8 * max(1.0, abs(r)) for q in warn):
            warn.append(r)
    warn += [r.conjugate() for r in warn if r.imag > 0]
    warn.sort(key=lambda r: (abs(r), r.imag))
    return ([0j] if double_zero else []) + warn, warn


def quadratic_check(model: DdeModel, solution: TbCandidate, basis: EigenBasis,
                    lin: Linearization | None = None) -> TbVerdict:
    """Evaluate the quadratic nondegeneracy conditions at a converged point.

    The conditions are those under which the point, with its chain and
    parameter values, is a regular root of the defining system: its
    Jacobian J has no null vector.  Block 1 of a null vector,
    S dx + f_lam dlam + f_mu dmu = 0 with S = f1 + f2, is solvable only when
    psi2 (f_lam dlam + f_mu dmu) = 0, so (given transversality,
    psi2 f_lam != 0) (dlam, dmu) = s (c, 1), c = c_lam_mu =
    -psi2 f_mu / psi2 f_lam, and dx = a phi1 + s nu, where nu = -S^+ (c f_lam
    + f_mu) (``EigenBasis.pinv``) solves S nu = -(c f_lam + f_mu) pinned by
    phi1.nu = 0.  Along it, S changes by a A + s B and f2 by a A2 + s B2,
    where (A1, A2) and (B1, B2) are f1 and f2 differentiated along
    (phi1, phi1, 0, 0) and (nu, nu, c, 1), A = A1 + A2 and B = B1 + B2.
    Blocks 2 and 3 of J are then solvable exactly when

        a m11 + s m12 = 0,  m11 = psi2 A phi1,  m12 = psi2 B phi1,
        a m21 + s m22 = 0,  m21 = psi1 A phi1 + psi2 A phi2 - psi2 A2 phi1,
                            m22 = psi1 B phi1 + psi2 B phi2 - psi2 B2 phi1,

    since psi2 S = 0 and psi1 S = psi2 (I + f2).  The normalization rows fix
    the rest of the null vector, so J is singular exactly when
    d0 = m11 m22 - m12 m21 vanishes.  The textbook side constraint
    psi2.nu = 0 is not always attainable by shifting along phi1 (psi2.phi1
    vanishes at a double-zero point), so psi2.nu is computed and reported
    instead of enforced.  "transversality" and "d0" hold when |value| > tol,
    and "equilibrium" when |f|_inf <= tol, tol = ``existence.tol``; the
    existence test alone decides the double zero and that its chain ends.
    Where transversality fails, c, nu and the kernel direction are not
    formed: ``c_lam_mu``, ``nu``, ``psi2_nu`` and ``d0`` are NaN, and "d0" fails;
    so are they, and transversality, on the NaN basis of a failed existence test.

    ``basis`` must be the one built at ``solution``: its linearization
    (f1, f2) and existence test are the point's, so the point's f1 and f2
    are evaluated once, by the caller.  ``lin`` is the point's
    ``Linearization`` when the caller has it (a ``NewtonReport`` carries
    one); f is evaluated to make it when it is not given.  The derivatives
    come from it: f_lam, f_mu and the two directions above, from one
    ``model._dirder`` call.  A ``basis`` whose f1 or f2 is not n x n is an
    InputError, and so is a ``lin`` whose x is not of length n, that is not
    ``model``'s, that is not at ``solution``'s x, lam and mu, or whose f1 and
    f2 are not ``basis``'s.
    """
    n = model.n
    if (shapes := (np.shape(basis.f1), np.shape(basis.f2))) != ((n, n), (n, n)):
        raise InputError(f"basis must be of {n} x {n} matrices, got shapes {shapes}")
    if lin is None:   # as linearize would build it, with the basis's f1 and f2
        x, (lam, mu) = _check_vec(model, solution.x, "x"), _check_params(solution.lam, solution.mu)
        lin = Linearization(model, x, lam, mu, _f(model, x, x, lam, mu), basis.f1, basis.f2)
    elif lin.x.shape != (n,):
        raise InputError(f"lin must be at a point of length {n}, got shape {lin.x.shape}")
    elif lin.model is not model:
        raise InputError("lin must be a linearization of model")
    elif not (lin.x is solution.x or np.array_equal(lin.x, solution.x)) or (
            lin.lam, lin.mu) != (solution.lam, solution.mu):
        raise InputError("lin must be at solution's x, lam and mu")
    elif not all(b is f or np.array_equal(b, f) for b, f in ((basis.f1, lin.f1),
                                                              (basis.f2, lin.f2))):
        raise InputError("basis must be built from lin's f1 and f2")
    tol = basis.existence.tol
    p1, p2 = basis.phi1, basis.phi2
    q1, q2 = basis.psi1, basis.psi2
    flam, fmu = lin.param_derivatives()

    cond_i = float(q2 @ flam)
    if abs(cond_i) > tol:
        c = -float(q2 @ fmu) / cond_i
        nu = -basis.pinv @ (c * flam + fmu)
        psi2_nu = float(q2 @ nu)

        (A1, A2), (B1, B2) = _dirder(model, lin.x, lin.x, lin.lam, lin.mu,
                                     (p1, p1, None, None), (nu, nu, c, 1.0))
        A, B = A1 + A2, B1 + B2

        m11 = q2 @ A @ p1
        m12 = q2 @ B @ p1
        m21 = q1 @ A @ p1 + q2 @ A @ p2 - q2 @ A2 @ p1
        m22 = q1 @ B @ p1 + q2 @ B @ p2 - q2 @ B2 @ p1
        d0 = float(m11 * m22 - m12 * m21)
    else:   # no kernel direction (nu, nu, c, 1) to differentiate along
        c = psi2_nu = d0 = math.nan
        nu = np.full(p1.shape, math.nan)

    res = float(np.max(np.abs(lin.f)))
    checks = {"transversality": Check(cond_i, tol, abs(cond_i) > tol),
              "d0": Check(d0, tol, abs(d0) > tol),
              "equilibrium": Check(res, tol, res <= tol)}
    return TbVerdict(basis.existence, checks, c, nu, psi2_nu)
