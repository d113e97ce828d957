"""The reduced defining system for quadratic double-zero points and its Newton solver.

The unknown is v = (x, phi1, phi2, lambda, mu) in R^(3n+2).  The residual
stacks the equilibrium condition, the two Jordan-chain relations, and two
scalar normalizations built from a fixed pair of row functionals l1, l2.
A regular root of this system is exactly a quadratic Takens-Bogdanov point
together with its eigendata, so plain undamped Newton converges quadratically
from nearby starts.

The system is written once, in ``_system``, linear in its data f, S phi1,
S phi2, f2 phi1, f2 phi2, phi1, phi2 (S = f1 + f2): ``residual`` applies it
to the data and ``jacobian`` to their derivatives, so J = dH by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .eigenstructure import normalization
from .errors import InputError, NearSingular
from .model import DdeModel, eval_f, hessian_blocks, jac_x, jac_y, param_der


@dataclass(frozen=True)
class TbCandidate:
    """One iterate: equilibrium, chain vectors, and the two parameters."""

    x: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    lam: float
    mu: float

    def pack(self) -> np.ndarray:
        return np.concatenate([self.x, self.phi1, self.phi2, [self.lam, self.mu]])

    @staticmethod
    def unpack(v: np.ndarray, n: int) -> "TbCandidate":
        v = np.asarray(v, dtype=float)
        if v.shape != (3 * n + 2,):
            raise InputError(f"candidate vector must have length {3 * n + 2}")
        return TbCandidate(x=v[:n].copy(), phi1=v[n:2 * n].copy(),
                           phi2=v[2 * n:3 * n].copy(),
                           lam=float(v[3 * n]), mu=float(v[3 * n + 1]))


@dataclass(frozen=True)
class Functionals:
    """The fixed row vectors l1, l2 entering the scalar normalizations."""

    l1: np.ndarray
    l2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "l1", np.asarray(self.l1, dtype=float))
        object.__setattr__(self, "l2", np.asarray(self.l2, dtype=float))
        if not (np.any(self.l1) or np.any(self.l2)):
            raise InputError("l1 and l2 must not both be zero")


@dataclass
class NewtonOptions:
    tol_res: float = 1e-12
    tol_step: float = 1e-13
    max_iter: int = 50


@dataclass
class NewtonReport:
    """How a Newton run ended: ``solution`` is its last iterate.

    ``final_cond`` is the condition number the last step was guarded with
    (nan if no step was taken): an upper bound on cond_2(J) when one proved
    the step safe, and the exact cond_2(J) otherwise, as when the step was
    refused (see ``linalg.SolveGuard``).  The bound is the anchored one,
    from the inverse of an earlier Jacobian of the run, which has no fixed
    ratio to cond_2(J), or else the Frobenius bound ||J||_F ||J^-1||_F,
    between cond_2(J) and (3n+2) cond_2(J).
    """

    converged: bool
    iterations: int
    residual_history: list
    final_cond: float
    failure_reason: str | None
    solution: TbCandidate


def _system(f, a, b, g1, g2, p1, p2, L: Functionals) -> np.ndarray:
    """H less the -1 of block 4 on its data; dH on their derivative tables.

    A datum's table has one row per component and one column per unknown.
    """
    n5, n6 = normalization(L.l1, L.l2, p1, p2, g1, g2)
    return np.concatenate([f, a, b - (g1 + p1), n5[None], n6[None]])


def residual(model: DdeModel, v: TbCandidate, L: Functionals) -> np.ndarray:
    """H(v), ``_system`` on the data at (x, x, lam, mu) with 1 taken off block 4."""
    x, p1, p2, lam, mu = v.x, v.phi1, v.phi2, v.lam, v.mu
    f1, f2 = jac_x(model, x, x, lam, mu), jac_y(model, x, x, lam, mu)
    S = f1 + f2
    h = _system(eval_f(model, x, x, lam, mu), S @ p1, S @ p2, f2 @ p1, f2 @ p2,
                p1, p2, L)
    h[3 * model.n] -= 1.0
    return h


def jacobian(model: DdeModel, v: TbCandidate, L: Functionals) -> np.ndarray:
    """Jacobian of the defining system at v: ``_system`` on a derivative table.

    Each datum of ``_system`` is replaced by its derivative along the
    unknowns (x, phi1, phi2, lambda, mu).  The x-derivatives of S phi and
    f2 phi are the second-derivative matrices Dx(phi) + Dy(phi) and Dy(phi)
    (``hessian_blocks``), so any model works: suppliers are used where
    present and finite differences of f1, f2 stand in for the rest.
    """
    n = model.n
    x, p1, p2, lam, mu = v.x, v.phi1, v.phi2, v.lam, v.mu
    f1, f2 = jac_x(model, x, x, lam, mu), jac_y(model, x, x, lam, mu)
    S = f1 + f2
    f2lam = param_der(model, "2lam", x, x, lam, mu)
    f2mu = param_der(model, "2mu", x, x, lam, mu)
    Slam = param_der(model, "1lam", x, x, lam, mu) + f2lam
    Smu = param_der(model, "1mu", x, x, lam, mu) + f2mu
    Dx1, Dy1 = hessian_blocks(model, x, lam, mu, p1)
    Dx2, Dy2 = hessian_blocks(model, x, lam, mu, p2)
    O, I, o = np.zeros((n, n)), np.eye(n), np.zeros(n)

    def table(dx, dp1, dp2, dlam, dmu):
        return np.column_stack([dx, dp1, dp2, dlam, dmu])

    return _system(
        table(S, O, O, param_der(model, "lam", x, x, lam, mu),
              param_der(model, "mu", x, x, lam, mu)),
        table(Dx1 + Dy1, S, O, Slam @ p1, Smu @ p1),
        table(Dx2 + Dy2, O, S, Slam @ p2, Smu @ p2),
        table(Dy1, f2, O, f2lam @ p1, f2mu @ p1),
        table(Dy2, O, f2, f2lam @ p2, f2mu @ p2),
        table(O, I, O, o, o),
        table(O, O, I, o, o),
        L)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def newton_solve(model: DdeModel, v0: TbCandidate, L: Functionals,
                 opts: NewtonOptions | None = None) -> NewtonReport:
    """Undamped Newton on the defining system.

    Stops when the residual infinity norm drops below tol_res, or the step
    is negligible relative to the iterate, or max_iter is hit.  ``converged``
    means the residual met tol_res: a negligible step above it ends the run
    as "stalled".  A near singular Jacobian aborts the run; regularizing
    would silently change the problem being solved.  numpy's floating-point
    warnings are off while the model is evaluated: an iterate that runs far
    out ends the run as "diverged" instead.  One ``linalg.SolveGuard``
    guards every step of the run, so successive Jacobians share inverses;
    the steps are ``np.linalg.solve``'s all the same.
    """
    opts = opts or NewtonOptions()

    guard = linalg.SolveGuard()
    v = v0
    r = residual(model, v, L)
    res_hist = [float(np.max(np.abs(r)))]
    final_cond = np.nan

    for k in range(opts.max_iter):
        if res_hist[-1] <= opts.tol_res:
            return NewtonReport(True, k, res_hist, final_cond, None, v)
        if res_hist[-1] > 1e12 or not np.isfinite(res_hist[-1]):
            return NewtonReport(False, k, res_hist, final_cond, "diverged", v)
        J = jacobian(model, v, L)
        try:
            step, final_cond = guard.solve(J, -r)
        except NearSingular as exc:
            return NewtonReport(False, k, res_hist, exc.cond, "singular_jacobian", v)
        vnew = v.pack() + step
        v = TbCandidate.unpack(vnew, model.n)
        r = residual(model, v, L)
        res_hist.append(float(np.max(np.abs(r))))
        if np.max(np.abs(step)) <= opts.tol_step * max(1.0, np.max(np.abs(vnew))):
            converged = res_hist[-1] <= opts.tol_res
            return NewtonReport(converged, k + 1, res_hist, final_cond,
                                None if converged else "stalled", v)

    converged = res_hist[-1] <= opts.tol_res
    return NewtonReport(converged, opts.max_iter, res_hist, final_cond,
                        None if converged else "max_iter", v)
