"""The reduced defining system for quadratic double-zero points and its Newton solver.

The unknown is v = (x, phi1, phi2, lambda, mu) in R^(3n+2).  The residual
stacks the equilibrium condition, the two Jordan-chain relations, and two
scalar normalizations built from a fixed pair of row functionals l1, l2.
A regular root of this system is exactly a quadratic Takens-Bogdanov point
together with its eigendata, so plain undamped Newton converges quadratically
from nearby starts.
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
    """How a Newton run ended: ``solution`` is its last iterate."""

    converged: bool
    iterations: int
    residual_history: list
    final_cond: float
    failure_reason: str | None
    solution: TbCandidate


def residual(model: DdeModel, v: TbCandidate, L: Functionals) -> np.ndarray:
    """H(v): five stacked blocks, all derivatives taken at (x, x, lam, mu)."""
    x, p1, p2 = v.x, v.phi1, v.phi2
    lam, mu = v.lam, v.mu
    f1 = jac_x(model, x, x, lam, mu)
    f2 = jac_y(model, x, x, lam, mu)
    S = f1 + f2
    b4, b5 = normalization(L.l1, L.l2, f2, p1, p2)
    return np.concatenate([
        eval_f(model, x, x, lam, mu),
        S @ p1,
        S @ p2 - (f2 @ p1 + p1),
        [b4 - 1.0, b5],
    ])


def jacobian(model: DdeModel, v: TbCandidate, L: Functionals) -> np.ndarray:
    """Jacobian of the defining system at v, assembled block by block.

    The x-columns of the chain and normalization rows are contractions of
    the second-derivative matrices Dx, Dy along phi1 and phi2
    (``hessian_blocks``), so any model works: suppliers are used where
    present and finite differences of f1, f2 stand in for the rest.
    """
    n = model.n
    x, p1, p2 = v.x, v.phi1, v.phi2
    lam, mu = v.lam, v.mu
    l1, l2 = L.l1, L.l2
    f1 = jac_x(model, x, x, lam, mu)
    f2 = jac_y(model, x, x, lam, mu)
    S = f1 + f2
    B2 = f2 + np.eye(n)
    flam = param_der(model, "lam", x, x, lam, mu)
    fmu = param_der(model, "mu", x, x, lam, mu)
    f1lam = param_der(model, "1lam", x, x, lam, mu)
    f2lam = param_der(model, "2lam", x, x, lam, mu)
    f1mu = param_der(model, "1mu", x, x, lam, mu)
    f2mu = param_der(model, "2mu", x, x, lam, mu)

    Dx1, Dy1 = hessian_blocks(model, x, lam, mu, p1)
    Dx2, Dy2 = hessian_blocks(model, x, lam, mu, p2)

    J = np.zeros((3 * n + 2, 3 * n + 2))
    r1, r2, r3 = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    cx, c1, c2 = r1, r2, r3
    clam, cmu = 3 * n, 3 * n + 1

    J[r1, cx] = S
    J[r1, clam] = flam
    J[r1, cmu] = fmu

    J[r2, cx] = Dx1 + Dy1
    J[r2, c1] = S
    J[r2, clam] = (f1lam + f2lam) @ p1
    J[r2, cmu] = (f1mu + f2mu) @ p1

    J[r3, cx] = Dx2 + Dy2 - Dy1
    J[r3, c1] = -B2
    J[r3, c2] = S
    J[r3, clam] = (f1lam + f2lam) @ p2 - f2lam @ p1
    J[r3, cmu] = (f1mu + f2mu) @ p2 - f2mu @ p1

    # scalar normalization rows: the x-gradient of l @ f2 @ p is l @ Dy(p)
    J[3 * n, cx] = (l1 - 0.5 * l2) @ Dy1
    J[3 * n, c1] = l1 - 0.5 * l2 @ f2 + l1 @ f2
    J[3 * n, clam] = -0.5 * l2 @ f2lam @ p1 + l1 @ f2lam @ p1
    J[3 * n, cmu] = -0.5 * l2 @ f2mu @ p1 + l1 @ f2mu @ p1

    J[3 * n + 1, cx] = (l2 / 6.0 - 0.5 * l1) @ Dy1 + (l1 - 0.5 * l2) @ Dy2
    J[3 * n + 1, c1] = -0.5 * l1 @ f2 + l2 @ f2 / 6.0
    J[3 * n + 1, c2] = l1 + l1 @ f2 - 0.5 * l2 @ f2
    J[3 * n + 1, clam] = (-0.5 * l1 @ f2lam @ p1 + l1 @ f2lam @ p2
                          + l2 @ f2lam @ p1 / 6.0 - 0.5 * l2 @ f2lam @ p2)
    J[3 * n + 1, cmu] = (-0.5 * l1 @ f2mu @ p1 + l1 @ f2mu @ p2
                         + l2 @ f2mu @ p1 / 6.0 - 0.5 * l2 @ f2mu @ p2)
    return J


def newton_solve(model: DdeModel, v0: TbCandidate, L: Functionals,
                 opts: NewtonOptions | None = None) -> NewtonReport:
    """Undamped Newton on the defining system.

    Stops when the residual infinity norm drops below tol_res, or the step
    is negligible relative to the iterate, or max_iter is hit.  ``converged``
    means the residual met tol_res: a negligible step above it ends the run
    as "stalled".  A near singular Jacobian aborts the run; regularizing
    would silently change the problem being solved.
    """
    opts = opts or NewtonOptions()

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
            step, final_cond = linalg.solve_with_cond(J, -r)
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
