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

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .eigenstructure import normalization
from .errors import InputError, NearSingular
from .model import DdeModel, Linearization, _real, linearize


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
        object.__setattr__(self, "l1", _real(self.l1, "l1 has"))
        object.__setattr__(self, "l2", _real(self.l2, "l2 has"))
        if not (np.any(self.l1) or np.any(self.l2)):
            raise InputError("l1 and l2 must not both be zero")


@dataclass
class NewtonOptions:
    tol_res: float = 1e-12
    tol_step: float = 1e-13
    max_iter: int = 50


@dataclass
class NewtonReport:
    """How a Newton run ended: ``solution`` is its last iterate, and
    ``linearization`` f, f1 and f2 there, for a certificate (not in the JSON).

    ``final_cond`` is the condition number the last step was guarded with
    (nan if no step was taken): an upper bound on cond_2(J) when one proved
    the step safe, and the exact cond_2(J) otherwise, as when the step was
    refused (see ``linalg.solve_with_cond``).  From n = 24 up the bound is
    the structured step's, ||J||_F times a bound on ||J^-1||_F from the block
    elimination (``_structured_step``); on the lifted models at n = 8..48 it
    was 9 to 190 times cond_2(J).  Below n = 24, or where that bound cannot
    prove the step safe, it is the Frobenius bound ||J||_F ||J^-1||_F,
    between cond_2(J) and (3n+2) cond_2(J).
    """

    converged: bool
    iterations: int
    residual_history: list
    final_cond: float
    failure_reason: str | None
    solution: TbCandidate
    linearization: Linearization | None = field(default=None, repr=False, compare=False)


def _system(f, a, b, g1, g2, p1, p2, L: Functionals) -> np.ndarray:
    """H less the -1 of block 4 on its data; dH on their derivative tables.

    A datum's table has one row per component and one column per unknown.
    """
    n5, n6 = normalization(L.l1, L.l2, p1, p2, g1, g2)
    return np.concatenate([f, a, b - (g1 + p1), n5[None], n6[None]])


def _linearize(model: DdeModel, v: TbCandidate, L: Functionals) -> Linearization:
    """The linearization at v, after checking v's and L's vectors against model.n."""
    for label, vec in (("x", v.x), ("phi1", v.phi1), ("phi2", v.phi2),
                       ("l1", L.l1), ("l2", L.l2)):
        if np.shape(vec) != (model.n,):
            raise InputError(f"{label} must have length {model.n}, "
                             f"got shape {np.shape(vec)}")
    return linearize(model, v.x, v.lam, v.mu)


def residual(model: DdeModel, v: TbCandidate, L: Functionals,
             lin: Linearization | None = None) -> np.ndarray:
    """H(v), ``_system`` on the data at (x, x, lam, mu) with 1 taken off block 4.

    ``lin`` is the linearization at v when the caller has it (``newton_solve``
    shares one between the residual and the Jacobian at each iterate); it is
    evaluated, and v and L checked, when it is not given.
    """
    if lin is None:
        lin = _linearize(model, v, L)
    p1, p2, f2 = v.phi1, v.phi2, lin.f2
    S = lin.f1 + f2
    h = _system(lin.f, S @ p1, S @ p2, f2 @ p1, f2 @ p2, p1, p2, L)
    h[3 * model.n] -= 1.0
    return h


def jacobian(model: DdeModel, v: TbCandidate, L: Functionals,
             lin: Linearization | None = None) -> np.ndarray:
    """Jacobian of the defining system at v: ``_system`` on a derivative table.

    Each datum of ``_system`` is replaced by its derivative along the
    unknowns (x, phi1, phi2, lambda, mu).  Along x, S phi and f2 phi change
    by (Dx + Dy)(phi) and Dy(phi) applied to the step, where Dx(phi) and
    Dy(phi) are f1 + f2 differentiated along (phi, 0, 0, 0) and
    (0, phi, 0, 0); along lambda and mu, by f1 and f2 differentiated along
    (0, 0, 1, 0) and (0, 0, 0, 1) (``Linearization.along``).  So any model
    works: suppliers are used where present and finite differences of f1,
    f2 stand in for the rest.  ``lin`` is as for ``residual``: f1 and f2
    are its.
    """
    if lin is None:
        lin = _linearize(model, v, L)
    n = model.n
    p1, p2, f2 = np.asarray(v.phi1, dtype=float), np.asarray(v.phi2, dtype=float), lin.f2
    S = lin.f1 + f2
    flam, fmu = lin.param_derivatives()
    f1lam, f2lam = lin.along(dlam=1.0)
    f1mu, f2mu = lin.along(dmu=1.0)
    Slam = f1lam + f2lam
    Smu = f1mu + f2mu
    Dx1, Dy1 = np.add(*lin.along(p1)), np.add(*lin.along(dy=p1))
    Dx2, Dy2 = np.add(*lin.along(p2)), np.add(*lin.along(dy=p2))
    I = np.eye(n)
    columns = (slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n), 3 * n, 3 * n + 1)

    def table(dx, dp1, dp2, dlam, dmu):
        """A datum's derivative table; None stands for a zero block."""
        T = np.zeros((n, 3 * n + 2))
        for j, block in zip(columns, (dx, dp1, dp2, dlam, dmu)):
            if block is not None:
                T[:, j] = block
        return T

    return _system(
        table(S, None, None, flam, fmu),
        table(Dx1 + Dy1, S, None, Slam @ p1, Smu @ p1),
        table(Dx2 + Dy2, None, S, Slam @ p2, Smu @ p2),
        table(Dy1, f2, None, f2lam @ p1, f2mu @ p1),
        table(Dy2, None, f2, f2lam @ p2, f2mu @ p2),
        table(None, I, None, None, None),
        table(None, None, I, None, None),
        L)


#: ``newton_solve`` takes the structured step from this state dimension up:
#: over the steps of 30 lifted Newton runs (one BLAS thread) it took 1.13
#: times the dense guarded step's time at n = 20 and 0.89 times at n = 24
_STRUCTURED_N = 24


def _sq(*blocks) -> float:
    """The sum of the squares of the blocks' entries."""
    return sum(float(np.vdot(B, B)) for B in blocks)


def _structured_step(J: np.ndarray, r: np.ndarray, phi1: np.ndarray, beta: np.ndarray):
    """The step -J^-1 r by block elimination, if its bound on cond_2(J) proves it safe.

    J is block lower triangular in (x, phi1, phi2), with S = J's first
    diagonal block on all three diagonal blocks, and bordered by the
    (lambda, mu) columns and the two normalization rows.  Each diagonal
    block is solved with the bordered M = [[S, beta], [gamma^T, 0]],
    gamma = phi1/||phi1|| (Keller's bordering): M (u_i, s_i) = (w_i, t_i).
    The forward stages carry u affine in z = (t_1, t_2, t_3, dlam, dmu),
    and the slacks s_i = 0 with the normalization rows give E z = -e.
    Then J^-1 = [[X, 0], [0, 0]] - F E^-1 G, where X maps the first 3n
    entries of the right-hand side to u, F = du/dz stacked over the
    identity on (dlam, dmu), and G = [[Z, 0], [R X, -I]] with Z those
    entries' map to the slacks and R the normalization rows' first 3n
    columns.  So cond_2(J) <= ||J||_F (||X||_F + ||F E^-1||_F ||G||_F),
    from the blocks of X and Z, which are M^-1 and M^-1 K M^-1 products,
    up to rounding in the computed inverses, as for ``linalg``'s bound.

    Returns (step, bound, next beta).  The step is None, leaving the step
    to the dense guard, when phi1 is zero or not finite, M or E is
    singular, or the bound is not within COND_LIMIT.  The next beta is the
    left-null estimate from M^-1's last row (Govaerts' adaptive borders).
    """
    n = phi1.shape[0]
    norm = math.sqrt(_sq(phi1))
    if not 0.0 < norm < math.inf:
        return None, math.inf, beta
    M = np.zeros((n + 1, n + 1))
    M[:n, :n], M[:n, n], M[n, :n] = J[:n, :n], beta, phi1 / norm
    try:
        Mi = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return None, math.inf, beta
    q = Mi[n, :n]
    q_norm = math.sqrt(_sq(q))
    if 0.0 < q_norm < math.inf:
        beta = q / q_norm
    P, m = Mi[:, :n], 3 * n
    # columns: the constant, z, then the first 3n entries of the right-hand
    # side, whose images are X (in the rows of u) and Z (in the slacks)
    U, s = np.zeros((m, 6 + m)), np.zeros((3, 6 + m))
    for i in range(3):
        rows, c = slice(i * n, (i + 1) * n), 6 + i * n
        w = -(J[rows, :i * n] @ U[:i * n, :c])
        w[:, 0] -= r[rows]
        w[:, 4:6] -= J[rows, m:]
        ui = P @ w
        ui[:, 1 + i] += Mi[:, n]
        U[rows, :c], U[rows, c:c + n] = ui[:n], P[:n]
        s[i, :c], s[i, c:c + n] = ui[n], q
    e = np.vstack([s, J[m:, :m] @ U])
    e[3:, 0] += r[m:]
    e[3:, 4:6] += J[m:, m:]
    try:
        Ei = np.linalg.inv(e[:, 1:6])
    except np.linalg.LinAlgError:
        return None, math.inf, beta
    z = -Ei @ e[:, 0]
    # F E^-1 stacks U's z-columns times E^-1 over E^-1's (dlam, dmu) rows
    bound = math.sqrt(_sq(J)) * (math.sqrt(_sq(U[:, 6:])) + math.sqrt(
        _sq(U[:, 1:6] @ Ei, Ei[3:]) * (_sq(e[:, 6:]) + 2.0)))
    if not bound <= linalg.COND_LIMIT:
        return None, bound, beta
    return np.concatenate([U[:, 0] + U[:, 1:6] @ z, z[3:]]), bound, beta


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
    out ends the run as "diverged" instead.  From n = _STRUCTURED_N up, a
    step is the structured one (``_structured_step``), taken when its bound
    proves it safe.  Otherwise, and at every step below that n, the step
    is ``linalg.solve_with_cond``'s.  Either way a step is refused exactly
    when the exact cond_2(J) exceeds ``linalg.COND_LIMIT``.  Each iterate's
    linearization (f, f1, f2) is evaluated once and shared by its residual
    and its Jacobian; v0's and L's vectors are checked once, at the start.
    """
    opts = opts or NewtonOptions()

    structured = model.n >= _STRUCTURED_N
    border = np.full(model.n, model.n ** -0.5)   # any fixed unit vector to start
    v = v0
    lin = _linearize(model, v, L)
    r = residual(model, v, L, lin)
    res_hist = [float(np.max(np.abs(r)))]
    final_cond = np.nan

    for k in range(opts.max_iter):
        if res_hist[-1] <= opts.tol_res:
            return NewtonReport(True, k, res_hist, final_cond, None, v, lin)
        if res_hist[-1] > 1e12 or not np.isfinite(res_hist[-1]):
            return NewtonReport(False, k, res_hist, final_cond, "diverged", v, lin)
        J = jacobian(model, v, L, lin)
        step = None
        if structured:
            step, final_cond, border = _structured_step(J, r, v.phi1, border)
        if step is None:
            try:
                step, final_cond = linalg.solve_with_cond(J, -r)
            except NearSingular as exc:
                return NewtonReport(False, k, res_hist, exc.cond, "singular_jacobian", v,
                                    lin)
        vnew = v.pack() + step
        v = TbCandidate.unpack(vnew, model.n)
        lin = linearize(model, v.x, v.lam, v.mu)
        r = residual(model, v, L, lin)
        res_hist.append(float(np.max(np.abs(r))))
        if np.max(np.abs(step)) <= opts.tol_step * max(1.0, np.max(np.abs(vnew))):
            converged = res_hist[-1] <= opts.tol_res
            return NewtonReport(converged, k + 1, res_hist, final_cond,
                                None if converged else "stalled", v, lin)

    converged = res_hist[-1] <= opts.tol_res
    return NewtonReport(converged, opts.max_iter, res_hist, final_cond,
                        None if converged else "max_iter", v, lin)
