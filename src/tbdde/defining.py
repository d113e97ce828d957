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
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import linalg
from .eigenstructure import normalization
from .errors import InputError, NearSingular
from .model import DdeModel, Linearization, _check_vec, _dirder, _real, linearize


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
        v = _real(v, "candidate vector has")
        if v.shape != (3 * n + 2,):
            raise InputError(f"candidate vector must have length {3 * n + 2}")
        return TbCandidate(x=v[:n].copy(), phi1=v[n:2 * n].copy(),
                           phi2=v[2 * n:3 * n].copy(),
                           lam=float(v[3 * n]), mu=float(v[3 * n + 1]))


@dataclass(frozen=True)
class Functionals:
    """The fixed row vectors l1, l2 entering the scalar normalizations: real,
    finite and not both zero, or an InputError naming them."""

    l1: np.ndarray
    l2: np.ndarray

    def __post_init__(self):
        for label in ("l1", "l2"):
            row = _real(getattr(self, label), f"{label} has")
            if not np.isfinite(row).all():
                raise InputError(f"{label} must be finite, got {row}")
            object.__setattr__(self, label, row)
        if not (np.any(self.l1) or np.any(self.l2)):
            raise InputError("l1 and l2 must not both be zero")


@dataclass
class NewtonOptions:
    """``newton_solve``'s stopping rules: tol_res and tol_step finite real
    numbers >= 0, max_iter an integer >= 0 (not a bool), or an InputError
    naming the field."""

    tol_res: float = 1e-12
    tol_step: float = 1e-13
    max_iter: int = 50

    def __post_init__(self):
        for f in fields(self):   # an option's kind is its default's, float or int
            value, kind = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) or not (
                    isinstance(value, numbers.Integral) if kind is int
                    else isinstance(value, numbers.Real) and math.isfinite(value)):
                raise InputError(f"{f.name} must be a finite {kind.__name__}, got {value!r}")
            if value < 0:
                raise InputError(f"{f.name} must be >= 0, got {value}")


@dataclass
class NewtonReport:
    """How a Newton run ended: ``solution`` is its last iterate, and
    ``linearization`` f, f1 and f2 there, for a certificate (not in the JSON).

    ``final_cond`` is the condition number the last step was guarded with
    (nan if no step was taken): an upper bound on cond_2(J) when one proved
    the step safe, and the exact cond_2(J) otherwise, as when the step was
    refused (see ``linalg.solve_with_cond``).  From n = 20 up the bound is
    the structured step's, ||J||_F times a bound on ||J^-1||_F from the block
    elimination (``_structured_step``); on the lifted models at n = 8..48 it
    was 9 to 190 times cond_2(J).  Below n = 20, or where that bound cannot
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


def _checked(model: DdeModel, v: TbCandidate, L: Functionals) -> tuple:
    """(lin, phi1, phi2): the linearization at v (which checks x, lam and mu),
    after checking that v's chain vectors and L's rows are model.n real
    numbers each."""
    p1, p2, *_ = (_check_vec(model, vec, label) for label, vec in (
        ("phi1", v.phi1), ("phi2", v.phi2), ("l1", L.l1), ("l2", L.l2)))
    return linearize(model, v.x, v.lam, v.mu), p1, p2


def residual(model: DdeModel, v: TbCandidate, L: Functionals) -> np.ndarray:
    """H(v), ``_system`` on the data at (x, x, lam, mu) with 1 taken off block 4.

    v's vectors and L's rows are checked, and f, f1 and f2 are evaluated
    once at v, by ``linearize``.
    """
    return _residual(*_checked(model, v, L), L)


def _residual(lin: Linearization, p1, p2, L: Functionals) -> np.ndarray:
    """``residual`` on checked arguments, the chain vectors given apart."""
    f2 = lin.f2
    S = lin.f1 + f2
    h = _system(lin.f, S @ p1, S @ p2, f2 @ p1, f2 @ p2, p1, p2, L)
    h[3 * lin.model.n] -= 1.0
    return h


def jacobian(model: DdeModel, v: TbCandidate, L: Functionals) -> np.ndarray:
    """Jacobian of the defining system at v: ``_system`` on derivative tables.

    Each datum of ``_system`` is replaced by its derivative along the
    unknowns (x, phi1, phi2, lambda, mu), the seven tables slices of one
    array.  Along x, S phi and f2 phi change by (Dx + Dy)(phi) and Dy(phi)
    applied to the step, where Dx(phi) and Dy(phi) are f1 + f2
    differentiated along (phi, 0, 0, 0) and (0, phi, 0, 0); along lambda and
    mu, by f1 and f2 differentiated along (0, 0, 1, 0) and (0, 0, 0, 1): six
    directions, from one ``model._dirder`` call.  So any model works:
    suppliers are used where present and finite differences of f1, f2
    stand in for the rest.  The checks and the linearization at v, from
    which f1, f2, f_lambda and f_mu come, are as for ``residual``.
    """
    return _jacobian(*_checked(model, v, L), L)


def _jacobian(lin: Linearization, p1, p2, L: Functionals) -> np.ndarray:
    """``jacobian`` on checked arguments, the chain vectors given apart."""
    model, f2 = lin.model, lin.f2
    n, m = model.n, 3 * model.n
    flam, fmu = lin.param_derivatives()
    (Slam, f2lam), (Smu, f2mu), *D = _dirder(
        model, lin.x, lin.x, lin.lam, lin.mu, (None, None, 1.0, None),
        (None, None, None, 1.0), (p1, None, None, None), (None, p1, None, None),
        (p2, None, None, None), (None, p2, None, None), base=(lin.f1, f2))
    Slam += f2lam   # S differentiated along lambda and mu, summed in place
    Smu += f2mu
    T = np.zeros((7, n, m + 2))
    S = np.add(lin.f1, f2, out=T[0, :, :n])
    T[1, :, n:2 * n] = T[2, :, 2 * n:m] = S
    T[3, :, n:2 * n] = T[4, :, 2 * n:m] = f2
    T[0, :, m], T[0, :, m + 1] = flam, fmu
    for k, p, (dx, dx2), (dy, dy2) in ((1, p1, *D[:2]), (2, p2, *D[2:])):
        # Dy(phi), then (Dx + Dy)(phi), summed into the tables
        Dy = np.add(dy, dy2, out=T[k + 2, :, :n])
        np.add(dx, dx2, out=T[k, :, :n])
        T[k, :, :n] += Dy
        T[k, :, m], T[k, :, m + 1] = Slam @ p, Smu @ p
        T[k + 2, :, m], T[k + 2, :, m + 1] = f2lam @ p, f2mu @ p
    # the identity blocks: entries (i, n + i) of T[5] and (i, 2n + i) of T[6]
    T[5].reshape(-1)[n::m + 3] = T[6].reshape(-1)[2 * n::m + 3] = 1.0
    return _system(*T, L)


#: ``newton_solve`` takes the structured step from this state dimension up:
#: at the iterates of three lifted Newton runs (``tools/layer_cost.py``, one
#: BLAS thread, median of three runs) it took 1.17 times the dense guarded
#: step's time at n = 16, and 0.86 times at n = 20, faster there in each run
_STRUCTURED_N = 20


def _sq(*blocks) -> float:
    """The sum of the squares of the blocks' entries, a strided view read in place."""
    return sum(float(np.vdot(B, B) if B.flags.c_contiguous else np.einsum("ij,ij->", B, B))
               for B in blocks)


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

    ``TestStructuredStep`` pins it: each step within 1e-12 of the dense
    step, and a bound of at least ||J||_F ||J^-1||_F, so at least cond_2(J).
    No frozen ``SOLVED`` or ``VERDICTS`` data reaches it: those are
    predator-prey runs, at n = 2, below ``_STRUCTURED_N``.
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
    # side, whose images are X (in the rows of u) and Z (in the slacks);
    # rows: u, then E's, the slacks and the normalization rows
    G = np.zeros((m + 5, 6 + m))
    U, e = G[:m], G[m:]
    for i in range(3):
        rows, c = slice(i * n, (i + 1) * n), 6 + i * n
        w = -(J[rows, :i * n] @ U[:i * n, :c])
        w[:, 0] -= r[rows]
        w[:, 4:6] -= J[rows, m:]
        ui = P @ w
        ui[:, 1 + i] += Mi[:, n]
        U[rows, :c], U[rows, c:c + n] = ui[:n], P[:n]
        e[i, :c], e[i, c:c + n] = ui[n], q
    np.matmul(J[m:, :m], U, out=e[3:])
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

    ``converged`` means the residual infinity norm met tol_res.  Else one
    that is not finite or above 1e12 ends the run as "diverged", at the
    start or after any step; a finite one, as "stalled" after a step
    negligible relative to the iterate, or as "max_iter" after max_iter
    steps.  A near singular Jacobian aborts the run; regularizing would
    silently change the problem being solved.  numpy's floating-point
    warnings are off while the model is evaluated.  From n = _STRUCTURED_N
    up, a step is the structured one (``_structured_step``), taken when its
    bound proves it safe.  Otherwise, and at every step below that n, the
    step is ``linalg.solve_with_cond``'s.  Either way a step is refused
    exactly when the exact cond_2(J) exceeds ``linalg.COND_LIMIT``.  Each
    iterate's linearization (f, f1, f2) is evaluated once and shared by its
    residual and its Jacobian.  v0's and L's vectors are checked once, at the
    start; the loop then runs unchecked on one packed iterate, whose slices
    are the report's solution.
    """
    opts = opts or NewtonOptions()
    n, m = model.n, 3 * model.n
    lin, p1, p2 = _checked(model, v0, L)
    w = np.concatenate([lin.x, p1, p2, [lin.lam, lin.mu]])   # the iterate, packed

    def report(converged, k, cond, reason):   # its solution views the iterate
        return NewtonReport(converged, k, res_hist, cond, reason, TbCandidate(
            w[:n], w[n:2 * n], w[2 * n:m], float(w[m]), float(w[m + 1])), lin)

    structured = n >= _STRUCTURED_N
    border = np.full(n, n ** -0.5)   # any fixed unit vector to start
    r = _residual(lin, p1, p2, L)
    res_hist = [float(np.abs(r).max())]
    final_cond = np.nan

    k, stalled = 0, False
    while True:   # the run's ending, decided here alone
        if res_hist[-1] <= opts.tol_res:
            return report(True, k, final_cond, None)
        if not res_hist[-1] <= 1e12:   # not finite, or above 1e12
            return report(False, k, final_cond, "diverged")
        if stalled or k == opts.max_iter:
            return report(False, k, final_cond, "stalled" if stalled else "max_iter")
        J = _jacobian(lin, p1, p2, L)
        step = None
        if structured:
            step, final_cond, border = _structured_step(J, r, p1, border)
        if step is None:
            try:
                step, final_cond = linalg.solve_with_cond(J, -r)
            except NearSingular as exc:
                return report(False, k, exc.cond, "singular_jacobian")
        w = w + step
        p1, p2 = w[n:2 * n], w[2 * n:m]
        lin = linearize(model, w[:n], float(w[m]), float(w[m + 1]))
        r = _residual(lin, p1, p2, L)
        res_hist.append(float(np.abs(r).max()))
        k += 1
        stalled = np.abs(step).max() <= opts.tol_step * max(1.0, np.abs(w).max())
