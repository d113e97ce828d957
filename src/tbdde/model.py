"""DDE model abstraction with a uniform derivative interface.

A model describes ``x'(t) = f(x(t), x(t - tau), lambda, mu)`` with a single
constant delay.  All spectral and defining-system computations work in the
timescale where the delay equals one: with t = tau*s the equation becomes
``x'(s) = tau * f(x(s), x(s - 1), lambda, mu)``.  Every value this module
serves (f and all its derivatives) is therefore tau times the model's
callback, which leaves equilibria and parameter values untouched but
changes the linearization, and with it the chain conditions and Delta.

Derivatives are served analytically when the model supplies them and by
central finite differences otherwise.  First derivatives use a step of
``eps**(1/3)``, second derivatives ``eps**(1/4)``, both relative to the
magnitude of the perturbed component.  Second derivatives along a direction
also come as whole matrices (``hessian_blocks``), from which the defining
system's Jacobian and the certificate take their blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InputError

_EPS = np.finfo(float).eps
H1 = _EPS ** (1.0 / 3.0)   # first-derivative step factor
H2 = _EPS ** (1.0 / 4.0)   # second-derivative step factor

VecFunc = Callable[..., np.ndarray]

_SECOND_KEYS = ("11", "12", "21", "22")
_PARAM_KEYS = ("lam", "mu", "1lam", "2lam", "1mu", "2mu")


@dataclass(frozen=True)
class DdeModel:
    """Right-hand side of a two-parameter DDE plus optional derivative suppliers.

    Every supplier takes the same leading arguments ``(x, y, lam, mu)`` where
    ``y`` stands for the delayed state.  Bilinear second-derivative suppliers
    take two extra direction vectors ``u, w``; the first direction is always
    contracted against the slot named first (``d12(x, y, lam, mu, u, w)``
    means ``d^2 f / dx dy [u, w]`` with ``u`` an x-direction).
    """

    n: int
    tau: float
    f: VecFunc
    d1: Optional[VecFunc] = None
    d2: Optional[VecFunc] = None
    dlam: Optional[VecFunc] = None
    dmu: Optional[VecFunc] = None
    d11: Optional[VecFunc] = None
    d12: Optional[VecFunc] = None
    d21: Optional[VecFunc] = None
    d22: Optional[VecFunc] = None
    d1lam: Optional[VecFunc] = None
    d2lam: Optional[VecFunc] = None
    d1mu: Optional[VecFunc] = None
    d2mu: Optional[VecFunc] = None
    name: str = "unnamed"
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"state dimension must be >= 1, got {self.n}")
        if not self.tau > 0:
            raise InputError(f"delay must be positive, got {self.tau}")


def _check_vec(model: DdeModel, v, label: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (model.n,):
        raise InputError(f"{label} must have length {model.n}, got shape {v.shape}")
    return v


def _delay1(model: DdeModel, out) -> np.ndarray:
    """A callback result in delay-1 time: ``tau * out``, exactly ``out`` at tau = 1."""
    out = np.asarray(out, dtype=float)
    return out if model.tau == 1.0 else model.tau * out


def eval_f(model: DdeModel, x, y, lam: float, mu: float) -> np.ndarray:
    """Evaluate the right-hand side; with ``x == y`` this is the steady-state residual."""
    x = _check_vec(model, x, "x")
    y = _check_vec(model, y, "y")
    out = _delay1(model, model.f(x, y, lam, mu))
    if out.shape != (model.n,):
        raise InputError(f"model f returned shape {out.shape}, expected ({model.n},)")
    return out


def _fd_jac(func, base: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of ``func`` (vector valued) at ``base``."""
    n = base.size
    cols = []
    for i in range(n):
        h = H1 * max(1.0, abs(base[i]))
        ei = np.zeros(n)
        ei[i] = h
        cols.append((func(base + ei) - func(base - ei)) / (2.0 * h))
    return np.column_stack(cols)


def jac_x(model: DdeModel, x, y, lam: float, mu: float) -> np.ndarray:
    """d f / d x, analytic when supplied, else central differences."""
    x = _check_vec(model, x, "x")
    y = _check_vec(model, y, "y")
    if model.d1 is not None:
        return _delay1(model, model.d1(x, y, lam, mu))
    return _fd_jac(lambda xv: eval_f(model, xv, y, lam, mu), x)


def jac_y(model: DdeModel, x, y, lam: float, mu: float) -> np.ndarray:
    """d f / d y (delayed slot), analytic when supplied, else central differences."""
    x = _check_vec(model, x, "x")
    y = _check_vec(model, y, "y")
    if model.d2 is not None:
        return _delay1(model, model.d2(x, y, lam, mu))
    return _fd_jac(lambda yv: eval_f(model, x, yv, lam, mu), y)


def _slot_diff(model: DdeModel, slot: str, mats: str, x, y, lam: float, mu: float,
               u) -> np.ndarray:
    """Central difference along ``u`` of a sum of first-derivative matrices.

    ``slot`` "1" moves x and "2" moves the delayed state y; ``mats`` names the
    matrices summed, "1" for ``jac_x`` and "2" for ``jac_y``.  The step is
    ``eps**(1/4)`` relative to the moved argument and to max|u|.
    """
    unorm = np.max(np.abs(u))
    if unorm == 0.0:
        return np.zeros((model.n, model.n))
    h = H2 * max(1.0, np.max(np.abs(x if slot == "1" else y))) / unorm

    def mat(s):
        xs, ys = (x + s * u, y) if slot == "1" else (x, y + s * u)
        return sum((jac_x if m == "1" else jac_y)(model, xs, ys, lam, mu) for m in mats)

    return (mat(h) - mat(-h)) / (2.0 * h)


def second_dirder(model: DdeModel, which: str, x, y, lam: float, mu: float,
                  u, w) -> np.ndarray:
    """Bilinear second-derivative action.

    ``which`` selects the slot pair: "11" is d^2 f/dx^2 [u, w], "12" is
    d^2 f/dx dy [u, w] with ``u`` in the x slot, "21" the mirror image, "22"
    the pure delayed-slot second derivative.  The fallback differences the
    first-derivative matrix along ``u`` and contracts with ``w``.
    """
    which = str(which)
    if which not in _SECOND_KEYS:
        raise InputError(f"which must be one of {_SECOND_KEYS}, got {which!r}")
    x = _check_vec(model, x, "x")
    y = _check_vec(model, y, "y")
    u = _check_vec(model, u, "u")
    w = _check_vec(model, w, "w")

    supplier = getattr(model, "d" + which)
    if supplier is not None:
        return _delay1(model, supplier(x, y, lam, mu, u, w))
    # which[0] names the differencing slot, which[1] the matrix being differenced
    return _slot_diff(model, which[0], which[1], x, y, lam, mu, u) @ w


def hessian_blocks(model: DdeModel, x, lam: float, mu: float, u):
    """Second-derivative matrices (Dx, Dy) along ``u`` at y = x.

    Dx @ w = (f11 + f12)[u, w] and Dy @ w = (f21 + f22)[u, w]: Dx is the
    derivative of ``jac_x + jac_y`` along ``u`` in the x slot, Dy in the
    delayed slot, and (Dx + Dy) @ w is the second derivative of
    g(x) = f(x, x) along u and w.  Columns come from the d11..d22 suppliers
    where present; the matrices a slot has no supplier for are differenced
    once, together.
    """
    x = _check_vec(model, x, "x")
    u = _check_vec(model, u, "u")
    e = np.eye(model.n)
    out = []
    for slot in "12":
        D = np.zeros((model.n, model.n))
        missing = ""
        for m in "12":
            supplier = getattr(model, "d" + slot + m)
            if supplier is None:
                missing += m
            else:
                D += _delay1(model, np.column_stack([supplier(x, x, lam, mu, u, ej)
                                                     for ej in e]))
        if missing:
            D += _slot_diff(model, slot, missing, x, x, lam, mu, u)
        out.append(D)
    return out[0], out[1]


def param_der(model: DdeModel, which: str, x, y, lam: float, mu: float):
    """Parameter derivatives: "lam"/"mu" give vectors, "1lam" etc. matrices."""
    if which not in _PARAM_KEYS:
        raise InputError(f"which must be one of {_PARAM_KEYS}, got {which!r}")
    x = _check_vec(model, x, "x")
    y = _check_vec(model, y, "y")

    supplier = getattr(model, "d" + which)
    if supplier is not None:
        return _delay1(model, supplier(x, y, lam, mu))

    wrt_lam = which.endswith("lam")
    p = lam if wrt_lam else mu
    h = (H1 if which in ("lam", "mu") else H2) * max(1.0, abs(p))

    if which in ("lam", "mu"):
        def g(pv):
            return eval_f(model, x, y, pv, mu) if wrt_lam else eval_f(model, x, y, lam, pv)
    else:
        mat = jac_x if which[0] == "1" else jac_y

        def g(pv):
            return mat(model, x, y, pv, mu) if wrt_lam else mat(model, x, y, lam, pv)

    return (g(p + h) - g(p - h)) / (2.0 * h)
