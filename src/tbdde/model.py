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
magnitude of the perturbed component.

A ``Linearization`` is the model at one steady state (x, x, lambda, mu):
f, f1 = df/dx and f2 = df/dy, evaluated once, which the defining system's
residual and Jacobian and the certificate share.  The second and parameter
derivatives at that point come from its table, in one pass that calls each
supplier or callback once per point it needs: the parameter derivatives
from their suppliers or from f, f1, f2 at lambda +- h and mu +- h, and the
second-derivative matrices along a direction phi from the bilinear
suppliers or from f1, f2 at (x +- h phi, x) and (x, x +- h phi).  The
public functions below (``eval_f``, ``jac_x``, ``jac_y``, ``second_dirder``,
``param_der``) check their arguments and then run the same code on a single
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"state dimension must be >= 1, got {self.n}")
        if not 0 < self.tau < math.inf:
            raise InputError(f"delay must be positive and finite, got {self.tau}")


def _check_vec(model: DdeModel, v, label: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (model.n,):
        raise InputError(f"{label} must have length {model.n}, got shape {v.shape}")
    return v


def _delay1(model: DdeModel, out) -> np.ndarray:
    """A callback result in delay-1 time: ``tau * out``, exactly ``out`` at tau = 1."""
    out = np.asarray(out, dtype=float)
    return out if model.tau == 1.0 else model.tau * out


# -- the values, on checked arguments: x, y and directions are float vectors
#    of length model.n

def _f(model: DdeModel, x, y, lam, mu) -> np.ndarray:
    out = _delay1(model, model.f(x, y, lam, mu))
    if out.shape != (model.n,):
        raise InputError(f"model f returned shape {out.shape}, expected ({model.n},)")
    return out


def _fd_jac(func, base: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of ``func`` (vector valued) at ``base``."""
    n = base.size
    J = np.empty((n, n))
    e = np.zeros(n)
    for i in range(n):
        h = H1 * max(1.0, abs(base[i]))
        e[i] = h
        J[:, i] = (func(base + e) - func(base - e)) / (2.0 * h)
        e[i] = 0.0
    return J


def _first(model: DdeModel, slot: str, x, y, lam, mu) -> np.ndarray:
    """f1 (``slot`` "1", the x slot) or f2 ("2", the delayed slot)."""
    supplier = model.d1 if slot == "1" else model.d2
    if supplier is not None:
        return _delay1(model, supplier(x, y, lam, mu))
    if slot == "1":
        return _fd_jac(lambda xv: _f(model, xv, y, lam, mu), x)
    return _fd_jac(lambda yv: _f(model, x, yv, lam, mu), y)


def _step(base, u):
    """The step h for differencing along ``u`` from ``base``, None for u = 0.

    ``eps**(1/4)`` relative to max|base| and to max|u|.
    """
    unorm = np.abs(u).max()
    return None if unorm == 0.0 else H2 * max(1.0, np.abs(base).max()) / unorm


def _slot_diff(model: DdeModel, slot: str, mats: str, x, y, lam, mu, u, h) -> np.ndarray:
    """Central difference along ``u`` of a sum of first-derivative matrices.

    ``slot`` "1" moves x and "2" moves the delayed state y, by +- h u (h from
    ``_step``); ``mats`` names the matrices summed, "1" for f1 and "2" for
    f2, each evaluated once per moved point.
    """
    if h is None:
        return np.zeros((model.n, model.n))

    def mat(s):
        xs, ys = (x + s * u, y) if slot == "1" else (x, y + s * u)
        out = _first(model, mats[0], xs, ys, lam, mu)
        return out + _first(model, mats[1], xs, ys, lam, mu) if len(mats) == 2 else out

    return (mat(h) - mat(-h)) / (2.0 * h)


def _blocks(model: DdeModel, x, lam, mu, u):
    """(Dx, Dy) along ``u`` at y = x (see ``Linearization.hessian_blocks``)."""
    out = []
    e, h = None, _step(x, u)   # y = x: both slots move by the same step
    for slot in "12":
        D, missing = None, ""
        for m in "12":
            supplier = getattr(model, "d" + slot + m)
            if supplier is None:
                missing += m
                continue
            # column j of the supplier's matrix along u is its value at (u, e_j)
            e = np.eye(model.n) if e is None else e
            M = np.empty((model.n, model.n))
            for j in range(model.n):
                M[:, j] = supplier(x, x, lam, mu, u, e[j])
            M = _delay1(model, M)
            D = M if D is None else D + M
        if missing:
            M = _slot_diff(model, slot, missing, x, x, lam, mu, u, h)
            D = M if D is None else D + M
        out.append(D)
    return out[0], out[1]


def _param(model: DdeModel, which: str, x, y, lam, mu):
    """One parameter derivative (see ``param_der``), from its supplier or by differences."""
    supplier = getattr(model, "d" + which)
    if supplier is not None:
        return _delay1(model, supplier(x, y, lam, mu))

    wrt_lam = which.endswith("lam")
    p = lam if wrt_lam else mu
    if which in ("lam", "mu"):
        h = H1 * max(1.0, abs(p))

        def g(pv):
            return _f(model, x, y, pv, mu) if wrt_lam else _f(model, x, y, lam, pv)
    else:
        h = H2 * max(1.0, abs(p))
        slot = which[0]

        def g(pv):
            return (_first(model, slot, x, y, pv, mu) if wrt_lam
                    else _first(model, slot, x, y, lam, pv))

    return (g(p + h) - g(p - h)) / (2.0 * h)


# -- one point's linearization and its derivative table

class Linearization(NamedTuple):
    """The model at the steady state (x, x, lam, mu): f, f1 = df/dx, f2 = df/dy.

    ``x`` is a float vector of length ``model.n``.  Build it with
    ``linearize``, which checks x once; the table methods then run on it
    without checking again.  (A named tuple, not a frozen dataclass: every
    command-line run imports the package afresh, and creating a dataclass
    costs about a millisecond.)
    """

    model: DdeModel
    x: np.ndarray
    lam: float
    mu: float
    f: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

    def param_derivatives(self) -> tuple:
        """(f_lam, f_mu, f1_lam, f2_lam, f1_mu, f2_mu): vectors, then matrices.

        Each comes from its supplier when present; otherwise f (step
        eps**(1/3)) or f1, f2 (step eps**(1/4)) are evaluated once at
        lam +- h or mu +- h and differenced.
        """
        model, x, lam, mu = self.model, self.x, self.lam, self.mu
        return tuple(_param(model, which, x, x, lam, mu) for which in _PARAM_KEYS)

    def hessian_blocks(self, u) -> tuple:
        """(Dx, Dy) along the float vector ``u``: Dx @ w = (f11 + f12)[u, w] and
        Dy @ w = (f21 + f22)[u, w], the derivatives of f1 + f2 along ``u`` in
        the x slot and in the delayed slot, so (Dx + Dy) @ w is the second
        derivative of g(x) = f(x, x) along u and w.
        """
        return _blocks(self.model, self.x, self.lam, self.mu, u)


def linearize(model: DdeModel, x, lam: float, mu: float) -> Linearization:
    """f, f1 and f2 at (x, x, lam, mu), each evaluated once, x checked once."""
    x = _check_vec(model, x, "x")
    return Linearization(model, x, lam, mu, _f(model, x, x, lam, mu),
                         _first(model, "1", x, x, lam, mu),
                         _first(model, "2", x, x, lam, mu))


# -- the public entry points: one value each, arguments checked

def eval_f(model: DdeModel, x, y, lam: float, mu: float) -> np.ndarray:
    """Evaluate the right-hand side; with ``x == y`` this is the steady-state residual."""
    return _f(model, _check_vec(model, x, "x"), _check_vec(model, y, "y"), lam, mu)


def jac_x(model: DdeModel, x, y, lam: float, mu: float) -> np.ndarray:
    """d f / d x, analytic when supplied, else central differences."""
    return _first(model, "1", _check_vec(model, x, "x"), _check_vec(model, y, "y"),
                  lam, mu)


def jac_y(model: DdeModel, x, y, lam: float, mu: float) -> np.ndarray:
    """d f / d y (delayed slot), analytic when supplied, else central differences."""
    return _first(model, "2", _check_vec(model, x, "x"), _check_vec(model, y, "y"),
                  lam, mu)


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
    return _slot_diff(model, which[0], which[1], x, y, lam, mu, u,
                      _step(x if which[0] == "1" else y, u)) @ w


def param_der(model: DdeModel, which: str, x, y, lam: float, mu: float):
    """Parameter derivatives: "lam"/"mu" give vectors, "1lam" etc. matrices.

    A supplier is used when present.  Otherwise "lam"/"mu" difference f and
    "1lam", "2lam", "1mu", "2mu" difference f1 or f2, each evaluated once
    at p +- h for the parameter p.  ``Linearization.param_derivatives``
    gives all six at a steady state.
    """
    if which not in _PARAM_KEYS:
        raise InputError(f"which must be one of {_PARAM_KEYS}, got {which!r}")
    return _param(model, which, _check_vec(model, x, "x"), _check_vec(model, y, "y"),
                  lam, mu)
