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

Every second and parameter derivative is a derivative of f1 = df/dx or
f2 = df/dy along one direction (dx, dy, dlam, dmu) of (x, y, lambda, mu),
and every request wants both: the supplier ``ddir`` returns the pair
(f1', f2') of matrices, so along x alone its first matrix is f11[dx, .],
along lambda alone f1_lambda.  One function, ``_dirder``, serves the pairs
along any number of directions, each from one ``ddir`` call or, when that is
missing, from one central difference of f1 and f2 at the same shifted points.

A ``Linearization`` is the model at one steady state (x, x, lambda, mu):
f, f1 and f2, evaluated once, which the defining system's residual and
Jacobian and every certificate share: ``linearize`` is how the package
evaluates a point.  ``param_derivatives`` gives f_lambda and f_mu there,
and ``along(dx, dy, dlam, dmu)`` f1 and f2 differentiated along one
direction.  The functions below (``eval_f``, ``jac_x``, ``jac_y``,
``second_dirder``, ``param_der``), which the package neither calls nor
exports, serve one value at any (x, y, lam, mu), checked by
``_check_point``.  A vector argument that is not n real numbers, a lam, mu
or direction number that is not one real number, or a supplier's result
not real or of the wrong shape, is an ``InputError`` naming it.  A callback
that raises ZeroDivisionError or OverflowError, as Python float arithmetic
does where numpy's gives inf or nan, has the value NaN.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import InputError

_EPS = np.finfo(float).eps
_FLOAT = np.dtype(float)
H1 = _EPS ** (1.0 / 3.0)   # first-derivative step factor
H2 = _EPS ** (1.0 / 4.0)   # second-derivative step factor

VecFunc = Callable[..., np.ndarray]

_SECOND_KEYS = ("11", "12", "21", "22")
_PARAM_KEYS = ("lam", "mu", "1lam", "2lam", "1mu", "2mu")


@dataclass(frozen=True)
class DdeModel:
    """Right-hand side of a two-parameter DDE plus optional derivative suppliers.

    Every supplier takes the same leading arguments ``(x, y, lam, mu)`` where
    ``y`` stands for the delayed state.  ``d1`` and ``d2`` return the n x n
    matrices f1 = df/dx and f2 = df/dy, ``dlam`` and ``dmu`` the vectors
    df/dlam and df/dmu.  ``ddir`` takes a direction ``(dx, dy, dlam, dmu)``
    after them, vectors dx, dy of length n and numbers dlam, dmu, and returns
    the derivatives of f1 and f2 along it as a pair of n x n matrices,
    anything ``np.asarray`` makes a (2, n, n) array of: along (u, 0, 0, 0),
    ``ddir(...)[0] @ w`` is d^2 f / dx^2 [u, w].
    """

    n: int
    tau: float
    f: VecFunc
    d1: Optional[VecFunc] = None
    d2: Optional[VecFunc] = None
    dlam: Optional[VecFunc] = None
    dmu: Optional[VecFunc] = None
    ddir: Optional[VecFunc] = None
    name: str = "unnamed"

    # The suppliers ddir replaced: not fields, so the constructor rejects
    # them, and always None; they stay while bench/tracer.py reads them.
    d11 = d12 = d21 = d22 = d1lam = d2lam = d1mu = d2mu = None

    def __post_init__(self):
        # numpy's integer and float scalars are numbers.Integral and numbers.Real
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral):
            raise InputError(f"state dimension must be an integer, got {self.n!r}")
        if self.n < 1:
            raise InputError(f"state dimension must be >= 1, got {self.n}")
        if isinstance(self.tau, bool) or not isinstance(self.tau, numbers.Real):
            raise InputError(f"delay must be a real number, got {self.tau!r}")
        if not 0 < self.tau < math.inf:
            raise InputError(f"delay must be positive and finite, got {self.tau}")


def _real(v, what: str) -> np.ndarray:
    """``v`` as a float array, or InputError led by ``what`` ("x has",
    "model f returned") unless v is real numbers: a complex or bool v is not cast."""
    try:
        v = np.asarray(v)
    except (TypeError, ValueError) as exc:   # a ragged nesting
        raise InputError(f"{what} no array of numbers: {exc}") from exc
    if v.dtype is not _FLOAT:   # float64, the usual value, needs no check
        if v.dtype.kind not in "iuf":
            raise InputError(f"{what} {v.dtype} values, not real numbers")
        v = v.astype(float)
    return v


def _check_num(v, label: str) -> float:
    """``v`` as a float, or InputError naming ``label`` unless v is one real
    number (the built-in callbacks' ``float`` would take a string)."""
    if type(v) is not float:   # the usual value needs no check
        v = _real(v, f"{label} has")
        if v.shape != ():
            raise InputError(f"{label} must be a number, got shape {v.shape}")
        v = float(v)
    return v


def _check_params(lam, mu) -> tuple:
    """(lam, mu) as floats, or InputError naming the one that is not one real number."""
    return _check_num(lam, "lam"), _check_num(mu, "mu")


def _check_vec(model: DdeModel, v, label: str) -> np.ndarray:
    v = _real(v, f"{label} has")
    if v.shape != (model.n,):
        raise InputError(f"{label} must have length {model.n}, got shape {v.shape}")
    return v


def _check_point(model: DdeModel, x, y, lam, mu) -> tuple:
    """(x, y, lam, mu) checked: x and y as model.n real numbers, lam and mu as one."""
    return _check_vec(model, x, "x"), _check_vec(model, y, "y"), *_check_params(lam, mu)


def _call(model: DdeModel, name: str, shape: tuple, *args) -> np.ndarray:
    """The callback ``name`` ("f", "d1", ...) at ``args``, in delay-1 time
    (``tau`` times its result, exactly the result at tau = 1): real numbers
    of ``shape``.

    Python float arithmetic raises ZeroDivisionError or OverflowError where
    numpy's returns inf or nan; such a call's value is NaN, warned of (or
    raised) as np.errstate says for an invalid value.
    """
    try:
        out = getattr(model, name)(*args)
    except (ZeroDivisionError, OverflowError):
        out = np.full(shape, np.divide(0.0, 0.0))
    if type(out) is not np.ndarray or out.dtype is not _FLOAT:   # float64 needs no cast
        out = _real(out, f"model {name} returned")
    if out.shape != shape:
        raise InputError(f"model {name} returned shape {out.shape}, expected {shape}")
    return out if model.tau == 1.0 else model.tau * out


# -- the values, on checked arguments: x, y and directions are float vectors
#    of length model.n

def _f(model: DdeModel, x, y, lam, mu) -> np.ndarray:
    return _call(model, "f", (model.n,), x, y, lam, mu)


_SLOTS = {"1": 0, "2": 1, "lam": 2, "mu": 3}   # slot -> its argument's place in (x, y, lam, mu)


def _first(model: DdeModel, slot: str, x, y, lam, mu) -> np.ndarray:
    """f1 (``slot`` "1", the x slot), f2 ("2", the delayed slot), f_lam
    ("lam") or f_mu ("mu"): the supplier ``"d" + slot``'s value, else a
    central difference of f in that argument with step
    eps**(1/3) max(1, |component|), column by column for x or y."""
    n, k = model.n, _SLOTS[slot]
    if getattr(model, "d" + slot) is not None:
        return _call(model, "d" + slot, (n, n) if k < 2 else (n,), x, y, lam, mu)
    point = [x, y, lam, mu]
    base = point[k]

    def f_at(v):   # f with the slot's argument v
        point[k] = v
        return _f(model, *point)

    if k > 1:
        h = H1 * max(1.0, abs(base))
        return (f_at(base + h) - f_at(base - h)) / (2.0 * h)
    J = np.empty((n, n))
    e = np.zeros(n)
    for i in range(n):
        h = H1 * max(1.0, abs(base[i]))
        e[i] = h
        J[:, i] = (f_at(base + e) - f_at(base - e)) / (2.0 * h)
        e[i] = 0.0
    return J


def _dirder(model: DdeModel, x, y, lam, mu, *directions) -> list:
    """(f1', f2') along each of ``directions``: f1 and f2 differentiated along
    each (dx, dy, dlam, dmu), a component None being zero, as a list of
    pairs of n x n matrices that the caller owns (and may sum in place).

    Each pair comes from one ``ddir`` call when supplied, else from one
    central difference of f1 and f2 at (x, y, lam, mu) +- h (dx, dy, dlam, dmu),
    with h = eps**(1/4) max(1, max|moved base|) / max|direction|, where the
    moved base is each of x, y, lam, mu that the direction moves.  max|v| is
    taken once per call for each vector v, however many directions share it.
    """
    n = model.n
    if model.ddir is not None:
        zero = np.zeros(n)
        return [tuple(np.array(_call(model, "ddir", (2, n, n), x, y, lam, mu,
                                     zero if dx is None else dx, zero if dy is None else dy,
                                     dlam or 0.0, dmu or 0.0)))
                for dx, dy, dlam, dmu in directions]
    bases, peaks, out = (x, y, lam, mu), {}, []

    def peak(v):   # max|v| of a vector, once per vector
        if id(v) not in peaks:
            peaks[id(v)] = np.abs(v).max()
        return peaks[id(v)]

    for direction in directions:
        top, size, moved = 1.0, 0.0, []
        for i, d in enumerate(direction):
            if d is not None:
                top = max(top, peak(bases[i]) if i < 2 else abs(bases[i]))
                size = max(size, peak(d) if i < 2 else abs(d))
                moved.append(i)
        if size == 0.0:
            out.append(tuple(np.zeros((2, n, n))))
            continue
        h = H2 * top / size
        hi, lo = list(bases), list(bases)
        for i in moved:
            e = h * direction[i]
            hi[i], lo[i] = bases[i] + e, bases[i] - e
        f1d = _first(model, "1", *hi) - _first(model, "1", *lo)
        f2d = _first(model, "2", *hi) - _first(model, "2", *lo)
        f1d /= 2.0 * h
        f2d /= 2.0 * h
        out.append((f1d, f2d))
    return out


# -- one point's linearization and its derivatives

class Linearization(NamedTuple):
    """The model at the steady state (x, x, lam, mu): f, f1 = df/dx, f2 = df/dy.

    ``x`` is a float vector of length ``model.n``.  Build it with
    ``linearize``, which checks x once; its methods then run on it
    without checking again, ``along`` checking only its direction.  (A
    named tuple, not a frozen dataclass: every command-line run imports the
    package afresh, and creating a dataclass costs about a millisecond.)
    """

    model: DdeModel
    x: np.ndarray
    lam: float
    mu: float
    f: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

    def param_derivatives(self) -> tuple:
        """(f_lam, f_mu), from ``dlam`` and ``dmu`` or differences of f
        (step eps**(1/3))."""
        model, x, lam, mu = self.model, self.x, self.lam, self.mu
        return _first(model, "lam", x, x, lam, mu), _first(model, "mu", x, x, lam, mu)

    def along(self, dx=None, dy=None, dlam=None, dmu=None) -> tuple:
        """(f1', f2'): f1 and f2 differentiated along (dx, dy, dlam, dmu); a
        component left None is zero.

        Along (u, u, 0, 0), (f1' + f2') @ w is the second derivative of
        g(x) = f(x, x) along u and w; along (0, 0, 1, 0), f1' and f2' are
        f1_lam and f2_lam.
        """
        model = self.model
        direction = (None if dx is None else _check_vec(model, dx, "dx"),
                     None if dy is None else _check_vec(model, dy, "dy"),
                     None if dlam is None else _check_num(dlam, "dlam"),
                     None if dmu is None else _check_num(dmu, "dmu"))
        return _dirder(model, self.x, self.x, self.lam, self.mu, direction)[0]


def linearize(model: DdeModel, x, lam: float, mu: float) -> Linearization:
    """f, f1 and f2 at (x, x, lam, mu), each evaluated once, x, lam and mu
    checked once."""
    x, (lam, mu) = _check_vec(model, x, "x"), _check_params(lam, mu)
    return Linearization(model, x, lam, mu, _f(model, x, x, lam, mu),
                         _first(model, "1", x, x, lam, mu),
                         _first(model, "2", x, x, lam, mu))


# -- one value each, arguments checked: only the benchmark calls these

def eval_f(model: DdeModel, x, y, lam: float, mu: float) -> np.ndarray:
    """Evaluate the right-hand side; with ``x == y`` this is the steady-state residual."""
    return _f(model, *_check_point(model, x, y, lam, mu))


def jac_x(model: DdeModel, x, y, lam: float, mu: float) -> np.ndarray:
    """d f / d x, analytic when supplied, else central differences."""
    return _first(model, "1", *_check_point(model, x, y, lam, mu))


def jac_y(model: DdeModel, x, y, lam: float, mu: float) -> np.ndarray:
    """d f / d y (delayed slot), analytic when supplied, else central differences."""
    return _first(model, "2", *_check_point(model, x, y, lam, mu))


def second_dirder(model: DdeModel, which: str, x, y, lam: float, mu: float,
                  u, w) -> np.ndarray:
    """Bilinear second-derivative action.

    ``which`` selects the slot pair: "11" is d^2 f/dx^2 [u, w], "12" is
    d^2 f/dx dy [u, w] with ``u`` in the x slot, "21" the mirror image, "22"
    the pure delayed-slot second derivative: the derivative along ``u`` in
    slot ``which[0]`` of f1 or f2 (``which[1]``), applied to ``w``.
    """
    which = str(which)
    if which not in _SECOND_KEYS:
        raise InputError(f"which must be one of {_SECOND_KEYS}, got {which!r}")
    point = _check_point(model, x, y, lam, mu)
    u, w = _check_vec(model, u, "u"), _check_vec(model, w, "w")
    direction = (u, None, None, None) if which[0] == "1" else (None, u, None, None)
    (pair,) = _dirder(model, *point, direction)
    return pair[int(which[1]) - 1] @ w


def param_der(model: DdeModel, which: str, x, y, lam: float, mu: float):
    """Parameter derivatives: "lam"/"mu" give vectors, "1lam" etc. matrices.

    "lam"/"mu" come from ``dlam``/``dmu`` when supplied, else differences
    of f at p +- h for the parameter p; "1lam", "2lam", "1mu", "2mu" are
    f1 or f2 along the parameter (``ddir``, else differences).
    At a steady state, ``Linearization.param_derivatives`` gives the vectors
    and ``Linearization.along`` the matrices.
    """
    if which not in _PARAM_KEYS:
        raise InputError(f"which must be one of {_PARAM_KEYS}, got {which!r}")
    point = _check_point(model, x, y, lam, mu)
    if which[0] in "12":   # "1lam": f1 along (0, 0, 1, 0), the pair's first matrix
        direction = (None, None, 1.0, None) if which[1:] == "lam" else (None, None, None, 1.0)
        return _dirder(model, *point, direction)[0][int(which[0]) - 1]
    return _first(model, which, *point)
