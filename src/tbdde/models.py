"""Builtin example models with full analytic derivatives.

Two models ship with the package:

* ``predator-prey`` -- a delayed predator-prey system with Holling-type
  response.  With growth rate, interference and conversion constants at 1
  it has a double-zero point at prey = predator = 1 for death rate D = 1/2
  and carrying capacity K = 2.  D and K are not constants of the model: they
  are the free parameters lambda and mu, which the solver varies.
* ``synthetic-tb`` -- a polynomial two-dimensional DDE engineered so the
  origin at zero parameters is a quadratic double-zero point with exactly
  representable eigendata; its reference quantities were derived in exact
  arithmetic (tools/synthetic_oracle.py) and frozen into the test suite.

A builder's keyword arguments are its model's constants, with their defaults
(``predator_prey(r=1.3)``); ``build(name, {"r": 1.3})`` passes them by name.

Every callback runs on Python floats: it reads each input once (``x.tolist()``,
``y.item(0)``, ``float(lam)``) and returns one ``np.array`` built from them.
A solve calls the callbacks over a hundred times, and on 2-vectors numpy's
scalar arithmetic and small matrix products cost several times more than the
arithmetic itself (synthetic-tb's ``f`` took 11 us as ``A @ x + B @ y + ...``
and takes about 1 us so).  Where Python float arithmetic raises (division by
K = 0, a square that overflows) and numpy's would give inf or nan, the
package reads the call's value as NaN (``model._call``).
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .errors import InputError
from .model import DdeModel


def _checked(positive: bool, **constants) -> None:
    """Raise InputError on the first of ``constants`` that is not a finite
    real number (a bool is not), or with ``positive`` not a positive one."""
    low = 0 if positive else -math.inf
    for name, value in constants.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or not low < value < math.inf:
            raise InputError(f"{name} must be a {'positive ' * positive}finite number, "
                             f"got {value!r}")


def predator_prey(r=1.0, a=1.0, mu_growth=1.0, tau=1.0) -> DdeModel:
    """x1' = r x1 (1 - x1/K) - y1 x2 / (a + y1^2),
    x2' = x2 (m y1 / (a + y1^2) - D),  with lambda = D, mu = K and
    m = mu_growth; r, a, m and the delay tau are positive."""
    _checked(True, r=r, a=a, mu_growth=mu_growth, tau=tau)
    m = mu_growth

    def g(y1):
        return y1 / (a + y1 * y1)

    def gp(y1):
        return (a - y1 * y1) / (a + y1 * y1) ** 2

    def gpp(y1):
        return 2.0 * y1 * (y1 * y1 - 3.0 * a) / (a + y1 * y1) ** 3

    def f(x, y, D, K):
        (x0, x1), y0, K = x.tolist(), y.item(0), float(K)
        return np.array([
            r * x0 * (1.0 - x0 / K) - y0 * x1 / (a + y0 * y0),
            x1 * (m * g(y0) - float(D)),
        ])

    def d1(x, y, D, K):
        g0 = g(y.item(0))
        return np.array([
            [r * (1.0 - 2.0 * x.item(0) / float(K)), -g0],
            [0.0, m * g0 - float(D)],
        ])

    def d2(x, y, D, K):
        x1, g1 = x.item(1), gp(y.item(0))
        return np.array([
            [-x1 * g1, 0.0],
            [x1 * m * g1, 0.0],
        ])

    def dlam(x, y, D, K):
        return np.array([0.0, -x.item(1)])

    def dmu(x, y, D, K):
        return np.array([r * x.item(0) ** 2 / float(K) ** 2, 0.0])

    def ddir(x, y, D, K, dx, dy, dD, dK):
        (x0, x1), (dx0, dx1), dy0 = x.tolist(), dx.tolist(), dy.item(0)
        K, dD, dK, y0 = float(K), float(dD), float(dK), y.item(0)
        g1, g2 = gp(y0), gpp(y0)
        return np.array([
            [[-(2.0 * r / K) * dx0 + 2.0 * r * x0 / K ** 2 * dK, -g1 * dy0],
             [0.0, m * g1 * dy0 - dD]],
            [[-g1 * dx1 - x1 * g2 * dy0, 0.0],
             [m * g1 * dx1 + x1 * m * g2 * dy0, 0.0]],
        ])

    return DdeModel(n=2, tau=tau, f=f, d1=d1, d2=d2, dlam=dlam, dmu=dmu, ddir=ddir,
                    name="predator-prey")


def synthetic_tb(a1=1.0, a2=1.0, a3=1.0, a4=1.0, a5=1.0, a6=-1.0, tau=1.0) -> DdeModel:
    """Polynomial DDE whose origin is a designed quadratic double zero at tau = 1.

    f = A x + B y + lam*p + mu*q + lam*C x + mu*E y + quadratics, with
    A = [[-1, 1], [0, 0]], B = [[1, 0], [0, 0]], p = (0, 1), q = (1, 1),
    C = [[0, 0], [1, 0]], E = [[0, 1], [0, 0]], and the quadratics
    a1 x1^2 + a2 x1 y1 + a3 y2^2 and a4 x2^2 + a5 x2 y1 + a6 y1^2.  The
    defaults are the values the exact-arithmetic oracle was run with;
    changing them invalidates the frozen reference data.
    """
    _checked(False, a1=a1, a2=a2, a3=a3, a4=a4, a5=a5, a6=a6, tau=tau)

    # Each entry sums the matrix form's terms in its order, the quadratics
    # last.  A term the form multiplies by 0 is +-0 and one it multiplies by 1
    # is exact, so dropping them changes at most the sign of an exact zero;
    # the 0.0 + ... and dlam * 0.0 kept below fix that sign as the form does
    # (a row of A @ x sums from +0.0), so each value is bit for bit the form's.

    def f(x, y, lam, mu):
        (x0, x1), (y0, y1), lam, mu = x.tolist(), y.tolist(), float(lam), float(mu)
        return np.array([
            0.0 - x0 + x1 + y0 + mu + mu * y1
            + (a1 * x0 ** 2 + a2 * x0 * y0 + a3 * y1 ** 2),
            0.0 + lam + mu + lam * x0
            + (a4 * x1 ** 2 + a5 * x1 * y0 + a6 * y0 ** 2),
        ])

    def d1(x, y, lam, mu):
        (x0, x1), y0 = x.tolist(), y.item(0)
        return np.array([
            [-1.0 + (2.0 * a1 * x0 + a2 * y0), 1.0],
            [float(lam) + 0.0, 0.0 + (2.0 * a4 * x1 + a5 * y0)],
        ])

    def d2(x, y, lam, mu):
        (x0, x1), (y0, y1) = x.tolist(), y.tolist()
        return np.array([
            [1.0 + a2 * x0, 0.0 + float(mu) + 2.0 * a3 * y1],
            [0.0 + (a5 * x1 + 2.0 * a6 * y0), 0.0],
        ])

    def dlam(x, y, lam, mu):
        return np.array([0.0, 1.0 + x.item(0)])

    def dmu(x, y, lam, mu):
        return np.array([1.0 + y.item(1), 1.0])

    def ddir(x, y, lam, mu, dx, dy, dlam, dmu):
        (dx0, dx1), (dy0, dy1) = dx.tolist(), dy.tolist()
        dlam, dmu = float(dlam), float(dmu)
        zl, zm = dlam * 0.0, dmu * 0.0
        return np.array([
            [[zl + (2.0 * a1 * dx0 + a2 * dy0), 0.0],
             [dlam + 0.0, zl + (2.0 * a4 * dx1 + a5 * dy0)]],
            [[zm + a2 * dx0, dmu + 2.0 * a3 * dy1],
             [zm + (a5 * dx1 + 2.0 * a6 * dy0), 0.0]],
        ])

    return DdeModel(n=2, tau=tau, f=f, d1=d1, d2=d2, dlam=dlam, dmu=dmu, ddir=ddir,
                    name="synthetic-tb")


_BUILDERS = {"predator-prey": predator_prey, "synthetic-tb": synthetic_tb}


def registry() -> list[str]:
    return sorted(_BUILDERS)


@functools.cache
def _default(name: str) -> DdeModel:
    return _BUILDERS[name]()


def build(name: str, constants: dict | None = None) -> DdeModel:
    """The registered model ``name``, with ``constants`` in place of its
    default constants.  Without constants (None or an empty dict) every call
    returns one shared model, built on first use: a ``DdeModel`` is frozen
    and its callbacks close over the builder's arguments, so sharing it is safe.
    With constants each call builds a new model."""
    if name not in _BUILDERS:
        raise InputError(f"unknown model {name!r}; available: {registry()}")
    if constants is None or (isinstance(constants, dict) and not constants):
        return _default(name)
    try:
        return _BUILDERS[name](**dict(constants))
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad model constants for {name!r}: {exc}") from exc
