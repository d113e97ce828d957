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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InputError
from .model import DdeModel


@dataclass(frozen=True)
class PredatorPreyParams:
    """Constants of the delayed predator-prey system: r, a, mu_growth and tau.

    The death rate D and the carrying capacity K are not among them: they are
    the free parameters lambda and mu, which the solver varies.
    """

    r: float = 1.0
    a: float = 1.0
    mu_growth: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not 0 < value < math.inf:
                raise InputError(f"{f.name} must be a positive finite number, got {value!r}")


def predator_prey(params: PredatorPreyParams | None = None) -> DdeModel:
    """x1' = r x1 (1 - x1/K) - y1 x2 / (a + y1^2),
    x2' = x2 (m y1 / (a + y1^2) - D),  with lambda = D and mu = K."""
    params = params or PredatorPreyParams()
    r, a, m = params.r, params.a, params.mu_growth

    def g(y1):
        return y1 / (a + y1 * y1)

    def gp(y1):
        return (a - y1 * y1) / (a + y1 * y1) ** 2

    def gpp(y1):
        return 2.0 * y1 * (y1 * y1 - 3.0 * a) / (a + y1 * y1) ** 3

    def f(x, y, D, K):
        return np.array([
            r * x[0] * (1.0 - x[0] / K) - y[0] * x[1] / (a + y[0] * y[0]),
            x[1] * (m * g(y[0]) - D),
        ])

    def d1(x, y, D, K):
        return np.array([
            [r * (1.0 - 2.0 * x[0] / K), -g(y[0])],
            [0.0, m * g(y[0]) - D],
        ])

    def d2(x, y, D, K):
        return np.array([
            [-x[1] * gp(y[0]), 0.0],
            [x[1] * m * gp(y[0]), 0.0],
        ])

    def dlam(x, y, D, K):
        return np.array([0.0, -x[1]])

    def dmu(x, y, D, K):
        return np.array([r * x[0] ** 2 / K ** 2, 0.0])

    # ddir works on Python floats: numpy scalar arithmetic would cost more
    # than building the matrices
    def ddir(x, y, D, K, dx, dy, dD, dK):
        K, dD, dK = float(K), float(dD), float(dK)
        x1, dx0, dx1, dy0 = x.item(1), dx.item(0), dx.item(1), dy.item(0)
        g1, g2 = gp(y.item(0)), gpp(y.item(0))
        return np.array([
            [[-(2.0 * r / K) * dx0 + 2.0 * r * x.item(0) / K ** 2 * dK, -g1 * dy0],
             [0.0, m * g1 * dy0 - dD]],
            [[-g1 * dx1 - x1 * g2 * dy0, 0.0],
             [m * g1 * dx1 + x1 * m * g2 * dy0, 0.0]],
        ])

    return DdeModel(
        n=2, tau=params.tau, f=f,
        d1=d1, d2=d2, dlam=dlam, dmu=dmu, ddir=ddir,
        name="predator-prey",
    )


@dataclass(frozen=True)
class SyntheticTbParams:
    """Coefficients of the engineered polynomial model (see module docstring).

    The defaults are the values the exact-arithmetic oracle was run with;
    changing them invalidates the frozen reference data.
    """

    a1: float = 1.0   # x1^2 in the first component
    a2: float = 1.0   # x1*y1 in the first component
    a3: float = 1.0   # y2^2 in the first component
    a4: float = 1.0   # x2^2 in the second component
    a5: float = 1.0   # x2*y1 in the second component
    a6: float = -1.0  # y1^2 in the second component
    tau: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not math.isfinite(value):
                raise InputError(f"{f.name} must be a finite number, got {value!r}")


def synthetic_tb(params: SyntheticTbParams | None = None) -> DdeModel:
    """Polynomial DDE whose origin is a designed quadratic double zero at tau = 1.

    f = A x + B y + lam*p + mu*q + lam*C x + mu*E y + quadratics, with
    A = [[-1, 1], [0, 0]], B = [[1, 0], [0, 0]], p = (0, 1), q = (1, 1),
    C = [[0, 0], [1, 0]], E = [[0, 1], [0, 0]].
    """
    params = params or SyntheticTbParams()
    a1, a2, a3, a4, a5, a6 = (params.a1, params.a2, params.a3,
                              params.a4, params.a5, params.a6)
    A = np.array([[-1.0, 1.0], [0.0, 0.0]])
    B = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = np.array([0.0, 1.0])
    q = np.array([1.0, 1.0])
    C = np.array([[0.0, 0.0], [1.0, 0.0]])
    E = np.array([[0.0, 1.0], [0.0, 0.0]])

    def f(x, y, lam, mu):
        quad = np.array([
            a1 * x[0] ** 2 + a2 * x[0] * y[0] + a3 * y[1] ** 2,
            a4 * x[1] ** 2 + a5 * x[1] * y[0] + a6 * y[0] ** 2,
        ])
        return A @ x + B @ y + lam * p + mu * q + lam * (C @ x) + mu * (E @ y) + quad

    def d1(x, y, lam, mu):
        return A + lam * C + np.array([
            [2.0 * a1 * x[0] + a2 * y[0], 0.0],
            [0.0, 2.0 * a4 * x[1] + a5 * y[0]],
        ])

    def d2(x, y, lam, mu):
        return B + mu * E + np.array([
            [a2 * x[0], 2.0 * a3 * y[1]],
            [a5 * x[1] + 2.0 * a6 * y[0], 0.0],
        ])

    def dlam(x, y, lam, mu):
        return p + C @ x

    def dmu(x, y, lam, mu):
        return q + E @ y

    def ddir(x, y, lam, mu, dx, dy, dlam, dmu):
        return np.array([
            dlam * C + np.array([[2.0 * a1 * dx[0] + a2 * dy[0], 0.0],
                                 [0.0, 2.0 * a4 * dx[1] + a5 * dy[0]]]),
            dmu * E + np.array([[a2 * dx[0], 2.0 * a3 * dy[1]],
                                [a5 * dx[1] + 2.0 * a6 * dy[0], 0.0]]),
        ])

    return DdeModel(
        n=2, tau=params.tau, f=f,
        d1=d1, d2=d2, dlam=dlam, dmu=dmu, ddir=ddir,
        name="synthetic-tb",
    )


_BUILDERS = {
    "predator-prey": lambda consts: predator_prey(
        PredatorPreyParams(**consts) if consts else None),
    "synthetic-tb": lambda consts: synthetic_tb(
        SyntheticTbParams(**consts) if consts else None),
}


def registry() -> list[str]:
    return sorted(_BUILDERS)


def build(name: str, constants: dict | None = None) -> DdeModel:
    if name not in _BUILDERS:
        raise InputError(f"unknown model {name!r}; available: {registry()}")
    try:
        return _BUILDERS[name](dict(constants or {}))
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad model constants for {name!r}: {exc}") from exc
