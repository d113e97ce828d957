"""Builtin example models with full analytic derivatives.

Two models ship with the package:

* ``predator-prey`` -- a delayed predator-prey system with Holling-type
  response.  With growth rate, interference and conversion constants at 1
  it has a double-zero point at prey = predator = 1 for death rate 1/2 and
  carrying capacity 2; the death rate D plays the first free parameter and
  the carrying capacity K the second.
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
    """Constants of the delayed predator-prey system.

    D and K are the two free bifurcation parameters; the values stored here
    are only defaults (the solver varies them).  r, a, mu_growth, tau stay
    fixed.
    """

    r: float = 1.0
    K: float = 2.0
    a: float = 1.0
    mu_growth: float = 1.0
    D: float = 0.5
    tau: float = 1.0

    def __post_init__(self):
        for name in ("r", "K", "a", "mu_growth", "D", "tau"):
            if not 0 < getattr(self, name) < math.inf:
                raise InputError(f"{name} must be positive and finite")


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

    def d11(x, y, D, K, u, w):
        return np.array([-(2.0 * r / K) * u[0] * w[0], 0.0])

    def d12(x, y, D, K, u, w):
        # u in the x slot, w in the delayed slot
        return np.array([-gp(y[0]) * u[1] * w[0], m * gp(y[0]) * u[1] * w[0]])

    def d21(x, y, D, K, u, w):
        return d12(x, y, D, K, w, u)

    def d22(x, y, D, K, u, w):
        return np.array([-x[1] * gpp(y[0]) * u[0] * w[0],
                         x[1] * m * gpp(y[0]) * u[0] * w[0]])

    def d1lam(x, y, D, K):
        return np.array([[0.0, 0.0], [0.0, -1.0]])

    def d2lam(x, y, D, K):
        return np.zeros((2, 2))

    def d1mu(x, y, D, K):
        return np.array([[2.0 * r * x[0] / K ** 2, 0.0], [0.0, 0.0]])

    def d2mu(x, y, D, K):
        return np.zeros((2, 2))

    return DdeModel(
        n=2, tau=params.tau, f=f,
        d1=d1, d2=d2, dlam=dlam, dmu=dmu,
        d11=d11, d12=d12, d21=d21, d22=d22,
        d1lam=d1lam, d2lam=d2lam, d1mu=d1mu, d2mu=d2mu,
        name="predator-prey",
        constants={"r": r, "a": a, "mu_growth": m, "tau": params.tau},
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
            if not math.isfinite(getattr(self, f.name)):
                raise InputError(f"{f.name} must be finite")


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

    def d11(x, y, lam, mu, u, w):
        return np.array([2.0 * a1 * u[0] * w[0], 2.0 * a4 * u[1] * w[1]])

    def d12(x, y, lam, mu, u, w):
        return np.array([a2 * u[0] * w[0], a5 * u[1] * w[0]])

    def d21(x, y, lam, mu, u, w):
        return d12(x, y, lam, mu, w, u)

    def d22(x, y, lam, mu, u, w):
        return np.array([2.0 * a3 * u[1] * w[1], 2.0 * a6 * u[0] * w[0]])

    def d1lam(x, y, lam, mu):
        return C

    def d2lam(x, y, lam, mu):
        return np.zeros((2, 2))

    def d1mu(x, y, lam, mu):
        return np.zeros((2, 2))

    def d2mu(x, y, lam, mu):
        return E

    return DdeModel(
        n=2, tau=params.tau, f=f,
        d1=d1, d2=d2, dlam=dlam, dmu=dmu,
        d11=d11, d12=d12, d21=d21, d22=d22,
        d1lam=d1lam, d2lam=d2lam, d1mu=d1mu, d2mu=d2mu,
        name="synthetic-tb",
        constants={"a1": a1, "a2": a2, "a3": a3, "a4": a4, "a5": a5, "a6": a6},
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
