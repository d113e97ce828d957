"""Lifted synthetic models with a known Takens-Bogdanov point at the origin.

A lifted model of dimension n is the package's ``synthetic-tb`` model on
(x0, x1) plus n-2 scalar delayed components, each driven by x0:

    x_k' = -a_k x_k + b_k x_k(t-1) + c_k x0 + e_k x0^2,   k = 2 .. n-1

with a_k in [1, 2] and |b_k| <= 1/2, so every component is stable for any
delay and its characteristic roots satisfy Re z < -0.3.  The coupling is one
way, so the linearization is block lower triangular and

    Delta(z) = z (z + 1 - e^-z) * prod_k (z + a_k - b_k e^-z):

the origin at lambda = mu = 0 stays a double-zero point for every n, and no
root other than the double zero lies near the imaginary axis.  A *hidden*
component replaces the last one by x_k' = -(pi/2) x_k(t-1) + c_k x0, whose
factor z + (pi/2) e^-z vanishes at z = +-i pi/2: the double zero is still
certified, but the spectral hypothesis is violated, which a spectral check
must report.

The model supplies only ``f``, ``d1`` and ``d2``, so the solver falls back
to the whole-residual finite-difference Jacobian and the certificate to the
finite-difference second and parameter derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

HIDDEN_ROOTS = (0.5j * np.pi, -0.5j * np.pi)


class SetupError(RuntimeError):
    """A generated input does not have the property the benchmark relies on."""


@dataclass(frozen=True)
class Lifted:
    """A lifted model with its exact Takens-Bogdanov data."""

    model: object              # tbdde DdeModel
    exact: object              # tbdde TbCandidate at the origin
    L: object                  # tbdde Functionals used by the defining system
    d0: float                  # quadratic_check's d0 at the exact origin
    hidden: bool

    @property
    def expected_axis_roots(self) -> tuple:
        return HIDDEN_ROOTS if self.hidden else ()


def exact_chain(tb: SimpleNamespace, model, x, lam: float, mu: float, L):
    """The chain vectors (phi1, phi2) of the defining system at a known point.

    At fixed (x, lam, mu) the last four blocks of the defining system are
    linear in (phi1, phi2); they are solved in the least-squares sense and
    the full residual is checked, so a point that is not a double zero
    fails here.
    """
    n = model.n
    x = np.asarray(x, dtype=float)
    f1 = tb.model.jac_x(model, x, x, lam, mu)
    f2 = tb.model.jac_y(model, x, x, lam, mu)
    S = f1 + f2
    l1, l2 = L.l1, L.l2
    norm_row = l1 + l1 @ f2 - 0.5 * l2 @ f2
    M = np.zeros((2 * n + 2, 2 * n))
    rhs = np.zeros(2 * n + 2)
    M[:n, :n] = S
    M[n:2 * n, :n] = -(f2 + np.eye(n))
    M[n:2 * n, n:] = S
    M[2 * n, :n] = norm_row
    rhs[2 * n] = 1.0
    M[2 * n + 1, :n] = -0.5 * l1 @ f2 + l2 @ f2 / 6.0
    M[2 * n + 1, n:] = norm_row
    sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    cand = tb.defining.TbCandidate(x=x, phi1=sol[:n], phi2=sol[n:],
                                   lam=float(lam), mu=float(mu))
    res = float(np.max(np.abs(tb.defining.residual(model, cand, L))))
    if not res <= 1e-12:
        raise SetupError(f"{model.name}: defining-system residual {res:.2e} "
                         "at the reference point")
    return cand


def build_lifted(tb: SimpleNamespace, n: int, seed: int,
                 hidden: bool = False) -> Lifted:
    """Build and check the lifted model of dimension n drawn from ``seed``.

    Raises SetupError unless the exact origin passes ``quadratic_check`` and,
    for a hidden component, Delta vanishes at +-i pi/2.
    """
    if n < 2 or (hidden and n < 3):
        raise SetupError(f"no lifted model with n={n}, hidden={hidden}")
    rng = np.random.default_rng([seed, n, int(hidden)])
    m = n - 2
    a = rng.uniform(1.0, 2.0, m)
    b = rng.uniform(-0.5, 0.5, m)
    c = rng.uniform(-1.0, 1.0, m)
    e = rng.uniform(-1.0, 1.0, m)
    if hidden:
        a[-1], b[-1], e[-1] = 0.0, -0.5 * np.pi, 0.0
    base = tb.models.synthetic_tb()
    rows = np.arange(2, n)

    def f(x, y, lam, mu):
        out = np.empty(n)
        out[:2] = base.f(x[:2], y[:2], lam, mu)
        out[2:] = -a * x[2:] + b * y[2:] + c * x[0] + e * x[0] ** 2
        return out

    def d1(x, y, lam, mu):
        J = np.zeros((n, n))
        J[:2, :2] = base.d1(x[:2], y[:2], lam, mu)
        J[rows, rows] = -a
        J[2:, 0] = c + 2.0 * e * x[0]
        return J

    def d2(x, y, lam, mu):
        J = np.zeros((n, n))
        J[:2, :2] = base.d2(x[:2], y[:2], lam, mu)
        J[rows, rows] = b
        return J

    model = tb.model.DdeModel(n=n, tau=1.0, f=f, d1=d1, d2=d2,
                              name=f"lifted-n{n}" + ("-hidden" if hidden else ""))
    e0 = np.zeros(n)
    e0[0] = 1.0
    L = tb.defining.Functionals(l1=e0, l2=e0)
    exact = exact_chain(tb, model, np.zeros(n), 0.0, 0.0, L)

    f1 = tb.model.jac_x(model, exact.x, exact.x, 0.0, 0.0)
    f2 = tb.model.jac_y(model, exact.x, exact.x, 0.0, 0.0)
    verdict = tb.verify.quadratic_check(model, exact,
                                        tb.eigenstructure.compute_basis(f1, f2))
    if not verdict.passed:
        raise SetupError(f"{model.name} (seed {seed}): the exact origin fails "
                         f"quadratic_check")
    for z in (HIDDEN_ROOTS if hidden else ()):
        scale = abs(tb.verify.characteristic(model, exact.x, 0.0, 0.0, z - 0.1))
        value = abs(tb.verify.characteristic(model, exact.x, 0.0, 0.0, z))
        if not value <= 1e-12 * max(1.0, scale):
            raise SetupError(f"{model.name} (seed {seed}): Delta({z:.4f}) = "
                             f"{value:.2e}, expected a root")
    return Lifted(model=model, exact=exact, L=L, d0=verdict.d0, hidden=hidden)
