"""Exact-arithmetic derivation of the synthetic-tb reference data.

Needs sympy + mpmath, which are development-only dependencies.  Run it from
the root of a checkout as ``python3 tools/synthetic_oracle.py`` to print the
values; it imports the package from ``src/``.  The values frozen in
tests/test_verify.py (test_synthetic_frozen_values, DELAYED_SCALAR_ROOT)
came from it, and TestSyntheticOracle there runs it and compares d0, c_lam_mu,
nu and the root of z + exp(-z) with the package.  The script itself asserts
that the package's synthetic-tb callbacks (f, d1, d2, dlam, dmu, ddir) give
the model's exact derivatives to a few ulps at a few points, which checks
their hand-expanded arithmetic against the mathematics.  The construction
mirrors the basis normalization conventions of tbdde.eigenstructure but is
carried out symbolically, so it is an independent oracle for the floating
point implementation.

The model's quadratic coefficients a1 ... a6 stay symbols until the end.
Every derivative is taken of the model's equations themselves, and the
Jacobian of the defining system is derived from its equations, not from the
certificate's formulas; the script asserts that d0 is a non-zero constant
times det J for every a1 ... a6, so d0 vanishes exactly where the defining
system is singular.  The printed values are at the defaults of
``synthetic_tb`` (a1 ... a5 = 1, a6 = -1).
"""

import sys
from pathlib import Path

import mpmath
import numpy as np
import sympy as sp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from tbdde.models import synthetic_tb  # noqa: E402

a1, a2, a3, a4, a5, a6 = coeffs = sp.symbols("a1:7")
DEFAULTS = {a1: 1, a2: 1, a3: 1, a4: 1, a5: 1, a6: -1}

# the model, as in tbdde.models.synthetic_tb
x1, x2, y1, y2, lam, mu = sp.symbols("x1 x2 y1 y2 lam mu")
X, Y = sp.Matrix([x1, x2]), sp.Matrix([y1, y2])
A = sp.Matrix([[-1, 1], [0, 0]])
B = sp.Matrix([[1, 0], [0, 0]])
p = sp.Matrix([0, 1])       # f_lambda
q = sp.Matrix([1, 1])       # f_mu
C = sp.Matrix([[0, 0], [1, 0]])   # f_{1 lambda}
E = sp.Matrix([[0, 1], [0, 0]])   # f_{2 mu}
f = (A * X + B * Y + lam * p + mu * q + lam * C * X + mu * E * Y
     + sp.Matrix([a1 * x1 ** 2 + a2 * x1 * y1 + a3 * y2 ** 2,
                  a4 * x2 ** 2 + a5 * x2 * y1 + a6 * y1 ** 2]))
F1, F2 = f.jacobian(X), f.jacobian(Y)
ORIGIN = {x1: 0, x2: 0, y1: 0, y2: 0, lam: 0, mu: 0}


def at_origin(M):
    return M.subs(ORIGIN)


def along(M, dx, dy, dlam, dmu):
    """The matrix M(x, y, lam, mu) differentiated along (dx, dy, dlam, dmu) at the origin."""
    return at_origin(sum((M.diff(v) * d for v, d in zip(
        (x1, x2, y1, y2, lam, mu), (*dx, *dy, dlam, dmu))), sp.zeros(2, 2)))


f1, f2 = at_origin(F1), at_origin(F2)
flam, fmu = at_origin(f.diff(lam)), at_origin(f.diff(mu))
assert f1 == A and f2 == B and flam == p and fmu == q
S = A + B
Bp = B + sp.eye(2)

# unit chain with the package's pinning conventions
phi1_hat = sp.Matrix([1, 0])
psi2_hat = sp.Matrix([[0, 1]])

t1, t2 = sp.symbols("t1 t2")
phi2p = sp.Matrix([t1, t2])
sol = sp.solve([sp.Eq((S * phi2p)[i], (Bp * phi1_hat)[i]) for i in range(2)]
               + [sp.Eq((phi1_hat.T * phi2p)[0], 0)], [t1, t2])
phi2p = phi2p.subs(sol)

s1, s2 = sp.symbols("s1 s2")
psi1p = sp.Matrix([[s1, s2]])
sol = sp.solve([sp.Eq((psi1p * S)[i], (psi2_hat * Bp)[i]) for i in range(2)]
               + [sp.Eq((psi1p * psi2_hat.T)[0], 0)], [s1, s2])
psi1p = psi1p.subs(sol)

alpha = (psi1p * phi1_hat - sp.Rational(1, 2) * psi2_hat * B * phi1_hat
         + psi1p * B * phi1_hat)[0]
gamma = (psi1p * phi2p - sp.Rational(1, 2) * psi1p * B * phi1_hat
         + psi1p * B * phi2p + sp.Rational(1, 6) * psi2_hat * B * phi1_hat
         - sp.Rational(1, 2) * psi2_hat * B * phi2p)[0]

c = 1 / sp.sqrt(sp.Abs(alpha))
d = sp.sign(alpha) / sp.sqrt(sp.Abs(alpha))
t = -gamma / (alpha ** 2 * d)

phi1 = c * phi1_hat
phi2 = c * phi2p + t * phi1_hat
psi1 = d * psi1p
psi2 = d * psi2_hat


def normalization(l1, l2, ph1, ph2, g1, g2):
    """Identities (5) and (6) of the defining system, g = f2 phi."""
    return ((l1 * ph1 - sp.Rational(1, 2) * l2 * g1 + l1 * g1)[0],
            (l1 * ph2 - sp.Rational(1, 2) * l1 * g1 + l1 * g2
             + sp.Rational(1, 6) * l2 * g1 - sp.Rational(1, 2) * l2 * g2)[0])


# the six identities must hold exactly
assert sp.simplify(S * phi1) == sp.zeros(2, 1)
assert sp.simplify(S * phi2 - Bp * phi1) == sp.zeros(2, 1)
assert sp.simplify(psi2 * S) == sp.zeros(1, 2)
assert sp.simplify(psi1 * S - psi2 * Bp) == sp.zeros(1, 2)
e5, e6 = normalization(psi1, psi2, phi1, phi2, B * phi1, B * phi2)
assert sp.simplify(e5 - 1) == 0 and sp.simplify(e6) == 0

# quadratic nondegeneracy quantities: a null vector of the defining system's
# Jacobian moves x by a phi1 + s nu and (lam, mu) by s (clm, 1); blocks 2
# and 3 stay solvable when a (m11, m21) + s (m12, m22) = 0
clm = -(psi2 * q)[0] / (psi2 * p)[0]
n1, n2 = sp.symbols("n1 n2")
nu = sp.Matrix([n1, n2])
sol = sp.solve([sp.Eq((S * nu + clm * p + q)[i], 0) for i in range(2)]
               + [sp.Eq((phi1.T * nu)[0], 0)], [n1, n2])
nu = nu.subs(sol)

A1, A2 = along(F1, phi1, phi1, 0, 0), along(F2, phi1, phi1, 0, 0)
B1, B2 = along(F1, nu, nu, clm, 1), along(F2, nu, nu, clm, 1)
Am, Bm = A1 + A2, B1 + B2
m11 = (psi2 * Am * phi1)[0]
m12 = (psi2 * Bm * phi1)[0]
m21 = (psi1 * Am * phi1 + psi2 * Am * phi2 - psi2 * A2 * phi1)[0]
m22 = (psi1 * Bm * phi1 + psi2 * Bm * phi2 - psi2 * B2 * phi1)[0]
d0_symbolic = sp.expand(m11 * m22 - m12 * m21)


def defining_jacobian(l1, l2, ph1, ph2):
    """det of the Jacobian of the defining system H(x, phi1, phi2, lam, mu),
    from its equations, at the origin with chain (ph1, ph2) and functionals
    l1, l2."""
    u = sp.Matrix(sp.symbols("u1:9"))
    xs, p1s, p2s = u[0:2, 0], u[2:4, 0], u[4:6, 0]
    on_diag = {x1: xs[0], x2: xs[1], y1: xs[0], y2: xs[1], lam: u[6], mu: u[7]}
    fs, f1s, f2s = f.subs(on_diag), F1.subs(on_diag), F2.subs(on_diag)
    Ss = f1s + f2s
    n5, n6 = normalization(l1, l2, p1s, p2s, f2s * p1s, f2s * p2s)
    H = sp.Matrix.vstack(fs, Ss * p1s, Ss * p2s - f2s * p1s - p1s,
                         sp.Matrix([n5 - 1, n6]))
    point = dict(zip(u, [0, 0, *ph1, *ph2, 0, 0]))
    assert sp.simplify(H.subs(point)) == sp.zeros(8, 1)
    return sp.expand(H.jacobian(u).subs(point).det(method="berkowitz"))


# defining-system solution for l1 = l2 = (1, 0)
l1 = sp.Matrix([[1, 0]])
cc, tt = sp.symbols("cc tt")
ph1 = cc * sp.Matrix([1, 0])
blk4 = (l1 * ph1 - sp.Rational(1, 2) * l1 * B * ph1 + l1 * B * ph1)[0] - 1
cc_v = sp.solve(blk4, cc)[0]
ph1 = ph1.subs(cc, cc_v)
ph2 = sp.Matrix([tt, 2 * cc_v])
blk5 = (l1 * ph2 - sp.Rational(1, 2) * l1 * B * ph1 + l1 * B * ph2
        + sp.Rational(1, 6) * l1 * B * ph1 - sp.Rational(1, 2) * l1 * B * ph2)[0]
tt_v = sp.solve(blk5, tt)[0]
ph2 = ph2.subs(tt, tt_v)
assert sp.simplify(S * ph2 - Bp * ph1) == sp.zeros(2, 1)

# d0 is a non-zero constant times det J, for the basis's own functionals
# (psi1, psi2) and for l1 = l2 = (1, 0)
det_j = {}
for name, (l1_, l2_, ph1_, ph2_) in {"psi": (psi1, psi2, phi1, phi2),
                                     "e1": (l1, l1, ph1, ph2)}.items():
    det_j[name] = defining_jacobian(l1_, l2_, ph1_, ph2_)
    ratio = sp.simplify(d0_symbolic / det_j[name])
    assert ratio != 0 and not ratio.free_symbols & set(coeffs), (name, ratio)

d0 = sp.nsimplify(sp.simplify(d0_symbolic.subs(DEFAULTS)))
assert sp.simplify(d0 - 11 * sp.sqrt(2) / 4) == 0

print("alpha =", alpha, " gamma =", gamma)
print("phi1 =", list(phi1), "=", [sp.nsimplify(v) for v in phi1])
print("phi2 =", list(phi2))
print("psi1 =", list(psi1))
print("psi2 =", list(psi2))
print("c_lam_mu =", clm)
print("nu =", list(nu))
print("psi2 . nu =", (psi2 * nu)[0])
print("d0(a1..a6) =", sp.factor(d0_symbolic))
print("det J(a1..a6) =", sp.factor(det_j["psi"]), "with (l1, l2) = (psi1, psi2)")
print("d0 =", d0, "~", repr(float(d0)))
print("defining-system phi1 =", list(ph1), " phi2 =", list(ph2))

# The package's callbacks against the model's own derivatives: at a few
# points and directions (x1, x2, y1, y2, lam, mu), and coefficient sets,
# f, d1, d2, dlam, dmu and ddir must equal f, F1, F2, f_lam, f_mu and the
# derivatives of F1 and F2 along the direction, to a few ulps.  Each number
# is taken at its exact binary value, so the only error is the callback's
# own rounding; an ulp is eps times the largest of 1 and the entries of the
# callback's exact value.
STATE = (x1, x2, y1, y2, lam, mu)
CALLBACK_ULPS = 8
CALLBACK_CASES = [
    # coefficients a1 .. a6, point, direction
    ((1.0, 1.0, 1.0, 1.0, 1.0, -1.0), (0.3, -1.7, 0.9, 2.2, -0.4, 0.6),
     (1.1, -0.2, 0.7, -1.3, 0.5, -0.9)),
    ((1.0, 1.0, 1.0, -1.75, 1.0, 1.2), (-1.25, 0.1, -0.6, 1.0 / 3.0, 0.05, -1.5),
     (-0.3, 0.8, -1.9, 0.45, 0.0, 1.0)),
    ((-2.0, 0.5, 3.0, 1.0, -0.7, 0.0), (2.0, 1.9, -2.1, -0.01, 1.0 / 7.0, 0.0),
     (0.0, 1.0, 0.0, 0.0, -2.0, 0.25)),
]


def callback_ulps(values, point, direction) -> float:
    """The largest error of the package's synthetic-tb callbacks at one
    case, in ulps; asserts it is at most CALLBACK_ULPS."""
    model = synthetic_tb(*values)
    at = dict(zip(coeffs + STATE, (sp.Rational(v) for v in values + point)))
    dv = [sp.Rational(v) for v in direction]
    args = (np.array(point[:2]), np.array(point[2:4]), *point[4:])
    exact = {
        "f": [f], "d1": [F1], "d2": [F2], "dlam": [f.diff(lam)], "dmu": [f.diff(mu)],
        "ddir": [sum((M.diff(v) * c for v, c in zip(STATE, dv)), sp.zeros(2, 2))
                 for M in (F1, F2)],
    }
    worst = 0.0
    for name, want in exact.items():
        extra = ((np.array(direction[:2]), np.array(direction[2:4]), *direction[4:])
                 if name == "ddir" else ())
        got = np.ravel(getattr(model, name)(*args, *extra))
        want = np.array([float(v) for M in want for v in M.subs(at)])
        ulps = float(np.max(np.abs(got - want))) / (
            np.finfo(float).eps * max(1.0, float(np.max(np.abs(want)))))
        assert ulps <= CALLBACK_ULPS, (name, values, point, direction, ulps)
        worst = max(worst, ulps)
    return worst


worst = max(callback_ulps(*case) for case in CALLBACK_CASES)
print(f"callbacks: f, d1, d2, dlam, dmu, ddir within {worst:.2f} ulps at "
      f"{len(CALLBACK_CASES)} points")

# principal complex root of z + exp(-z) (scalar x' = -x(t-1) test case)
mpmath.mp.dps = 30
w = mpmath.lambertw(-1)
assert mpmath.fabs(w + mpmath.exp(-w)) < mpmath.mpf("1e-25")
print("root of z + exp(-z):", mpmath.nstr(w, 20))
