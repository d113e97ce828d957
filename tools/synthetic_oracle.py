"""Exact-arithmetic derivation of the synthetic-tb reference data.

Needs sympy + mpmath, which are development-only dependencies.  Run it as
``python3 tools/synthetic_oracle.py`` to print the values; the values frozen
in tests/test_verify.py (test_synthetic_frozen_values, DELAYED_SCALAR_ROOT)
came from it, and TestSyntheticOracle there runs it and compares d0, c_lam_mu,
nu, cond_iii and the root of z + exp(-z) with the package.  The construction
mirrors the basis normalization conventions of tbdde.eigenstructure but is
carried out symbolically, so it is an independent oracle for the floating
point implementation.
"""

import mpmath
import sympy as sp

# model data at the designed point (origin, zero parameters)
A = sp.Matrix([[-1, 1], [0, 0]])
B = sp.Matrix([[1, 0], [0, 0]])
p = sp.Matrix([0, 1])       # f_lambda
q = sp.Matrix([1, 1])       # f_mu
C = sp.Matrix([[0, 0], [1, 0]])   # f_{1 lambda}
E = sp.Matrix([[0, 1], [0, 0]])   # f_{2 mu}
a1, a2, a3, a4, a5, a6 = 1, 1, 1, 1, 1, -1

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

# the six identities must hold exactly
assert sp.simplify(S * phi1) == sp.zeros(2, 1)
assert sp.simplify(S * phi2 - Bp * phi1) == sp.zeros(2, 1)
assert sp.simplify(psi2 * S) == sp.zeros(1, 2)
assert sp.simplify(psi1 * S - psi2 * Bp) == sp.zeros(1, 2)
e5 = (psi1 * phi1 - sp.Rational(1, 2) * psi2 * B * phi1 + psi1 * B * phi1)[0]
e6 = (psi1 * phi2 - sp.Rational(1, 2) * psi1 * B * phi1 + psi1 * B * phi2
      + sp.Rational(1, 6) * psi2 * B * phi1
      - sp.Rational(1, 2) * psi2 * B * phi2)[0]
assert sp.simplify(e5 - 1) == 0 and sp.simplify(e6) == 0

# quadratic nondegeneracy quantities
clm = -(psi2 * q)[0] / (psi2 * p)[0]
n1, n2 = sp.symbols("n1 n2")
nu = sp.Matrix([n1, n2])
sol = sp.solve([sp.Eq((S * nu + clm * p + q)[i], 0) for i in range(2)]
               + [sp.Eq((phi1.T * nu)[0], 0)], [n1, n2])
nu = nu.subs(sol)


def f11(u, w):
    return sp.Matrix([2 * a1 * u[0] * w[0], 2 * a4 * u[1] * w[1]])


def f12(u, w):   # u in the x slot, w in the delayed slot
    return sp.Matrix([a2 * u[0] * w[0], a5 * u[1] * w[0]])


def f21(u, w):   # u in the delayed slot, w in the x slot
    return f12(w, u)


def f22(u, w):
    return sp.Matrix([2 * a3 * u[1] * w[1], 2 * a6 * u[0] * w[0]])


def A1(w):
    return f11(phi1, w) + f12(phi1, w)


def A2(w):
    return f21(phi1, w) + f22(phi1, w)


def B1(w):
    return f11(nu, w) + f12(nu, w) + clm * C * w


def B2(w):
    return f21(nu, w) + f22(nu, w) + E * w


m11 = (psi2 * (A1(phi1) + A2(phi1)))[0]
m12 = (psi2 * (B1(phi1) + B2(phi1)))[0]
m21 = ((psi1 * (A1(phi1) + A2(phi1)))[0]
       + (psi2 * (A1(phi2) + A2(phi2)))[0] - (psi2 * A2(phi1))[0])
m22 = ((psi1 * (B1(phi1) + B2(phi1)))[0]
       + (psi2 * (B1(phi2) + B2(phi2)))[0] - (psi2 * B2(phi1))[0])
d0 = sp.simplify(m11 * m22 - m12 * m21)
cond_iii = sp.simplify((psi2 * phi2 - sp.Rational(1, 2) * psi2 * B * phi1
                        + psi2 * B * phi2)[0])

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

print("alpha =", alpha, " gamma =", gamma)
print("phi1 =", list(phi1), "=", [sp.nsimplify(v) for v in phi1])
print("phi2 =", list(phi2))
print("psi1 =", list(psi1))
print("psi2 =", list(psi2))
print("c_lam_mu =", clm)
print("nu =", list(nu))
print("psi2 . nu =", (psi2 * nu)[0])
print("d0 =", d0, "=", sp.nsimplify(d0), "~", float(d0))
print("cond_iii =", cond_iii)
print("defining-system phi1 =", list(ph1), " phi2 =", list(ph2))

# principal complex root of z + exp(-z) (scalar x' = -x(t-1) test case)
mpmath.mp.dps = 30
w = mpmath.lambertw(-1)
assert mpmath.fabs(w + mpmath.exp(-w)) < mpmath.mpf("1e-25")
print("root of z + exp(-z):", mpmath.nstr(w, 20))
