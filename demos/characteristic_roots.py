"""Inspect the characteristic equation near a double-zero point.

A delay system has infinitely many characteristic roots.  At a double-zero
bifurcation point exactly two of them collide at the origin; the certificate
confirms the collision by its checks "range" and "nondegeneracy": the range
value (Delta'(0) without Delta's scale) vanishes and the nondegeneracy value
(Delta''(0)/2, likewise) does not.  The spectral scan then checks the imaginary axis: it
counts the roots in a small disk around 0 and excludes the rest of the axis,
up to the bound R on the roots near it, by a first-order bound from the
inverse of M(i w) = i w I - f1 - f2 exp(-i w).

Run:  python3 demos/characteristic_roots.py
"""

import sys

import numpy as np

from tbdde import certify, linearize, predator_prey, spectral_scan

model = predator_prey()
x = np.array([1.0, 1.0])
D, K = 0.5, 2.0

# One linearization (f, f1 and f2 at the point) serves the certificate and Delta
lin = linearize(model, x, D, K)
verdict = certify(lin)
checks, ok = verdict.checks, verdict.passed
print("double-zero certificate at the bifurcation point:")
print(f"  |f|_inf             = {checks['equilibrium'].value:.3e}")
print(f"  range value         = {checks['range'].value:+.3e}")
print(f"  nondegeneracy value = {checks['nondegeneracy'].value:+.3e}")
print(f"  certified: {ok}")

# Delta itself, differentiated by a complex step and a second difference, for
# illustration: its size carries the scale of the other roots, so nothing is
# decided on it


def delta(z):
    return np.linalg.det(z * np.eye(model.n) - lin.f1 - lin.f2 * np.exp(-z))


h = 1e-4
d = [delta(z) for z in (0.0, h, -h)]
print("Delta itself (illustration, not part of the certificate):")
print(f"  Delta(0)   = {d[0].real:+.3e}")
print(f"  Delta'(0)  = {delta(1e-100j).imag / 1e-100:+.3e}")
print(f"  Delta''(0) = {(d[1] - 2.0 * d[0] + d[2]).real / h ** 2:+.3e}")

roots, warnings = spectral_scan(model, x, D, K)
print()
print("imaginary-axis check (|Re z| <= 1e-3):")
print(f"  double zero counted in the disk around 0: {0j in roots}")
if warnings:
    print("  other roots on the imaginary axis:")
    for r in warnings:
        print(f"    z = {r.real:+.6f} {r.imag:+.6f}i")
else:
    print("  no other root on the imaginary axis.")

# Away from the bifurcation value the certificate must fail.
D_off = 0.45
x1 = (1.0 - np.sqrt(1.0 - 4.0 * D_off ** 2)) / (2.0 * D_off)
x_off = np.array([x1, (1.0 - x1 / K) * (1.0 + x1 * x1)])
ok_off = certify(linearize(model, x_off, D_off, K)).passed
print()
print(f"certificate at the D = {D_off} equilibrium (should fail): {ok_off}")

# The headline results: the point is certified, the axis holds no other
# root, and the equilibrium off the bifurcation value fails.
if not (ok and not warnings and not ok_off):
    sys.exit("FAILED: the certificate or the axis check gave a wrong answer")
