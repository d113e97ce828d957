"""Inspect the characteristic equation near a double-zero point.

A delay system has infinitely many characteristic roots.  At a double-zero
bifurcation point exactly two of them collide at the origin; the scan below
finds the roots in a box from a Chebyshev collocation of the DDE's generator,
polished by Newton on Delta, and the certificate confirms the collision by
checking Delta(0) = Delta'(0) = 0 with Delta''(0) bounded away from zero.

Run:  python3 demos/characteristic_roots.py
"""

import numpy as np

from tbdde import double_zero_check, predator_prey, spectral_scan

model = predator_prey()
x = np.array([1.0, 1.0])
D, K = 0.5, 2.0

d0, d1, d2, ok = double_zero_check(model, x, D, K)
print("double-zero certificate at the bifurcation point:")
print(f"  Delta(0)   = {d0:+.3e}")
print(f"  Delta'(0)  = {d1:+.3e}")
print(f"  Delta''(0) = {d2:+.3e}")
print(f"  certified: {ok}")

roots, warnings = spectral_scan(model, x, D, K, box=((-1.0, 1.0), (-8.0, 8.0)))
print()
print(f"characteristic roots found in [-1,1] x [-8i,8i]: {len(roots)}")
for r in roots:
    print(f"  z = {r.real:+.6f} {r.imag:+.6f}i")
if warnings:
    print("roots other than the double zero sit near the imaginary axis:")
    for r in warnings:
        print(f"  z = {r:+.6f}")
else:
    print("no other root near the imaginary axis.")

# Away from the bifurcation value the certificate must fail.
D_off = 0.45
x1 = (1.0 - np.sqrt(1.0 - 4.0 * D_off ** 2)) / (2.0 * D_off)
x_off = np.array([x1, (1.0 - x1 / K) * (1.0 + x1 * x1)])
_, _, _, ok_off = double_zero_check(model, x_off, D_off, K)
print()
print(f"certificate at the D = {D_off} equilibrium (should fail): {ok_off}")
