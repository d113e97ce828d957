"""Exercise the solver on a model whose answer is known in closed form.

The ``synthetic-tb`` model is a polynomial two-dimensional delay system
engineered so that the origin at zero parameters is a double-zero point with
exactly representable eigendata.  Every quantity printed below has an exact
reference value, so this script doubles as a quick end-to-end sanity check.

Run:  python3 demos/synthetic_reference.py
"""

import sys

import numpy as np

from tbdde import (Functionals, TbCandidate, certify, compute_basis, linearize, newton_solve,
                   synthetic_tb)

model = synthetic_tb()
L = Functionals(l1=[1.0, 0.0], l2=[1.0, 0.0])

exact = TbCandidate(x=np.zeros(2),
                    phi1=np.array([2.0 / 3.0, 0.0]),
                    phi2=np.array([4.0 / 27.0, 4.0 / 3.0]),
                    lam=0.0, mu=0.0)

rng = np.random.default_rng(7)
v0 = TbCandidate.unpack(exact.pack() + 0.1 * rng.uniform(-1.0, 1.0, 8), 2)
report = newton_solve(model, v0, L)

print(f"converged in {report.iterations} iterations, "
      f"final |H|_inf = {report.residual_history[-1]:.1e}")
err = np.max(np.abs(report.solution.pack() - exact.pack()))
print(f"distance to the designed point: {err:.1e}")

# The certificate at the designed point, whose closed-form values follow.
lin = linearize(model, exact.x, exact.lam, exact.mu)
basis = compute_basis(lin.f1, lin.f2)
r2 = np.sqrt(2.0)
print()
print("eigenvector chain vs closed form:")
print(f"  phi1 = {basis.phi1}   (exact (sqrt2/2, 0))")
print(f"  phi2 = {basis.phi2}   (exact (sqrt2/8, sqrt2))")
print(f"  psi1 = {basis.psi1}   (exact (sqrt2/2, 0))")
print(f"  psi2 = {basis.psi2}   (exact (0, sqrt2/2))")

verdict = certify(lin)
print()
print(f"parameter ratio c = {verdict.c_lam_mu:+.12f}     (exact -1)")
print(f"determinant   d0 = {verdict.d0:+.12f}  (exact 11*sqrt2/4 = {11 * r2 / 4:.12f})")

# The headline results against their exact values.
if not (err <= 1e-10 and abs(verdict.c_lam_mu + 1.0) <= 1e-12
        and abs(verdict.d0 - 11 * r2 / 4) <= 1e-12):
    sys.exit("FAILED: the solve or the certificate misses its exact value")
