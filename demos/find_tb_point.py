"""Locate the double-zero bifurcation point of a delayed predator-prey system.

The model has prey x1 and predator x2, a Holling-type response with a
one-unit feeding delay, and two free parameters: the predator death rate D
and the prey carrying capacity K.  Newton iteration on the reduced defining
system finds the state, the generalized eigenvector chain, and both
parameter values simultaneously.

Run:  python3 demos/find_tb_point.py
"""

import sys

import numpy as np

from tbdde import Functionals, TbCandidate, certify, linearize, newton_solve, predator_prey

model = predator_prey()

# The scalar functionals fix the scale of the eigenvector chain; a unit row
# works whenever the corresponding eigenvector component is nonzero.
L = Functionals(l1=[1.0, 0.0], l2=[1.0, 0.0])

starts = [
    TbCandidate(x=np.array([1.1, 1.1]), phi1=np.array([1.0, 0.0]),
                phi2=np.array([3.0, 0.0]), lam=0.4, mu=1.0),
    TbCandidate(x=np.array([3.0, 1.5]), phi1=np.array([1.2, 0.5]),
                phi2=np.array([1.8, -1.8]), lam=0.45, mu=1.9),
]

converged = []
for k, v0 in enumerate(starts, 1):
    report = newton_solve(model, v0, L)
    converged.append(report.converged)
    print(f"start #{k}: converged={report.converged} "
          f"in {report.iterations} iterations")
    for i, r in enumerate(report.residual_history):
        print(f"    iter {i:2d}   |H|_inf = {r:.3e}")

if not all(converged):
    sys.exit("FAILED: a start did not converge")

sol = report.solution
print()
print(f"equilibrium      x = {sol.x}")
print(f"death rate       D = {sol.lam}")
print(f"carrying cap.    K = {sol.mu}")
print(f"eigenvector   phi1 = {sol.phi1}")
print(f"generalized   phi2 = {sol.phi2}")

# Certify the point independently of the solve: evaluate f, f1 and f2 at it
# afresh, rebuild the eigenvector chain from them and decide every check of
# the certificate.
verdict = certify(linearize(model, sol.x, sol.lam, sol.mu))
print()
for name, check in verdict.checks.items():
    print(f"{name:<15} {check.value:+.6g}  threshold {check.threshold:.3g}: "
          f"{'ok' if check.ok else 'FAIL'}")
print(f"quadratic double-zero point certified: {verdict.passed}")

if not verdict.passed:
    sys.exit("FAILED: the point is not certified")
