"""Direct computation of quadratic Takens-Bogdanov points in delay differential equations.

Typical use::

    from tbdde import models, defining, verify

    model = models.predator_prey()
    L = defining.Functionals(l1=[1, 0], l2=[1, 0])
    v0 = defining.TbCandidate(x=[1.1, 1.1], phi1=[1, 0], phi2=[3, 0],
                              lam=0.4, mu=1.0)
    report = defining.newton_solve(model, v0, L)
    verdict = verify.certify(report.linearization)   # f, f1, f2 at the solution
"""

from .errors import InputError, NearSingular, TbddeError
from .model import DdeModel, Linearization, linearize
from .eigenstructure import EigenBasis, compute_basis
from .defining import Functionals, NewtonOptions, NewtonReport, TbCandidate, newton_solve
from .verify import TbVerdict, certify, spectral_scan
from .models import build, predator_prey, registry, synthetic_tb

__version__ = "0.1.0"

__all__ = [
    "DdeModel", "EigenBasis", "Functionals", "Linearization", "NewtonOptions",
    "NewtonReport", "TbCandidate", "TbVerdict", "TbddeError", "InputError",
    "NearSingular", "build", "registry",
    "certify", "compute_basis", "linearize", "newton_solve",
    "predator_prey", "spectral_scan", "synthetic_tb",
]
