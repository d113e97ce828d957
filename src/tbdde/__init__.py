"""Direct computation of quadratic Takens-Bogdanov points in delay differential equations.

Typical use::

    from tbdde import models, defining, eigenstructure, verify

    model = models.predator_prey()
    L = defining.Functionals(l1=[1, 0], l2=[1, 0])
    v0 = defining.TbCandidate(x=[1.1, 1.1], phi1=[1, 0], phi2=[3, 0],
                              lam=0.4, mu=1.0)
    report = defining.newton_solve(model, v0, L)
    sol, lin = report.solution, report.linearization   # f, f1, f2 at sol
    basis = eigenstructure.compute_basis(lin.f1, lin.f2)
    verdict = verify.quadratic_check(model, sol, basis, lin)
"""

from .errors import InputError, NearSingular, TbddeError
from .model import (DdeModel, Linearization, eval_f, jac_x, jac_y, linearize,
                    param_der, second_dirder)
from .eigenstructure import EigenBasis, TbExistence, compute_basis, tb_existence_test
from .defining import (Functionals, NewtonOptions, NewtonReport, TbCandidate,
                       jacobian, newton_solve, residual)
from .verify import (TbVerdict, characteristic, double_zero_check,
                     quadratic_check, spectral_scan)
from .models import (PredatorPreyParams, SyntheticTbParams, build,
                     predator_prey, registry, synthetic_tb)

__version__ = "0.1.0"

__all__ = [
    "DdeModel", "EigenBasis", "Functionals", "Linearization", "NewtonOptions",
    "NewtonReport",
    "PredatorPreyParams", "SyntheticTbParams", "TbCandidate", "TbExistence",
    "TbVerdict", "TbddeError", "InputError", "NearSingular",
    "build", "registry",
    "characteristic", "compute_basis", "double_zero_check", "eval_f",
    "jac_x", "jac_y", "jacobian", "linearize", "newton_solve",
    "param_der",
    "predator_prey", "quadratic_check", "residual", "second_dirder",
    "spectral_scan", "synthetic_tb", "tb_existence_test",
]
