import tbdde

# the package's public names: a change here is a change to its interface
PUBLIC = [
    "DdeModel", "EigenBasis",
    "Functionals", "InputError", "Linearization", "NearSingular", "NewtonOptions",
    "NewtonReport", "PredatorPreyParams",
    "SyntheticTbParams", "TbCandidate", "TbExistence",
    "TbVerdict", "TbddeError",
    "build", "characteristic", "compute_basis", "double_zero_check", "eval_f",
    "jac_x", "jac_y", "jacobian", "linearize", "newton_solve", "param_der",
    "predator_prey", "quadratic_check", "registry", "residual", "second_dirder",
    "spectral_scan", "synthetic_tb", "tb_existence_test",
]


def test_public_names_frozen_and_resolve():
    assert sorted(tbdde.__all__) == PUBLIC
    assert len(set(tbdde.__all__)) == len(tbdde.__all__)
    for name in tbdde.__all__:
        getattr(tbdde, name)


def test_nu_system_error_removed():
    # nu is a product with the basis's pseudoinverse: no system of its own
    # to refuse, so no error class for one
    assert not hasattr(tbdde.errors, "SingularNuSystem")
