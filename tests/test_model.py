import dataclasses
import re

import numpy as np
import pytest

from tbdde import (DdeModel, Functionals, InputError, TbCandidate, eval_f, jac_x, jac_y,
                   linearize, newton_solve, param_der, predator_prey, second_dirder)
from tbdde.model import _real

TB_ARGS = (np.array([1.0, 1.0]), np.array([1.0, 1.0]), 0.5, 2.0)


@pytest.fixture
def pp():
    return predator_prey()


class TestEval:
    def test_equilibrium_at_tb_point(self, pp):
        assert eval_f(pp, *TB_ARGS) == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_origin_is_equilibrium(self, pp):
        z = np.zeros(2)
        assert eval_f(pp, z, z, 0.7, 1.3) == pytest.approx([0.0, 0.0])

    def test_perturbed_death_rate(self, pp):
        # second component: x2 * (x1/(1+x1^2) - D) = 1 * (0.5 - 0.6)
        out = eval_f(pp, [1, 1], [1, 1], 0.6, 2.0)
        assert out == pytest.approx([0.0, -0.1])

    def test_dimension_mismatch(self, pp):
        with pytest.raises(InputError):
            eval_f(pp, [1.0], [1.0, 1.0], 0.5, 2.0)

    def test_deterministic(self, pp):
        a = eval_f(pp, [1.3, 0.7], [0.9, 1.1], 0.45, 1.9)
        b = eval_f(pp, [1.3, 0.7], [0.9, 1.1], 0.45, 1.9)
        assert np.array_equal(a, b)


class TestFirstDerivatives:
    def test_jac_x_at_tb_point(self, pp):
        assert np.allclose(jac_x(pp, *TB_ARGS), [[0.0, -0.5], [0.0, 0.0]],
                           atol=1e-12)

    def test_jac_y_at_tb_point(self, pp):
        # (1 - x1^2) factor vanishes at x1 = 1
        assert jac_y(pp, *TB_ARGS) == pytest.approx(np.zeros((2, 2)), abs=1e-15)

    def test_linear_model_exact(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        B = np.array([[0.5, 0.0], [-1.0, 2.0]])
        m = DdeModel(n=2, tau=1.0, f=lambda x, y, l, u: A @ x + B @ y)
        x = np.array([0.3, -0.7])
        assert jac_x(m, x, x, 0.0, 0.0) == pytest.approx(A, abs=1e-9)
        assert jac_y(m, x, x, 0.0, 0.0) == pytest.approx(B, abs=1e-9)

    def test_fd_matches_analytic(self, pp):
        bare = DdeModel(n=2, tau=1.0, f=pp.f)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.uniform(0.5, 2.0, 2)
            y = rng.uniform(0.5, 2.0, 2)
            assert jac_x(bare, x, y, 0.5, 2.0) == pytest.approx(
                jac_x(pp, x, y, 0.5, 2.0), abs=1e-8)
            assert jac_y(bare, x, y, 0.5, 2.0) == pytest.approx(
                jac_y(pp, x, y, 0.5, 2.0), abs=1e-8)


class TestSecondDerivatives:
    def test_zero_direction(self, pp):
        out = second_dirder(pp, "11", *TB_ARGS, np.zeros(2), np.array([1.0, 0.0]))
        assert out == pytest.approx([0.0, 0.0])

    def test_square_model(self):
        m = DdeModel(n=2, tau=1.0, f=lambda x, y, l, u: np.array([x[0] ** 2, 0.0]))
        e1 = np.array([1.0, 0.0])
        out = second_dirder(m, "11", np.zeros(2), np.zeros(2), 0.0, 0.0, e1, e1)
        assert out == pytest.approx([2.0, 0.0], abs=1e-6)

    def test_fd_oracle_two_steps(self, pp):
        # independent second-difference of f itself at two step sizes,
        # Richardson-consistent, against the supplier value
        x = np.array([1.0, 1.0])
        u = np.array([1.0, 0.0])
        got = second_dirder(pp, "22", x, x, 0.5, 2.0, u, u)

        def oracle(h):
            fp = eval_f(pp, x, x + h * u, 0.5, 2.0)
            f0 = eval_f(pp, x, x, 0.5, 2.0)
            fm = eval_f(pp, x, x - h * u, 0.5, 2.0)
            return (fp - 2.0 * f0 + fm) / h ** 2

        eps = np.finfo(float).eps
        o1 = oracle(eps ** 0.25)
        o2 = oracle(2 * eps ** 0.25)
        assert o1 == pytest.approx(o2, abs=1e-5)
        assert got == pytest.approx(o1, abs=1e-5)

    def test_mixed_symmetry(self, pp):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.5, 2.0, 2)
        y = rng.uniform(0.5, 2.0, 2)
        u = rng.standard_normal(2)
        w = rng.standard_normal(2)
        a = second_dirder(pp, "12", x, y, 0.5, 2.0, u, w)
        b = second_dirder(pp, "21", x, y, 0.5, 2.0, w, u)
        assert a == pytest.approx(b, abs=1e-7)

    def test_fd_fallback_matches_analytic(self, pp):
        bare = DdeModel(n=2, tau=1.0, f=pp.f, d1=pp.d1, d2=pp.d2)
        rng = np.random.default_rng(11)
        x = rng.uniform(0.8, 1.4, 2)
        u = rng.standard_normal(2)
        w = rng.standard_normal(2)
        for which in ("11", "12", "21", "22"):
            got = second_dirder(bare, which, x, x, 0.5, 2.0, u, w)
            want = second_dirder(pp, which, x, x, 0.5, 2.0, u, w)
            assert got == pytest.approx(want, abs=1e-6)


class TestHessianBlocks:
    """The second-derivative and parameter matrices, from ``Linearization.along``."""

    @pytest.mark.parametrize("fields", [
        ("d1", "d2", "ddir"), ("ddir",), ()],
        ids=["suppliers", "partial", "bare"])
    def test_columns_are_second_dirders(self, pp, fields):
        model = DdeModel(n=2, tau=1.0, f=pp.f,
                         **{name: getattr(pp, name) for name in fields})
        rng = np.random.default_rng(12)
        x = rng.uniform(0.8, 1.4, 2)
        lin = linearize(model, x, 0.5, 2.0)
        u = rng.standard_normal(2)
        (D11, D12), (D21, D22) = lin.along(u), lin.along(dy=u)
        for j, ej in enumerate(np.eye(2)):
            for D, which in ((D11, "11"), (D12, "12"), (D21, "21"), (D22, "22")):
                assert D[:, j] == pytest.approx(
                    second_dirder(model, which, x, x, 0.5, 2.0, u, ej), rel=1e-9, abs=1e-9)
        # one direction moving x, y, lambda and mu at once is the sum of its parts
        parts = [lin.along(u), lin.along(dy=u), lin.along(dlam=0.7), lin.along(dmu=-1.3)]
        for k, got in enumerate(lin.along(u, u, 0.7, -1.3)):
            assert got == pytest.approx(sum(p[k] for p in parts), rel=1e-6, abs=1e-6)

    def test_bare_matches_suppliers(self, pp):
        bare = DdeModel(n=2, tau=1.0, f=pp.f)
        u = np.array([0.3, -1.1])
        for direction in ((u,), (None, u), (u, u, 0.7, -1.3), (None, None, 1.0),
                          (None, None, None, 1.0)):
            for got, want in zip(linearize(bare, TB_ARGS[0], 0.5, 2.0).along(*direction),
                                 linearize(pp, TB_ARGS[0], 0.5, 2.0).along(*direction)):
                assert got == pytest.approx(want, abs=1e-6)

    def test_zero_direction(self):
        bare = DdeModel(n=2, tau=1.0, f=predator_prey().f)
        lin = linearize(bare, TB_ARGS[0], 0.5, 2.0)
        for direction in ((np.zeros(2),), (np.zeros(2), np.zeros(2), 0.0, 0.0)):
            f1d, f2d = lin.along(*direction)
            assert not np.any(f1d) and not np.any(f2d)


class TestParamDerivatives:
    def test_death_rate_derivative(self, pp):
        assert param_der(pp, "lam", *TB_ARGS) == pytest.approx([0.0, -1.0])

    def test_capacity_derivative(self, pp):
        # d f1 / dK = r x1^2 / K^2 = 1/4
        assert param_der(pp, "mu", *TB_ARGS) == pytest.approx([0.25, 0.0])

    def test_parameter_free_model(self):
        m = DdeModel(n=1, tau=1.0, f=lambda x, y, l, u: -x)
        for which in ("lam", "mu"):
            assert param_der(m, which, [1.0], [1.0], 0.3, 0.4) == pytest.approx([0.0])

    def test_mixed_fd_matches_analytic(self, pp):
        bare = DdeModel(n=2, tau=1.0, f=pp.f, d1=pp.d1, d2=pp.d2)
        x = np.array([1.2, 0.9])
        for which in ("1lam", "2lam", "1mu", "2mu"):
            got = param_der(bare, which, x, x, 0.5, 2.0)
            want = param_der(pp, which, x, x, 0.5, 2.0)
            assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("fields", ["all", "f only"])
def test_tau_scales_every_value_once(pp, fields):
    # in delay-1 time the model's callbacks are multiplied by tau; scaling
    # by 2 is exact, so the values are exactly twice those at tau = 1, also
    # where a finite difference of a scaled value stands in for a supplier
    one = pp if fields == "all" else DdeModel(n=2, tau=1.0, f=pp.f)
    two = dataclasses.replace(one, tau=2.0)
    x, y, lam, mu = [1.1, 0.9], [0.8, 1.2], 0.45, 1.9
    u, w = np.array([0.3, -0.7]), np.array([1.0, 0.4])
    values = [lambda m: np.stack(linearize(m, x, lam, mu).along(u, w, 0.3, -0.2))]
    values += [lambda m, fn=fn: fn(m, x, y, lam, mu) for fn in (eval_f, jac_x, jac_y)]
    values += [lambda m, k=k: param_der(m, k, x, y, lam, mu)
               for k in ("lam", "mu", "1lam", "1mu")]   # "2lam", "2mu" vanish here
    values += [lambda m, k=k: second_dirder(m, k, x, y, lam, mu, u, w)
               for k in ("11", "12", "21", "22")]
    for value in values:
        assert np.any(value(one))
        assert np.array_equal(value(two), 2.0 * value(one))


@pytest.mark.parametrize("fields", [
    ("d1", "d2", "dlam", "dmu", "ddir"), ("d1", "d2"), ("ddir", "dlam"), ()],
    ids=["suppliers", "first-order", "partial", "bare"])
def test_linearization_serves_the_public_values(pp, fields):
    # one point's linearization and its table give exactly what the public
    # functions give at y = x, whichever derivatives the model supplies
    model = DdeModel(n=2, tau=1.5, f=pp.f, **{name: getattr(pp, name) for name in fields})
    x, lam, mu = np.array([1.1, 0.9]), 0.45, 1.9
    lin = linearize(model, list(x), lam, mu)
    assert np.array_equal(lin.x, x)
    for got, fn in zip((lin.f, lin.f1, lin.f2), (eval_f, jac_x, jac_y)):
        assert np.array_equal(got, fn(model, x, x, lam, mu))
    table = lin.param_derivatives() + lin.along(dlam=1.0) + lin.along(dmu=1.0)
    for got, which in zip(table, ("lam", "mu", "1lam", "2lam", "1mu", "2mu")):
        assert np.array_equal(got, param_der(model, which, x, x, lam, mu))
    with pytest.raises(InputError):
        linearize(model, [1.0], lam, mu)


@pytest.mark.parametrize("call, which", [
    (lambda pp, which: second_dirder(pp, which, *TB_ARGS, np.ones(2), np.ones(2)), "13"),
    (lambda pp, which: param_der(pp, which, *TB_ARGS), "1x")], ids=["second", "param"])
def test_unknown_which_rejected(pp, call, which):
    with pytest.raises(InputError, match=f"which must be one of .*'{which}'"):
        call(pp, which)


def test_invalid_construction():
    with pytest.raises(InputError):
        DdeModel(n=0, tau=1.0, f=lambda x, y, l, u: x)
    with pytest.raises(InputError):
        DdeModel(n=1, tau=-1.0, f=lambda x, y, l, u: x)


@pytest.mark.parametrize("kwargs, message", [
    ({"n": 2.0}, "state dimension must be an integer, got 2.0"),
    ({"n": True}, "state dimension must be an integer, got True"),
    ({"n": "2"}, "state dimension must be an integer, got '2'"),
    ({"tau": "1"}, "delay must be a real number, got '1'"),
    ({"tau": True}, "delay must be a real number, got True"),
    ({"tau": 1j}, "delay must be a real number, got 1j")],
    ids=["n-float", "n-bool", "n-string", "tau-string", "tau-bool", "tau-complex"])
def test_construction_rejects_what_is_no_number(kwargs, message):
    # n = True used to fail later as "x must have length True", and n = "2"
    # or tau = "1" as a bare TypeError
    with pytest.raises(InputError, match=re.escape(message)):
        DdeModel(**({"n": 2, "tau": 1.0, "f": lambda x, y, l, u: x} | kwargs))


def test_construction_takes_numpy_scalars():
    model = DdeModel(n=np.int64(2), tau=np.float32(0.5), f=lambda x, y, l, u: x)
    assert eval_f(model, [1.0, 2.0], [0.0, 0.0], 0.0, 0.0) == pytest.approx([0.5, 1.0])


class TestPythonFloatArithmeticErrors:
    """Python float arithmetic raises ZeroDivisionError or OverflowError where
    numpy's returns inf or nan: such a callback value is NaN."""

    def test_division_by_zero_is_nan_and_warned(self, pp):
        # predator-prey divides by its carrying capacity mu = K
        with pytest.warns(RuntimeWarning, match="invalid value"):
            out = eval_f(pp, *TB_ARGS[:3], 0.0)
        assert out.shape == (2,) and np.isnan(out).all()

    def test_overflow_is_nan_silently_under_errstate(self):
        model = DdeModel(n=1, tau=2.0, f=lambda x, y, l, u: np.array([x.item(0) ** 2]))
        with np.errstate(invalid="ignore"):
            assert np.isnan(eval_f(model, [1e200], [0.0], 0.0, 0.0)).all()

    def test_newton_start_with_zero_K_diverges(self, pp):
        v = TbCandidate(x=np.array([1.1, 1.1]), phi1=np.array([1.0, 0.0]),
                        phi2=np.array([3.0, 0.0]), lam=0.4, mu=0.0)
        report = newton_solve(pp, v, Functionals(l1=[1.0, 0.0], l2=[1.0, 0.0]))
        assert not report.converged and report.failure_reason == "diverged"
        assert report.iterations == 0 and np.isnan(report.residual_history[0])


def test_replaced_suppliers_are_not_fields(pp):
    # ddir replaced the bilinear and parameter-matrix suppliers; their old
    # names stay readable, always None, but cannot be set.  It also replaced
    # the pair d1dir, d2dir, whose names are gone
    with pytest.raises(TypeError):
        DdeModel(n=2, tau=1.0, f=pp.f, d11=lambda x, y, l, u, a, b: np.zeros(2))
    for name in ("d1dir", "d2dir"):
        with pytest.raises(TypeError):
            DdeModel(n=2, tau=1.0, f=pp.f, **{name: lambda *args: np.zeros((2, 2))})
        assert not hasattr(pp, name)
    with pytest.raises(TypeError):
        dataclasses.replace(pp, d1lam=lambda x, y, l, u: np.zeros((2, 2)))
    for name in ("d11", "d12", "d21", "d22", "d1lam", "d2lam", "d1mu", "d2mu"):
        assert getattr(pp, name) is None


def _values(model):
    """Every value of the model layer at one point, each through its own path."""
    x, lam, mu = TB_ARGS[0], 0.5, 2.0
    u = np.array([0.3, -1.1])
    lin = linearize(model, x, lam, mu)
    lin.along(u, u, 0.3, 1.0)
    lin.param_derivatives()
    for which in ("11", "12", "21", "22"):
        second_dirder(model, which, x, x, lam, mu, u, u)
    for which in ("lam", "mu", "1lam", "2lam", "1mu", "2mu"):
        param_der(model, which, x, x, lam, mu)
    jac_x(model, x, x, lam, mu)
    jac_y(model, x, x, lam, mu)


@pytest.mark.parametrize("name, bad, expected", [
    ("d1", np.zeros(2), "(2, 2)"), ("d2", np.zeros(2), "(2, 2)"),
    ("d2", np.zeros((2, 3)), "(2, 2)"), ("dlam", 0.0, "(2,)"),
    ("dmu", np.zeros(3), "(2,)"), ("ddir", 0.0, "(2, 2, 2)"),
    ("ddir", np.zeros((2, 2)), "(2, 2, 2)"), ("ddir", np.zeros((3, 2, 2)), "(2, 2, 2)")],
    ids=["d1-vector", "d2-vector", "d2-wide", "dlam-scalar", "dmu-long", "ddir-scalar",
         "ddir-one-matrix", "ddir-three-matrices"])
def test_supplier_shapes_are_checked(pp, name, bad, expected):
    # a supplier of the wrong shape is an InputError naming it, not a
    # silent broadcast or an untyped numpy error inside Newton
    model = dataclasses.replace(pp, **{name: lambda *args: bad})
    message = f"model {name} returned shape {np.shape(bad)}, expected {expected}"
    with pytest.raises(InputError, match=re.escape(message)):
        _values(model)


@pytest.mark.parametrize("bad, expected", [
    (lambda v: v * (1.0 + 1e-3j), "complex128 values, not real"),
    (lambda v: (np.asarray(v) + 1j).tolist(), "complex128 values, not real"),
    (lambda v: "abc", "<U3 values, not real"),
    (lambda v: [v[0], [v[1], 0.0]], "no array of numbers")],
    ids=["complex-array", "complex-list", "string", "ragged"])
@pytest.mark.parametrize("name", ["f", "d1", "ddir"])
def test_non_real_results_are_input_errors(pp, name, bad, expected):
    # a complex result is an error, not cast to float with its imaginary part
    # dropped; one numpy cannot make an array of numbers is one too, and
    # each names the callback
    supplier = getattr(pp, name)
    model = dataclasses.replace(pp, **{name: lambda *args: bad(supplier(*args))})
    with pytest.raises(InputError, match=re.escape(f"model {name} returned {expected}")):
        _value_of(model, name)


def _value_of(model, name):
    """The model layer's value from the callback ``name`` at TB_ARGS."""
    if name == "f":
        return eval_f(model, *TB_ARGS)
    if name == "d1":
        return jac_x(model, *TB_ARGS)
    return np.stack(linearize(model, TB_ARGS[0], 0.5, 2.0).along(TB_ARGS[0]))


@pytest.mark.parametrize("convert", [
    lambda v: np.rint(4.0 * np.asarray(v)).astype(int), lambda v: np.asarray(v, np.float32),
    lambda v: np.asarray(v).tolist(), lambda v: np.asarray(v, ">f8")],
    ids=["int", "float32", "list", "big-endian"])
@pytest.mark.parametrize("tau", [1.0, 1.3])
@pytest.mark.parametrize("name", ["f", "d1", "ddir"])
def test_results_that_are_not_float64_arrays_are_cast(pp, name, tau, convert):
    # a float64 array is taken as it is; any other real result is cast to
    # one exactly as model._real casts it, then scaled by tau
    supplier = getattr(pp, name)
    calls = []

    def converted(*args):
        calls.append(convert(supplier(*args)))
        return calls[-1]

    got = _value_of(dataclasses.replace(pp, tau=tau, **{name: converted}), name)
    want = _real(calls[-1], "")
    want = want if tau == 1.0 else tau * want
    assert got.dtype == np.float64 and got.dtype.isnative
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name, bad", [
    ("f", np.zeros(3)), ("d1", np.zeros((2, 3))), ("ddir", np.zeros((2, 2, 3)))])
def test_float64_result_of_the_wrong_shape_is_input_error(pp, name, bad):
    # the float64 results that skip the cast still have their shape checked
    model = dataclasses.replace(pp, **{name: lambda *args: bad})
    with pytest.raises(InputError, match=re.escape(f"model {name} returned shape {bad.shape}")):
        _value_of(model, name)


#: each public entry point as a function of its vector arguments, and their names
ENTRY_POINTS = {
    "eval_f": (lambda pp, v: eval_f(pp, v["x"], v["y"], 0.5, 2.0), "xy"),
    "jac_x": (lambda pp, v: jac_x(pp, v["x"], v["y"], 0.5, 2.0), "xy"),
    "jac_y": (lambda pp, v: jac_y(pp, v["x"], v["y"], 0.5, 2.0), "xy"),
    "second_dirder": (lambda pp, v: second_dirder(pp, "12", v["x"], v["y"], 0.5, 2.0,
                                                  v["u"], v["w"]), "xyuw"),
    "param_der": (lambda pp, v: param_der(pp, "1lam", v["x"], v["y"], 0.5, 2.0), "xy"),
    "linearize": (lambda pp, v: linearize(pp, v["x"], 0.5, 2.0), "x"),
}


@pytest.mark.parametrize("bad, expected", [
    (np.array([1.0 + 1.0j, 1.0]), "complex128 values, not real"),
    ([1.0 + 0.0j, 1.0], "complex128 values, not real"),
    (["1.0", "1.0"], "<U3 values, not real"),
    ([1.0, [1.0, 0.0]], "no array of numbers")],
    ids=["complex", "complex-list", "strings", "ragged"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_real_arguments_are_input_errors(pp, entry, bad, expected):
    # a complex vector argument is an error naming it, not cast to float
    # with its imaginary part dropped (eval_f at x = (1 + 1j, 1) returned
    # f(1, 1) = 0), and so is one numpy cannot make real numbers of
    call, labels = ENTRY_POINTS[entry]
    for label in labels:
        args = dict.fromkeys("xyuw", np.ones(2)) | {label: bad}
        with pytest.raises(InputError, match=re.escape(f"{label} has {expected}")):
            call(pp, args)


#: each public entry point as a function of its numbers lam and mu
X1 = TB_ARGS[0]
NUMBER_ENTRY_POINTS = {
    "eval_f": lambda pp, lam, mu: eval_f(pp, X1, X1, lam, mu),
    "jac_x": lambda pp, lam, mu: jac_x(pp, X1, X1, lam, mu),
    "jac_y": lambda pp, lam, mu: jac_y(pp, X1, X1, lam, mu),
    "second_dirder": lambda pp, lam, mu: second_dirder(pp, "11", X1, X1, lam, mu, X1, X1),
    "param_der": lambda pp, lam, mu: param_der(pp, "mu", X1, X1, lam, mu),
    "linearize": lambda pp, lam, mu: linearize(pp, X1, lam, mu),
}


@pytest.mark.parametrize("bad, expected", [
    (0.5 + 1e-3j, "has complex128 values, not real"),
    ("0.5", "has <U3 values, not real"),
    (np.array([0.5]), "must be a number, got shape (1,)")],
    ids=["complex", "string", "vector"])
@pytest.mark.parametrize("label", ["lam", "mu"])
@pytest.mark.parametrize("entry", sorted(NUMBER_ENTRY_POINTS))
def test_non_number_parameters_are_input_errors(pp, entry, label, bad, expected):
    # the built-in callbacks read lam and mu with float(), which raised a
    # bare TypeError on a complex number and would take the string "0.5"
    args = {"lam": 0.5, "mu": 2.0, label: bad}
    with pytest.raises(InputError, match=re.escape(f"{label} {expected}")):
        NUMBER_ENTRY_POINTS[entry](pp, args["lam"], args["mu"])


def test_numpy_parameters_are_accepted(pp):
    got = linearize(pp, TB_ARGS[0], np.float32(0.5), np.array(2.0))
    assert type(got.lam) is float and type(got.mu) is float
    assert np.array_equal(got.f1, jac_x(pp, *TB_ARGS))


def test_newton_rejects_a_misshapen_supplier(pp):
    model = dataclasses.replace(pp, d2=lambda x, y, l, u: np.zeros(2))
    v = TbCandidate(x=np.array([1.1, 1.1]), phi1=np.array([1.0, 0.0]),
                    phi2=np.array([3.0, 0.0]), lam=0.4, mu=1.0)
    with pytest.raises(InputError, match="d2 returned shape"):
        newton_solve(model, v, Functionals(l1=[1.0, 0.0], l2=[1.0, 0.0]))
