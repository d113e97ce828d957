import dataclasses
import inspect
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tbdde import DdeModel, InputError, build, predator_prey, registry, synthetic_tb
from tbdde.model import _dirder, eval_f, jac_x, jac_y, param_der, second_dirder

# an entry of a direction, at least 0.1 in magnitude
_entry = st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)


class TestRegistry:
    def test_names(self):
        assert registry() == ["predator-prey", "synthetic-tb"]

    def test_build_default(self):
        for name in registry():
            model = build(name)
            assert isinstance(model, DdeModel)
            assert model.name == name
            assert all(getattr(model, f) is not None
                       for f in ("d1", "d2", "dlam", "dmu", "ddir"))

    def test_build_with_constants(self):
        model = build("predator-prey", {"r": 2.0, "tau": 0.5})
        base = build("predator-prey", {"tau": 0.5})
        x, y = np.array([1.3, 0.7]), np.array([0.9, 1.1])
        # r scales the logistic term r x1 (1 - x1/K), and every value is tau times f
        diff = eval_f(model, x, y, 0.5, 2.0) - eval_f(base, x, y, 0.5, 2.0)
        assert diff == pytest.approx([0.5 * 1.3 * (1.0 - 1.3 / 2.0), 0.0], abs=1e-15)
        assert model.tau == 0.5

    @pytest.mark.parametrize("name", ["predator-prey", "synthetic-tb"])
    def test_default_model_is_built_once(self, name):
        # without constants every call shares one frozen model; with
        # constants, or a falsy non-dict, each call builds its own
        model = build(name)
        assert build(name) is model and build(name, {}) is model
        assert build(name, {"tau": 1.0}) is not model and build(name, []) is not model
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.tau = 2.0

    def test_unknown_name(self):
        with pytest.raises(InputError):
            build("lorenz")

    def test_bad_constants(self):
        with pytest.raises(InputError):
            build("predator-prey", {"bogus": 1.0})

    @pytest.mark.parametrize("constants", [{"D": 0.1}, {"K": 7.0}])
    def test_free_parameters_are_not_constants(self, constants):
        # D and K are lambda and mu, the Newton unknowns
        with pytest.raises(InputError, match="bad model constants"):
            build("predator-prey", constants)

    @pytest.mark.parametrize("name, constants", [
        ("predator-prey", {"tau": True}), ("synthetic-tb", {"a1": False})])
    def test_boolean_constants_rejected(self, name, constants):
        with pytest.raises(InputError, match=next(iter(constants))):
            build(name, constants)

    def test_positivity_validated(self):
        with pytest.raises(InputError, match="^r must be a positive finite number, got -0.1$"):
            predator_prey(r=-0.1)
        with pytest.raises(InputError, match="^tau must be a positive finite number"):
            predator_prey(tau=0.0)

    @pytest.mark.parametrize("builder, field", [(predator_prey, "r"), (synthetic_tb, "a1")])
    @pytest.mark.parametrize("value", ["1", 1j], ids=["string", "complex"])
    def test_non_real_constants_rejected(self, builder, field, value):
        # the builder itself, not only models.build, raises the typed error
        # naming the constant and its value; the comparison raised a bare TypeError
        with pytest.raises(InputError, match=f"^{field} must be a (positive )?finite number, "
                                             f"got {re.escape(repr(value))}$"):
            builder(**{field: value})

    @pytest.mark.parametrize("name, first", [("predator-prey", "r"), ("synthetic-tb", "a1")])
    def test_constants_checked_in_signature_order(self, name, first):
        # the first bad constant in the builder's order is named, whatever
        # the order of the keys given
        with pytest.raises(InputError, match=f"^{first} must be a"):
            build(name, {"tau": np.nan, first: np.inf})

    @pytest.mark.parametrize("builder, field", [
        (predator_prey, "tau"), (predator_prey, "r"),
        (synthetic_tb, "a3"), (synthetic_tb, "tau")])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_constants_rejected(self, builder, field, value):
        with pytest.raises(InputError, match=field):
            builder(**{field: value})

    @pytest.mark.parametrize("tau", [np.inf, np.nan])
    def test_non_finite_delay_rejected(self, tau):
        with pytest.raises(InputError):
            DdeModel(n=1, tau=tau, f=lambda x, y, lam, mu: x)


class TestSuppliedDerivatives:
    """Every analytic derivative supplier must agree with finite differences
    of the bare right-hand side at random points."""

    def bare(self, model):
        return DdeModel(n=model.n, tau=model.tau, f=model.f)

    def bare2(self, model):
        return DdeModel(n=model.n, tau=model.tau, f=model.f,
                        d1=model.d1, d2=model.d2)

    @pytest.mark.parametrize("name", ["predator-prey", "synthetic-tb"])
    def test_first_derivatives(self, name):
        model = build(name)
        bare = self.bare(model)
        rng = np.random.default_rng(101)
        for _ in range(20):
            x = rng.uniform(0.3, 1.7, 2)
            y = rng.uniform(0.3, 1.7, 2)
            lam, mu = rng.uniform(0.1, 1.0, 2)
            assert jac_x(model, x, y, lam, mu) == pytest.approx(
                jac_x(bare, x, y, lam, mu), abs=2e-7)
            assert jac_y(model, x, y, lam, mu) == pytest.approx(
                jac_y(bare, x, y, lam, mu), abs=2e-7)
            assert param_der(model, "lam", x, y, lam, mu) == pytest.approx(
                param_der(bare, "lam", x, y, lam, mu), abs=2e-7)
            assert param_der(model, "mu", x, y, lam, mu) == pytest.approx(
                param_der(bare, "mu", x, y, lam, mu), abs=2e-7)

    @pytest.mark.parametrize("name", ["predator-prey", "synthetic-tb"])
    def test_second_derivatives(self, name):
        model = build(name)
        bare = self.bare2(model)
        rng = np.random.default_rng(102)
        for _ in range(20):
            x = rng.uniform(0.3, 1.7, 2)
            y = rng.uniform(0.3, 1.7, 2)
            lam, mu = rng.uniform(0.1, 1.0, 2)
            u = rng.standard_normal(2)
            w = rng.standard_normal(2)
            for which in ("11", "12", "21", "22"):
                assert second_dirder(model, which, x, y, lam, mu, u, w) == \
                    pytest.approx(second_dirder(bare, which, x, y, lam, mu, u, w),
                                  abs=1e-5)
            for which in ("1lam", "2lam", "1mu", "2mu"):
                assert param_der(model, which, x, y, lam, mu) == pytest.approx(
                    param_der(bare, which, x, y, lam, mu), rel=1e-4, abs=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["predator-prey", "synthetic-tb"]),
           point=st.lists(st.floats(0.3, 1.7), min_size=4, max_size=4),
           params=st.lists(st.floats(0.1, 1.0), min_size=2, max_size=2),
           direction=st.lists(_entry, min_size=6, max_size=6))
    def test_directional_suppliers_match_their_fallback(self, name, point, params,
                                                        direction):
        # ddir along a direction moving x, y, lambda and mu at once agrees
        # with one forward difference of d1 and d2 along it
        model = build(name)
        fd = dataclasses.replace(model, ddir=None)
        x, y = np.array(point[:2]), np.array(point[2:])
        d = (np.array(direction[:2]), np.array(direction[2:4]), direction[4], direction[5])
        for got, want in zip(*_dirder(model, x, y, *params, d),
                             *_dirder(fd, x, y, *params, d), strict=True):
            assert got == pytest.approx(want, rel=1e-4, abs=1e-5)


class TestPredatorPreyPoint:
    def test_equilibrium(self):
        model = predator_prey()
        x = np.array([1.0, 1.0])
        assert np.max(np.abs(eval_f(model, x, x, 0.5, 2.0))) == 0.0

    def test_parameter_identities(self):
        # at the double-zero point: m^2 = 4 a D^2 and m = K D, at the
        # builder's default constants
        p = {k: v.default for k, v in inspect.signature(predator_prey).parameters.items()}
        D, K = 0.5, 2.0
        assert abs(p["mu_growth"] ** 2 - 4.0 * p["a"] * D * D) <= 1e-12
        assert abs(p["mu_growth"] - K * D) <= 1e-12

    def test_rank_drop_only_at_point(self):
        model = predator_prey()
        x = np.array([1.0, 1.0])
        M = jac_x(model, x, x, 0.5, 2.0) + jac_y(model, x, x, 0.5, 2.0)
        assert np.linalg.matrix_rank(M) == 1
        x2 = np.array([1.2, 1.2])
        M2 = jac_x(model, x2, x2, 0.6, 2.0) + jac_y(model, x2, x2, 0.6, 2.0)
        assert np.linalg.matrix_rank(M2) == 2


class TestSyntheticPoint:
    def test_origin_equilibrium_all_params(self):
        model = synthetic_tb()
        z = np.zeros(2)
        assert np.max(np.abs(eval_f(model, z, z, 0.0, 0.0))) == 0.0

    def test_sum_matrix_is_designed_nilpotent_times_minus_one(self):
        model = synthetic_tb()
        z = np.zeros(2)
        M = jac_x(model, z, z, 0.0, 0.0) + jac_y(model, z, z, 0.0, 0.0)
        assert M == pytest.approx(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_custom_coefficients_change_quadratics_only(self):
        base = synthetic_tb()
        other = synthetic_tb(a1=3.0)
        z = np.zeros(2)
        assert np.array_equal(jac_x(base, z, z, 0.0, 0.0),
                              jac_x(other, z, z, 0.0, 0.0))
        u = np.array([1.0, 0.0])
        d_base = second_dirder(base, "11", z, z, 0.0, 0.0, u, u)
        d_other = second_dirder(other, "11", z, z, 0.0, 0.0, u, u)
        assert d_other[0] == pytest.approx(3.0 * d_base[0])


# -- the callbacks as they were written before they ran on Python floats:
#    synthetic-tb in its matrix form, predator-prey on numpy scalars.  The
#    models' callbacks must give these values bit for bit.

def matrix_synthetic_tb(a1=1.0, a2=1.0, a3=1.0, a4=1.0, a5=1.0, a6=-1.0, tau=1.0):
    A = np.array([[-1.0, 1.0], [0.0, 0.0]])
    B = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = np.array([0.0, 1.0])
    q = np.array([1.0, 1.0])
    C = np.array([[0.0, 0.0], [1.0, 0.0]])
    E = np.array([[0.0, 1.0], [0.0, 0.0]])

    def f(x, y, lam, mu):
        quad = np.array([
            a1 * x[0] ** 2 + a2 * x[0] * y[0] + a3 * y[1] ** 2,
            a4 * x[1] ** 2 + a5 * x[1] * y[0] + a6 * y[0] ** 2,
        ])
        return A @ x + B @ y + lam * p + mu * q + lam * (C @ x) + mu * (E @ y) + quad

    def d1(x, y, lam, mu):
        return A + lam * C + np.array([
            [2.0 * a1 * x[0] + a2 * y[0], 0.0],
            [0.0, 2.0 * a4 * x[1] + a5 * y[0]],
        ])

    def d2(x, y, lam, mu):
        return B + mu * E + np.array([
            [a2 * x[0], 2.0 * a3 * y[1]],
            [a5 * x[1] + 2.0 * a6 * y[0], 0.0],
        ])

    def dlam(x, y, lam, mu):
        return p + C @ x

    def dmu(x, y, lam, mu):
        return q + E @ y

    def ddir(x, y, lam, mu, dx, dy, dlam, dmu):
        return np.array([
            dlam * C + np.array([[2.0 * a1 * dx[0] + a2 * dy[0], 0.0],
                                 [0.0, 2.0 * a4 * dx[1] + a5 * dy[0]]]),
            dmu * E + np.array([[a2 * dx[0], 2.0 * a3 * dy[1]],
                                [a5 * dx[1] + 2.0 * a6 * dy[0], 0.0]]),
        ])

    return dict(f=f, d1=d1, d2=d2, dlam=dlam, dmu=dmu, ddir=ddir)


def numpy_predator_prey(r=1.0, a=1.0, mu_growth=1.0, tau=1.0):
    m = mu_growth

    def g(y1):
        return y1 / (a + y1 * y1)

    def gp(y1):
        return (a - y1 * y1) / (a + y1 * y1) ** 2

    def gpp(y1):
        return 2.0 * y1 * (y1 * y1 - 3.0 * a) / (a + y1 * y1) ** 3

    def f(x, y, D, K):
        return np.array([
            r * x[0] * (1.0 - x[0] / K) - y[0] * x[1] / (a + y[0] * y[0]),
            x[1] * (m * g(y[0]) - D),
        ])

    def d1(x, y, D, K):
        return np.array([
            [r * (1.0 - 2.0 * x[0] / K), -g(y[0])],
            [0.0, m * g(y[0]) - D],
        ])

    def d2(x, y, D, K):
        return np.array([
            [-x[1] * gp(y[0]), 0.0],
            [x[1] * m * gp(y[0]), 0.0],
        ])

    def dlam(x, y, D, K):
        return np.array([0.0, -x[1]])

    def dmu(x, y, D, K):
        return np.array([r * x[0] ** 2 / K ** 2, 0.0])

    def ddir(x, y, D, K, dx, dy, dD, dK):
        g1, g2 = gp(y[0]), gpp(y[0])
        return np.array([
            [[-(2.0 * r / K) * dx[0] + 2.0 * r * x[0] / K ** 2 * dK, -g1 * dy[0]],
             [0.0, m * g1 * dy[0] - dD]],
            [[-g1 * dx[1] - x[1] * g2 * dy[0], 0.0],
             [m * g1 * dx[1] + x[1] * m * g2 * dy[0], 0.0]],
        ])

    return dict(f=f, d1=d1, d2=d2, dlam=dlam, dmu=dmu, ddir=ddir)


# a number of either sign and of magnitude 1e-8 to 1e3, or an exact zero of
# either sign
_nonzero = st.builds(lambda sign, m, k: sign * m * 10.0 ** k, st.sampled_from([1.0, -1.0]),
                     st.floats(1.0, 10.0), st.integers(-8, 2))
_value = st.sampled_from([0.0, -0.0]) | _nonzero


def assert_bitwise(got, want):
    """Equal values and equal signs, so an exact zero keeps its sign too."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), \
        (got, want)


def assert_same_callbacks(model, reference, point, direction):
    x, y = np.array(point[:2]), np.array(point[2:4])
    args = (x, y, *point[4:])
    for name in ("f", "d1", "d2", "dlam", "dmu"):
        assert_bitwise(getattr(model, name)(*args), reference[name](*args))
    d = (np.array(direction[:2]), np.array(direction[2:4]), *direction[4:])
    assert_bitwise(model.ddir(*args, *d), reference["ddir"](*args, *d))


SYNTHETIC_PARAMS = [
    {}, {"a4": -1.75, "a6": 1.2}, {"a6": 0.0},
    # quadratics that can be -0.0, so that the sign of a zero linear part shows in f
    {"a1": -1.0, "a2": 0.5, "a3": -2.0, "a4": -1.0, "a5": 0.0, "a6": -0.5}]


class TestCallbacksOnPythonFloats:
    """Each callback gives its reference form's values bit for bit, the sign
    of an exact zero included."""

    @settings(max_examples=400, deadline=None)
    @given(params=st.sampled_from(SYNTHETIC_PARAMS),
           point=st.lists(_value, min_size=6, max_size=6),
           direction=st.lists(_value, min_size=6, max_size=6))
    def test_synthetic_tb_equals_the_matrix_form(self, params, point, direction):
        assert_same_callbacks(synthetic_tb(**params), matrix_synthetic_tb(**params),
                              point, direction)

    @pytest.mark.parametrize("params", SYNTHETIC_PARAMS)
    def test_synthetic_tb_at_every_signed_zero(self, params):
        # every point and direction whose entries are +-0.0: where the sign
        # of a zero can differ at all
        model, reference = synthetic_tb(**params), matrix_synthetic_tb(**params)
        for zeros in itertools.product([0.0, -0.0], repeat=6):
            assert_same_callbacks(model, reference, list(zeros), list(zeros))

    @pytest.mark.parametrize("K", [2.0, -0.5])
    def test_predator_prey_at_every_signed_zero(self, K):
        model, reference = predator_prey(), numpy_predator_prey()
        for zeros in itertools.product([0.0, -0.0], repeat=6):
            assert_same_callbacks(model, reference, [*zeros[:5], K], list(zeros))

    @settings(max_examples=400, deadline=None)
    @given(params=st.sampled_from([{}, {"r": 1.3, "a": 0.7, "mu_growth": 2.0}]),
           point=st.lists(_value, min_size=5, max_size=5), K=_nonzero,
           direction=st.lists(_value, min_size=6, max_size=6))
    def test_predator_prey_equals_numpy_scalars(self, params, point, K, direction):
        assert_same_callbacks(predator_prey(**params), numpy_predator_prey(**params),
                              point + [K], direction)

    @pytest.mark.parametrize("name", ["predator-prey", "synthetic-tb"])
    def test_numpy_scalar_arguments(self, name):
        # lam, mu and the direction's numbers may be numpy scalars, as
        # Newton's TbCandidate.unpack and a caller's arrays give them
        model = build(name)
        x, y = np.array([1.1, 0.9]), np.array([0.8, 1.2])
        lam, mu, dlam, dmu = np.float64(0.45), np.float64(1.9), np.float64(0.3), np.float64(-0.2)
        for cb in ("f", "d1", "d2", "dlam", "dmu"):
            assert_bitwise(getattr(model, cb)(x, y, lam, mu),
                           getattr(model, cb)(x, y, float(lam), float(mu)))
        assert_bitwise(model.ddir(x, y, lam, mu, y, x, dlam, dmu),
                       model.ddir(x, y, 0.45, 1.9, y, x, 0.3, -0.2))
