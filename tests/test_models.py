import numpy as np
import pytest

from tbdde import (DdeModel, InputError, PredatorPreyParams, SyntheticTbParams,
                   build, eval_f, jac_x, jac_y, param_der, predator_prey,
                   registry, second_dirder, synthetic_tb)


class TestRegistry:
    def test_names(self):
        assert registry() == ["predator-prey", "synthetic-tb"]

    def test_build_default(self):
        for name in registry():
            model = build(name)
            assert isinstance(model, DdeModel)
            assert model.name == name
            assert all(getattr(model, f) is not None
                       for f in ("d1", "d2", "dlam", "dmu", "d11", "d12", "d21",
                                 "d22", "d1lam", "d2lam", "d1mu", "d2mu"))

    def test_build_with_constants(self):
        model = build("predator-prey", {"r": 2.0, "tau": 0.5})
        assert model.constants["r"] == 2.0
        assert model.tau == 0.5

    def test_unknown_name(self):
        with pytest.raises(InputError):
            build("lorenz")

    def test_bad_constants(self):
        with pytest.raises(InputError):
            build("predator-prey", {"bogus": 1.0})

    def test_positivity_validated(self):
        with pytest.raises(InputError):
            PredatorPreyParams(D=-0.1)
        with pytest.raises(InputError):
            PredatorPreyParams(tau=0.0)

    @pytest.mark.parametrize("params, field", [
        (PredatorPreyParams, "tau"), (PredatorPreyParams, "r"),
        (SyntheticTbParams, "a3"), (SyntheticTbParams, "tau")])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_constants_rejected(self, params, field, value):
        with pytest.raises(InputError, match=field):
            params(**{field: value})

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


class TestPredatorPreyPoint:
    def test_equilibrium(self):
        model = predator_prey()
        x = np.array([1.0, 1.0])
        assert np.max(np.abs(eval_f(model, x, x, 0.5, 2.0))) == 0.0

    def test_parameter_identities(self):
        # at the double-zero point: m^2 = 4 a D^2 and m = K D
        p = PredatorPreyParams()
        D, K = 0.5, 2.0
        assert abs(p.mu_growth ** 2 - 4.0 * p.a * D * D) <= 1e-12
        assert abs(p.mu_growth - K * D) <= 1e-12

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
        other = synthetic_tb(SyntheticTbParams(a1=3.0))
        z = np.zeros(2)
        assert np.array_equal(jac_x(base, z, z, 0.0, 0.0),
                              jac_x(other, z, z, 0.0, 0.0))
        u = np.array([1.0, 0.0])
        d_base = second_dirder(base, "11", z, z, 0.0, 0.0, u, u)
        d_other = second_dirder(other, "11", z, z, 0.0, 0.0, u, u)
        assert d_other[0] == pytest.approx(3.0 * d_base[0])
