import numpy as np
import pytest

from tbdde import (DdeModel, InputError, eval_f, hessian_blocks, jac_x, jac_y,
                   param_der, predator_prey, second_dirder)

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
    @pytest.mark.parametrize("fields", [
        ("d1", "d2", "d11", "d12", "d21", "d22"), ("d11", "d22"), ()],
        ids=["suppliers", "partial", "bare"])
    def test_columns_are_second_dirders(self, pp, fields):
        model = DdeModel(n=2, tau=1.0, f=pp.f,
                         **{name: getattr(pp, name) for name in fields})
        rng = np.random.default_rng(12)
        x = rng.uniform(0.8, 1.4, 2)
        u = rng.standard_normal(2)
        Dx, Dy = hessian_blocks(model, x, 0.5, 2.0, u)
        for j, ej in enumerate(np.eye(2)):
            def sd(which):
                return second_dirder(model, which, x, x, 0.5, 2.0, u, ej)
            assert Dx[:, j] == pytest.approx(sd("11") + sd("12"), rel=1e-9, abs=1e-9)
            assert Dy[:, j] == pytest.approx(sd("21") + sd("22"), rel=1e-9, abs=1e-9)

    def test_bare_matches_suppliers(self, pp):
        bare = DdeModel(n=2, tau=1.0, f=pp.f)
        u = np.array([0.3, -1.1])
        for got, want in zip(hessian_blocks(bare, TB_ARGS[0], 0.5, 2.0, u),
                             hessian_blocks(pp, TB_ARGS[0], 0.5, 2.0, u)):
            assert got == pytest.approx(want, abs=1e-6)

    def test_zero_direction(self):
        bare = DdeModel(n=2, tau=1.0, f=predator_prey().f)
        Dx, Dy = hessian_blocks(bare, TB_ARGS[0], 0.5, 2.0, np.zeros(2))
        assert not np.any(Dx) and not np.any(Dy)


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


def test_invalid_construction():
    with pytest.raises(InputError):
        DdeModel(n=0, tau=1.0, f=lambda x, y, l, u: x)
    with pytest.raises(InputError):
        DdeModel(n=1, tau=-1.0, f=lambda x, y, l, u: x)
