"""End-to-end acceptance checks.

Each test exercises one headline capability at its contractual tolerance and
prints a single PASS line (visible with ``pytest -s`` or ``-rP``).  The
fine-grained behavior is covered by the per-module test files; this suite is
the release gate.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from tbdde import (Functionals, TbCandidate, certify, cli, compute_basis, newton_solve,
                   predator_prey, synthetic_tb)
from tbdde.defining import jacobian, residual
from tbdde.eigenstructure import tb_existence_test
from tbdde.verify import double_zero_check
from tbdde.model import jac_x, jac_y
from tbdde import linalg

FIXTURES = Path(__file__).parent / "fixtures"

L10 = Functionals(l1=[1.0, 0.0], l2=[1.0, 0.0])

STARTS = [
    ([1.1, 1.1], [1.0, 0.0], [3.0, 0.0], 0.4, 1.0),
    ([1.2, 1.2], [1.2, 1.0], [1.0, 0.0], 0.5, 0.5),
    ([1.5, 1.5], [1.5, 1.5], [1.5, 1.5], 0.6, 1.6),
    ([3.0, 1.5], [1.2, 0.5], [1.8, -1.8], 0.45, 1.9),
]
REFERENCE_COUNTS = (5, 7, 7, 6)

TARGET = np.array([1.0, 1.0, 1.0, 0.0, 0.0, -2.0, 0.5, 2.0])


def _cand(row):
    x, p1, p2, lam, mu = row
    return TbCandidate(x=np.array(x), phi1=np.array(p1), phi2=np.array(p2),
                       lam=lam, mu=mu)


def _solve_all():
    return [newton_solve(predator_prey(), _cand(row), L10) for row in STARTS]


@pytest.fixture(scope="module")
def reports():
    return _solve_all()


@pytest.fixture(scope="module")
def solved(reports):
    return reports[0].solution


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_01_iteration_counts_and_residuals(reports):
    t0 = time.perf_counter()
    fresh = _solve_all()
    elapsed = time.perf_counter() - t0
    counts = []
    for rep, expected in zip(fresh, REFERENCE_COUNTS):
        assert rep.converged
        assert abs(rep.iterations - expected) <= 2
        assert rep.residual_history[-1] <= 1e-12
        assert np.max(np.abs(rep.solution.pack() - TARGET)) <= 1e-9
        counts.append(rep.iterations)
    assert elapsed < 1.0
    _ok(1, f"four starts converge in {counts} iterations "
           f"(reference {list(REFERENCE_COUNTS)}), {elapsed * 1e3:.0f} ms total")


def test_02_point_recovery(solved):
    assert np.max(np.abs(solved.x - [1.0, 1.0])) <= 1e-10
    assert abs(solved.lam - 0.5) <= 1e-10
    assert abs(solved.mu - 2.0) <= 1e-10
    _ok(2, "recovered x=(1,1), D=1/2, K=2 to 1e-10")


def test_03_parameter_identities(solved):
    m, a = 1.0, 1.0  # growth and interference constants of the builtin model
    D, K = solved.lam, solved.mu
    assert abs(m * m - 4.0 * a * D * D) <= 1e-9
    assert abs(m - K * D) <= 1e-9
    _ok(3, "m^2 - 4 a D^2 = 0 and m = K D hold at the solved point")


def test_04_basis_identity_residuals(solved, basis_residuals):
    worst = 0.0
    for model, x, lam, mu in ((predator_prey(), solved.x, solved.lam, solved.mu),
                              (synthetic_tb(), np.zeros(2), 0.0, 0.0)):
        f1 = jac_x(model, x, x, lam, mu)
        f2 = jac_y(model, x, x, lam, mu)
        basis = compute_basis(f1, f2)
        worst = max(worst, float(np.max(basis_residuals(basis, f1, f2))))
    assert worst <= 1e-9
    _ok(4, f"all six chain identities hold on both models (worst {worst:.1e})")


def test_05_existence_discrimination(solved):
    model = predator_prey()
    f1 = jac_x(model, solved.x, solved.x, solved.lam, solved.mu)
    f2 = jac_y(model, solved.x, solved.x, solved.lam, solved.mu)
    assert tb_existence_test(f1, f2).passed
    D = solved.lam - 0.05
    x1 = (1.0 - np.sqrt(1.0 - 4.0 * D * D)) / (2.0 * D)
    x = np.array([x1, (1.0 - x1 / solved.mu) * (1.0 + x1 * x1)])
    f1p = jac_x(model, x, x, D, solved.mu)
    f2p = jac_y(model, x, x, D, solved.mu)
    assert not tb_existence_test(f1p, f2p).passed
    _ok(5, "existence test passes at the solution, fails at D shifted by 0.05")


def test_06_jacobian_agreement_and_conditioning(solved, fd_jacobian):
    model = predator_prey()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        d = rng.standard_normal(8)
        d *= 0.1 * rng.uniform() / np.linalg.norm(d)
        v = TbCandidate.unpack(solved.pack() + d, 2)
        Ja = jacobian(model, v, L10)
        Jf = fd_jacobian(model, v, L10)
        worst = max(worst, float(np.max(np.abs(Ja - Jf)) / np.max(np.abs(Ja))))
    assert worst <= 1e-5
    cond = linalg.cond_estimate(jacobian(model, solved, L10))
    assert np.isfinite(cond) and cond < 1e8
    _ok(6, f"block and whole-residual FD Jacobians agree to {worst:.1e}; "
           f"condition at the solution {cond:.1e}")


def test_07_quadratic_convergence(reports):
    r = [v for v in reports[0].residual_history if v > 0]
    for a, b in list(zip(r, r[1:]))[-3:]:
        assert b <= 1e4 * a * a
    _ok(7, "last residuals contract quadratically (r+ <= 1e4 r^2)")


def test_08_double_zero_certificate(solved):
    res, range_value, nd_value, ok = double_zero_check(predator_prey(), solved.x,
                                                       solved.lam, solved.mu)
    assert ok
    assert res <= 1e-10 and abs(range_value) <= 1e-8 and abs(nd_value) >= 1e-4
    _ok(8, f"|f|={res:.1e}, range value {range_value:.1e}, "
           f"nondegeneracy value {nd_value:.3f}")


def test_09_synthetic_reference_point():
    model = synthetic_tb()
    target = TbCandidate(x=np.zeros(2), phi1=np.array([2.0 / 3.0, 0.0]),
                         phi2=np.array([4.0 / 27.0, 4.0 / 3.0]),
                         lam=0.0, mu=0.0)
    assert np.max(np.abs(residual(model, target, L10))) <= 1e-14
    rng = np.random.default_rng(99)
    v0 = TbCandidate.unpack(target.pack() + 0.1 * rng.uniform(-1, 1, 8), 2)
    report = newton_solve(model, v0, L10)
    assert report.converged
    sol = report.solution
    assert np.max(np.abs(sol.pack() - target.pack())) <= 1e-10
    verdict = certify(report.linearization)
    assert abs(verdict.d0 - 11.0 * np.sqrt(2.0) / 4.0) <= 1e-9
    _ok(9, f"designed point recovered to 1e-10; d0 = {verdict.d0:.12f} "
           f"(exact 11*sqrt(2)/4)")


def test_10_cli_contract(capsys):
    for k in range(1, 5):
        code = cli.main(["solve", "--config",
                         str(FIXTURES / f"solve_pp_{k}.json"), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc
        assert doc["report"]["converged"] and doc["verdict"]["passed"]
    code = cli.main(["verify", "--config",
                     str(FIXTURES / "verify_pp_off.json"), "--json"])
    capsys.readouterr()
    assert code == 3
    _ok(10, "four solve fixtures exit 0 with round-tripping JSON; "
            "off-point verify fixture exits 3")
