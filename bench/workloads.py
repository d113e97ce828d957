"""The benchmark's workloads: seeded inputs, one case runner each, answer checks.

A case is one user task.  ``setup`` builds every input from the seed; the
package only ever sees those inputs.  The inputs make a fixed pool of
``state.pool`` distinct cases, of which a traced run uses the first
``state.trace_pool``.  ``run_case`` returns None for a case that ends
certified and correct, and otherwise the reason it failed, one of
``REASONS``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
from types import SimpleNamespace

import numpy as np

from lifted import Lifted, build_lifted

REASONS = ("nonconverged", "wrong_point", "certify_error", "false_fail",
           "false_pass", "spectral_mismatch")

POINT_TOL = 1e-8     # distance of an accepted answer from the known TB point
D0_RTOL = 1e-6       # relative agreement of d0 with its value at the exact point
ROOT_TOL = 1e-6      # distance of a reported near-axis root from the expected one


# ---------------------------------------------------------------- pp-cli

# initial values of the four solve_pp_* fixtures: x, phi1, phi2, lambda, mu
PP_FIXTURE_STARTS = (
    ((1.1, 1.1), (1.0, 0.0), (3.0, 0.0), 0.4, 1.0),
    ((1.2, 1.2), (1.2, 1.0), (1.0, 0.0), 0.5, 0.5),
    ((1.5, 1.5), (1.5, 1.5), (1.5, 1.5), 0.6, 1.6),
    ((3.0, 1.5), (1.2, 0.5), (1.8, -1.8), 0.45, 1.9),
)
PP_TB = np.array([1.0, 1.0, 0.5, 2.0])   # x1, x2, D, K at the TB point
PP_START_RADIUS = 0.02                   # relative perturbation of a fixture start
PP_POOL = 1000                           # distinct cases in a run
PP_TRACE_POOL = 200                      # of them, the ones a traced run uses


def _pp_off_point(D: float, K: float) -> dict:
    """An interior equilibrium of predator-prey (r = a = m = 1) with D < 1/2.

    Prey solves x1 / (1 + x1^2) = D (smaller root); predator follows from
    the prey equation.  It is an equilibrium, but not a double zero.
    """
    x1 = (1.0 - np.sqrt(1.0 - 4.0 * D * D)) / (2.0 * D)
    x2 = (1.0 - x1 / K) * (1.0 + x1 * x1)
    return {"x": [x1, x2], "phi1": [1.0, 0.0], "phi2": [0.0, -2.0],
            "lambda": D, "mu": K}


def pp_setup(tb, seed: int, workdir: str) -> SimpleNamespace:
    rng = np.random.default_rng([seed, 1])
    # each fixture start gives the same number of cases: the share of starts
    # that converge differs from fixture to fixture (about 95% down to 30%),
    # so a drawn mix would move certified_frac from seed to seed
    which = rng.permutation(np.resize(np.arange(len(PP_FIXTURE_STARTS)), PP_POOL))
    noise = rng.uniform(-1.0, 1.0, (PP_POOL, 8))
    starts = []
    for k, eps in zip(which, noise):
        x, p1, p2, lam, mu = PP_FIXTURE_STARTS[k]
        base = np.array(x + p1 + p2 + (lam, mu))
        v = base + PP_START_RADIUS * np.maximum(1.0, np.abs(base)) * eps
        starts.append({"x": v[0:2].tolist(), "phi1": v[2:4].tolist(),
                       "phi2": v[4:6].tolist(), "lambda": v[6], "mu": v[7]})
    D = rng.uniform(0.30, 0.45, PP_POOL)
    K = rng.uniform(1.5, 3.0, PP_POOL)
    off = [_pp_off_point(d, k) for d, k in zip(D, K)]
    return SimpleNamespace(starts=starts, off=off, pool=PP_POOL, trace_pool=PP_TRACE_POOL,
                           cfg_path=os.path.join(workdir, "case.json"))


def _cli(tb, state, argv_head, cfg):
    """Write cfg, run ``tbdde <argv_head> --config cfg --json`` in-process."""
    with open(state.cfg_path, "w") as fh:
        json.dump(cfg, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tb.cli.main([argv_head, "--config", state.cfg_path, "--json"])
    return code, json.loads(out.getvalue())


def _unverified(doc) -> str:
    return "certify_error" if doc["verify_error"] else "false_fail"


def pp_case(tb, state, i: int):
    start = state.starts[i]
    code, doc = _cli(tb, state, "solve", {"model": "predator-prey", "initial": start,
                                          "l1": [1.0, 0.0], "l2": [1.0, 0.0]})
    rep = doc["report"]
    if not rep["converged"]:
        return "nonconverged"
    sol = rep["solution"]
    got = np.array(sol["x"] + [sol["lambda"], sol["mu"]])
    if not np.max(np.abs(got - PP_TB)) <= POINT_TOL:
        return "wrong_point"
    if code != 0:
        return _unverified(doc)
    code, doc = _cli(tb, state, "verify", {"model": "predator-prey", "point": sol})
    if code != 0:
        return _unverified(doc)
    code, _ = _cli(tb, state, "verify", {"model": "predator-prey",
                                         "point": state.off[i]})
    if code != 3:
        return "false_pass"
    return None


# ---------------------------------------------------------------- lifted

LIFTED_N = 32
LIFTED_MODEL_SEED = 0       # one fixed model; the run's seed draws the starts
LIFTED_START_RADIUS = 0.1   # absolute perturbation of every unknown
LIFTED_POOL = 400           # distinct cases in a run
LIFTED_TRACE_POOL = 50      # of them, the ones a traced run uses


def lifted_setup(tb, seed: int, n: int = LIFTED_N) -> SimpleNamespace:
    lm = build_lifted(tb, n, LIFTED_MODEL_SEED)
    rng = np.random.default_rng([seed, 2, n])
    noise = rng.uniform(-1.0, 1.0, (LIFTED_POOL, 3 * n + 2))
    starts = [tb.defining.TbCandidate.unpack(lm.exact.pack() + LIFTED_START_RADIUS * e, n)
              for e in noise]
    return SimpleNamespace(lm=lm, starts=starts, pool=LIFTED_POOL,
                           trace_pool=LIFTED_TRACE_POOL)


def lifted_case(tb, state, i: int):
    lm = state.lm
    report = tb.defining.newton_solve(lm.model, state.starts[i], lm.L)
    if not report.converged:
        return "nonconverged"
    sol = report.solution
    err = max(np.max(np.abs(sol.x - lm.exact.x)), abs(sol.lam), abs(sol.mu))
    if not err <= POINT_TOL:
        return "wrong_point"
    try:
        f1 = tb.model.jac_x(lm.model, sol.x, sol.x, sol.lam, sol.mu)
        f2 = tb.model.jac_y(lm.model, sol.x, sol.x, sol.lam, sol.mu)
        basis = tb.eigenstructure.compute_basis(f1, f2)
        verdict = tb.verify.quadratic_check(lm.model, sol, basis)
    except tb.errors.TbddeError:
        return "certify_error"
    if not verdict.passed:
        return "false_fail"
    if not abs(verdict.d0 - lm.d0) <= D0_RTOL * abs(lm.d0):
        return "false_pass"
    return None


# ---------------------------------------------------------------- spectral-axis

# every (n, hidden) pair with n in 2..8; n = 2 has no room for a hidden component
SPECTRAL_KINDS = tuple((n, hidden) for n in range(2, 9) for hidden in (False, True)
                       if n > 2 or not hidden)
SPECTRAL_PER_KIND = 4


def spectral_setup(tb, seed: int) -> SimpleNamespace:
    # A fixed suite of models (model seeds 0 .. 4*13-1), each one case of the
    # pool, and the run's seed draws which model of each kind comes next.
    # Kinds always follow in the same order, so every 13 consecutive cases
    # hold one model of each kind, and the traced run takes the first 13.
    # Scan cost differs a lot from kind to kind and model to model, so a
    # suite or a mix drawn per seed would make the medians depend on the
    # draw more than on the package.
    kinds = len(SPECTRAL_KINDS)
    models = [build_lifted(tb, n, j, hidden)
              for j, (n, hidden) in enumerate(SPECTRAL_KINDS * SPECTRAL_PER_KIND)]
    rng = np.random.default_rng([seed, 3])
    picks = rng.permuted(np.tile(np.arange(SPECTRAL_PER_KIND), (kinds, 1)), axis=1)
    # the model of kind k in copy c of the suite has index c * kinds + k
    order = (picks * kinds + np.arange(kinds)[:, None]).T.ravel()
    return SimpleNamespace(models=models, order=order, pool=len(order), trace_pool=kinds)


def spectral_case(tb, state, i: int):
    lm = state.models[state.order[i]]
    x = lm.exact.x
    if not tb.verify.double_zero_check(lm.model, x, 0.0, 0.0)[3]:
        return "false_fail"
    _, near_axis = tb.verify.spectral_scan(lm.model, x, 0.0, 0.0)
    expected = sorted(lm.expected_axis_roots, key=lambda z: z.imag)
    got = sorted(near_axis, key=lambda z: z.imag)
    if len(got) != len(expected) or any(abs(g - e) > ROOT_TOL
                                        for g, e in zip(got, expected)):
        return "spectral_mismatch"
    return None


WORKLOADS = {
    "pp-cli": (pp_setup, pp_case),
    "lifted-n32": (lambda tb, seed, workdir: lifted_setup(tb, seed), lifted_case),
    "spectral-axis": (lambda tb, seed, workdir: spectral_setup(tb, seed), spectral_case),
}


def trace_models(value, wrap):
    """``value`` with the model of every Lifted in it replaced by ``wrap(model)``."""
    if isinstance(value, Lifted):
        return dataclasses.replace(value, model=wrap(value.model))
    if isinstance(value, list) and value and isinstance(value[0], Lifted):
        return [trace_models(v, wrap) for v in value]
    return value
