"""Cost of one step of ``tbdde.defining.newton_solve`` against the state dimension n.

Run it from the root of a checkout as ``python3 tools/newton_cost.py``.  It
imports the package from ``src/`` and the lifted models from
``bench/lifted.py`` (which it only imports), and pins BLAS to one thread.
Each case is a few Newton runs, each from a start near a known
Takens-Bogdanov point:

- predator-prey (n = 2) from its TB point (1, 1, 0.5, 2) moved by up to
  5% in every unknown;
- the lifted models at n = 8, 16, 24, 32 and 64 (``bench/lifted.py``,
  model seed 0, supplying only f, d1 and d2) from the exact origin moved
  by up to 0.1 in every unknown, as in the benchmark.

Each run is made once untimed, counting the model's callbacks and the
matrices given to numpy's ``linalg.inv``, ``linalg.svd`` and
``linalg.solve``, and recording the iterates at which Newton forms a
Jacobian.  At those iterates it then times, by process time, the median
over iterates of:

- ``jacobian``;
- the step both ways: the structured one (``_structured_step``, which
  Newton takes from n = ``_STRUCTURED_N`` up) and the dense guarded one
  (``linalg.solve_with_cond``), so that the crossover can be read off;
- ``linearize`` plus ``residual`` at the iterate, the rest of a step.

It prints one JSON line: by case, the steps, the callbacks and matrices
per step (exact, repeating from run to run where the timings drift) and
the microseconds of each part of a step.  It exits 1 if a run does not
converge, or if a step does not make exactly 13 ``d1``, 13 ``d2`` and
5 ``f`` calls (lifted) or 6 ``ddir`` calls (predator-prey): the six
derivative pairs of the Jacobian (two callbacks each, or one ``ddir``),
f_lambda and f_mu (four ``f`` calls, or the suppliers), and the new
iterate's f, f1 and f2.
"""

import os

# BLAS threads are pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import dataclasses
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from lifted import build_lifted  # noqa: E402

SIZES = (8, 16, 24, 32, 64)
STARTS = 3          # Newton runs per case
REPEATS = 5         # timed calls per part and iterate; the median is reported
KERNELS = ("inv", "svd", "solve")   # the np.linalg functions whose matrices are counted
CALLBACKS = ("f", "d1", "d2", "dlam", "dmu", "ddir")
#: callbacks per step, by model kind
EXPECTED = {"lifted": {"d1": 13, "d2": 13, "f": 5}, "predator-prey": {"ddir": 6}}


@contextlib.contextmanager
def counted_kernels(counts: Counter):
    """Count the matrices given to each of KERNELS while the block runs."""
    saved = {name: getattr(np.linalg, name) for name in KERNELS}

    def counted(name):
        def call(a, *args, **kwargs):
            counts[name] += len(a) if np.ndim(a) == 3 else 1
            return saved[name](a, *args, **kwargs)
        return call

    try:
        for name in KERNELS:
            setattr(np.linalg, name, counted(name))
        yield counts
    finally:
        for name, fn in saved.items():
            setattr(np.linalg, name, fn)


@contextlib.contextmanager
def recorded_jacobians(defining, points: list):
    """Record the iterate v of every ``defining.jacobian`` call while the block runs."""
    saved = defining.jacobian

    def jacobian(model, v, L, lin=None):
        points.append(v)
        return saved(model, v, L, lin)

    defining.jacobian = jacobian
    try:
        yield points
    finally:
        defining.jacobian = saved


def counting_model(model, counts: Counter):
    """``model`` with each supplied callback counting its calls in ``counts``."""
    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    return dataclasses.replace(model, **{name: counted(name, getattr(model, name))
                                         for name in CALLBACKS
                                         if getattr(model, name) is not None})


def cases(tb):
    """(name, kind, model, L, starts) for every case."""
    rng = np.random.default_rng(0)
    pp_star = np.array([1.0, 1.0, 1.0, 0.0, 0.0, -2.0, 0.5, 2.0])
    L10 = tb.defining.Functionals(l1=[1.0, 0.0], l2=[1.0, 0.0])
    yield ("predator-prey", "predator-prey", tb.models.build("predator-prey"), L10,
           [pp_star * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, 8)) for _ in range(STARTS)])
    for n in SIZES:
        lifted = build_lifted(tb, n, 0)
        exact = lifted.exact.pack()
        yield (f"lifted-n{n}", "lifted", lifted.model, lifted.L,
               [exact + 0.1 * rng.uniform(-1.0, 1.0, exact.size) for _ in range(STARTS)])


def median_us(fn) -> float:
    """The median process time of REPEATS calls of fn, in microseconds."""
    times = []
    for _ in range(REPEATS):
        start = time.process_time()
        fn()
        times.append(time.process_time() - start)
    return 1e6 * statistics.median(times)


def part_times(tb, model, L, points) -> dict:
    """The median microseconds of each part of a step over the iterates ``points``."""
    d, n = tb.defining, model.n
    parts = {"jacobian": [], "structured_step": [], "dense_step": [], "linearize_residual": []}
    for v in points:
        lin = d.linearize(model, v.x, v.lam, v.mu)
        J, r = d.jacobian(model, v, L, lin), d.residual(model, v, L, lin)
        border = np.full(n, n ** -0.5)
        parts["jacobian"].append(median_us(lambda: d.jacobian(model, v, L, lin)))
        parts["structured_step"].append(median_us(lambda: d._structured_step(J, r, v.phi1,
                                                                             border)))
        parts["dense_step"].append(median_us(lambda: tb.linalg.solve_with_cond(J, -r)))
        parts["linearize_residual"].append(median_us(lambda: d.residual(
            model, v, L, d.linearize(model, v.x, v.lam, v.mu))))
    return {part: round(statistics.median(times), 1) for part, times in parts.items()}


def main() -> int:
    tb = SimpleNamespace(**{m: importlib.import_module(f"tbdde.{m}") for m in
                            ("defining", "eigenstructure", "linalg", "model", "models",
                             "verify")})
    out, wrong = {}, []
    for name, kind, model, L, starts in cases(tb):
        steps, calls, matrices, points = 0, Counter(), Counter(), []
        for start in starts:
            counts, run_points = Counter(), []
            counted = counting_model(model, counts)
            with counted_kernels(matrices), recorded_jacobians(tb.defining, run_points):
                report = tb.defining.newton_solve(
                    counted, tb.defining.TbCandidate.unpack(start, model.n), L)
            if not report.converged:
                wrong.append(f"{name}: a run ended {report.failure_reason}")
                continue
            # the start's f, f1 and f2 come before the first step
            counts.subtract(dict.fromkeys(("f", "d1", "d2"), 1))
            for callback, per_step in EXPECTED[kind].items():
                if counts[callback] != per_step * report.iterations:
                    wrong.append(f"{name}: {counts[callback]} {callback} calls in "
                                 f"{report.iterations} steps, expected {per_step} a step")
            steps += report.iterations
            calls.update(counts)
            points += run_points
        if not steps:
            continue
        out[name] = {
            "steps": steps,
            "step_taken": "structured" if model.n >= tb.defining._STRUCTURED_N else "dense",
            "callbacks_per_step": {k: v / steps for k, v in sorted(calls.items()) if v},
            "matrices_per_step": {k: matrices[k] / steps for k in KERNELS},
            "us": part_times(tb, model, L, points),
        }
    print(json.dumps({"per_step": out, "starts": STARTS, "repeats": REPEATS,
                      "blas_threads": 1}))
    for line in wrong:
        print(f"error: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
