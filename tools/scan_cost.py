"""Cost of ``tbdde.verify.spectral_scan`` against the state dimension n.

Run it from the root of a checkout as ``python3 tools/scan_cost.py``.  It
imports the package from ``src/`` and the lifted models from
``bench/lifted.py`` (which it only imports), pins BLAS to one thread, and
times one scan of each case by process time, as the median of a few runs
after one untimed run, whose answer is checked and whose kernel matrices
and model callbacks are counted:

- the lifted model at n = 2, 8, 32 and 128 without a hidden component
  ("plain"), and at n = 8, 32 and 128 with one ("hidden"; n = 2 has no room
  for it), each at its exact double zero, the origin;
- the predator-prey Takens-Bogdanov point, x = (1, 1), lambda = 0.5, mu = 2.

It prints one JSON line: the milliseconds per scan by case, and by case the
matrices that the untimed scan gives to each of numpy's ``linalg.inv``,
``linalg.svd`` and ``linalg.solve`` (a stack counts each of its matrices)
and its calls to the model's ``f``, ``d1`` and ``d2``.  The counts repeat
exactly from run to run, where the timings on a shared host drift.  It
exits 1 if a hidden model's scan misses its roots +-i pi/2, if the scan of
a plain model or of the predator-prey point reports a root other than the
double zero, or if a scan does not call each of ``f``, ``d1`` and ``d2``
exactly once: the scan reads one linearization of the point.
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

from lifted import HIDDEN_ROOTS, build_lifted  # noqa: E402

SIZES = (2, 8, 32, 128)
RUNS = 5            # timed scans per case; the median is reported
ROOT_TOL = 1e-10    # distance of a found root from +-i pi/2
KERNELS = ("inv", "svd", "solve")   # the np.linalg functions whose matrices are counted
CALLBACKS = ("f", "d1", "d2")       # the model callbacks counted, each called once a scan


@contextlib.contextmanager
def counted_kernels():
    """Count the matrices given to each of KERNELS while the block runs."""
    counts = dict.fromkeys(KERNELS, 0)
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


def counting_model(model, counts: Counter):
    """``model`` with each of CALLBACKS counting its calls in ``counts``."""
    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    return dataclasses.replace(model, **{name: counted(name, getattr(model, name))
                                         for name in CALLBACKS})


def cases(tb):
    """(name, model, x, lam, mu, expected axis roots) for every timed case."""
    for n in SIZES:
        for hidden in (False, True):
            if hidden and n < 3:
                continue
            lifted = build_lifted(tb, n, 0, hidden)
            yield (f"lifted-n{n}-{'hidden' if hidden else 'plain'}", lifted.model,
                   lifted.exact.x, 0.0, 0.0, lifted.expected_axis_roots)
    yield ("predator-prey", tb.models.build("predator-prey"),
           np.array([1.0, 1.0]), 0.5, 2.0, ())


def main() -> int:
    tb = SimpleNamespace(**{m: importlib.import_module(f"tbdde.{m}") for m in
                            ("defining", "eigenstructure", "model", "models", "verify")})
    ms, matrices, callbacks, wrong = {}, {}, {}, []
    for name, model, x, lam, mu, expected in cases(tb):
        callbacks[name] = Counter()
        with counted_kernels() as matrices[name]:
            _, warn = tb.verify.spectral_scan(counting_model(model, callbacks[name]), x, lam, mu)
        times = []
        for _ in range(RUNS):
            start = time.process_time()
            tb.verify.spectral_scan(model, x, lam, mu)
            times.append(time.process_time() - start)
        ms[name] = round(1e3 * statistics.median(times), 3)
        got = sorted(warn, key=lambda z: z.imag)
        want = sorted(expected, key=lambda z: z.imag)
        if len(got) != len(want) or any(abs(g - w) > ROOT_TOL for g, w in zip(got, want)):
            wrong.append(f"{name}: axis roots {got}, expected {want}")
        if callbacks[name] != dict.fromkeys(CALLBACKS, 1):
            wrong.append(f"{name}: callbacks {dict(callbacks[name])}, expected one each of "
                         f"{', '.join(CALLBACKS)}")
    print(json.dumps({"scan_ms": ms, "matrices": matrices, "callbacks": callbacks,
                      "runs": RUNS, "blas_threads": 1}))
    for line in wrong:
        print(f"error: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
