"""Cost of ``tbdde.verify.spectral_scan`` against the state dimension n.

Run it from the root of a checkout as ``python3 tools/scan_cost.py``.  It
imports the package from ``src/`` and the lifted models from
``bench/lifted.py`` (which it only imports), pins BLAS to one thread, and
times one scan of each case by process time, as the median of a few runs
after one untimed run, whose answer is checked:

- the lifted model at n = 2, 8, 32 and 128 without a hidden component
  ("plain"), and at n = 8, 32 and 128 with one ("hidden"; n = 2 has no room
  for it), each at its exact double zero, the origin;
- the predator-prey Takens-Bogdanov point, x = (1, 1), lambda = 0.5, mu = 2.

It prints one JSON line, the milliseconds per scan by case.  It exits 1 if
a hidden model's scan misses its roots +-i pi/2, or if the scan of a plain
model or of the predator-prey point reports a root other than the double
zero.
"""

import os

# BLAS threads are pinned before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib
import json
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from lifted import HIDDEN_ROOTS, build_lifted  # noqa: E402

SIZES = (2, 8, 32, 128)
RUNS = 5            # timed scans per case; the median is reported
ROOT_TOL = 1e-10    # distance of a found root from +-i pi/2


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
    ms, wrong = {}, []
    for name, model, x, lam, mu, expected in cases(tb):
        _, warn = tb.verify.spectral_scan(model, x, lam, mu)
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
    print(json.dumps({"scan_ms": ms, "runs": RUNS, "blas_threads": 1}))
    for line in wrong:
        print(f"error: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
