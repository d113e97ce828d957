"""Benchmark of the tbdde package: time to a certified Takens-Bogdanov point.

Usage (from the root of a checkout):

    python3 bench/run.py --workload pp-cli --seed 0 --seconds 35 --trace 0

Workloads are pp-cli, lifted-n32 and spectral-axis (see bench/README.md).
Each is a closed loop with one client in this single process: the next case
starts when the previous one ends.  The run imports the package from
``src/`` of the checkout, pins BLAS to one thread and builds from the seed a
fixed pool of distinct cases.  It runs passes over the pool for the given
number of seconds, at least one whole pass, and checks each answer.  The
pool's cases are the attempted ones; a case's time is the median over its
repeats.  Times are reported at a nominal host speed, measured by a fixed
reference computation run before every case (bench/reference.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: each case runs untraced and then traced, and a
traced scaling sweep of the lifted model over n follows; the spans are
written to ``.bench_out/`` in the checkout.  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""

import os

# the runner's BLAS threads are pinned before numpy is first imported
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np   # imported here, outside the timed set-up

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MODULES = ("cli", "defining", "linalg", "model", "models", "eigenstructure",
           "verify", "errors")
SETUP_REPS = 9              # setup_s is the median of this many set-ups
TAIL_BEYOND = 10            # samples above the reported tail percentile, at least
TAIL_CAP = 95.0             # highest tail percentile reported
SWEEP_N = (2, 8, 32, 128)
SWEEP_CASES = 3             # traced cases per n in the scaling sweep
SWEEP_LAYERS = ("models.f.calls", "defining.jacobian.self_ms",
                "linalg.cond_estimate.self_ms", "verify.quadratic_check.self_ms")


def import_package() -> SimpleNamespace:
    """A fresh import of tbdde, so that repeated set-ups each pay for it."""
    for name in [k for k in sys.modules if k == "tbdde" or k.startswith("tbdde.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"tbdde.{m}") for m in MODULES})


def measure(tb, case, state, seconds: float):
    """Closed loop over the pool: cases 0 .. pool-1 back to back, then again.

    The first pass always runs to its end; further passes run until
    ``seconds`` have gone by.  Each case follows one run of the host-speed
    reference.  Returns, for every case of the pool, the wall times of its
    runs, their CPU times at nominal host speed and their failure reasons;
    and the reference's CPU times.
    """
    wall, cpu, refs, cases, reasons = [], [], [], [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        refs.append(reference.run())
        t0, c0 = time.perf_counter(), time.process_time()
        reason = case(tb, state, i % state.pool)
        t1, c1 = time.perf_counter(), time.process_time()
        wall.append(t1 - t0)
        cpu.append(c1 - c0)
        cases.append(i % state.pool)
        reasons.append(reason)
        i += 1
        if i >= state.pool and t1 - t_start >= seconds:
            break
    scale = reference.scales(refs)
    per_case = [SimpleNamespace(wall=[], nominal=[], reasons=[]) for _ in range(state.pool)]
    for k, t, c, sc, r in zip(cases, wall, cpu, scale, reasons):
        per_case[k].wall.append(t)
        per_case[k].nominal.append(c * sc)
        per_case[k].reasons.append(r)
    return per_case, refs


def certified_times(times, reasons) -> list:
    return sorted(t for t, r in zip(times, reasons) if r is None)


def tail(sorted_times):
    """(value, percentile) of the tail of the certified-case times.

    The highest percentile with TAIL_BEYOND samples beyond it, capped at
    TAIL_CAP: above the cap the value rests on a handful of samples, and on
    a shared machine those are set by host noise more than by the package.
    With too few samples for such a percentile at or above the median, it
    is the maximum, at 100.
    """
    n = len(sorted_times)
    pct = min(TAIL_CAP, 100.0 * (n - TAIL_BEYOND - 1) / n)
    if pct < 50.0:
        return sorted_times[-1], 100.0
    return float(np.percentile(sorted_times, pct)), pct


def failure_counts(reasons, workloads) -> dict:
    return {f"failed.{r}": sum(1 for x in reasons if x == r) for r in workloads.REASONS}


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(tb, workloads, case, state, seconds, setup_times):
    """The end-to-end metrics over the pool's cases.

    A case's time is the median of its repeats at nominal host speed, so one
    slow repeat, as a shared host gives now and then, does not move it; the
    percentiles are taken over those per-case times.  A case's answer is that
    of its first run, and every repeat must give the same answer.
    """
    per_case, refs = measure(tb, case, state, seconds)
    reasons = [c.reasons[0] for c in per_case]
    repeats_agree = all(len(set(c.reasons)) == 1 for c in per_case)
    ok = np.array([r is None for r in reasons])
    if not ok.any():
        raise SystemExit("no case ended certified and correct; no timing to report")
    cert = np.sort([np.median(c.nominal) for c, good in zip(per_case, ok) if good])
    tail_s, pct = tail(cert)
    runs = sum(len(c.nominal) for c in per_case)
    certified_runs = sum(len(c.nominal) for c, good in zip(per_case, ok) if good)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "certified_ms.p50": metric(1e3 * np.median(cert), "ms"),
        "certified_ms.tail": metric(1e3 * tail_s, "ms"),
        "certified_per_s": metric(certified_runs / sum(sum(c.nominal) for c in per_case), "1/s"),
        "certified_frac": metric(ok.mean(), "frac"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall_cert = np.sort([np.median(c.wall) for c, good in zip(per_case, ok) if good])
    wall_total = sum(sum(c.wall) for c in per_case)
    print(f"cases: {state.pool} in the pool, {ok.sum()} certified-correct; "
          f"{runs} runs of them ({runs / state.pool:.1f} per case); "
          f"tail = p{pct:.1f} of {ok.sum()} certified cases; "
          f"setup runs: {len(setup_times)}")
    print(f"host speed: reference median {1e3 * np.median(refs):.4f} ms CPU "
          f"(nominal {1e3 * reference.NOMINAL_S:g} ms); wall clock: "
          f"p50 {1e3 * np.median(wall_cert):.4f} ms, "
          f"tail {1e3 * tail(wall_cert)[0]:.4f} ms, "
          f"{certified_runs / wall_total:.4f} certified/s")
    print(f"failed_frac: {1 - ok.mean():.4f}  "
          + "  ".join(f"{k}={v}" for k, v in failure_counts(reasons, workloads).items()))
    if not repeats_agree:
        print("error: a case gave different answers on its repeats")
    return metrics, reasons, repeats_agree


def layer_metrics(tracer, tracer_mod, cases: int) -> dict:
    """Per-case means of the traced run, every traced name present."""
    per_case = tracer.per_case(cases)
    out = {}
    for module, fnames in tracer_mod.TRACED.items():
        for fname in fnames:
            for stat, unit in (("calls", "count"), ("self_ms", "ms")):
                key = f"{module}.{fname}.{stat}"
                out[key] = metric(per_case.get(key, 0.0), unit)
    for group in sorted(set(tracer_mod.CALLBACK_GROUPS.values())):
        out[f"models.{group}.calls"] = metric(per_case.get(f"models.{group}.calls", 0.0), "count")
    callback_ms = sum(v for k, v in per_case.items()
                      if k.startswith("models.") and k.endswith(".self_ms"))
    out["models.callbacks.self_ms"] = metric(callback_ms, "ms")
    c = tracer.counters
    out["defining.newton_solve.iters"] = metric(c["newton_iters"] / cases, "count")
    out["model.fd_share"] = metric(c["deriv_fd"] / c["deriv_requests"]
                                   if c["deriv_requests"] else 0.0, "frac")
    out["verify.spectral_scan.roots_per_seed"] = metric(
        c["scan_roots"] / c["scan_seeds"] if c["scan_seeds"] else 0.0, "count")
    return out


def traced_run(tb, workloads, tracer_mod, name, case, state, seconds, seed):
    """Passes over the traced pool for 70% of ``seconds``, at least one, with
    each case untraced and then traced, back to back; then the scaling sweep.

    Running the two copies of a case next to each other makes both see the
    same machine, so their ratio measures the tracing overhead and not drift.
    """
    tracer = tracer_mod.Tracer()
    traced_state = SimpleNamespace(**{
        k: workloads.trace_models(v, tracer.wrap_model) for k, v in vars(state).items()})
    times, reasons, t_times, t_reasons = [], [], [], []
    t_start = time.perf_counter()
    j = 0                   # runs so far; the first pass always ends
    while j < state.trace_pool or time.perf_counter() - t_start < 0.7 * seconds:
        i = j % state.trace_pool
        t0 = time.perf_counter()
        reasons.append(case(tb, state, i))
        times.append(time.perf_counter() - t0)
        tracer.case_id = j
        tracer.install(tb)
        try:
            t0 = time.perf_counter()
            t_reasons.append(case(tb, traced_state, i))
            t_times.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        j += 1
    first = reasons[:state.trace_pool]
    repeats_agree = t_reasons == reasons and all(
        r == first[k % state.trace_pool] for k, r in enumerate(reasons))
    untraced = certified_times(times, reasons)
    traced = certified_times(t_times, t_reasons)
    if not untraced or not traced:
        raise SystemExit("no case ended certified and correct; no timing to report")

    metrics = layer_metrics(tracer, tracer_mod, len(t_times))
    metrics["trace.overhead_frac"] = metric(
        statistics.median(traced) / statistics.median(untraced) - 1.0, "frac")
    metrics["failed_frac"] = metric(sum(r is not None for r in first) / len(first), "frac")
    for k, v in failure_counts(first, workloads).items():
        metrics[k] = metric(v, "count")
    tracer.dump(str(OUT / f"trace-{name}-seed{seed}.npz"))

    for n in SWEEP_N:
        sweep = tracer_mod.Tracer()
        sweep_state = workloads.lifted_setup(tb, seed, n)
        sweep_state.lm = workloads.trace_models(sweep_state.lm, sweep.wrap_model)
        sweep.install(tb)
        try:
            s_times, s_reasons = [], []
            for i in range(SWEEP_CASES):
                sweep.case_id = i
                t0 = time.perf_counter()
                s_reasons.append(workloads.lifted_case(tb, sweep_state, i))
                s_times.append(time.perf_counter() - t0)
        finally:
            sweep.uninstall()
        sweep.dump(str(OUT / f"trace-{name}-seed{seed}-sweep-n{n}.npz"))
        layers = layer_metrics(sweep, tracer_mod, SWEEP_CASES)
        metrics[f"scale.n{n}.case_ms"] = metric(1e3 * statistics.median(s_times), "ms")
        metrics[f"scale.n{n}.certified_frac"] = metric(
            sum(r is None for r in s_reasons) / SWEEP_CASES, "frac")
        for key in SWEEP_LAYERS:
            metrics[f"scale.n{n}.{key}"] = layers[key]
    if not repeats_agree:
        print("error: a case gave different answers on its repeats")
    print(f"traced: {len(first)} cases, {len(times)} runs of them, each untraced "
          f"and traced; {len(tracer.span_name)} spans")
    return metrics, first, repeats_agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tbdde" / "__init__.py").is_file():
        print(f"error: the tbdde package is not under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracer_mod
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup, case = workloads.WORKLOADS[args.workload]
    warnings.simplefilter("ignore")   # the package warns through warnings.warn

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        setup_times = []       # CPU seconds at nominal host speed
        for _ in range(SETUP_REPS):
            ref = statistics.median(reference.run() for _ in range(2 * reference.WINDOW + 1))
            c0 = time.process_time()
            tb = import_package()
            state = setup(tb, args.seed, str(workdir))
            setup_times.append((time.process_time() - c0) * reference.NOMINAL_S / ref)
        if args.trace:
            metrics, reasons, repeats_agree = traced_run(tb, workloads, tracer_mod,
                                                         args.workload, case, state,
                                                         args.seconds, args.seed)
        else:
            metrics, reasons, repeats_agree = end_to_end(tb, workloads, case, state,
                                                         args.seconds, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, BLAS threads {BLAS_THREADS}, single process, "
          f"closed loop, one client")
    for k, v in metrics.items():
        print(f"  {k:<44} {v['value']:>14.6g} {v['unit']}")
    failed = sum(r is not None for r in reasons)
    correct = repeats_agree and not any(r == "false_pass" for r in reasons)
    print(json.dumps({"correct": correct, "attempted": len(reasons), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
