"""In-memory span tracing around calls into the package's public functions.

The tracer patches each traced function by name in every ``tbdde`` module
that holds it: the package's modules import each other's functions with
``from .x import y``, so ``tbdde.defining.jac_x`` must be patched as well as
``tbdde.model.jac_x``.  Model callbacks are traced by wrapping the fields of
the ``DdeModel`` dataclass through ``dataclasses.replace``.

A span is (name, start, end, parent span, case id).  Self time is a span's
duration minus the duration of its direct children.  Spans stay in memory
and are written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

TRACED = {
    "cli": ("main",),
    "defining": ("newton_solve", "residual", "jacobian"),
    "linalg": ("cond_estimate", "solve", "rank_and_nullspace", "bordered_solve", "det"),
    "model": ("eval_f", "jac_x", "jac_y", "second_dirder", "param_der"),
    "eigenstructure": ("compute_basis", "tb_existence_test"),
    "verify": ("quadratic_check", "double_zero_check", "characteristic", "spectral_scan"),
}

# DdeModel field -> callback group reported as models.<group>
CALLBACK_GROUPS = {
    "f": "f", "d1": "d1", "d2": "d2",
    "dlam": "dparam", "dmu": "dparam", "d1lam": "dparam", "d2lam": "dparam",
    "d1mu": "dparam", "d2mu": "dparam",
    "d11": "d2nd", "d12": "d2nd", "d21": "d2nd", "d22": "d2nd",
}

_PARAM_SUPPLIER = {"lam": "dlam", "mu": "dmu", "1lam": "d1lam", "2lam": "d2lam",
                   "1mu": "d1mu", "2mu": "d2mu"}


def _fd_served(name: str, args, kwargs) -> bool:
    """Whether a derivative request on the model layer falls back to differences."""
    model = args[0]
    if name == "jac_x":
        return model.d1 is None
    if name == "jac_y":
        return model.d2 is None
    which = args[1] if len(args) > 1 else kwargs["which"]
    if name == "second_dirder":
        return getattr(model, "d" + str(which)) is None
    return getattr(model, _PARAM_SUPPLIER[which]) is None


class Tracer:
    """Collects spans and per-name call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_case = array("l")
        self._stack: list[list] = []      # [span index, child seconds]
        self.case_id = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._patched: list[tuple] = []

    # -- spans

    def _span(self, name: str, fn, *args, **kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_case.append(self.case_id)
        frame = [idx, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            if self._stack:
                self._stack[-1][1] += dur
            self.span_start[idx] = t0
            self.span_end[idx] = t1
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]

    def _wrap_function(self, module: str, fname: str, fn):
        name = f"{module}.{fname}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self._span(name, fn, *args, **kwargs)
            if fname == "newton_solve":
                self.counters["newton_iters"] += out.iterations
            elif module == "model" and fname != "eval_f":
                self.counters["deriv_requests"] += 1
                self.counters["deriv_fd"] += _fd_served(fname, args, kwargs)
            elif fname == "spectral_scan":
                grid = kwargs.get("grid", args[5] if len(args) > 5 else 12)
                self.counters["scan_roots"] += len(out[0])
                self.counters["scan_seeds"] += grid * grid
            return out
        return traced

    def wrap_model(self, model):
        """A copy of ``model`` whose supplied callbacks record spans."""
        def wrap(group, fn):
            name = f"models.{group}"
            return functools.wraps(fn)(lambda *a: self._span(name, fn, *a))
        fields = {f: wrap(g, getattr(model, f)) for f, g in CALLBACK_GROUPS.items()
                  if getattr(model, f) is not None}
        return dataclasses.replace(model, **fields)

    # -- patching

    def install(self, tb) -> None:
        """Patch every traced function, and models.build to return traced models."""
        mods = [m for k, m in list(sys.modules.items())
                if k == "tbdde" or k.startswith("tbdde.")]
        targets = {}
        for module, fnames in TRACED.items():
            for fname in fnames:
                fn = getattr(getattr(tb, module), fname)
                targets[id(fn)] = self._wrap_function(module, fname, fn)
        build = tb.models.build
        targets[id(build)] = functools.wraps(build)(
            lambda *a, **k: self.wrap_model(build(*a, **k)))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and callable(value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, targets[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- output

    def per_case(self, cases: int) -> dict:
        """Per-case means of calls and self milliseconds, keyed by span name."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name] / cases
            out[f"{name}.self_ms"] = 1e3 * self.self_s[name] / cases
        return out

    def dump(self, path: str) -> None:
        """Write every span as a structured numpy array with a name table."""
        spans = np.rec.fromarrays(
            [np.frombuffer(self.span_name, dtype=np.int64),
             np.frombuffer(self.span_start), np.frombuffer(self.span_end),
             np.frombuffer(self.span_parent, dtype=np.int64),
             np.frombuffer(self.span_case, dtype=np.int64)],
            names="name,start,end,parent,case")
        np.savez(path, spans=spans, names=np.array(self.names))
