import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import tbdde

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# the package's public names: a change here is a change to its interface
PUBLIC = [
    "DdeModel", "EigenBasis",
    "Functionals", "InputError", "Linearization", "NearSingular", "NewtonOptions",
    "NewtonReport", "TbCandidate", "TbVerdict", "TbddeError",
    "build", "certify", "compute_basis", "linearize", "newton_solve",
    "predator_prey", "registry",
    "spectral_scan", "synthetic_tb",
]

# the functions that only the benchmark keeps, by module: bench/ calls or
# traces them by name, and no other package code calls them
BENCH_ONLY = {
    "defining": {"residual", "jacobian"},
    "eigenstructure": {"tb_existence_test"},
    "linalg": {"solve", "bordered_solve", "det"},
    "model": {"eval_f", "jac_x", "jac_y", "second_dirder", "param_der"},
    "verify": {"characteristic", "quadratic_check", "double_zero_check"},
}


def test_public_names_frozen_and_resolve():
    assert sorted(tbdde.__all__) == PUBLIC
    assert len(set(tbdde.__all__)) == len(tbdde.__all__)
    for name in tbdde.__all__:
        getattr(tbdde, name)


def test_nu_system_error_removed():
    # nu is a product with the basis's pseudoinverse: no system of its own
    # to refuse, so no error class for one
    assert not hasattr(tbdde.errors, "SingularNuSystem")


def _bench_names():
    """(module, name) of every function bench/tracer.py traces and every
    tb.<module>.<name> that the benchmark's sources reach, and the model
    fields of the tracer's CALLBACK_GROUPS, all read from the sources."""
    tables = {}
    for node in ast.parse((ROOT / "bench" / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("TRACED", "CALLBACK_GROUPS"):
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    names = {(module, name) for module, fnames in tables["TRACED"].items()
             for name in fnames}
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name) and node.value.value.id == "tb"):
                names.add((node.value.attr, node.attr))
    return names, set(tables["CALLBACK_GROUPS"])


def test_benchmark_names_resolve():
    # a traced run patches these names and the workloads call them: one
    # renamed or deleted fails the benchmark, so it fails here first
    names, fields = _bench_names()
    assert {("model", "jac_x"), ("verify", "quadratic_check"), ("cli", "main")} <= names
    script = ("import importlib, json, sys\n"
              "from tbdde.model import DdeModel\n"
              "names, fields = json.loads(sys.argv[1])\n"
              "model = DdeModel(n=1, tau=1.0, f=abs)\n"
              "print(json.dumps([f'{m}.{n}' for m, n in names\n"
              "                  if not hasattr(importlib.import_module('tbdde.' + m), n)]\n"
              "                 + [f for f in fields if not hasattr(model, f)]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    arg = json.dumps([sorted(names), sorted(fields)])
    out = subprocess.run([sys.executable, "-c", script, arg],
                         capture_output=True, text=True, check=True, env=env)
    assert json.loads(out.stdout) == []


def _references(module: str, tree: ast.Module) -> list:
    """Where the module ``module`` of the package refers to a BENCH_ONLY
    function outside that function's own body: by name, through an import
    of it, or as an attribute of an imported package module."""
    own = BENCH_ONLY.get(module, set())
    bare = set(own)              # names that are a benchmark-only function here
    modules = {}                 # local name -> package module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name in BENCH_ONLY.get(node.module, ()):
                    bare.add(alias.asname or alias.name)
                    found.append(f"{module}:{node.lineno} imports {node.module}.{alias.name}")
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in own:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in bare:
                found.append(f"{module}:{node.lineno} uses {node.id}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.attr in BENCH_ONLY.get(modules.get(node.value.id), ())):
                found.append(f"{module}:{node.lineno} uses {node.value.id}.{node.attr}")
    return found


def test_no_package_code_calls_a_benchmark_only_function():
    # each is reached by the benchmark and nowhere else: the package
    # evaluates a point only through model.linearize, decides a double zero
    # by compute_basis, certifies it by verify.certify, and exports none of them
    names, _ = _bench_names()
    assert {(m, n) for m, fns in BENCH_ONLY.items() for n in fns} <= names
    found = []
    for path in sorted((SRC / "tbdde").glob("*.py")):
        found += _references(path.stem, ast.parse(path.read_text()))
    assert found == []
    assert not set(tbdde.__all__) & set().union(*BENCH_ONLY.values())
