"""The public API: every exported name resolves, the top level re-exports
only what some submodule still exports, and each module loads on first use."""

import ast
import collections
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import matpress

SUBMODULES = [
    importlib.import_module(f"matpress.{info.name}")
    for info in pkgutil.iter_modules(matpress.__path__)
    if not info.name.startswith("_")
]


def exported(mod):
    """The names ``mod`` exports: its __all__, or else the public names it
    defines itself."""
    if hasattr(mod, "__all__"):
        return list(mod.__all__)
    return [name for name, value in vars(mod).items()
            if not name.startswith("_") and getattr(value, "__module__", None) == mod.__name__]


@pytest.mark.parametrize("mod", [matpress] + SUBMODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(mod):
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_top_level_reexports_only_what_a_submodule_exports():
    # compared by identity, so an alias such as pressure_bracket counts
    sources = {id(getattr(mod, name)) for mod in SUBMODULES for name in exported(mod)}
    stale = [name for name in matpress.__all__
             if name != "__version__" and id(getattr(matpress, name)) not in sources]
    assert not stale


def run_fresh(code, *args):
    """Run ``code`` with ``args`` in a new interpreter on this suite's
    sys.path; returns the last line it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


LOADED = 'print(sorted(m.split(".")[1] for m in sys.modules if m.startswith("matpress.")))'


def test_parsing_a_measure_loads_no_bracket_module(tmp_path):
    doc = tmp_path / "mu.json"
    doc.write_text(json.dumps({"d": 2, "atoms": [{"matrix": [[0.5, 0.0], [0.0, 0.5]]}]}))
    loaded = run_fresh(f"""
import sys
import matpress
from matpress import cli
cli.parse_input(sys.argv[1])
{LOADED}
""", str(doc))
    assert loaded == repr(["cli", "errors", "linalg", "measure"])


def test_the_jsr_command_loads_only_its_modules(tmp_path):
    # what ``python -m matpress jsr doc.json`` runs
    doc = tmp_path / "mu.json"
    doc.write_text(json.dumps({"d": 2, "atoms": [{"matrix": [[0.5, 0.25], [0.0, 0.5]]}]}))
    loaded = run_fresh(f"""
import runpy, sys
sys.argv[0] = "matpress"
try:
    runpy.run_module("matpress", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
{LOADED}
""", "jsr", str(doc))
    assert loaded == repr(["_engine", "cli", "errors", "jsr", "linalg", "measure", "pressure"])


def test_every_name_resolves_after_a_bare_import():
    # the submodule first: nothing else has loaded it yet
    missing = run_fresh("""
import matpress
assert matpress.pressure.bracket is matpress.pressure_bracket
print([name for name in matpress.__all__ if not hasattr(matpress, name)])
""")
    assert missing == "[]"


def test_star_import_binds_every_exported_name():
    unbound = run_fresh("""
from matpress import *
import matpress
print([name for name in matpress.__all__ if name not in globals()])
""")
    assert unbound == "[]"


def test_an_unknown_name_raises_attribute_error():
    assert run_fresh("import matpress; print(hasattr(matpress, 'no_such_name'))") == "False"


def bindings_and_uses():
    """The package's names that must be used, and its uses.

    Names: every module-level import, and every private module-level
    function, class or assignment, as (module, name, definition or None).
    Uses: (module, name) pairs named by ``mod.name`` or ``from .mod import
    name`` anywhere, or by a string in the module's ``__all__``; and per
    module, a count of its loads of each bare name.  Local: every import
    inside a function, as (module, function, name bound); an import in a
    nested function is listed under each function around it.
    """
    root = Path(matpress.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(root.glob("*.py"))}
    names, uses, loads, local = [], set(), {}, []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [(mod, (a.asname or a.name).split(".")[0], None) for a in node.names]
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    uses.update((node.module or a.name, a.name) for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append((mod, node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if not isinstance(target, ast.Name):
                        continue
                    if target.id == "__all__":
                        uses.update((mod, c.value) for c in ast.walk(node.value)
                                    if isinstance(c, ast.Constant))
                    names.append((mod, target.id, node))
        nodes = list(ast.walk(tree))
        local += [(mod, fn, (a.asname or a.name).split(".")[0])
                  for fn in nodes if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
                  for a in node.names]
        uses.update((n.value.id, n.attr) for n in nodes if isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name) and n.value.id in trees)
        loads[mod] = collections.Counter(
            n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    private = [(m, n, d) for m, n, d in names
               if d is None or (n.startswith("_") and not n.startswith("__"))]
    return private, uses, loads, local


def test_every_module_level_import_and_private_name_is_used():
    # a leftover import or helper (an unused typing.NamedTuple, a helper whose
    # last caller went) is referenced nowhere else in the package, and a
    # stale deferred import is loaded nowhere in the function that makes it
    names, uses, loads, local = bindings_and_uses()
    dead = [f"{mod}.{fn.name}: {name}" for mod, fn, name in local
            if not any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
                       for n in ast.walk(fn))]
    for mod, name, node in names:
        # a definition's loads of its own name (recursion) do not count
        own = 0 if node is None else sum(
            isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
            for n in ast.walk(node))
        if loads[mod][name] <= own and (mod, name) not in uses:
            dead.append(f"{mod}.{name}")
    assert not dead


def matrix_products(tree):
    """Line numbers where ``tree`` forms a matrix product: ``@``, ``@=`` or
    a call of an attribute named matmul, dot or einsum (np.matmul(a, b),
    a.dot(b), ...)."""
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult)
            or isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr in ("matmul", "dot", "einsum")]


def test_only_the_engine_and_linalg_form_matrix_products():
    # one enumeration engine: a module that multiplies matrices itself is
    # a second word-product enumerator in the making
    root = Path(matpress.__file__).parent
    found = {path.stem: matrix_products(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(root.glob("*.py"))}
    assert found["_engine"]  # the check sees the engine's own products
    assert {mod: lines for mod, lines in found.items()
            if lines and mod not in ("_engine", "linalg")} == {}


# not triangular in any coordinate order, contractive, unit weights
PLANAR = [[[0.6, 0.2], [0.1, 0.4]], [[0.3, -0.2], [0.25, 0.5]]]
SPATIAL = [[[0.5, 0.2, -0.1], [0.1, 0.4, 0.3], [-0.2, 0.1, 0.5]],
           [[0.4, -0.3, 0.1], [0.2, 0.3, -0.2], [0.1, 0.2, 0.4]]]
TRIANGULAR = [[[0.5, 0.1], [0.0, 0.25]], [[0.3, 0.0], [0.0, 0.4]]]
SMALL = {"budget": matpress.WordBudget(max_words=2**10), "workers": 1}


def every_route():
    """{name: (call returning its records, provenance, whether a sweep)} for
    every public bracket function on each of its routes."""
    fam = {name: matpress.FiniteMatrixMeasure.from_matrices(mats)
           for name, mats in (("planar", PLANAR), ("spatial", SPATIAL),
                              ("triangular", TRIANGULAR))}
    moran = matpress.FiniteMatrixMeasure.from_matrices([[[0.8, 0.0], [0.0, 0.8]]] * 4)
    sv, aff = matpress.sv_pressure_bracket, matpress.affinity_dimension

    def scan():
        points, support = matpress.zero_temperature_scan(fam["planar"], [1.0, 2.0], 0.1, **SMALL)
        return [br for _, br in points] + [support]

    return {
        "pressure": (lambda: [matpress.pressure_bracket(fam["planar"], 1.5, 0.1, **SMALL)],
                     "connecting-word", True),
        "pressure_d3": (lambda: [matpress.pressure_bracket(fam["spatial"], 1.5, 0.1, **SMALL)],
                        "norm-power-bound", True),
        "sv_norm": (lambda: [sv(fam["planar"], 0.5, 0.1, **SMALL)], "connecting-word", True),
        "sv_planar": (lambda: [sv(fam["planar"], 1.5, 0.1, **SMALL)], "connecting-word", True),
        "sv_lift": (lambda: [sv(fam["spatial"], 2, 0.1, **SMALL)], "lift-sv-bound", True),
        "sv_irrational": (lambda: [sv(fam["spatial"], 2 ** 0.5, 0.1, **SMALL)],
                          "lift-sv-bound", True),
        "sv_determinant": (lambda: [sv(fam["planar"], 2.5, 0.1, **SMALL)],
                           "determinant-branch", False),
        "sv_triangular": (lambda: [sv(fam["triangular"], 1.5, 0.1, **SMALL)],
                          "triangular", False),
        "p_radius": (lambda: [matpress.p_radius_bracket(fam["planar"], 2.0, 0.1, **SMALL)],
                     "connecting-word", True),
        "jsr_sweep": (lambda: [matpress.jsr_bracket(fam["planar"], 1e-3, **SMALL)],
                      "spectral-floor", True),
        "jsr_triangular": (lambda: [matpress.jsr_bracket(fam["triangular"], 1e-3, **SMALL)],
                           "triangular", False),
        "affinity_sweep": (lambda: [aff(fam["planar"], 0.2, **SMALL)], "trisection", True),
        "affinity_determinant": (lambda: [aff(moran, 0.2, **SMALL)], "determinant", True),
        "affinity_triangular": (lambda: [aff(fam["triangular"], 0.2, **SMALL)],
                                "triangular", True),
        "scan": (scan, None, True),
    }


@pytest.mark.parametrize("route", sorted(every_route()))
def test_every_public_bracket_returns_the_one_record(route):
    call, provenance, sweep = every_route()[route]
    for res in call():
        assert type(res) is matpress.PressureBracket
        assert res.interval == (res.lower, res.upper)
        assert res.provenance == provenance or provenance is None
        if sweep:  # one history entry per step; affinity's closed forms keep one
            assert res.history and res.history[-1] == res.interval
        else:
            assert res.history == ()


def test_the_attributes_the_benchmark_reads_stay():
    # perfbench/run.py, checks.py and tracing.py read these off the records
    # of every call they time; tracing.py sums steps as an int
    routes = every_route()
    for route in ("affinity_sweep", "affinity_determinant", "jsr_sweep", "pressure"):
        for res in routes[route][0]():
            lo, hi = res.interval
            assert (lo, hi) == (res.lower, res.upper)
            assert res.branch == res.provenance
            assert type(res.steps) is int and type(res.n_used) is int
            assert type(res.words_evaluated) is int and isinstance(res.status, str)
