"""The public API: every exported name resolves, and the top level re-exports
only what some submodule still exports."""

import ast
import collections
import importlib
import pkgutil
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



def bindings_and_uses():
    """The package's module-level names that must be used, and its uses.

    Names: every module-level import, and every private module-level
    function, class or assignment, as (module, name, definition or None).
    Uses: (module, name) pairs named by ``mod.name`` or ``from .mod import
    name`` anywhere, or by a string in the module's ``__all__``; and per
    module, a count of its loads of each bare name.
    """
    root = Path(matpress.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(root.glob("*.py"))}
    names, uses, loads = [], set(), {}
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
        uses.update((n.value.id, n.attr) for n in nodes if isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name) and n.value.id in trees)
        loads[mod] = collections.Counter(
            n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    private = [(m, n, d) for m, n, d in names
               if d is None or (n.startswith("_") and not n.startswith("__"))]
    return private, uses, loads


def test_every_module_level_import_and_private_name_is_used():
    # a leftover import or helper (an unused typing.NamedTuple, a helper whose
    # last caller went) is referenced nowhere else in the package
    names, uses, loads = bindings_and_uses()
    dead = []
    for mod, name, node in names:
        # a definition's loads of its own name (recursion) do not count
        own = 0 if node is None else sum(
            isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
            for n in ast.walk(node))
        if loads[mod][name] <= own and (mod, name) not in uses:
            dead.append(f"{mod}.{name}")
    assert not dead
