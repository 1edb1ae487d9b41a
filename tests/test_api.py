"""The public API: every exported name resolves, and the top level re-exports
only what some submodule still exports."""

import importlib
import pkgutil

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
