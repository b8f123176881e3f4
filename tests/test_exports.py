"""Public names: every export resolves, and removed aliases stay removed."""

import importlib

import pytest

import setlam

MODULES = ["syntax", "binding", "typecheck", "reduction", "measure", "oracle", "cli"]

# Aliases and duplicated walks folded into one canonical name each.
REMOVED = {
    "syntax": ["alpha_eq", "canonicalize", "untyped_key", "ufree_names",
               "untyped_size", "_children"],
    "binding": ["ushift", "uclose"],
    "reduction": ["_develop", "_walk", "_collect_redexes", "_collect_beta"],
    "measure": ["height", "_simp"],
    "oracle": ["_has_cycle", "_label"],
    "cli": ["_TRACE_KINDS", "_steps_of", "_apply"],
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"setlam.{name}")
    for exported in getattr(module, "__all__", []):
        assert hasattr(module, exported), f"setlam.{name}.__all__ names missing {exported}"


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_stay_removed(name):
    module = importlib.import_module(f"setlam.{name}")
    for removed in REMOVED.get(name, []):
        assert not hasattr(module, removed)
        assert removed not in getattr(module, "__all__", [])
        assert not hasattr(setlam, removed)
