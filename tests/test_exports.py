"""Public names: every export resolves, and removed aliases stay removed."""

import importlib
import inspect

import pytest

import setlam

MODULES = ["syntax", "binding", "typecheck", "reduction", "measure", "oracle", "cli"]

# Aliases, duplicated walks and second definitions of identity folded
# into one canonical name each, unused constants, the pieces of walkers
# now written as one recursion on the trampoline, the second typing walk
# and the second normalization strategy.
REMOVED = {
    "syntax": ["alpha_eq", "canonicalize", "untyped_key", "ufree_names",
               "untyped_size", "_children", "type_key", "settype_key",
               "term_key", "setterm_key", "_canonical_tuple", "EMPTY_SET_TYPE",
               "_pretty_untyped", "map_children", "_keys_equal", "_lookup_untyped",
               "_parse_type", "_parse_settype", "_parse_settype_atom", "_parse_annot",
               "_parse_untyped", "_parse_untyped_atom", "_parse_aterm",
               "_parse_aterm_atom", "_set_key", "_set_meta"],
    "binding": ["ushift", "uclose"],
    "typecheck": ["_fold_tree", "_typing", "_typing_of_set", "_erase", "_erase_set",
                  "_erase_node", "_erase_set_node", "_check_node", "_premises",
                  "_synth", "_synth_set"],
    "reduction": ["_develop", "_walk", "_collect_redexes", "_collect_beta",
                  "_par_set", "_is_redex", "_split_redex", "_lam_degree",
                  "_elements_by_type", "_residual_position", "_leftmost_innermost"],
    "measure": ["height", "_simp", "_wabs_degree"],
    "oracle": ["_has_cycle", "_label", "_FreshNames", "_FuelMeter", "_rename_binder",
               "_infer", "_infer_head_variable", "_infer_abstraction", "_infer_head_redex"],
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


def test_binding_functions_take_no_depth():
    from setlam import binding
    for f in (binding.shift, binding.open_term, binding.uopen,
              binding.close_term, binding.locally_closed):
        assert not {"depth", "cutoff"} & set(inspect.signature(f).parameters)
