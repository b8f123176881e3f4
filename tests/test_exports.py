"""Public names: every export resolves, and removed aliases stay removed."""

import importlib
import inspect

import pytest

import setlam

MODULES = ["syntax", "binding", "typecheck", "derivation", "reduction", "measure", "oracle",
           "cli", "errors"]

# Aliases, duplicated walks and second definitions of identity folded
# into one canonical name each, unused constants, the pieces of walkers
# now written as one recursion on the trampoline, the second typing walk,
# the second normalization strategy, the binder naming that moved to
# `naming`, the parser's walkers, replaced by one loop per grammar, and
# the error of `project_step`'s search, replaced by replaying the copies.
REMOVED = {
    "syntax": ["alpha_eq", "canonicalize", "untyped_key", "ufree_names",
               "untyped_size", "_children", "type_key", "settype_key",
               "term_key", "setterm_key", "_canonical_tuple", "EMPTY_SET_TYPE",
               "_pretty_untyped", "map_children", "_keys_equal", "_lookup_untyped",
               "_parse_type", "_parse_settype", "_parse_settype_atom", "_parse_annot",
               "_parse_untyped", "_parse_untyped_atom", "_parse_aterm",
               "_parse_aterm_atom", "_set_key", "_set_meta", "_name_chain",
               "_pick_name", "_index", "_compare_keys", "_deep_key", "_equal_nodes",
               "_type", "_untyped", "_term", "_elements", "_Tokens", "_parse_all"],
    "binding": ["ushift", "uclose"],
    "typecheck": ["_fold_tree", "_typing", "_typing_of_set", "_erase", "_erase_set",
                  "_erase_node", "_erase_set_node", "_check_node", "_premises",
                  "_synth", "_synth_set"],
    "reduction": ["_develop", "_walk", "_collect_redexes", "_collect_beta",
                  "_par_set", "_is_redex", "_split_redex", "_lam_degree",
                  "_elements_by_type", "_residual_position", "_leftmost_innermost",
                  "_try_erased", "_check_calculus"],
    "measure": ["height", "_simp", "_wabs_degree"],
    "oracle": ["_has_cycle", "_label", "_FreshNames", "_FuelMeter", "_rename_binder",
               "_infer", "_infer_head_variable", "_infer_abstraction", "_infer_head_redex",
               "_expand"],
    "cli": ["_TRACE_KINDS", "_steps_of", "_apply"],
    "errors": ["SearchBudgetExceeded"],
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


def test_project_step_takes_no_budget():
    from setlam import reduction
    assert list(inspect.signature(reduction.project_step).parameters) == ["t", "s", "pos"]


# The names the package exported when it imported every module eagerly,
# by the module that defines them: each still resolves, to that object.
PUBLIC = {
    "errors": ["CycleDetected", "FuelExhausted", "IllTyped", "InvalidDerivation",
               "InvalidPosition", "MissingSubstituent", "NotARedex", "NotSNWithinFuel",
               "NotTypable", "NotUniform", "ParseError", "SetLamError",
               "UnboundOrWrongAnnotation"],
    "syntax": ["App", "Arrow", "Base", "BoundVar", "Lam", "MemTerm", "Position", "SetTerm",
               "SetType", "Type", "UApp", "UBoundVar", "ULam", "UntypedTerm", "UVar", "Var",
               "Wrap", "WrapperList", "is_wrapper_free", "parse", "parse_set_type",
               "parse_term", "parse_type", "parse_untyped", "pretty", "replace_at",
               "subterm_at", "type_height"],
    "typecheck": ["Judgement", "TypingContext", "check", "erase", "is_uniform",
                  "minimal_context", "refines", "set_type_of", "synthesize_type"],
    "derivation": ["CurryDerivation", "check_curry", "decorate", "derivation_from_json",
                   "derivation_to_json", "erase_derivation"],
    "reduction": ["Redex", "Step", "beta_redexes", "beta_step", "complete_development",
                  "corresponding_step", "erased_position", "forgetful_reducts", "i_redexes",
                  "par_reduces", "parallel_reducts", "project_step", "random_parallel_reduct",
                  "redexes", "simulate_beta", "step_i", "step_im", "substitute"],
    "measure": ["DegreeProfile", "MeasureReport", "W", "degree_profile", "max_degree",
                "measure_report", "simp_d", "simp_full", "weight"],
    "oracle": ["Fuel", "InferredTyping", "ReductionGraph", "explore", "graph_to_dot",
               "graph_to_json_dict", "head_subject_expansion", "infer_sn", "is_sn",
               "longest_chain", "normal_form"],
}
PUBLIC_MODULES = ["binding", "errors", "measure", "oracle", "reduction", "syntax", "typecheck"]
# The assignment system's derivations, moved from typecheck to derivation.
MOVED = ["CurryDerivation", "check_curry", "decorate", "erase_derivation",
         "canonical_derivation", "derivation_from_json", "derivation_to_json",
         "_derivation", "_check", "_fail", "_RULES", "_json_path", "_json_kind"]


def test_public_names_resolve_to_their_defining_objects():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) + len(PUBLIC_MODULES) == 101
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"setlam.{module}")
        for name in names:
            assert getattr(setlam, name) is getattr(defining, name), name
    for module in PUBLIC_MODULES:
        assert getattr(setlam, module) is importlib.import_module(f"setlam.{module}")
    assert set(names) | set(PUBLIC_MODULES) <= set(dir(setlam))


def test_star_import_gives_the_exported_names():
    namespace = {}
    exec("from setlam import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(setlam.__all__)
    assert set(setlam.__all__) == {name for names in PUBLIC.values() for name in names}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        setlam.no_such_name
    with pytest.raises(ImportError):
        exec("from setlam import no_such_name", {})


def test_derivation_names_left_typecheck():
    from setlam import derivation, typecheck
    for name in MOVED:
        assert hasattr(derivation, name)
        assert not hasattr(typecheck, name)
        assert name not in typecheck.__all__
