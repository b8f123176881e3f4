"""Set-annotated lambda calculi with a decreasing weight measure.

Idempotent intersection typing as duplicate-free sets: a Curry-style
assignment system on untyped terms, its intrinsically annotated
counterpart, and a memory variant whose reduction wraps every
contracted argument instead of erasing it.  Degree-indexed
simplification normalizes annotated terms, and the weight of the fully
simplified term strictly decreases along every plain reduction step,
which bounds reduction-chain length and characterizes strong
normalization.

Each exported name is imported from its module on first use (PEP 562),
so a program loads only the modules whose names it uses: each command
line run starts a fresh interpreter, which compiles every module it
loads where no bytecode is cached.
"""

_EXPORTS = {
    "errors": (
        "CycleDetected", "FuelExhausted", "IllTyped", "InvalidDerivation",
        "InvalidPosition", "MissingSubstituent", "NotARedex", "NotSNWithinFuel",
        "NotTypable", "NotUniform", "ParseError", "SearchBudgetExceeded",
        "SetLamError", "UnboundOrWrongAnnotation",
    ),
    "syntax": (
        "App", "Arrow", "Base", "BoundVar", "Lam", "MemTerm", "Position", "SetTerm",
        "SetType", "Type", "UApp", "UBoundVar", "ULam", "UntypedTerm", "UVar", "Var",
        "Wrap", "WrapperList", "is_wrapper_free", "parse", "parse_set_type",
        "parse_term", "parse_type", "parse_untyped", "pretty", "replace_at",
        "subterm_at", "type_height",
    ),
    "typecheck": (
        "Judgement", "TypingContext", "check", "erase", "is_uniform",
        "minimal_context", "refines", "set_type_of", "synthesize_type",
    ),
    "derivation": (
        "CurryDerivation", "check_curry", "decorate", "derivation_from_json",
        "derivation_to_json", "erase_derivation",
    ),
    "reduction": (
        "Redex", "Step", "beta_redexes", "beta_step", "complete_development",
        "corresponding_step", "erased_position", "forgetful_reducts", "i_redexes",
        "par_reduces", "parallel_reducts", "project_step", "random_parallel_reduct",
        "redexes", "simulate_beta", "step_i", "step_im", "substitute",
    ),
    "measure": (
        "DegreeProfile", "MeasureReport", "W", "degree_profile", "max_degree",
        "measure_report", "simp_d", "simp_full", "weight",
    ),
    "oracle": (
        "Fuel", "InferredTyping", "ReductionGraph", "explore", "graph_to_dot",
        "graph_to_json_dict", "head_subject_expansion", "infer_sn", "is_sn",
        "longest_chain", "normal_form",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "binding", "cli"}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    """The exported name or submodule `name`, imported on first use and
    then kept in the package's globals, where later lookups find it."""
    module = _MODULE_OF.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a submodule binds it in these globals.  The builtin
    # __import__, unlike importlib's, shows in `python -X importtime`.
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
