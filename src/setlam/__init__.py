"""Set-annotated lambda calculi with a decreasing weight measure.

Idempotent intersection typing as duplicate-free sets: a Curry-style
assignment system on untyped terms, its intrinsically annotated
counterpart, and a memory variant whose reduction wraps every
contracted argument instead of erasing it.  Degree-indexed
simplification normalizes annotated terms, and the weight of the fully
simplified term strictly decreases along every plain reduction step,
which bounds reduction-chain length and characterizes strong
normalization.
"""

from .errors import (
    CycleDetected, FuelExhausted, IllTyped, InvalidDerivation,
    InvalidPosition, MissingSubstituent, NotARedex, NotSNWithinFuel,
    NotTypable, NotUniform, ParseError, SearchBudgetExceeded, SetLamError,
    UnboundOrWrongAnnotation,
)
from .syntax import (
    App, Arrow, Base, BoundVar, Lam, MemTerm, Position, SetTerm, SetType,
    Type, UApp, UBoundVar, ULam, UntypedTerm, UVar, Var, Wrap, WrapperList,
    is_wrapper_free, parse, parse_set_type, parse_term, parse_type,
    parse_untyped, pretty, replace_at, subterm_at, type_height,
)
from .typecheck import (
    CurryDerivation, Judgement, TypingContext, check, check_curry,
    decorate, derivation_from_json, derivation_to_json, erase,
    erase_derivation, is_uniform, minimal_context, refines,
    set_type_of, synthesize_type,
)
from .reduction import (
    Redex, Step, beta_redexes, beta_step, complete_development,
    corresponding_step, erased_position, forgetful_reducts, i_redexes,
    par_reduces, parallel_reducts, project_step, random_parallel_reduct,
    redexes, simulate_beta, step_i, step_im, substitute,
)
from .measure import (
    DegreeProfile, MeasureReport, W, degree_profile, max_degree,
    measure_report, simp_d, simp_full, weight,
)
from .oracle import (
    Fuel, InferredTyping, ReductionGraph, explore, graph_to_dot,
    graph_to_json_dict, head_subject_expansion, infer_sn, is_sn,
    longest_chain, normal_form,
)

__version__ = "0.1.0"
