"""deflog: three-valued logic of definitions over finite structures.

Compositional Kleene and supervaluation evaluation, well-founded and
(partial) stable semantics of rule sets, template libraries with macro
expansion and templification, and second order quantifier elimination.
"""

from .definitions import (
    StableReport, eval_definition, expand_context, greatest_unfounded_set,
    is_partial_stable, is_total, partial_stable_models, stable_models,
    well_founded_model,
)
from .errors import (
    CapExceeded, DeflogError, EvaluationError, NonTotalDefinitionError,
    ParseError, TypeError_,
)
from .evaluator import KLEENE, SUPERVALUATION, evaluate, evaluate_exact
from .interpretation import PartialInterpretation, read_structure, write_structure
from .limits import DEFAULT_LIMITS, Limits
from .parser import Theory, parse_formula, parse_ruleset, parse_theory
from .syntax import (
    FRAGMENT_ASO, FRAGMENT_ESO, FRAGMENT_FO, FRAGMENT_SO, Rule, RuleSet,
    classify, free_symbols, typecheck, unparse,
)
from .templates import (
    LibraryReport, Template, TemplateLibrary, apply_library,
    check_correspondence, eliminate_so, is_simple, macro_expand,
    sigma_equivalent, templify, validate_library,
)
from .truthvalues import F, T, TV, U, PartialSet, glb_prec, leq_prec, leq_truth
from .vocab import (
    BOOL, CONST, DOMAIN, DomainAtom, Symbol, Type, Vocabulary, pred, so_pred,
)

__version__ = "0.1.0"

__all__ = [
    "BOOL", "CONST", "CapExceeded", "DEFAULT_LIMITS", "DOMAIN", "DeflogError",
    "DomainAtom", "EvaluationError", "F", "FRAGMENT_ASO", "FRAGMENT_ESO",
    "FRAGMENT_FO", "FRAGMENT_SO", "KLEENE", "LibraryReport", "Limits",
    "NonTotalDefinitionError", "ParseError", "PartialInterpretation",
    "PartialSet", "Rule", "RuleSet", "SUPERVALUATION", "StableReport",
    "Symbol", "T", "TV", "Template", "TemplateLibrary", "Theory",
    "Type", "TypeError_", "U", "Vocabulary", "apply_library",
    "check_correspondence", "classify", "eliminate_so", "eval_definition",
    "evaluate", "evaluate_exact", "expand_context", "free_symbols",
    "glb_prec", "greatest_unfounded_set", "is_partial_stable", "is_simple",
    "is_total", "leq_prec", "leq_truth", "macro_expand",
    "parse_formula", "parse_ruleset", "parse_theory",
    "partial_stable_models", "pred", "read_structure", "sigma_equivalent",
    "so_pred", "stable_models", "templify", "typecheck", "unparse",
    "validate_library", "well_founded_model", "write_structure",
]
