"""Reference implementations kept only as test oracles.

* The fragment classifier as first written: `desugar` rewrites |, =>,
  <=> and first order forall into ~, & and exists, then three mutually
  recursive predicates decide membership of FO(ID*), ESO(ID*) and
  ASO(ID*).  `deflog.syntax.classify` reads the sugar in one bottom-up
  pass instead and must agree with `oracle_classify` everywhere.
* The ultimate approximation of a two-valued function by brute force
  over completions (`BoolFn`, `ultimate_approx`), and a dispatcher over
  the Kleene connective tables (`kleene_connective`).
* A classical two-valued evaluator for the generator fragment
  (`classical_eval`) and the supervaluation as a plain loop over every
  completion (`super_oracle`), sharing nothing with the pruned
  depth-first search of `PartialInterpretation.refinements`.
* Variable binding as first written (`rebuild_expand`, `rebuild_revise`,
  `rebuild_restrict`): copy the assignments into a dict, change it, sort
  the items by name (stable) and construct afresh.  The sort-free
  `PartialInterpretation._expand`, `revise` and `restrict` must give the
  very same `assignments` tuple.
"""

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from deflog.errors import CapExceeded, EvaluationError
from deflog.interpretation import PartialInterpretation
from deflog.limits import DEFAULT_LIMITS, Limits
from deflog.syntax import (
    FRAGMENT_ASO, FRAGMENT_ESO, FRAGMENT_FO, FRAGMENT_SO, Aggregate, And,
    Atom1, Atom2, Cmp, DefinitionExpr, ExistsFO, ExistsSO, ForallFO,
    ForallSO, Iff, Implies, Let, Not, Or, Rule, RuleSet, free_symbols,
)
from deflog.truthvalues import (
    F, T, TV, U, PartialSet, conj, disj, glb_prec, iff, implies, neg,
)

# ---------------------------------------------------------------------------
# Fragment classification by desugaring


def desugar(e):
    """Rewrite |, =>, <=> and first order forall into ~, & and exists."""
    if isinstance(e, (Atom1, Atom2, Cmp)):
        return e
    if isinstance(e, Not):
        return Not(desugar(e.body))
    if isinstance(e, And):
        return And(desugar(e.left), desugar(e.right))
    if isinstance(e, Or):
        return Not(And(Not(desugar(e.left)), Not(desugar(e.right))))
    if isinstance(e, Implies):
        return Not(And(desugar(e.left), Not(desugar(e.right))))
    if isinstance(e, Iff):
        a, b = desugar(e.left), desugar(e.right)
        return And(Not(And(a, Not(b))), Not(And(b, Not(a))))
    if isinstance(e, ForallFO):
        return Not(ExistsFO(e.var, Not(desugar(e.body))))
    if isinstance(e, ExistsFO):
        return ExistsFO(e.var, desugar(e.body))
    if isinstance(e, (ForallSO, ExistsSO)):
        return type(e)(e.var, desugar(e.body))
    if isinstance(e, Aggregate):
        return Aggregate(e.agg, e.cmp, e.vars, desugar(e.body), e.bound)
    if isinstance(e, DefinitionExpr):
        return DefinitionExpr(_desugar_rs(e.ruleset))
    if isinstance(e, Let):
        return Let(_desugar_rs(e.ruleset), desugar(e.body))
    raise TypeError(f"not an expression: {e!r}")


def _desugar_rs(rs: RuleSet) -> RuleSet:
    return RuleSet(tuple(Rule(r.head, r.head_vars, desugar(r.body)) for r in rs.rules))


def _fo_ruleset(rs: RuleSet) -> bool:
    # rule and let bodies of first order definitions stay in FO(ID*)
    return all(r.head.type.kind == "pred" and _is_fo(r.body) for r in rs.rules)


def _is_fo(e) -> bool:
    if isinstance(e, (Atom1, Cmp)):
        return True
    if isinstance(e, Not):
        return _is_fo(e.body)
    if isinstance(e, And):
        return _is_fo(e.left) and _is_fo(e.right)
    if isinstance(e, ExistsFO):
        return _is_fo(e.body)
    if isinstance(e, Aggregate):
        return _is_fo(e.body)
    if isinstance(e, DefinitionExpr):
        return _fo_ruleset(e.ruleset)
    if isinstance(e, Let):
        return _fo_ruleset(e.ruleset) and _is_fo(e.body)
    return False


def _is_eso(e) -> bool:
    if _is_fo(e):
        return True
    if isinstance(e, Atom2):
        return True
    if isinstance(e, Not):
        return _is_aso(e.body)
    if isinstance(e, And):
        return _is_eso(e.left) and _is_eso(e.right)
    if isinstance(e, (ExistsFO, ExistsSO)):
        return _is_eso(e.body)
    if isinstance(e, Aggregate):
        return _is_eso(e.body)
    if isinstance(e, Let):
        return _fo_ruleset(e.ruleset) and _is_eso(e.body)
    return False


def _is_aso(e) -> bool:
    if _is_fo(e):
        return True
    if isinstance(e, Atom2):
        return True
    if isinstance(e, Not):
        return _is_eso(e.body)
    if isinstance(e, And):
        return _is_aso(e.left) and _is_aso(e.right)
    if isinstance(e, ExistsFO):
        return _is_aso(e.body)
    if isinstance(e, ForallSO):
        return _is_aso(e.body)
    if isinstance(e, Aggregate):
        return _is_aso(e.body)
    if isinstance(e, Let):
        return _fo_ruleset(e.ruleset) and _is_aso(e.body)
    return False


def oracle_classify(e) -> str:
    """The smallest fragment containing e (ESO preferred on ties)."""
    if isinstance(e, RuleSet):
        e = DefinitionExpr(e)
    d = desugar(e)
    if _is_fo(d):
        return FRAGMENT_FO
    if _is_eso(d):
        return FRAGMENT_ESO
    if _is_aso(d):
        return FRAGMENT_ASO
    return FRAGMENT_SO


# ---------------------------------------------------------------------------
# Ultimate approximation by brute force

_CONNECTIVES: dict[str, tuple[int, Callable[..., TV]]] = {
    "~": (1, neg),
    "&": (2, conj),
    "|": (2, disj),
    "=>": (2, implies),
    "<=>": (2, iff),
}


def kleene_connective(c: str, args: Sequence[TV]) -> TV:
    """Apply the Kleene table of connective c in {~, &, |, =>, <=>}."""
    try:
        arity, fn = _CONNECTIVES[c]
    except KeyError:
        raise EvaluationError(f"unknown connective {c!r}") from None
    if len(args) != arity:
        raise EvaluationError(f"connective {c!r} expects {arity} args, got {len(args)}")
    return fn(*args)


@dataclass(frozen=True)
class BoolFn:
    """A two-valued function, total on exact inputs.

    `fn` receives either a tuple of exact TVs or an exact PartialSet,
    matching what gets passed to `ultimate_approx`.
    """

    name: str
    fn: Callable[..., TV]

    def __call__(self, x) -> TV:
        out = self.fn(x)
        if out is U:
            raise EvaluationError(f"boolean function {self.name} returned u")
        return out


def ultimate_approx(fn: BoolFn, x, limits: Limits = DEFAULT_LIMITS) -> TV:
    """glb under <=p of fn over all exact completions of x.

    x is a tuple of TVs or a PartialSet.  Raises CapExceeded when the
    completion count would exceed 2^limits.max_unknowns.
    """
    if isinstance(x, PartialSet):
        return glb_prec(fn(c) for c in x.completions(limits))
    unknown = [i for i, v in enumerate(x) if v is U]
    if len(unknown) > limits.max_unknowns:
        raise CapExceeded(
            f"{len(unknown)} unknown positions exceed cap {limits.max_unknowns}"
        )
    results = []
    for choice in itertools.product((T, F), repeat=len(unknown)):
        args = list(x)
        for i, v in zip(unknown, choice):
            args[i] = v
        results.append(fn(tuple(args)))
    return glb_prec(results)


# ---------------------------------------------------------------------------
# Classical evaluation and the supervaluation by brute force


def classical_eval(e, i) -> bool:
    """Independent two-valued evaluator for the generator fragment."""
    if isinstance(e, Atom1):
        key = tuple(i.value(a.symbol) for a in e.args)
        return i.value(e.predicate).value(key) is T
    if isinstance(e, Not):
        return not classical_eval(e.body, i)
    if isinstance(e, And):
        return classical_eval(e.left, i) and classical_eval(e.right, i)
    if isinstance(e, Or):
        return classical_eval(e.left, i) or classical_eval(e.right, i)
    if isinstance(e, Implies):
        return not classical_eval(e.left, i) or classical_eval(e.right, i)
    if isinstance(e, Iff):
        return classical_eval(e.left, i) == classical_eval(e.right, i)
    if isinstance(e, (ForallFO, ExistsFO)):
        results = (classical_eval(e.body, i._expand(e.var, d)) for d in i.domain)
        return all(results) if isinstance(e, ForallFO) else any(results)
    raise AssertionError(f"oracle cannot handle {e!r}")


def exact_completions(i, preds):
    """Every interpretation exact on `preds` that refines i, by one flat
    itertools.product loop over the unknown atoms (first atom outermost,
    t before f)."""
    unknown = [
        (p, key)
        for p in sorted(set(preds), key=lambda s: s.name)
        for key, v in i.value(p).items()
        if v is U
    ]
    for choice in itertools.product((T, F), repeat=len(unknown)):
        j = i
        for (p, key), v in zip(unknown, choice):
            j = j._expand(p, j.value(p).with_values({key: v}))
        yield j


def super_oracle(e, i, holds=classical_eval) -> TV:
    """glb under <=p of e's classical value over all completions of its
    free predicate symbols; `holds(e, j)` decides e at an exact j."""
    preds = [s for s in free_symbols(e) if s.type.is_predicate]
    results = {holds(e, j) for j in exact_completions(i, preds)}
    if results == {True}:
        return T
    if results == {False}:
        return F
    return U


# ---------------------------------------------------------------------------
# Variable binding by dict, stable sort and reconstruction


def _rebuild(domain: tuple, valuation: dict):
    items = tuple(sorted(valuation.items(), key=lambda kv: kv[0].name))
    return PartialInterpretation(domain, items)


def rebuild_expand(i, sym, value):
    valuation = dict(i.assignments)
    valuation[sym] = value
    return _rebuild(i.domain, valuation)


def rebuild_revise(i, atoms, v):
    by_pred: dict = {}
    for a in atoms:
        by_pred.setdefault(a.predicate, {})[a.args] = v
    valuation = dict(i.assignments)
    for sym, updates in by_pred.items():
        valuation[sym] = valuation[sym].with_values(updates)
    return _rebuild(i.domain, valuation)


def rebuild_restrict(i, sub):
    syms = set(sub)
    return _rebuild(i.domain, {s: v for s, v in i.assignments if s in syms})
