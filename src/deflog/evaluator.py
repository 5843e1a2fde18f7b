"""The compositional three-valued truth assignment.

Two modes:

* kleene: truth-functional structural recursion using the Kleene
  connective tables, Min/Max quantifiers, three-valued aggregate tests,
  and the three-valued well-founded assignment for definition nodes;
* supervaluation: the ultimate approximation of the induced two-valued
  assignment, a glb over all exact completions of the free predicate
  symbols, searched depth first and cut below each node where the
  Kleene value of a probe-safe formula is already exact.

Both satisfy locality, exactness on exact interpretations, and
precision monotonicity; supervaluation is at least as precise as
kleene.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import EvaluationError, NonTotalDefinitionError
from .interpretation import PartialInterpretation
from .limits import DEFAULT_LIMITS, Limits
from .syntax import (
    Aggregate, And, Atom1, Atom2, Cmp, DefinitionExpr, ExistsFO,
    ExistsSO, ForallFO, ForallSO, Iff, Implies, IntTerm, Let, Not, Or,
    RuleSet, SymTerm, free_symbols,
)
from .truthvalues import (
    F, T, TV, U, PartialSet, conj, disj, glb_prec, iff, implies,
    approx_aggregate, approx_quantifier, max_truth, min_truth, neg,
)
from .vocab import DomainAtom, Symbol, arg_value_space

KLEENE = "kleene"
SUPERVALUATION = "supervaluation"


@dataclass
class EvalContext:
    limits: Limits = DEFAULT_LIMITS
    # u-valued atoms consulted so far; drives completion narrowing in
    # the well-founded assignment of definition nodes
    record: set = field(default_factory=set)


_BINOPS = {And: conj, Or: disj, Implies: implies, Iff: iff}


def _term_value(t, i: PartialInterpretation, raw: bool = False):
    """Ground value of a term, or None when outside the domain; `raw`
    keeps out-of-domain integers (for comparisons and bounds)."""
    if isinstance(t, SymTerm):
        return i.value(t.symbol)
    if isinstance(t, IntTerm):
        v = t.value
    else:
        left, right = _term_value(t.left, i, raw), _term_value(t.right, i, raw)
        if not (isinstance(left, int) and isinstance(right, int)):
            return None
        v = left + right
    return v if raw or v in i.domain else None


def _lookup(sym: Symbol, key: tuple, i: PartialInterpretation, ctx: EvalContext) -> TV:
    ps = i.value(sym)
    if key not in ps:
        raise EvaluationError(
            f"domain atom {sym.name}{key!r} outside the populated carrier"
        )
    v = ps.value(key)
    if v is U:
        ctx.record.add(DomainAtom(sym, key))
    return v


def _so_arg_values(sym: Symbol, i: PartialInterpretation, ctx: EvalContext):
    """Exact relation values an interpreted predicate argument can take."""
    ps = i.value(sym)
    if ps.is_exact:
        return [ps.true_keys()]
    for key in ps.keys_with(U):
        ctx.record.add(DomainAtom(sym, key))
    return [c.true_keys() for c in ps.completions(ctx.limits)]


@lru_cache(maxsize=None)
def _relation_cached(rel: frozenset, arity: int, domain: tuple) -> PartialSet:
    carrier = itertools.product(domain, repeat=arity)
    return PartialSet.from_map({k: TV.of(k in rel) for k in carrier})


def _kv(e, i: PartialInterpretation, ctx: EvalContext) -> TV:
    if isinstance(e, Atom1):
        args = tuple(_term_value(a, i) for a in e.args)
        if any(a is None for a in args):
            return F
        return _lookup(e.predicate, args, i, ctx)
    if isinstance(e, Atom2):
        so_type = e.predicate.type
        fixed: list = []
        choices: list[list] = []
        for a, at in zip(e.args, so_type.args):
            if at.kind == "domain":
                v = _term_value(a, i)
                if v is None:
                    return F
                fixed.append(v)
                choices.append([v])
            else:
                if not isinstance(a, SymTerm):
                    raise EvaluationError("predicate argument must be a symbol")
                choices.append(_so_arg_values(a.symbol, i, ctx))
        results = [
            _lookup(e.predicate, key, i, ctx)
            for key in itertools.product(*choices)
        ]
        return glb_prec(results)
    if isinstance(e, Cmp):
        left = _term_value(e.left, i, raw=True)
        right = _term_value(e.right, i, raw=True)
        if left is None or right is None:
            return F
        if e.op == "=":
            return TV.of(left == right)
        if not (isinstance(left, int) and isinstance(right, int)):
            return F
        return TV.of(left < right if e.op == "<" else left > right)
    if isinstance(e, Not):
        return neg(_kv(e.body, i, ctx))
    op = _BINOPS.get(type(e))
    if op is not None:
        # no short-circuit: recording must see both operands
        return op(_kv(e.left, i, ctx), _kv(e.right, i, ctx))
    if isinstance(e, (ForallFO, ExistsFO)):
        values = {
            d: _kv(e.body, i._expand(e.var, d), ctx) for d in i.domain
        }
        q = "forall" if isinstance(e, ForallFO) else "exists"
        return approx_quantifier(q, PartialSet.from_map(values))
    if isinstance(e, (ForallSO, ExistsSO)):
        rels = arg_value_space(e.var.type, i.domain, ctx.limits)
        vals = [
            _kv(e.body, i._expand(e.var, _relation_cached(r, e.var.type.arity, i.domain)), ctx)
            for r in rels
        ]
        return min_truth(vals, empty=T) if isinstance(e, ForallSO) else max_truth(vals, empty=F)
    if isinstance(e, Aggregate):
        entries = {}
        for tup in itertools.product(i.domain, repeat=len(e.vars)):
            j = i
            for v, d in zip(e.vars, tup):
                j = j._expand(v, d)
            entries[tup] = _kv(e.body, j, ctx)
        bound = _term_value(e.bound, i, raw=True)
        if not isinstance(bound, int):
            raise EvaluationError("aggregate bound must be an integer")
        return approx_aggregate(e.agg, e.cmp, PartialSet.from_map(entries), bound, ctx.limits)
    if isinstance(e, DefinitionExpr):
        from . import definitions

        return definitions.eval_definition(e.ruleset, i, "w", ctx.limits, _ctx=ctx)
    if isinstance(e, Let):
        return _let_value(e, i, ctx)
    raise EvaluationError(f"not an expression: {e!r}")


def _let_value(e: Let, i: PartialInterpretation, ctx: EvalContext) -> TV:
    from . import definitions

    pars = sorted(e.ruleset.parameters, key=lambda s: s.name)
    par_preds = [p for p in pars if p.type.is_predicate]
    if i.exact_on(par_preds):
        context = definitions.parameter_context(e.ruleset, i)
        wfm = definitions.well_founded_model(e.ruleset, context, ctx.limits)
        if not wfm.is_exact:
            raise NonTotalDefinitionError(
                "let-bound definition has no exact well-founded model"
            )
        j = i
        for d in e.ruleset.defined_symbols:
            j = j.expand(d, wfm.value(d))
        return _kv(e.body, j, ctx)
    for p in par_preds:
        for key in i.value(p).keys_with(U):
            ctx.record.add(DomainAtom(p, key))
    return glb_prec(
        _let_value(e, j, ctx) for j in i.completions(par_preds, ctx.limits)
    )


def _probe_safe(e) -> bool:
    """Whether searches may Kleene-evaluate e at inner nodes: only atoms,
    comparisons, connectives, FO quantifiers and card aggregates, as the
    other nodes enumerate (and cap) completions or value spaces."""
    t = type(e)
    if t is Atom1 or t is Cmp:
        return True
    if t is Not or t is ForallFO or t is ExistsFO:
        return _probe_safe(e.body)
    if t in _BINOPS:
        return _probe_safe(e.left) and _probe_safe(e.right)
    if t is Aggregate:
        return e.agg == "card" and _probe_safe(e.body)
    if t in (Atom2, ForallSO, ExistsSO, DefinitionExpr, Let):
        return False
    raise EvaluationError(f"not an expression: {e!r}")


def evaluate(
    e,
    i: PartialInterpretation,
    mode: str = KLEENE,
    limits: Limits = DEFAULT_LIMITS,
    _ctx: EvalContext | None = None,
) -> TV:
    """Three-valued value of expression e in interpretation i."""
    ctx = _ctx if _ctx is not None else EvalContext(limits=limits)
    if isinstance(e, RuleSet):
        e = DefinitionExpr(e)
    if mode == KLEENE:
        return _kv(e, i, ctx)
    if mode != SUPERVALUATION:
        raise EvaluationError(f"unknown evaluation mode {mode!r}")
    preds = [s for s in free_symbols(e) if s.type.is_predicate]
    seen: set = set()  # values of the subtrees decided so far

    def decided(j: PartialInterpretation) -> bool:
        # an exact Kleene value at j is the value of every completion
        # below it; after a disagreement the answer is u and all is cut
        if len(seen) > 1:
            return True
        v = _kv(e, j, EvalContext(limits=ctx.limits))
        if v is not U:
            seen.add(v)
        return v is not U

    for j in i.completions(preds, ctx.limits, decided if _probe_safe(e) else None):
        seen.add(_kv(e, j, ctx))
        if len(seen) > 1:
            return U
    return seen.pop() if len(seen) == 1 else U


def evaluate_exact(e, i: PartialInterpretation, limits: Limits = DEFAULT_LIMITS) -> TV:
    """Classical two-valued evaluation; i must be exact on e's free predicates."""
    preds = [s for s in free_symbols(e) if s.type.is_predicate]
    if not i.exact_on(preds):
        raise EvaluationError("evaluate_exact needs an exact interpretation")
    v = _kv(e, i, EvalContext(limits=limits))
    if v is U:
        raise EvaluationError("exact evaluation produced u")  # pragma: no cover
    return v
