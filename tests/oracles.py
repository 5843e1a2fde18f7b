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
* The truth order by rank table (`rank_min_truth`, `rank_max_truth`,
  `rank_leq_truth`), as `truthvalues` first computed it.
* The Kleene evaluator as first written (`oracle_kv`): an `isinstance`
  walker that binds every quantified, aggregate and rule-head variable
  by expanding the interpretation (`bind_head` for rule heads), with
  the connectives and quantifiers on the rank table.  The compiled
  closures of `deflog.evaluator` must give the same value, the same
  recorded atoms and the same exception.
* The well-founded fixpoint as first written (`oracle_wfm_fixpoint`,
  `oracle_unfounded_set`, `is_unfounded`): every derivation round and
  unfounded-set pass re-evaluates whole rule bodies on an interpretation
  revised for it.  The fixpoint of `deflog.definitions` over the ground
  residual program must give the same model, unfounded set or exception.
* A rule set used as a formula as first valued (`oracle_eval_definition`,
  `relevant_u_atoms`): a flat loop over every exact completion of the
  atoms a grounding at the all-u state consults, each checked against
  its own well-founded model or by the partial stable test, glb of the
  results.  `deflog.definitions.eval_definition` prunes that search with
  the three-valued well-founded model and must give the same value,
  exception and recorded atoms.
"""

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from deflog import definitions
from deflog.errors import CapExceeded, EvaluationError, NonTotalDefinitionError
from deflog.evaluator import EvalContext
from deflog.interpretation import PartialInterpretation
from deflog.limits import DEFAULT_LIMITS, Limits
from deflog.syntax import (
    FRAGMENT_ASO, FRAGMENT_ESO, FRAGMENT_FO, FRAGMENT_SO, Aggregate, And,
    Atom1, Atom2, Cmp, DefinitionExpr, ExistsFO, ExistsSO, ForallFO,
    ForallSO, Iff, Implies, IntTerm, Let, Not, Or, Rule, RuleSet, SymTerm,
    free_symbols,
)
from deflog.truthvalues import (
    F, T, TV, U, PartialSet, approx_aggregate, conj, disj, glb_prec, iff,
    implies, neg,
)
from deflog.vocab import DomainAtom, arg_value_space

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


# ---------------------------------------------------------------------------
# The truth order by rank table

_TRUTH_RANK = {F: 0, U: 1, T: 2}


def rank_leq_truth(a, b) -> bool:
    return _TRUTH_RANK[a] <= _TRUTH_RANK[b]


def rank_min_truth(values, empty=T):
    out = empty
    first = True
    for v in values:
        out = v if first or _TRUTH_RANK[v] < _TRUTH_RANK[out] else out
        first = False
    return out


def rank_max_truth(values, empty=F):
    out = empty
    first = True
    for v in values:
        out = v if first or _TRUTH_RANK[v] > _TRUTH_RANK[out] else out
        first = False
    return out


# ---------------------------------------------------------------------------
# The Kleene evaluator as an isinstance walker over expanded interpretations

_BINOPS = {
    And: lambda a, b: rank_min_truth((a, b)),
    Or: lambda a, b: rank_max_truth((a, b)),
    Implies: lambda a, b: rank_max_truth((neg(a), b)),
    Iff: iff,
}


def relation(rel: frozenset, arity: int, domain: tuple) -> PartialSet:
    """The exact partial set of a relation value."""
    carrier = itertools.product(domain, repeat=arity)
    return PartialSet.from_map({k: TV.of(k in rel) for k in carrier})


def bind_head(rule, key: tuple, i):
    """i with the rule's head variables bound to key, one by one."""
    j = i
    for var, val in zip(rule.head_vars, key):
        if isinstance(val, frozenset):
            val = relation(val, var.type.arity, i.domain)
        j = j._expand(var, val)
    return j


def _term_value(t, i, raw: bool = False):
    if isinstance(t, SymTerm):
        return i.value(t.symbol)
    if isinstance(t, IntTerm):
        v = t.value
    else:
        left, right = _term_value(t.left, i, True), _term_value(t.right, i, True)
        if not (isinstance(left, int) and isinstance(right, int)):
            return None
        v = left + right
    return v if raw or v in i.domain else None


def _lookup(sym, key: tuple, i, ctx) -> TV:
    ps = i.value(sym)
    if key not in ps:
        raise EvaluationError(
            f"domain atom {sym.name}{key!r} outside the populated carrier"
        )
    v = ps.value(key)
    if v is U:
        ctx.record.add(DomainAtom(sym, key))
    return v


def _so_arg_values(sym, i, ctx):
    ps = i.value(sym)
    if ps.is_exact:
        return [ps.true_keys()]
    for key in ps.keys_with(U):
        ctx.record.add(DomainAtom(sym, key))
    return [c.true_keys() for c in ps.completions(ctx.limits)]


def oracle_kv(e, i, ctx) -> TV:
    """Kleene value of e in i, recording consulted u-atoms in ctx."""
    if isinstance(e, Atom1):
        args = tuple(_term_value(a, i) for a in e.args)
        if any(a is None for a in args):
            return F
        return _lookup(e.predicate, args, i, ctx)
    if isinstance(e, Atom2):
        choices: list = []
        for a, at in zip(e.args, e.predicate.type.args):
            if at.kind == "domain":
                v = _term_value(a, i)
                if v is None:
                    return F
                choices.append([v])
            else:
                if not isinstance(a, SymTerm):
                    raise EvaluationError("predicate argument must be a symbol")
                choices.append(_so_arg_values(a.symbol, i, ctx))
        results = [
            _lookup(e.predicate, key, i, ctx) for key in itertools.product(*choices)
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
        return neg(oracle_kv(e.body, i, ctx))
    op = _BINOPS.get(type(e))
    if op is not None:
        return op(oracle_kv(e.left, i, ctx), oracle_kv(e.right, i, ctx))
    if isinstance(e, (ForallFO, ExistsFO)):
        values = [oracle_kv(e.body, i._expand(e.var, d), ctx) for d in i.domain]
        if isinstance(e, ForallFO):
            return rank_min_truth(values, empty=T)
        return rank_max_truth(values, empty=F)
    if isinstance(e, (ForallSO, ExistsSO)):
        rels = arg_value_space(e.var.type, i.domain, ctx.limits)
        vals = [
            oracle_kv(e.body, i._expand(e.var, relation(r, e.var.type.arity, i.domain)), ctx)
            for r in rels
        ]
        if isinstance(e, ForallSO):
            return rank_min_truth(vals, empty=T)
        return rank_max_truth(vals, empty=F)
    if isinstance(e, Aggregate):
        entries = {}
        for tup in itertools.product(i.domain, repeat=len(e.vars)):
            j = i
            for v, d in zip(e.vars, tup):
                j = j._expand(v, d)
            entries[tup] = oracle_kv(e.body, j, ctx)
        bound = _term_value(e.bound, i, raw=True)
        if not isinstance(bound, int):
            raise EvaluationError("aggregate bound must be an integer")
        return approx_aggregate(
            e.agg, e.cmp, PartialSet.from_map(entries), bound, ctx.limits
        )
    if isinstance(e, DefinitionExpr):
        return definitions.eval_definition(e.ruleset, i, "w", ctx.limits, _ctx=ctx)
    if isinstance(e, Let):
        return _let_value(e, i, ctx)
    raise EvaluationError(f"not an expression: {e!r}")


def _let_value(e, i, ctx) -> TV:
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
        return oracle_kv(e.body, j, ctx)
    for p in par_preds:
        for key in i.value(p).keys_with(U):
            ctx.record.add(DomainAtom(p, key))
    return glb_prec(
        _let_value(e, j, ctx) for j in i.completions(par_preds, ctx.limits)
    )


# ---------------------------------------------------------------------------
# The well-founded model as first computed: every derivation round and every
# unfounded-set pass re-evaluates the whole rule bodies of every candidate
# atom on a revised interpretation


def is_unfounded(d, i, u_set, limits=DEFAULT_LIMITS, _ctx=None) -> bool:
    """u_set is a u-set whose bodies are all f once the set is assumed f."""
    ctx = _ctx or EvalContext(limits=limits)
    atoms = sorted(set(u_set), key=definitions._atom_key)
    for a in atoms:
        if a.predicate not in d.defined_symbols:
            raise EvaluationError(f"{a.predicate.name} is not defined by the rule set")
        if i.atom_value(a) is not U:
            return False
    j = i.revise(atoms, F)
    return all(
        all(v is F for v in definitions._body_values(d, a, j, ctx)) for a in atoms
    )


def oracle_unfounded_set(d, i, limits=DEFAULT_LIMITS, _ctx=None) -> frozenset:
    """Largest unfounded set, by downward iteration from all u-atoms."""
    ctx = _ctx or EvalContext(limits=limits)
    candidates = [a for a in definitions._defined_atoms(d, i) if i.atom_value(a) is U]
    while candidates:
        j = i.revise(candidates, F)
        kept = [
            a
            for a in candidates
            if all(v is F for v in definitions._body_values(d, a, j, ctx))
        ]
        if len(kept) == len(candidates):
            break
        candidates = kept
    return frozenset(candidates)


def oracle_wfm_fixpoint(d, i0, atoms, limits, ctx):
    """Alternating fixpoint: derive true atoms, then drop the greatest
    unfounded set to false, until neither step moves."""
    i = i0
    while True:
        derived = [
            a
            for a in atoms
            if i.atom_value(a) is U and T in definitions._body_values(d, a, i, ctx)
        ]
        if derived:
            i = i.revise(derived, T)
            continue
        gus = oracle_unfounded_set(d, i, limits, _ctx=ctx)
        if gus:
            i = i.revise(sorted(gus, key=definitions._atom_key), F)
            continue
        return i


# ---------------------------------------------------------------------------
# A rule set as a formula, as first valued: the glb over every exact
# completion of the relevant unknown atoms, in a flat loop


def relevant_u_atoms(d, i, limits):
    """Unknown atoms the membership test can depend on.

    All unknown defined atoms matter.  For parameters we take the atoms
    consulted while grounding d (valuing every rule body) at the state
    where all defined atoms are unknown: evaluation never short-circuits,
    and consulted sets only shrink as interpretations get more precise,
    so this is a sound over-approximation for every completion.
    """
    atoms = definitions._defined_atoms(d, i)
    consulted = set(definitions._Ground(d, i.revise(atoms, U), limits).consulted())
    consulted.update(a for a in atoms if i.atom_value(a) is U)
    return sorted(consulted, key=definitions._atom_key)


def oracle_exact_check(d, i, sem, limits, ctx) -> TV:
    """Two-valued membership test on an interpretation exact over d's
    free predicate symbols."""
    defined = sorted(d.defined_symbols, key=lambda s: s.name)
    carriers = {h: i.value(h).carrier for h in defined}
    if sem == "w":
        context = definitions.parameter_context(d, i)
        wfm = definitions.well_founded_model(d, context, limits, carriers, _ctx=ctx)
        return TV.of(all(wfm.value(h) == i.value(h) for h in defined))
    if sem == "st":
        return TV.of(definitions.is_partial_stable(d, i, limits, _ctx=ctx).is_partial_stable)
    raise EvaluationError(f"unknown rule-set semantics {sem!r}")


def oracle_eval_definition(d, i, sem="w", limits=DEFAULT_LIMITS, _ctx=None) -> TV:
    """Truth value of a rule set used as a formula: the exact check on
    interpretations exact over its free predicate symbols, else the glb
    over every exact completion of the relevant unknown atoms, u at the
    first disagreement."""
    ctx = _ctx or EvalContext(limits=limits)
    preds = sorted((s for s in d.free if s.type.is_predicate), key=lambda s: s.name)
    unknown = relevant_u_atoms(d, i, limits) if i.u_atoms(preds) else []
    if not unknown:
        return oracle_exact_check(d, i, sem, limits, ctx)
    ctx.record.update(unknown)
    if len(unknown) > limits.max_unknowns:
        raise CapExceeded(f"{len(unknown)} unknown atoms exceed cap {limits.max_unknowns}")
    results = []
    for j in i.refinements(unknown):
        results.append(oracle_exact_check(d, j, sem, limits, ctx))
        if results[-1] is not results[0]:
            return U
    return glb_prec(results)
