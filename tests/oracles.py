"""Reference implementations kept only as test oracles.

* The refinement search as first written (`refinements`, `completions`,
  `glb`): an interpretation revised one atom at a time, depth first, first
  atom outermost, with a cut asked at every node, the root and the leaves
  included.  `deflog` searches instead on a ground value list: a rule set
  or let-block over u atoms is one opaque leaf of the supervaluation's
  residual search, and partial stable candidates come from the `mx` and
  `stable` driver with the codes t, u and f.  Both must give the same
  value, exception, recorded atoms and candidates in order, and probe
  the same nodes.  `oracle_partial_stable_models` is the 3^n loop over
  those refinements.
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
  depth-first search of `refinements`.
* A flat filter (`flat_filter`): every candidate in order, kept where it
  passes, for `mx` and `stable_models` without their cuts.
* The supervaluation as a flat search (`flat_supervaluation`): the
  compiled formula valued at every completion in depth first order, with
  the caller's context, until t and f are both seen.  It was the
  production path for formulas holding a leaf the residual search could
  not probe; the residual search now serves every formula and must give
  its value or its exception, except where a completion raises.
* The residual search of supervaluation as first written
  (`oracle_residual_search`): each node substitutes into the whole
  residual and walks it again for the atoms it reads.  On formulas with
  no waiting leaf (`has_waiting_leaf`) the interned search of
  `deflog.definitions` must give the same value and visit no more nodes.
* The `mx` and `stable` searches as first written (`oracle_cut_search`,
  `oracle_constrained_completions`, `oracle_supported_candidates`):
  `refinements` with a cut that reads each node's interpretation into the
  value list and values every opaque leaf and residual there.  The watch
  list driver of `deflog.definitions` must give the same candidates in
  order and the same exception, and visit no more nodes.  Prudence with
  the rule set ground afresh at each candidate (`oracle_fresh_demotion`):
  the check on one shared grounding must give the same answer or raise
  the same.
* The grounder with every rule body ground afresh at each head
  (`FreshGround`), second order head variables bound to their relations.
  A lifted rule of `deflog.definitions`, ground once over those
  variables and re-valued per relation, must give each head the same
  residual, recorded atoms and exception, and each rule set the same
  well-founded model, stable models and unfounded set.
* Variable binding as first written (`rebuild_expand`, `rebuild_revise`,
  `rebuild_restrict`): copy the assignments into a dict, change it, sort
  the items by name (stable) and construct afresh.  The sort-free
  `PartialInterpretation._expand`, `revise` and `restrict` must give the
  very same `assignments` tuple.
* Σ-equivalence by model enumeration as first written
  (`oracle_exact_interpretations`, `oracle_expandable`,
  `oracle_sigma_equivalent`): a product of every subset of each
  symbol's carrier, capped per symbol, and every exact value of the
  extra symbols tried in turn with the classical evaluator.
  `deflog.templates` takes its Σ bases from the `mx` search and decides
  expandability by one supervaluation per value of the extra
  constants; both must give the same verdict, or raise alike, except
  where a raise falls on a completion the other search does not reach.
  `exact_set` and `approx_quantifier` (a quantifier as Min or Max over a
  partial set) also live here, used only by tests.
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
* Prudence as defined (`oracle_demotion`, `oracle_exact_prudent`,
  `is_closed`): a loop over every non-empty t-set to demote and every
  u-set to promote, in subset order, checking closure by re-evaluating
  every rule body; the exact form demotes t-sets only.  The one least
  fixpoint of `deflog.definitions` must give the same verdict and a
  witness that closes.  `oracle_is_partial_stable` joins it with
  supportedness and the unfounded-set oracle.
* A rule set used as a formula as first valued (`oracle_eval_definition`,
  `relevant_u_atoms`): a flat loop over every exact completion of the
  atoms a grounding at the all-u state consults, each checked against
  its own well-founded model or by the partial stable test, glb of the
  results.  `deflog.definitions.eval_definition` prunes that search with
  the three-valued well-founded model and must give the same value,
  exception and recorded atoms.
* The theory and structure readers as first written (`oracle_tokenize`,
  `OracleParser`, `oracle_tokenize_structure`, `OracleStructReader`): a
  tokenizer per format that scans a line a character at a time, a cursor
  per reader, and one parse function per binary connective.
  `deflog.parser` lexes both formats with one regex each and walks them
  with one cursor; it must give the same tokens (kind, text, line,
  column), the same `Theory` or structure and the same `ParseError`
  text, except that structures now read primed names and a negative
  arity is a `ParseError` (a `ValueError` once a structure gave it a
  carrier).  Both readers reject a second order key outside the carrier
  where no `*` default is given, which the first reader accepted.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from deflog import definitions
from deflog.errors import (
    CapExceeded, DeflogError, EvaluationError, NonTotalDefinitionError, ParseError, TypeError_,
)
from deflog.evaluator import EvalContext, _compiled, evaluate_exact
from deflog.interpretation import PartialInterpretation, _fmt_key
from deflog.limits import DEFAULT_LIMITS, Limits
from deflog.parser import Theory
from deflog.syntax import (
    FRAGMENT_ASO, FRAGMENT_ESO, FRAGMENT_FO, FRAGMENT_SO, AddTerm, Aggregate,
    And, Atom1, Atom2, Cmp, DefinitionExpr, ExistsFO, ExistsSO, ForallFO,
    ForallSO, Iff, Implies, IntTerm, Let, Not, Or, Rule, RuleSet, SymTerm,
    free_symbols, head_var_types,
)
from deflog.truthvalues import (
    F, T, TV, U, PartialSet, approx_aggregate, canon_order, conj, disj, glb_prec, iff,
    implies, max_truth, min_truth, neg,
)
from deflog.vocab import (
    CONST, DomainAtom, Symbol, Type, Vocabulary, arg_value_space, pred, predicate_carrier,
    so_pred,
)

# ---------------------------------------------------------------------------
# The refinement search as first written: an interpretation revised one atom
# at a time, depth first, with a cut asked at every node


def completions(i, over, limits=DEFAULT_LIMITS):
    """All interpretations exact on `over`, refining i, identical elsewhere:
    2^u for u unknown atoms over those symbols, in `refinements` order."""
    unknown = i.u_atoms(over)
    limits.check("max_unknowns", len(unknown), "{n} unknown atoms exceed cap {cap}")
    yield from refinements(i, unknown)


def glb(i, atoms, limits, leaf, probe=None) -> TV:
    """The glb of leaf(j) over the refinements j of `atoms` to t and f,
    depth first.  An exact probe(j) is the value of all below j, which is
    cut; once t and f are both seen the glb is u and all is cut."""
    limits.check("max_unknowns", len(atoms), "{n} unknown atoms exceed cap {cap}")
    seen: set = set()  # values of the subtrees decided so far

    def decided(j) -> bool:
        if len(seen) > 1:
            return True
        v = probe(j) if probe else U
        if v is not U:
            seen.add(v)
        return v is not U

    for j in refinements(i, atoms, cut=decided):
        seen.add(leaf(j))
    return U if len(seen) > 1 else seen.pop()


def refinements(i, atoms, values=(T, F), cut=None):
    """i with each atom revised to one of `values`, every combination in
    itertools.product order (first atom outermost); u leaves an atom as it
    is.  Depth first: `cut` sees the refinement of each prefix of `atoms`,
    the empty one included, and a true answer drops every combination
    below it.  Callers check caps first."""
    yield from _refine(i, atoms, 0, values, cut)


def _refine(i, atoms, depth, values, cut):
    if cut is not None and cut(i):
        return
    if depth == len(atoms):
        yield i
        return
    sym, key = atoms[depth].predicate, atoms[depth].args
    for v in values:
        j = i if v is U else i._expand(sym, i.value(sym).with_values({key: v}))
        yield from _refine(j, atoms, depth + 1, values, cut)


def atom_key(a):
    """The order of atoms by symbol name, then arguments in canonical order."""
    return (a.predicate.name, canon_order(a.args))


def oracle_partial_stable_models(d, o, limits=DEFAULT_LIMITS, carriers=None) -> list:
    """The partial stable interpretations expanding context o, in the order
    of the 3^n refinements of its defined atoms to t, u and f."""
    i0 = definitions.expand_context(d, o, limits, carriers)
    atoms = definitions._defined_atoms(d, i0)
    limits.check("max_defined_atoms", len(atoms), "{n} defined atoms exceed cap {cap}")
    return [j for j in refinements(i0, atoms, (T, U, F))
            if definitions.is_partial_stable(d, j, limits).is_partial_stable]


# ---------------------------------------------------------------------------
# Fragment classification by desugaring


def desugar(e):
    """Rewrite |, =>, <=> and first order forall into ~, & and exists."""
    if isinstance(e, (Atom1, Atom2, Cmp)):
        return e
    if isinstance(e, Not):
        return Not(desugar(e.body))
    if isinstance(e, And):
        return And(*map(desugar, e.args))
    if isinstance(e, Or):
        return Not(And(*[Not(desugar(a)) for a in e.args]))
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
        return all(map(_is_fo, e.args))
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
        return all(map(_is_eso, e.args))
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
        return all(map(_is_aso, e.args))
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
        return all(classical_eval(a, i) for a in e.args)
    if isinstance(e, Or):
        return any(classical_eval(a, i) for a in e.args)
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


def flat_supervaluation(e, i, ctx) -> TV:
    """The glb of e's compiled closure, with the caller's ctx, over the
    completions of its u atoms, depth first until t and f are both seen."""
    unknown = i.u_atoms(s for s in free_symbols(e) if s.type.is_predicate)
    fn = _compiled(e)
    return glb(i, unknown, ctx.limits, lambda j: fn(j, {}, ctx))


def flat_filter(candidates, passes) -> tuple:
    """What a search with no cut gives over `candidates`, in order: the
    list of those passes() accepts, or (None, the first exception type and
    message); then the errors raised and the candidates accepted without
    raising, which a cut search returns where it skips every raising one."""
    models, errors, accepted = [], [], []
    for j in candidates:
        try:
            ok = passes(j)
        except DeflogError as exc:
            errors.append((type(exc), str(exc)))
            continue
        if ok:
            accepted.append(j)
            if not errors:
                models.append(j)
    return (None, errors[0]) if errors else (models, None), errors, accepted


def has_waiting_leaf(e) -> bool:
    """Whether e holds a node kind the formula form of the grounder makes
    a waiting leaf wherever it reads a u atom: a second order atom or
    quantifier, a sum, a definition or a let-block, also under a card."""
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, (Atom2, ForallSO, ExistsSO, DefinitionExpr, Let)) or (
                isinstance(n, Aggregate) and n.agg != "card"):
            return True
        if isinstance(n, Not):
            stack.append(n.body)
        elif isinstance(n, (And, Or)):
            stack.extend(n.args)
        elif isinstance(n, (Implies, Iff)):
            stack.extend((n.left, n.right))
        elif isinstance(n, (ForallFO, ExistsFO, Aggregate)):
            stack.append(n.body)
    return False


# ---------------------------------------------------------------------------
# The residual search as first written: every node rebuilds its residual and
# walks it again for the atoms it reads.  The search of deflog.definitions
# interns the residual and searches each distinct leaf-free one once; it
# must give the same value and visit no more nodes.


def _substitute(n, x: int, c: int, memo: dict):
    """Residual n with value index x set to the code c, re-simplified; memo
    holds the result per node, as a ground iff shares its sides."""
    if type(n) is int:
        return c if n == x else n
    if id(n) not in memo:
        if n[0] == definitions._NOT:
            memo[id(n)] = definitions._negate(_substitute(n[1], x, c, memo))
        else:
            memo[id(n)] = definitions._connect(n[0], [_substitute(k, x, c, memo) for k in n[1]])
    return memo[id(n)]


def _indices(n) -> set:
    """The value indices residual n reads."""
    out, seen, stack = set(), set(), [n]
    while stack:
        n = stack.pop()
        if type(n) is int:
            out.add(n)
        elif id(n) not in seen:
            seen.add(id(n))
            if n[0] == definitions._NOT:
                stack.append(n[1])
            else:
                stack.extend(n[1])
    return out


def _search(g, n, seen: set, nodes: list) -> None:
    """Add to `seen` residual n's values, as `definitions._search` did before
    it interned the residual; `nodes` gets one entry per node."""
    nodes.append(1)
    if len(seen) > 1:
        return
    reads, j = _indices(n), None
    for slot, fn, env, *_ in g.leaf:
        if slot in reads:
            j = j or g.interpretation()
            v = definitions._code(fn(j, env, g.ctx))
            n = n if v == 1 else _substitute(n, slot, v, {})
    reads = _indices(n) if j else reads
    if type(n) is int and n < definitions._ATOMS:
        return seen.add(n)
    held = g.leaf and max(reads) >= g.leaf[0][0]
    if held:
        x = next(a for a in range(definitions._ATOMS, g.leaf[0][0]) if g.val[a] == 1)
    else:
        x = min(reads)
    for c in (2, 0):
        g.val[x] = c
        _search(g, _substitute(n, x, c, {}), seen, nodes)
    g.val[x] = 1


def oracle_residual_search(e, i, limits=DEFAULT_LIMITS) -> tuple:
    """The value of e, with no waiting leaf, searched on its residual as
    first written, and the number of nodes the search visited."""
    atoms = i.u_atoms(s for s in free_symbols(e) if s.type.is_predicate)
    if len(atoms) > limits.max_unknowns:
        raise CapExceeded(f"{len(atoms)} unknown atoms exceed cap {limits.max_unknowns} "
                          "(--max-completions)")
    g = definitions._Ground(None, i, limits, symbols={a.predicate for a in atoms})
    seen, nodes = set(), []
    _search(g, g.ground(e, {}, definitions._compiled(e)), seen, nodes)
    return U if len(seen) > 1 else (F, U, T)[seen.pop()], len(nodes)


# ---------------------------------------------------------------------------
# The mx and stable searches as first written: refinements with a cut that
# copies each node's interpretation into the value list and values every
# leaf and residual there


def oracle_cut_search(g, i, atoms, grounders, decided) -> tuple:
    """The refinements of i over `atoms` (t then f), cut where, with the
    node's values read into g, no opaque leaf raises and decided(values of
    the residuals the grounders give up to the first that raises) holds;
    and the number of nodes visited."""
    nodes, val, residuals = [], g.val, []
    try:
        for grounder in grounders:
            residuals.append(grounder())
    except DeflogError:
        pass

    def cut(j) -> bool:
        nodes.append(j)
        for sym, (k, index) in g.index.items():
            val[k:k + len(index)] = map(definitions._code, j.value(sym).values)
        try:
            g.value(g.leaf, j)
        except DeflogError:
            return False
        return bool(residuals) and decided(
            [val[n] if type(n) is int else definitions._value(n, val) for n in residuals])

    return list(refinements(i, atoms, cut=cut)), len(nodes)


def oracle_constrained_completions(constraints, i, limits=DEFAULT_LIMITS) -> tuple:
    """mx's completions as first searched: cut where a constraint is f."""
    atoms = i.u_atoms(i.predicate_symbols())
    limits.check("max_unknowns", len(atoms), "{n} unknown atoms exceed cap {cap}")
    g = definitions._Ground(None, i, limits, symbols={a.predicate for a in atoms})
    return oracle_cut_search(g, i, atoms, [
        lambda phi=phi: g.ground(phi, {}, _compiled(phi)) for phi in constraints],
        lambda values: 0 in values)


def oracle_supported_candidates(d, i0, atoms, limits=DEFAULT_LIMITS) -> tuple:
    """stable's candidates as first searched: cut where an assigned atom's
    ground rule bodies give the opposite value."""
    g = definitions._Ground(None, i0, limits, symbols=d.defined_symbols)
    first = definitions._ATOMS
    return oracle_cut_search(g, i0, atoms, [
        lambda a=a: g.rules(d, a.predicate, a.args) for a in atoms], lambda values: any(
            v != 1 and w == 2 - v for v, w in zip(g.val[first:], values)))


def oracle_fresh_demotion(d, i, atoms, limits=DEFAULT_LIMITS):
    """The least fixpoint prudence check as first written: d ground afresh
    at i with its t atoms demoted, for every i."""
    ts = [h for h, a in enumerate(atoms) if i.atom_value(a) is T]
    if not ts:
        return None
    first = definitions._ATOMS
    g = definitions._Ground(d, i.revise([atoms[h] for h in ts], U), limits)
    coded = g.val[first:first + len(atoms)]
    g.derive([h for h, v in enumerate(coded) if v == 1], refresh=False)
    lfp = {h for h in range(len(atoms)) if g.val[first + h] == 2}
    if lfp.issuperset(ts) or 2 in g.values([h for h, v in enumerate(coded) if v == 0]):
        return None
    return (frozenset(atoms[h] for h in ts if h not in lfp),
            frozenset(atoms[h] for h in lfp.difference(ts)))


class FreshGround(definitions._Ground):
    """`_Ground` whose `rules` grounds every rule body afresh at each head,
    its second order head variables bound to their relations, as before
    rules were lifted."""

    def rules(self, d, sym, args):
        return definitions._connect(definitions._OR, [self.ground(
            r.body, definitions._head_env(r, args, self.at.domain), _compiled(r.body))
            for r in d.by_head[sym]])


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


def expand_unknown(i, syms, limits=DEFAULT_LIMITS):
    """i expanded with all-unknown values for the predicate symbols `syms`,
    over their full carriers, every value checked again by `make`."""
    valuation = dict(i.assignments)
    for s in syms:
        valuation[s] = PartialSet.constant(predicate_carrier(s.type, i.domain, limits), U)
    return PartialInterpretation.make(i.domain, valuation)


# ---------------------------------------------------------------------------
# The canonical order as first written, with a relation's sort key made afresh
# on every call, and value spaces enumerated by bit masks


def oracle_canon_order(key):
    if isinstance(key, tuple):
        return (2, tuple(oracle_canon_order(k) for k in key))
    if isinstance(key, frozenset):
        return (3, tuple(sorted(oracle_canon_order(k) for k in key)))
    if isinstance(key, bool):
        return (0, int(key))
    if isinstance(key, int):
        return (0, key)
    return (1, str(key))


def oracle_relations(domain, arity):
    """Every relation over domain^arity, by bit masks, in mask order."""
    tuples = list(itertools.product(domain, repeat=arity))
    return [frozenset(itertools.compress(tuples, mask))
            for mask in itertools.product((0, 1), repeat=len(tuples))]


# ---------------------------------------------------------------------------
# Exact sets, the quantifiers on a partial set, and Σ-equivalence by model
# enumeration, as first written


def exact_set(carrier, members) -> PartialSet:
    """The exact set over carrier whose t keys are `members`."""
    member_set = set(members)
    return PartialSet.from_map({k: TV.of(k in member_set) for k in carrier})


def approx_quantifier(q: str, s: PartialSet) -> TV:
    """Three-valued universal/existential over the range of s, as Min/Max in
    the truth order; an empty carrier is t for "forall" and f for "exists"."""
    if q == "forall":
        return min_truth(s.values, empty=T)
    if q == "exists":
        return max_truth(s.values, empty=F)
    raise EvaluationError(f"unknown quantifier {q!r}")


def oracle_exact_interpretations(symbols, domain, limits=DEFAULT_LIMITS):
    """All exact interpretations of `symbols` over `domain`: a product, by
    name, of every subset of each predicate's carrier in size order (the cap
    per symbol) and every element for a constant."""
    symbols = sorted(set(symbols), key=lambda s: s.name)
    spaces = []
    for s in symbols:
        if s.type.kind == "const":
            spaces.append(list(domain))
        elif s.type.is_predicate:
            carrier = predicate_carrier(s.type, domain, limits)
            limits.check("max_unknowns", len(carrier), "{n} atoms of {name} exceed cap {cap}",
                         name=s.name)
            spaces.append([exact_set(carrier, members) for r in range(len(carrier) + 1)
                           for members in itertools.combinations(carrier, r)])
        else:
            raise TypeError_(f"cannot enumerate values of {s.name}: {s.type}")
    for combo in itertools.product(*spaces):
        yield PartialInterpretation.make(domain, dict(zip(symbols, combo)))


def oracle_expandable(phi, base, limits=DEFAULT_LIMITS) -> bool:
    """Whether some exact value of phi's symbols outside base makes it t,
    each tried with the classical evaluator."""
    extra = sorted((s for s in free_symbols(phi) if not base.interprets(s)),
                   key=lambda s: s.name)
    for ext in oracle_exact_interpretations(extra, base.domain, limits):
        j = base
        for s in extra:
            j = j.expand(s, ext.value(s))
        if evaluate_exact(phi, j, limits) is T:
            return True
    return False


def oracle_sigma_equivalent(phi1, phi2, sigma, domain, limits=DEFAULT_LIMITS) -> bool:
    """Every exact Σ-interpretation is expandable to a model of phi1 iff of phi2."""
    return all(oracle_expandable(phi1, base, limits) == oracle_expandable(phi2, base, limits)
               for base in oracle_exact_interpretations(sigma, domain, limits))


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


class _Sorted(frozenset):
    """A relation whose repr lists its tuples in canonical order."""

    def __repr__(self) -> str:
        if not self:
            return "frozenset()"
        return "frozenset({%s})" % ", ".join(repr(k) for k in sorted(self, key=oracle_canon_order))


def _lookup(sym, key: tuple, i, ctx) -> TV:
    ps = i.value(sym)
    if key not in ps:
        shown = tuple(_Sorted(k) if isinstance(k, frozenset) else k for k in key)
        raise EvaluationError(
            f"domain atom {sym.name}{shown!r} outside the populated carrier"
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
    if isinstance(e, (And, Or)):  # every operand valued, so recording sees all
        values = [oracle_kv(a, i, ctx) for a in e.args]
        return rank_min_truth(values) if isinstance(e, And) else rank_max_truth(values)
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
        _let_value(e, j, ctx) for j in completions(i, par_preds, ctx.limits)
    )


# ---------------------------------------------------------------------------
# The well-founded model as first computed: every derivation round and every
# unfounded-set pass re-evaluates the whole rule bodies of every candidate
# atom on a revised interpretation


def is_unfounded(d, i, u_set, limits=DEFAULT_LIMITS, _ctx=None) -> bool:
    """u_set is a u-set whose bodies are all f once the set is assumed f."""
    ctx = _ctx or EvalContext(limits=limits)
    atoms = sorted(set(u_set), key=atom_key)
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
            i = i.revise(sorted(gus, key=atom_key), F)
            continue
        return i


# ---------------------------------------------------------------------------
# Prudence as defined: every demotion of a t-set and promotion of a u-set,
# in subset order, checked for closure


def is_closed(d, i, limits=DEFAULT_LIMITS) -> bool:
    """True bodies force true heads, for every rule instance.  Its body
    evaluations record nothing: the closure checks of an interpretation
    read atoms it does not hold."""
    ctx = EvalContext(limits=limits)
    for atom in definitions._defined_atoms(d, i):
        head_value = i.atom_value(atom)
        for v in definitions._body_values(d, atom, i, ctx):
            if v is T and head_value is not T:
                return False
    return True


def _subsets(atoms: list):
    for r in range(len(atoms) + 1):
        yield from itertools.combinations(atoms, r)


def oracle_demotion(d, i, limits=DEFAULT_LIMITS):
    """The first (t_set, u_set) in subset order, t_set non-empty, such that
    demoting t_set to u and promoting u_set to t leaves i closed, or None
    when i is prudent."""
    atoms = definitions._defined_atoms(d, i)
    t_atoms = [a for a in atoms if i.atom_value(a) is T]
    u_atoms = [a for a in atoms if i.atom_value(a) is U]
    for t_sub in _subsets(t_atoms):
        if t_sub:
            demoted = i.revise(t_sub, U)
            for u_sub in _subsets(u_atoms):
                if is_closed(d, demoted.revise(u_sub, T) if u_sub else demoted, limits):
                    return frozenset(t_sub), frozenset(u_sub)
    return None


def oracle_exact_prudent(d, i, limits=DEFAULT_LIMITS) -> bool:
    """Prudence of an exact i: no non-empty t-set demotes to a closed one."""
    t_atoms = [a for a in definitions._defined_atoms(d, i) if i.atom_value(a) is T]
    return not any(t_sub and is_closed(d, i.revise(t_sub, U), limits)
                   for t_sub in _subsets(t_atoms))


def oracle_is_partial_stable(d, i, limits=DEFAULT_LIMITS, _ctx=None) -> bool:
    """Supported, prudent by the subset loop and brave; all three are
    checked, in that order, so that each raises what it would."""
    ctx = _ctx or EvalContext(limits=limits)
    supported = all([
        i.atom_value(a) is rank_max_truth(definitions._body_values(d, a, i, ctx), empty=F)
        for a in definitions._defined_atoms(d, i)])
    prudent = oracle_demotion(d, i, limits) is None
    brave = not oracle_unfounded_set(d, i, limits, _ctx=ctx)
    return supported and prudent and brave


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
    return sorted(consulted, key=atom_key)


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
        return TV.of(oracle_is_partial_stable(d, i, limits, _ctx=ctx))
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
        raise CapExceeded(f"{len(unknown)} unknown atoms exceed cap {limits.max_unknowns} "
                          "(--max-completions)")
    results = []
    for j in refinements(i, unknown):
        results.append(oracle_exact_check(d, j, sem, limits, ctx))
        if results[-1] is not results[0]:
            return U
    return glb_prec(results)


# ---------------------------------------------------------------------------
# The theory and structure readers as first written

_ORACLE_UNICODE = {
    "¬": "~", "∧": "&", "∨": "|", "⇒": "=>",
    "⇔": "<=>", "←": "<-", "∀": "!", "∃": "?",
}

_ORACLE_PUNCT = [
    "<=>", "=>", "<-", "??", "!!", "..",
    "{", "}", "(", ")", "[", "]", ",", ":", ";", ".", "-",
    "~", "&", "|", "+", "/", "=", "<", ">", "!", "?", "#",
]

_ORACLE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_ORACLE_INT = re.compile(r"-?\d+")


@dataclass
class OracleToken:
    kind: str  # 'name' | 'int' | 'punct' | 'eof'
    text: str
    line: int
    col: int


def oracle_tokenize(text: str) -> list[OracleToken]:
    for u, a in _ORACLE_UNICODE.items():
        text = text.replace(u, a)
    tokens: list[OracleToken] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("//", 1)[0]
        pos = 0
        while pos < len(line):
            ch = line[pos]
            if ch.isspace():
                pos += 1
                continue
            m = _ORACLE_NAME.match(line, pos)
            if m:
                tokens.append(OracleToken("name", m.group(), lineno, pos + 1))
                pos = m.end()
                continue
            m = _ORACLE_INT.match(line, pos)
            if m and not (ch == "-" and tokens and tokens[-1].kind in ("int", "name")):
                tokens.append(OracleToken("int", m.group(), lineno, pos + 1))
                pos = m.end()
                continue
            for p in _ORACLE_PUNCT:
                if line.startswith(p, pos):
                    tokens.append(OracleToken("punct", p, lineno, pos + 1))
                    pos += len(p)
                    break
            else:
                raise ParseError(f"unexpected character {ch!r}", lineno, pos + 1)
    tokens.append(OracleToken("eof", "", len(text.splitlines()) + 1, 1))
    return tokens


class OracleParser:
    def __init__(self, tokens: list[OracleToken], vocab: Vocabulary | None = None):
        self.tokens = tokens
        self.pos = 0
        self.scope: dict[str, Symbol] = (
            {s.name: s for s in vocab} if vocab else {}
        )

    # -- token plumbing ------------------------------------------------

    def peek(self, ahead: int = 0) -> OracleToken:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def next(self) -> OracleToken:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "name"

    def at_name(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "name" and t.text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> OracleToken:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return tok

    def expect_name(self) -> OracleToken:
        tok = self.next()
        if tok.kind != "name":
            raise ParseError(f"expected a name, got {tok.text!r}", tok.line, tok.col)
        return tok

    def fail(self, msg: str):
        tok = self.peek()
        raise ParseError(msg, tok.line, tok.col)

    # -- types and vocabulary -------------------------------------------

    def parse_type(self) -> Type:
        tok = self.expect_name()
        if tok.text == "pred":
            self.expect("/")
            arity = self.next()
            if arity.kind != "int":
                raise ParseError("expected an arity", arity.line, arity.col)
            return pred(int(arity.text))
        if tok.text == "const":
            return CONST
        if tok.text == "domain":
            return Type("domain")
        if tok.text == "so" or tok.text == "so_pred":
            if tok.text == "so":
                self.expect("-")
                inner = self.expect_name()
                if inner.text != "pred":
                    raise ParseError("expected 'pred' after 'so-'", inner.line, inner.col)
            self.expect("(")
            args = []
            while not self.at(")"):
                args.append(self.parse_type())
                if not self.accept(","):
                    break
            self.expect(")")
            return so_pred(*args)
        raise ParseError(f"unknown type {tok.text!r}", tok.line, tok.col)

    def parse_vocab_block(self) -> Vocabulary:
        self.expect("{")
        symbols = []
        while not self.at("}"):
            name = self.expect_name()
            self.expect(":")
            kind = "user"
            if self.peek().kind == "name" and self.peek().text in ("template", "interpreted"):
                kind = self.next().text
            t = self.parse_type()
            symbols.append(Symbol(name.text, t, kind))
            self.accept(";")
        self.expect("}")
        vocab = Vocabulary.of(symbols)
        self.scope.update({s.name: s for s in vocab})
        return vocab

    # -- terms -----------------------------------------------------------

    def resolve(self, name: OracleToken) -> Symbol:
        sym = self.scope.get(name.text)
        if sym is None:
            raise ParseError(f"unknown symbol {name.text!r}", name.line, name.col)
        return sym

    def parse_term(self):
        left = self.parse_term_factor()
        while self.at("+"):
            self.next()
            left = AddTerm(left, self.parse_term_factor())
        return left

    def parse_term_factor(self):
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return IntTerm(int(tok.text))
        if tok.kind == "name":
            self.next()
            return SymTerm(self.resolve(tok))
        self.fail(f"expected a term, got {tok.text!r}")

    # -- formulas ---------------------------------------------------------

    def parse_formula(self):
        return self.parse_iff()

    def parse_iff(self):
        left = self.parse_implies()
        while self.at("<=>"):
            self.next()
            left = Iff(left, self.parse_implies())
        return left

    def parse_implies(self):
        left = self.parse_or()
        while self.at("=>"):
            self.next()
            left = Implies(left, self.parse_or())
        return left

    def parse_or(self):
        left = self.parse_and()
        while self.at("|"):
            self.next()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_unary()
        while self.at("&"):
            self.next()
            left = And(left, self.parse_unary())
        return left

    def parse_unary(self):
        if self.accept("~"):
            return Not(self.parse_unary())
        if self.at("!") or self.at("?") or self.at("!!") or self.at("??"):
            return self.parse_quantifier()
        if self.at("#") or (self.at_name("sum") and self.peek(1).text == "{"):
            return self.parse_aggregate()
        return self.parse_atom()

    def parse_quantifier(self):
        sigil = self.next().text
        name = self.expect_name()
        so = sigil in ("!!", "??")
        var_type = CONST
        if self.accept("["):
            var_type = self.parse_type()
            self.expect("]")
            if var_type.kind == "pred":
                so = True
        if so and var_type == CONST:
            self.fail(f"second order variable {name.text!r} needs a [pred/n] annotation")
        var = Symbol(name.text, var_type)
        self.expect(":")
        saved = self.scope.get(var.name)
        self.scope[var.name] = var
        try:
            body = self.parse_formula()
        finally:
            if saved is None:
                self.scope.pop(var.name, None)
            else:
                self.scope[var.name] = saved
        universal = sigil in ("!", "!!")
        if so:
            return (ForallSO if universal else ExistsSO)(var, body)
        return (ForallFO if universal else ExistsFO)(var, body)

    def parse_aggregate(self):
        agg = "card" if self.accept("#") else (self.next().text and "sum")
        self.expect("{")
        vars_ = []
        while True:
            name = self.expect_name()
            vars_.append(Symbol(name.text, CONST))
            if not self.accept(","):
                break
        self.expect(":")
        saved = {v.name: self.scope.get(v.name) for v in vars_}
        self.scope.update({v.name: v for v in vars_})
        try:
            body = self.parse_formula()
        finally:
            for name_, old in saved.items():
                if old is None:
                    self.scope.pop(name_, None)
                else:
                    self.scope[name_] = old
        self.expect("}")
        op = self.parse_cmp_op()
        bound = self.parse_term()
        return Aggregate(agg, op, tuple(vars_), body, bound)

    def parse_cmp_op(self) -> str:
        for op in ("=", "<", ">"):
            if self.accept(op):
                return op
        self.fail("expected a comparison operator (=, <, >)")

    def parse_atom(self):
        if self.accept("("):
            inner = self.parse_formula()
            self.expect(")")
            return inner
        if self.at("{"):
            return DefinitionExpr(self.parse_ruleset())
        if self.at_name("let"):
            self.next()
            rs = self.parse_ruleset()
            defined = {s.name: s for s in rs.defined_symbols}
            saved = {n: self.scope.get(n) for n in defined}
            self.scope.update(defined)
            tok = self.expect_name()
            if tok.text != "in":
                raise ParseError("expected 'in' after a let block", tok.line, tok.col)
            try:
                body = self.parse_formula()
            finally:
                for n, old in saved.items():
                    if old is None:
                        self.scope.pop(n, None)
                    else:
                        self.scope[n] = old
            return Let(rs, body)
        tok = self.peek()
        if tok.kind == "int" or (
            tok.kind == "name" and self.peek(1).text in ("+", "<", ">", "=")
        ):
            left = self.parse_term()
            op = self.parse_cmp_op()
            return Cmp(op, left, self.parse_term())
        name = self.expect_name()
        sym = self.resolve(name)
        args: list = []
        if self.accept("("):
            while not self.at(")"):
                args.append(self.parse_term())
                if not self.accept(","):
                    break
            self.expect(")")
        if sym.type.kind == "so-pred":
            return Atom2(sym, tuple(args))
        return Atom1(sym, tuple(args))

    # -- rules -------------------------------------------------------------

    def parse_ruleset(self) -> RuleSet:
        self.expect("{")
        rules = []
        while not self.at("}"):
            rules.append(self.parse_rule())
            self.accept(".")
        self.expect("}")
        return RuleSet(tuple(rules))

    def parse_rule(self) -> Rule:
        head_tok = self.expect_name()
        head = self.resolve(head_tok)
        if not head.type.is_predicate:
            raise ParseError(
                f"rule head {head.name!r} is not a predicate", head_tok.line, head_tok.col
            )
        raw_args: list[OracleToken | None] = []
        if self.accept("("):
            while not self.at(")"):
                raw_args.append(self.expect_name())
                if not self.accept(","):
                    break
            self.expect(")")
        var_types = head_var_types(head)
        if len(raw_args) != len(var_types):
            raise ParseError(
                f"rule head {head.name} expects {len(var_types)} arguments",
                head_tok.line, head_tok.col,
            )
        head_vars: list[Symbol] = []
        equalities: list = []
        fresh_n = 0
        seen: set[str] = set()
        for tok, t in zip(raw_args, var_types):
            if tok.text not in self.scope and tok.text not in seen:
                head_vars.append(Symbol(tok.text, t))
                seen.add(tok.text)
                continue
            # bound or repeated name: introduce a fresh head variable and
            # constrain it by equality (only possible for domain positions)
            if t != CONST:
                raise ParseError(
                    f"second order head argument {tok.text!r} must be a fresh name",
                    tok.line, tok.col,
                )
            fresh_n += 1
            fresh_name = f"hv{fresh_n}"
            while fresh_name in self.scope or fresh_name in seen:
                fresh_n += 1
                fresh_name = f"hv{fresh_n}"
            fresh = Symbol(fresh_name, CONST)
            head_vars.append(fresh)
            seen.add(fresh_name)
            other = self.scope.get(tok.text) or next(
                v for v in head_vars if v.name == tok.text
            )
            equalities.append(Cmp("=", SymTerm(fresh), SymTerm(other)))
        saved = {v.name: self.scope.get(v.name) for v in head_vars}
        self.scope.update({v.name: v for v in head_vars})
        try:
            if self.accept("<-"):
                body = self.parse_formula()
            else:
                if not equalities:
                    self.fail(f"rule for {head.name} needs a body or ground arguments")
                body = None
        finally:
            for n, old in saved.items():
                if old is None:
                    self.scope.pop(n, None)
                else:
                    self.scope[n] = old
        for eq in equalities:
            body = eq if body is None else And(body, eq)
        return Rule(head, tuple(head_vars), body)

    # -- theory files --------------------------------------------------------

    def parse_theory(self) -> Theory:
        tok = self.expect_name()
        if tok.text != "vocab":
            raise ParseError("theory files start with a vocab block", tok.line, tok.col)
        vocab = self.parse_vocab_block()
        theory = Theory(vocab)
        while self.peek().kind != "eof":
            kind = self.expect_name()
            name = self.expect_name().text
            if kind.text == "formula":
                self.expect("{")
                theory.formulas[name] = self.parse_formula()
                self.expect("}")
            elif kind.text == "definition":
                theory.definitions[name] = self.parse_ruleset()
            elif kind.text == "template":
                theory.templates[name] = self.parse_ruleset()
            else:
                raise ParseError(
                    f"expected formula, definition or template, got {kind.text!r}",
                    kind.line, kind.col,
                )
        return theory


def oracle_parse_theory(text: str) -> Theory:
    return OracleParser(oracle_tokenize(text)).parse_theory()


_ORACLE_STRUCT_TOKEN = re.compile(
    r"\s*(?:(?P<int>-?\d+\.\.-?\d+|-?\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[{}(),:=*]))"
)


def oracle_tokenize_structure(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("//", 1)[0]
        pos = 0
        while pos < len(line):
            m = _ORACLE_STRUCT_TOKEN.match(line, pos)
            if not m:
                if line[pos:].strip():
                    raise ParseError(f"bad character {line[pos]!r}", lineno, pos + 1)
                break
            pos = m.end()
            for kind in ("int", "name", "punct"):
                if m.group(kind) is not None:
                    tokens.append((kind, m.group(kind), lineno))
                    break
        tokens.append(("newline", "", lineno))
    return tokens


class OracleStructReader:
    def __init__(self, text: str, vocab: Vocabulary, limits: Limits):
        self.tokens = oracle_tokenize_structure(text)
        self.pos = 0
        self.vocab = vocab
        self.limits = limits

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ("eof", "", 0)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, text, line = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, got {text or kind!r}", line)
        return text

    def skip_newlines(self):
        while self.peek()[0] == "newline":
            self.next()

    def element(self):
        kind, text, line = self.next()
        if kind == "int" and ".." not in text:  # a range is no element
            return int(text)
        if kind == "name":
            return text
        raise ParseError(f"expected a domain element, got {text!r}", line)

    def elem_or_relation(self):
        if self.peek()[1] == "{":
            self.next()
            rel = set()
            while self.peek()[1] != "}":
                rel.add(self.key_tuple())
                if self.peek()[1] == ",":
                    self.next()
            self.expect("}")
            return frozenset(rel)
        return self.element()

    def key_tuple(self) -> tuple:
        self.expect("(")
        parts = []
        while self.peek()[1] != ")":
            parts.append(self.elem_or_relation())
            if self.peek()[1] == ",":
                self.next()
        self.expect(")")
        return tuple(parts)

    def truth(self) -> TV:
        kind, text, line = self.next()
        if text in ("t", "u", "f"):
            return TV(text)
        raise ParseError(f"expected t, u or f, got {text!r}", line)

    def read(self) -> PartialInterpretation:
        domain: list = []
        valuation: dict = {}
        seen_domain = False
        self.skip_newlines()
        while self.peek()[0] != "eof":
            kind, name, line = self.next()
            if kind != "name":
                raise ParseError(f"expected a symbol name, got {name!r}", line)
            self.expect("=")
            if name == "domain":
                if seen_domain:
                    raise ParseError("duplicate domain block", line)
                seen_domain = True
                domain = self.read_domain()
            else:
                sym = self.vocab.get(name)
                if sym is None:
                    raise ParseError(f"symbol {name!r} not in vocabulary", line)
                if sym in valuation:
                    raise ParseError(f"duplicate assignment to {name!r}", line)
                if not seen_domain:
                    raise ParseError("domain must be declared first", line)
                valuation[sym] = self.read_value(sym, domain, line)
            self.skip_newlines()
        if not seen_domain:
            raise ParseError("structure has no domain block")
        # unmentioned predicates default to all-unknown
        i = PartialInterpretation.make(domain, valuation)
        missing = [
            s
            for s in self.vocab
            if s.type.is_predicate and s not in {k for k in valuation}
        ]
        return expand_unknown(i, missing, self.limits)

    def read_domain(self) -> list:
        self.expect("{")
        out: list = []
        while self.peek()[1] != "}":
            kind, text, line = self.next()
            if kind == "int" and ".." in text:
                lo, hi = (int(p) for p in text.split(".."))
                out.extend(range(lo, hi + 1))
            elif kind == "int":
                out.append(int(text))
            elif kind == "name":
                out.append(text)
            else:
                raise ParseError(f"bad domain element {text!r}", line)
            if self.peek()[1] == ",":
                self.next()
        self.expect("}")
        return out

    def read_value(self, sym: Symbol, domain: list, line: int):
        if not sym.type.is_predicate:
            return self.elem_or_relation()
        self.expect("{")
        entries: dict[tuple, TV] = {}
        default: TV | None = None
        while self.peek()[1] != "}":
            if self.peek()[1] == "*":
                self.next()
                self.expect(":")
                default = self.truth()
            else:
                key = self.key_tuple()
                self.expect(":")
                entries[key] = self.truth()
            if self.peek()[1] == ",":
                self.next()
        self.expect("}")
        if default is not None:
            carrier = predicate_carrier(sym.type, domain, self.limits)
            full = {tuple(k): default for k in carrier}
            for key, v in entries.items():
                if key not in full:
                    raise ParseError(f"{sym.name}: key {_fmt_key(key)} outside carrier", line)
                full[key] = v
            entries = full
        elif sym.type.kind == "pred":
            carrier = set(map(tuple, predicate_carrier(sym.type, domain, self.limits)))
            if set(entries) != carrier:
                raise ParseError(
                    f"{sym.name}: entries do not cover the carrier and no '*' default given",
                    line,
                )
        else:
            carrier = set(map(tuple, predicate_carrier(sym.type, domain, self.limits)))
            for key in entries:
                if key not in carrier:
                    raise ParseError(f"{sym.name}: key {_fmt_key(key)} outside carrier", line)
        return PartialSet.from_map(entries)


def oracle_read_structure(text: str, vocab, limits: Limits = DEFAULT_LIMITS):
    return OracleStructReader(text, vocab, limits).read()
