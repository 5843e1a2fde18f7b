"""Rule sets under well-founded and stable semantics.

A rule set (definition) over a finite domain is judged against a
partial interpretation by three conditions:

* supportedness: every defined domain atom carries the Max (truth
  order) of its matching rule-body values, with Max over no applicable
  rules being f;
* prudence: no non-empty t-set T and u-set U of defined atoms exist
  such that demoting T to u and promoting U to t leaves the
  interpretation closed under the rules;
* braveness: the only unfounded set is the empty one.

Interpretations passing all three are partial stable; the well-founded
model is the precision-least partial stable model for a context, and
stable models are the exact partial stable ones.  The normative
well-founded computation enumerates 3^n candidates; `well_founded_model`
runs the equivalent (test-checked) alternating fixpoint on the rule set
ground once per context into a residual program over atom ids: constants
for what reads no defined symbol, Kleene-simplified connectives, expanded
first order quantifiers, and opaque leaves (second order quantifiers,
aggregates, nested definitions) valued at the current interpretation.
Its rounds and unfounded-set passes go through the interpretations of the
plain fixpoint, valuing only the heads that read an atom just changed.
Grounding is bounded, as in IDP's grounding with bounds (Wittocx, Mariën
and Denecker, 2010): a first order quantifier guarded by a parameter atom
(`?z: e(x, z) & r(z, y)`, or `!z: e(x, z) => r(z, y)`) is ground only at
the values where its guard is not f, so a reachability rule on an n-chain
reads n(n-1) instances of `r(x, z)` rather than n^3.

A rule is lifted (`_plan`, once per rule set) when its body reads its
second order head variables only in first order atoms under connectives
and first order quantifiers, and reads defined symbols only in atoms that
hand those variables on unchanged, as game's `lose(nxt, Move, IsWon)`
does: as the paper reads an instance of a template as its body at the
instance's arguments, the body is ground once per first order head
arguments (`_Lifted`, a formula-form `_Ground` over the variables, u
symbols over their full carriers), into a residual of their atoms,
constants and a placeholder per hand-on atom.  Each head writes its
relations into those atoms, resolves the placeholders to its own atoms
and simplifies the residual as a fresh grounding would build it, valuing
whole each part that reads no defined symbol.  So eq's one rule at
|D| = 3 is ground once, not 512 times, and game's two once per position.
A body of such atoms and connectives alone that reads no parameter is
ground alike in every context, so its grounding is kept on the rule set
(`_lifts`) and serves every well-founded model over that domain, until a
model over another domain replaces them.

The subset condition above stays the definition of prudence, but it is
checked with one least fixpoint (`_Ground.demotion`): the lower stable
operator of approximation fixpoint theory at the candidate's upper bound,
run as derivation rounds on the rule set ground with the t atoms demoted
to u.  The three conditions share one grounding per search, or per
`is_partial_stable` call, each test writing its values into it.

A rule set used as a formula is t where it is exactly its well-founded
model, and the glb of that over the exact completions of the unknown atoms
it reads.  The model is precision-monotone in its context, so the one at a
node holds below it and may decide the subtree (`_agreement`).  Caps are
read only as `ctx.limits`, ctx being `_ctx` or made of `limits`.

Searches ground their formulas once with `_Ground` in its formula form,
whose one leaf rule serves them all: a card aggregate is valued at every
node, any other opaque leaf waits, u, until the atoms it reads are all
assigned.  Supervaluation, let-blocks over u parameters and rule sets as
formulas share one search on a residual interned in a unique table
(`_glb`): equal sub-residuals are one node, and one with no opaque leaf
is searched once, as its values are the same anywhere.  Supervaluation
searches its formula's residual (`_residual_glb`); a let-block or a rule
set is one opaque leaf on the atoms to complete (`_leaf_glb`), the rule
set's valued at every node by its model there, until one decides.  `mx`
(`constrained_completions`), `stable_models` and `partial_stable_models`
(with u as a third value) branch on the value list (`_branch`): an
assignment re-values only the leaves and residuals on its atom's watch
list (MiniSat's watched literals, Eén and Sörensson 2003), and only a
candidate is built as an interpretation; the model searches start at the
well-founded model, the ≤p-least partial stable one, and the atom cap
counts the atoms it leaves u (`_models`).  The rule form serves the
fixpoints, the three conditions and the atoms a rule set as formula reads.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from .errors import DeflogError, EvaluationError
from .evaluator import EvalContext, _compiled, _read, _relation_cached
from .interpretation import PartialInterpretation
from .limits import DEFAULT_LIMITS, Limits
from .syntax import (
    And, Atom1, Atom2, Cmp, DefinitionExpr, ExistsFO, ExistsSO, ForallFO, ForallSO, Iff, Implies,
    Let, Not, Or, RuleSet, SymTerm, fold, free_symbols, term_symbols,
)
from .truthvalues import F, T, TV, U, PartialSet, canon_order
from .vocab import DomainAtom, Symbol, predicate_carrier


def _defined_atoms(d: RuleSet, i: PartialInterpretation) -> list[DomainAtom]:
    """All defined domain atoms, over the carriers i assigns."""
    return [DomainAtom(h, key) for h in sorted(d.defined_symbols, key=lambda s: s.name)
            for key in i.value(h).carrier]


def _head_env(r, args: tuple, domain: tuple) -> dict:
    """The rule's head variables bound to a defined atom's arguments."""
    return {var: _relation_cached(val, var.type.arity, domain)
            if isinstance(val, frozenset) else val for var, val in zip(r.head_vars, args)}


def expand_context(
    d: RuleSet,
    o: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    carriers: Optional[Mapping[Symbol, Iterable[tuple]]] = None,
) -> PartialInterpretation:
    """Expand a context with all-unknown values for the defined symbols.

    `carriers` optionally restricts a defined symbol's carrier to the
    listed argument tuples (useful when the full second order argument
    space is out of reach), sorted, or to a partial set's carrier; that
    and the full carrier over o's domain are in canonical order already;
    only a given one is checked.
    """
    i = o
    for h in sorted(d.defined_symbols, key=lambda s: s.name):
        if o.interprets(h):
            raise EvaluationError(f"context already interprets defined {h.name}")
        c = carriers.get(h) if carriers else None
        keys = (tuple(predicate_carrier(h.type, o.domain, limits)) if c is None
                else c.carrier if isinstance(c, PartialSet) else tuple(sorted(c, key=canon_order)))
        i = (i._expand if c is None else i.expand)(h, PartialSet(keys, (U,) * len(keys)))
    return i


# ---------------------------------------------------------------------------
# The three conditions


def greatest_unfounded_set(
    d: RuleSet,
    i: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    _ctx: EvalContext | None = None,
) -> frozenset:
    """Largest unfounded set, by downward passes from all u-atoms.

    Unfounded sets are closed under union (falsity is preserved under
    precision refinement), so the greatest one exists and braveness
    reduces to its emptiness.
    """
    ctx = _ctx or EvalContext(limits=limits)
    atoms = _defined_atoms(d, i)
    cands = [h for h, a in enumerate(atoms) if i.atom_value(a) is U]
    g = _Ground(d, i.revise([atoms[h] for h in cands], F), ctx.limits, cands)
    gus = frozenset(atoms[h] for h in g.unfounded(cands))
    ctx.record.update(g.consulted())
    return gus


@dataclass
class StableReport:
    """Outcome of the three-condition partial stable test, with witnesses."""

    interpretation: PartialInterpretation
    defined_symbols: tuple
    supported: bool
    prudent: bool
    brave: bool
    unsupported_atoms: tuple = ()
    # the maximal (t_set, u_set) defeating prudence: (t \ lfp, u ∩ lfp)
    demotion_witness: tuple | None = None
    unfounded_witness: frozenset | None = None

    @property
    def is_partial_stable(self) -> bool:
        return self.supported and self.prudent and self.brave


def is_partial_stable(
    d: RuleSet,
    i: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    _ctx: EvalContext | None = None,
) -> StableReport:
    """The supported, prudent and brave tests of i, on one grounding."""
    ctx = _ctx or EvalContext(limits=limits)
    atoms, g = _defined_atoms(d, i), _Ground(d, i, ctx.limits, heads=())
    unsupported, demotion, gus = g.conditions(i)
    ctx.record.update(g.consulted())
    return StableReport(
        i, tuple(g.index), supported=not unsupported, prudent=demotion is None, brave=not gus,
        unsupported_atoms=tuple(atoms[h] for h in unsupported),
        demotion_witness=demotion and tuple(frozenset(atoms[h] for h in hs) for hs in demotion),
        unfounded_witness=frozenset(atoms[h] for h in gus) or None)


# ---------------------------------------------------------------------------
# Model enumeration


def _models(d: RuleSet, o: PartialInterpretation, carriers, ctx: EvalContext, exact: bool):
    """The partial stable interpretations expanding o, exact ones if `exact`,
    in `_branch` order.  Each is ≥p the well-founded model: the search starts
    there, or at all u if it raises.  If `exact`, an assigned atom whose ground
    bodies give the opposite value stays unsupported below the node."""
    try:
        i0 = well_founded_model(d, o, ctx.limits, carriers, _ctx=ctx)
    except DeflogError:
        i0 = expand_context(d, o, ctx.limits, carriers)
    atoms = _defined_atoms(d, i0)
    hs = [_ATOMS + h for h, a in enumerate(atoms) if i0.atom_value(a) is U]
    ctx.limits.check("max_defined_atoms", len(hs), "{n} defined atoms exceed cap {cap}")
    g = _Ground(None, i0, ctx.limits, symbols=d.defined_symbols)  # the search
    c = _Ground(d, i0, ctx.limits, heads=())  # the three conditions
    residuals = ((g.rules(d, a.predicate, a.args), (_ATOMS + h,))
                 for h, a in enumerate(atoms)) if exact else ()
    out = [cand for cand in _branch(g, hs, residuals, lambda h, w: g.val[_ATOMS + h] == 2 - w != 1,
                                    (2, 0) if exact else (2, 1, 0))
           if (c.stable(cand) if exact else not any(c.conditions(cand)))]
    ctx.record.update(c.consulted())
    return out


def partial_stable_models(
    d: RuleSet,
    o: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    carriers: Optional[Mapping[Symbol, Iterable[tuple]]] = None,
    _ctx: EvalContext | None = None,
) -> list[PartialInterpretation]:
    """All partial stable interpretations expanding context o."""
    return _models(d, o, carriers, _ctx or EvalContext(limits=limits), exact=False)


def stable_models(
    d: RuleSet,
    o: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    carriers: Optional[Mapping[Symbol, Iterable[tuple]]] = None,
    _ctx: EvalContext | None = None,
) -> list[PartialInterpretation]:
    """Exact partial stable interpretations expanding context o."""
    return _models(d, o, carriers, _ctx or EvalContext(limits=limits), exact=True)


# ---------------------------------------------------------------------------
# Well-founded model.  Truth values are coded f = 0, u = 1, t = 2; a residual
# node is an index into the value list (the constants, then the defined atoms
# in _defined_atoms order, then the opaque leaves) or a pair (_AND, nodes),
# (_OR, nodes) or (_NOT, node).

_AND, _OR, _NOT = range(3)
_ATOMS = 3  # value index of the first defined atom


_TVS = (F, U, T)  # by code
_code = {F: 0, U: 1, T: 2}.__getitem__  # a truth value's code


def _value(n, val: list) -> int:
    op, x = n
    if op == _NOT:
        return 2 - (val[x] if type(x) is int else _value(x, val))
    out, stop = (2, 0) if op == _AND else (0, 2)
    for y in x:
        v = val[y] if type(y) is int else _value(y, val)
        if v == stop:
            return stop
        if v == 1:
            out = 1
    return out


def _negate(n):
    if type(n) is int and n < _ATOMS:
        return 2 - n
    return n[1] if type(n) is tuple and n[0] == _NOT else (_NOT, n)


def _connect(op: int, kids: list):
    """kids under & (_AND) or | (_OR), flattened: the zero absorbs, the unit drops."""
    zero, unit, out = (0, 2, []) if op == _AND else (2, 0, [])
    for k in kids:
        if type(k) is tuple and k[0] == op:
            out.extend(k[1])
        elif k == zero:
            return zero
        elif k != unit:
            out.append(k)
    return unit if not out else out[0] if len(out) == 1 else (op, out)


def _waits(e) -> bool:
    """Whether opaque leaf e waits for its atoms: valued at a partial
    interpretation, all but a card aggregate over atoms, connectives, FO
    quantifiers and card aggregates enumerate completions or value spaces."""
    return fold(e, lambda n, kids: any(kids) or type(n) in (
        Atom2, ForallSO, ExistsSO, DefinitionExpr, Let) or getattr(n, "agg", "card") != "card",
        "_waits")


_JOINS = (Not, And, Or, Implies, Iff, ForallFO, ExistsFO)  # the connectives and FO quantifiers
_INERT = (Atom1, Cmp, *_JOINS)


def _inert(e) -> bool:
    """Whether e is built of first order atoms, comparisons, connectives
    and FO quantifiers only: ground over bound variables and `whole`
    symbols, it folds to atoms and constants, records nothing and cannot raise."""
    return fold(e, lambda n, kids: all(kids) and type(n) in _INERT, "_inert")


_VAL = 3  # (_VAL, node): a lifted residual's part that a fresh grounding values whole


def _hands_on(n, so: frozenset, defined: frozenset) -> bool:
    """Whether n is an atom of a `defined` symbol whose second order
    arguments are all head variables in `so` and whose first order ones
    read neither: an atom a lifted rule hands its relations on to."""
    if type(n) is not Atom2 or n.predicate not in defined:
        return False
    kinds = [t.kind for t in n.predicate.type.args]
    return all(type(a) is SymTerm and a.symbol in so for a, k in zip(n.args, kinds)
               if k != "domain") and not any(term_symbols(a) & (so | defined)
                                             for a, k in zip(n.args, kinds) if k == "domain")


def _lifted(r, defined: frozenset) -> tuple | None:
    """Rule r's lifting, (its second order head variables, whether its
    grounding may be shared), or None: its body reads the `defined` symbols
    only in `_hands_on` atoms, and every other subformula reading a head
    variable is of a kind `_inert` admits.  A body built of those kinds and
    hand-on atoms alone that reads no parameter is ground alike in every
    context over a domain: it records nothing and raises nothing."""
    so = frozenset(v for v in r.head_vars if v.type.kind == "pred")
    if not so:
        return None

    def kind(n, kids) -> int:  # 0 inert or hand-on, 1 an opaque constant, 2 off the path
        if _hands_on(n, so, defined):
            return 0
        reads, t = free_symbols(n), type(n)
        if t not in _JOINS and reads & defined or t not in _INERT and reads & so:
            return 2
        return max([*kids, int(t not in _INERT)])

    k = fold(r.body, kind)
    if k == 2:
        return None
    return so, not k and not free_symbols(r.body) - set(r.head_vars) - defined


def _plan(d: RuleSet) -> dict:
    """Per defined symbol its rules, each with `_lifted`'s answer, kept on d
    as `_plan`, as its cached properties are, beside `_lifts`, (a domain,
    the shared lifted groundings over it): readers look them up there."""
    plan = {sym: [(r, _lifted(r, d.defined_symbols)) for r in rs] for sym, rs in d.by_head.items()}
    object.__setattr__(d, "_lifts", ((), {}))
    object.__setattr__(d, "_plan", plan)
    return plan


class _Ground:
    """Rule set d ground at `at` for the defined atoms `heads` (indices
    into _defined_atoms, all by default): per head a residual node and the
    opaque leaves it values first, per atom the heads reading it.  An atom
    over a defined symbol, second order ones at exact arguments, is its
    index.  With d None, the atoms are those of `symbols`, `ground` folds
    the exact ones and collects opaque leaves in `leaf`, and a leaf that
    `_waits` is u until every u atom of the symbols it reads is assigned.
    Grounding values, in closure order, all that one round of body
    evaluations at `at` would, leaves that wait aside, so it raises the same.
    A guarded FO quantifier expands only where its guard is not f (`span`)."""

    def __init__(self, d: RuleSet | None, at: PartialInterpretation, limits: Limits,
                 heads=None, symbols=()):
        self.at, self.fold, self.ctx = at, d is None, EvalContext(limits=limits)
        self.defined = symbols if d is None else d.defined_symbols
        self.index, self.keys, self.val, self.live = {}, [], [0, 1, 2], {}
        for h in sorted(self.defined, key=lambda s: s.name):
            ps = at.value(h)
            self.index[h] = (len(self.val), ps._index)
            self.keys += [(h, key) for key in ps.carrier] if d is not None else ()
            self.val += map(_code, ps.values)
        n = len(self.keys)  # per head its node and leaves, per atom its readers: rule form only
        self.node, self.leaves, self.deps = [0] * n, [()] * n, [[] for _ in range(n)]
        self.opaque, self.reads, self.leaf = [], set(), []  # opaque: the heads with leaves
        self.last = {}  # per formula-form leaf slot, its atoms' values and its code there
        self.guards, self.full = {}, {}  # per FO quantifier its guard, per symbol if full
        self.lifts = {}  # per lifted rule and first order head arguments, its residual
        self.d, self.done = d, 0  # done: how many heads are ground
        if d is not None:
            self.grow(range(n) if heads is None else heads)

    def grow(self, hs) -> None:
        """Ground the rules for the heads hs at `at`, in order."""
        for h in hs:
            self.reads, self.leaf = set(), []
            self.node[h] = self.rules(self.d, *self.keys[h])
            for x in self.reads:
                self.deps[x - _ATOMS].append(h)
            if self.leaf:
                self.leaves[h] = self.leaf
                self.opaque.append(h)
            self.done += 1

    def rules(self, d: RuleSet, sym: Symbol, args: tuple):  # atom sym(args)'s bodies, or'd
        return _connect(_OR, [self.lift(d, r, lift, args) if lift else self.ground(
            r.body, _head_env(r, args, self.at.domain), _compiled(r.body))
            for r, lift in (d.__dict__.get("_plan") or _plan(d))[sym]])

    def lift(self, d: RuleSet, r, lift: tuple, args: tuple):
        """Lifted rule r's body at args.  `_Lifted` grounds it once per first
        order head arguments, recording in this one's context, or, where
        `lift` says it may be shared, once per those for d, kept in d's
        `_lifts` for the last domain ground over only: so it holds at most
        what one grounding of every head over that domain holds, one per
        (lifted rule, first order head arguments).  Each head writes its
        relations' codes into the slots the grounding reads, in a value
        list of this one's own, resolves its placeholders in closure order
        and simplifies it as a fresh grounding builds it: each part that
        reads no defined symbol, such as eq's whole body, to a code."""
        so, shared = lift
        env = dict(zip(r.head_vars, args))
        key = (id(r), *[x for v, x in env.items() if v not in so])
        hit = self.lifts.get(key)
        if hit is None:
            domain, store = d.__dict__["_lifts"]
            if shared and domain != self.at.domain:
                store = {}
                object.__setattr__(d, "_lifts", (self.at.domain, store))
            hit = store.get(key) if shared else None
            if hit is None:
                hit = _Lifted.of(self, d, r, so, _head_env(r, args, self.at.domain))
                if shared:
                    store[key] = hit
            root, val, slots, holes = hit  # the store's value list is only read
            self.lifts[key] = hit = root, list(val), slots, holes
        root, val, slots, holes = hit
        for x, v, k in slots:
            val[x] = 2 if k in env[v] else 0
        rels = {v: _true_keys(env[v], v.type.arity, self.at.domain) for v in so} if holes else {}
        sub = {x: self.atom(p, tuple([rels.get(a, a) for a in parts])) for x, p, parts in holes}
        return _resolved(root, val, sub)

    def atom(self, sym: Symbol, key: tuple):
        """The node of defined atom sym(key): its index, or in formula form
        its code if exact; one outside the carrier raises, as `_read` does."""
        base, index = self.index[sym]
        k = index.get(key)
        if k is None:
            _read(sym, self.at.value(sym), key, self.ctx)
        if self.fold and self.val[base + k] != 1:
            return self.val[base + k]
        self.reads.add(base + k)
        return base + k

    def ground(self, e, env: dict, fn):
        live = self.live.get(id(e))  # the defined symbols free in e
        if live is None:
            live = self.live[id(e)] = free_symbols(e) & self.defined
        t = type(e)
        if not live or live <= env.keys():
            return _code(fn(self.at, env, self.ctx))
        if t is Not:  # a ~ run in one frame: ~~φ grounds as φ
            odd = False
            while type(e) is Not:
                e, odd = e.body, not odd
            n = self.ground(e, env, e._fn)
            return _negate(n) if odd else n
        if t is And or t is Or:
            return _connect(_AND if t is And else _OR, [self.ground(a, env, a._fn) for a in e.args])
        if t is Implies or t is Iff:
            a, b = self.ground(e.left, env, e.left._fn), self.ground(e.right, env, e.right._fn)
            if t is Iff:  # (a & b) | (~a & ~b) under Kleene
                return _connect(_OR, [_connect(_AND, [a, b]),
                                      _connect(_AND, [_negate(a), _negate(b)])])
            return _connect(_OR, [_negate(a), b])
        if t is ForallFO or t is ExistsFO:
            inner, kids = dict(env), []
            for v in self.span(e, env):
                inner[e.var] = v
                kids.append(self.ground(e.body, inner, e.body._fn))
            return _connect(_AND if t is ForallFO else _OR, kids)
        keys = fn.keys(self.at, env, self.ctx) if t is Atom1 or (
            t is Atom2 and live == {e.predicate}) else ()
        if keys is None:
            return 0
        if len(keys) == 1:
            return self.atom(e.predicate, keys[0])
        atoms = () if not self.fold else tuple(  # the u atoms it may read
            x for sym in live for x in range(self.index[sym][0], self.index[sym][0] +
                                             len(self.index[sym][1])) if self.val[x] == 1)
        wait = bool(atoms) and _waits(e)
        self.val.append(1 if wait else _code(fn(self.at, env, self.ctx)))
        self.leaf.append((len(self.val) - 1, fn, dict(env), wait, atoms))
        return len(self.val) - 1

    def span(self, e, env: dict):
        """The values, in domain order, at which to ground FO quantifier e's
        body: where its guard is not f.  A guard is a conjunct G(ū) of ?v's
        body, or the premise of !v's implication, over a parameter `at`
        interprets, ū being v and variables bound in env, whose other
        conjuncts are `_inert` over bound variables and `whole` symbols.
        Where G is f the body grounds to the unit e drops, reading f from G
        and atoms or exact values from the rest: nothing recorded, nothing
        raised.  A tuple G lacks is kept, so that its read raises as before."""
        guard = self.guards.get(id(e), False)
        if guard is False:
            guard = self.guards[id(e)] = self.guard(e)
        if guard is None or guard[0] in env or not env.keys() >= guard[1]:
            return self.at.domain
        p, _, bound, slots, spans = guard
        key = tuple([env[s] for s in bound])
        out = spans.get(key)
        if out is None:  # G's values at key, once per _Ground
            ps = self.at.value(p)
            out = spans[key] = [v for v in self.at.domain if (k := ps._index.get(tuple(
                [v if s is None else env[s] for s in slots]))) is None or ps.values[k] is not F]
        return out

    def guard(self, e):
        """e's guard as (its predicate, the symbols env must bind, its other
        arguments, its arguments with None for e's variable, the spans by
        the other arguments' values), or None."""
        body, var = e.body, e.var
        if type(e) is ExistsFO and type(body) is And:
            parts, firsts = body.args, body.args
        elif type(e) is ForallFO and type(body) is Implies:
            parts, firsts = (body.left, body.right), (body.left,)
        else:
            return None
        if not all(map(_inert, parts)):
            return None
        for g in firsts:
            p = g.predicate if type(g) is Atom1 else None
            if p is None or p in self.defined or not self.at.interprets(p) or not all(
                    type(a) is SymTerm for a in g.args):
                continue
            slots = [None if a.symbol == var else a.symbol for a in g.args]
            if None not in slots:
                continue
            rest = frozenset().union(*[free_symbols(c) for c in parts if c is not g]) - {var}
            bound = tuple(s for s in slots if s is not None)
            return p, frozenset(s for s in rest if not self.whole(s)).union(bound), bound, slots, {}
        return None

    def whole(self, sym: Symbol) -> bool:
        """Whether reading first order predicate sym at any tuple of domain
        elements reads an atom, or a value that records nothing: sym is
        interpreted over every such tuple, and defined or exact."""
        out = self.full.get(sym)
        if out is None:
            ps = self.at.value(sym) if sym.type.kind == "pred" and self.at.interprets(sym) else None
            out = self.full[sym] = ps is not None and (sym in self.defined or ps.is_exact) and all(
                key in ps._index for key in itertools.product(self.at.domain, repeat=sym.type.arity))
        return out

    def value(self, leaves, j=None):
        """Code each opaque leaf (slot, fn, env, wait, atoms) at j, by default
        val's interpretation, built once; one waiting on a u atom is u.  A
        formula-form leaf's value is a function of its atoms' values, so it
        is kept while they are those it was last valued at.  Returns j."""
        val, last = self.val, self.last
        for slot, fn, env, wait, atoms in leaves:
            key = [val[x] for x in atoms]
            if wait and 1 in key:
                val[slot] = 1
            elif not self.fold or last.get(slot, (None,))[0] != key:
                j = j or self.interpretation()
                val[slot] = _code(fn(j, env, self.ctx))
                last[slot] = key, val[slot]
            else:
                val[slot] = last[slot][1]
        return j

    def values(self, hs, refresh: bool = True) -> list:
        """The value of each head in hs, its opaque leaves valued first."""
        val, i, out = self.val, None, []
        for h in hs:
            if refresh and self.leaves[h]:
                i = self.value(self.leaves[h], i)
            n = self.node[h]
            out.append(val[n] if type(n) is int else _value(n, val))
        return out

    def touched(self, changed) -> list:
        """The heads reading an atom in `changed` or an opaque leaf."""
        return sorted(set(self.opaque).union(*[self.deps[h] for h in changed]))

    def derive(self, hs: list, refresh: bool = True) -> None:
        """Set t, a round at a time, the heads in hs valued t, then those
        among the u atoms reading one set, until a round sets none."""
        val = self.val
        while hs:
            hs = [h for h, v in zip(hs, self.values(hs, refresh)) if v == 2]
            for h in hs:
                val[_ATOMS + h] = 2
            hs = [h for h in self.touched(hs) if val[_ATOMS + h] == 1] if hs else []
            refresh = True

    def unfounded(self, cands: list) -> list:
        """The greatest unfounded set within the u-atoms `cands`, left f:
        set all f, release to u each atom with a body not f, re-check the
        atoms reading a released one, until none is released."""
        val, kept, hs = self.val, set(cands), cands
        for h in cands:
            val[_ATOMS + h] = 0
        while hs:
            drop = [h for h, v in zip(hs, self.values(hs)) if v]
            kept.difference_update(drop)
            for h in drop:
                val[_ATOMS + h] = 1
            hs = [h for h in self.touched(drop) if h in kept] if drop else []
        return sorted(kept)

    # The three conditions on refinements of `at`, ground with heads=(): only
    # leaves read defined atoms, so a test writes its codes in and values the
    # leaves it reads there, in slot order, raising as grounding afresh would.

    def codes(self, i: PartialInterpretation) -> list:
        return [c for sym in self.index for c in map(_code, i.value(sym).values)]

    def bodies(self, codes: list, j: PartialInterpretation | None = None) -> Iterator[int]:
        """Write codes into val, then yield in order each head's value at j
        (codes' interpretation by default), ground there if not yet: so a test
        that stops early raises as valuing the bodies it reached there does."""
        self.val[_ATOMS:_ATOMS + len(codes)] = codes
        for h in range(len(codes)):
            if h == self.done:
                self.at = j = j or self.interpretation()
                self.grow((h,))
            elif self.leaves[h]:
                j = self.value(self.leaves[h], j)
            yield self.values((h,), refresh=False)[0]

    def demotion(self, codes: list) -> tuple | None:
        """The maximal demotion witness (t \\ lfp, u ∩ lfp) defeating the
        prudence of codes, as heads, or None: lfp is the least fixpoint of
        derivation rounds with the t atoms demoted to u.  Bodies are
        ≤p-monotone, so every closed demotion keeps lfp t: none exists if
        lfp holds every t atom or an f atom's body is t at lfp."""
        ts = [h for h, c in enumerate(codes) if c == 2]
        if not ts:
            return None
        for _ in self.bodies([min(c, 1) for c in codes]):
            pass
        self.derive([h for h, c in enumerate(codes) if c], refresh=False)
        lfp = {h for h in range(len(codes)) if self.val[_ATOMS + h] == 2}
        if lfp.issuperset(ts) or 2 in self.values([h for h, c in enumerate(codes) if c == 0]):
            return None
        return [h for h in ts if h not in lfp], sorted(lfp.difference(ts))

    def conditions(self, i: PartialInterpretation) -> tuple:
        """i's unsupported heads, demotion witness and greatest unfounded set,
        each test run in turn, so that each raises what it would."""
        codes = self.codes(i)
        unsupported = [h for h, v in enumerate(self.bodies(codes, i)) if v != codes[h]]
        demotion = self.demotion(codes)
        self.val[_ATOMS:_ATOMS + len(codes)] = codes
        return unsupported, demotion, self.unfounded([h for h, c in enumerate(codes) if c == 1])

    def stable(self, i: PartialInterpretation) -> bool:
        """Whether exact i is supported, tested up to the first atom that is
        not, and prudent: for exact i braveness is vacuous."""
        codes = self.codes(i)
        return all(map(operator.eq, self.bodies(codes, i), codes)) and self.demotion(codes) is None

    def consulted(self) -> tuple:
        """The u-valued parameter atoms read, as a tuple: memo entries share ()."""
        return tuple(a for a in self.ctx.record if a.predicate not in self.defined)

    def interpretation(self) -> PartialInterpretation:
        """`at` with val's values: a symbol they leave as it was keeps its set."""
        i = self.at
        for sym, (k, index) in self.index.items():
            ps, values = i.value(sym), tuple(map(_TVS.__getitem__, self.val[k:k + len(index)]))
            if values != ps.values:
                i = i._expand(sym, PartialSet(ps.carrier, values))
        return i


@functools.lru_cache(maxsize=64)
def _unknown(arity: int, domain: tuple) -> PartialSet:
    """Every tuple of `arity` elements of domain, u: a lifted head variable."""
    keys = tuple(itertools.product(domain, repeat=arity))
    return PartialSet(keys, (U,) * len(keys))


def _true_keys(rel: frozenset, arity: int, domain: tuple) -> frozenset:
    """rel's tuples over domain, as `_relation_cached(rel, ...).true_keys()`
    gives them to a fresh grounding, without building that set."""
    index = _unknown(arity, domain)._index
    return rel if all(map(index.__contains__, rel)) else frozenset(k for k in index if k in rel)


class _Lifted(_Ground):
    """A lifted rule body ground in formula form over its second order head
    variables, u symbols over their full carriers whose atoms are slots:
    each hand-on atom is a placeholder slot, `holes`, and each part that
    reads no defined symbol, valued whole by a fresh grounding, is kept
    apart as (_VAL, node).  The first head's placeholders are resolved by
    `owner` as they are made, so a raise comes where a fresh grounding's does."""

    def __init__(self, owner: _Ground, d: RuleSet, so: frozenset, heads: dict):
        at = owner.at
        for v in sorted(so, key=lambda s: s.name):
            at = at._expand(v, _unknown(v.type.arity, at.domain))
        _Ground.__init__(self, None, at, owner.ctx.limits, symbols=so)
        self.ctx, self.owner, self.defined = owner.ctx, owner, so | d.defined_symbols
        self.heads, self.hands, self.holes, self.part = heads, d.defined_symbols, [], False

    @staticmethod
    def of(owner: _Ground, d: RuleSet, r, so: frozenset, heads: dict) -> tuple:
        """r's body lifted over `so` at the first order arguments in the
        head env `heads`: (root, [(slot, variable, key) read], [(slot,
        symbol, key with the variables in place of their relations)])."""
        g = _Lifted(owner, d, so, heads)
        root = g.ground(r.body, {v: x for v, x in heads.items() if v not in so}, _compiled(r.body))
        slots = [(x, v, g.at.value(v).carrier[x - base]) for x in sorted(g.reads)
                 for v, (base, index) in g.index.items() if 0 <= x - base < len(index)]
        return root, g.val, slots, g.holes

    def ground(self, e, env: dict, fn):
        if self.part:
            return super().ground(e, env, fn)
        live = self.live.get(id(e))
        if live is None:
            live = self.live[id(e)] = free_symbols(e) & self.defined
        if live.isdisjoint(self.hands):  # a fresh grounding values it whole
            self.part = True
            n = super().ground(e, env, fn)
            self.part = False
            return (_VAL, n) if type(n) is tuple else n
        if type(e) is not Atom2 or e.predicate not in self.hands:
            return super().ground(e, env, fn)
        keys = fn.keys(self.at, {**self.heads, **env}, self.ctx)  # hand-on: the first head's key
        if keys is None:
            return 0
        self.owner.atom(e.predicate, keys[0])
        self.holes.append((len(self.val), e.predicate, tuple(
            a.symbol if t.kind != "domain" else k
            for a, t, k in zip(e.args, e.predicate.type.args, keys[0]))))
        self.val.append(1)
        return len(self.val) - 1


def _resolved(n, val: list, sub: dict):
    """Lifted residual n with its slots at their codes in val and its
    placeholders at their nodes in `sub`, simplified as a fresh grounding
    builds it: a part (_VAL, m) is m's code."""
    if type(n) is int:
        return sub[n] if n in sub else val[n]
    op, x = n
    if op == _VAL:
        return _value(x, val)
    if op == _NOT:
        return _negate(_resolved(x, val, sub))
    return _connect(op, [(sub[k] if k in sub else val[k]) if type(k) is int
                         else _resolved(k, val, sub) for k in x])


# ---------------------------------------------------------------------------
# A formula ground at i with `fold` reads only the u atoms to complete; a
# residual of u atoms and u leaves is u under Kleene, so it is a constant
# exactly where the formula's Kleene value is exact.


class _Node:  # op, kids (value indices or nodes) and the mask of the indices read
    __slots__ = ("op", "kids", "reads", "__weakref__")


class _Residual:
    """The tables of one search on the residual of a formula ground by g:
    `unique` maps (op, kids) to its one node (Bryant's unique table), `subs`
    holds x := c per node and `done` the value of a leaf-free node whose
    search ran to the end.  Read bits follow value index order, the opaque
    leaves last, so a mask at or above `leafy` reads a leaf."""

    def __init__(self, g: _Ground):
        self.g, self.order = g, sorted(g.reads) + [leaf[0] for leaf in g.leaf]
        self.bit = {x: 1 << b for b, x in enumerate(self.order)}
        self.leafy, self.unique, self.subs, self.done = 1 << len(g.reads), {}, {}, {}

    def reads(self, n) -> int:
        return n.reads if type(n) is _Node else self.bit.get(n, 0)

    def node(self, op: int, kids: tuple) -> _Node:
        n = self.unique.get((op, kids))
        if n is None:
            n = self.unique[op, kids] = _Node()
            n.op, n.kids, n.reads = op, kids, functools.reduce(operator.or_, map(self.reads, kids))
        return n

    def connect(self, op: int, kids: list):
        n = _connect(op, [y for k in kids  # _connect splices tuples, not nodes
                          for y in (k.kids if type(k) is _Node and k.op == op else (k,))])
        return self.node(op, tuple(n[1])) if type(n) is tuple else n

    def negate(self, n):
        m = n.kids[0] if type(n) is _Node and n.op == _NOT else _negate(n)
        return self.node(_NOT, (n,)) if type(m) is tuple else m

    def intern(self, n, memo: dict):
        """Ground residual n as nodes, once per tuple: a ground iff shares its sides."""
        if type(n) is not int and id(n) not in memo:
            kids = (n[1],) if n[0] == _NOT else n[1]
            memo[id(n)] = self.node(n[0], tuple([self.intern(k, memo) for k in kids]))
        return n if type(n) is int else memo[id(n)]

    def sub(self, n, x: int, c: int):
        """n with value index x set to the code c, re-simplified: n itself
        if it does not read x, else once per (n, x, c)."""
        if type(n) is int:
            return c if n == x else n
        b = self.bit.get(x, 0)  # a held node may branch on an atom it does not read
        if not n.reads & b:
            return n
        out = self.subs.get((n, x, c))
        if out is None:
            kids = [(c if k == x else k) if type(k) is int else self.sub(k, x, c)
                    if k.reads & b else k for k in n.kids]
            out = self.subs[n, x, c] = (
                self.negate(kids[0]) if n.op == _NOT else self.connect(n.op, kids))
        return out


def _search(r: _Residual, n, seen: set) -> None:
    """Add to `seen` residual n's values over the refinements of its u atoms
    to t then f, depth first, until it holds both.  n's opaque leaves are
    valued at the node, an exact one for good.  A constant n is decided and
    a leaf-free n searched before adds its value; else n branches on the
    first atom it or a leaf it holds reads: one none reads has two equal
    subtrees."""
    if len(seen) > 1:
        return
    g, reads = r.g, r.reads(n)
    if reads >= r.leafy:
        due = [leaf for leaf in g.leaf if reads & r.bit[leaf[0]]]
        g.value(due)
        for slot, *_ in due:
            n = n if g.val[slot] == 1 else r.sub(n, slot, g.val[slot])
        reads = r.reads(n)
    if type(n) is int and n < _ATOMS:
        return seen.add(n)
    held = reads >= r.leafy
    if held:  # the first unassigned atom n or a leaf it holds reads
        xs = [a for slot, *_, atoms in g.leaf if reads & r.bit[slot]
              for a in atoms if g.val[a] == 1]
        low = reads & (r.leafy - 1)
        if not xs and not low:  # n reads only leaves u with their atoms all assigned
            return seen.add(1)
        x = min(xs + [r.order[(low & -low).bit_length() - 1]]) if low else min(xs)
    elif n in r.done:
        return seen.add(r.done[n])
    else:
        x = r.order[(reads & -reads).bit_length() - 1]
    for c in (2, 0):
        g.val[x] = c
        _search(r, r.sub(n, x, c), seen)
    g.val[x] = 1
    if len(seen) == 1 and not held:  # no early stop below n: seen is its value
        r.done[n] = next(iter(seen))


def _glb(g: _Ground, root) -> TV:
    """The glb of residual `root` of g's formula form over the refinements it searches."""
    r, seen = _Residual(g), set()
    _search(r, r.intern(root, {}), seen)
    return U if len(seen) > 1 else _TVS[seen.pop()]


def _residual_glb(e, i: PartialInterpretation, atoms: list, limits: Limits) -> TV:
    """The glb of e over the refinements of its u atoms `atoms`."""
    limits.check("max_unknowns", len(atoms), "{n} unknown atoms exceed cap {cap}")
    g = _Ground(None, i, limits, symbols={a.predicate for a in atoms})
    return _glb(g, g.ground(e, {}, _compiled(e)))


def _leaf_glb(i: PartialInterpretation, atoms: list, limits: Limits, exact, probe=None) -> TV:
    """The glb of exact(j) over the refinements j of `atoms` to t then f,
    in value list order, searched as one opaque leaf on them: at a node
    where one is unassigned the leaf is probe(j), an exact value holding
    below it, or, with no probe, it waits."""
    limits.check("max_unknowns", len(atoms), "{n} unknown atoms exceed cap {cap}")
    g = _Ground(None, i, limits, symbols={a.predicate for a in atoms})
    xs, val = [g.index[a.predicate][0] + g.index[a.predicate][1][a.args] for a in atoms], g.val
    g.leaf.append((len(val), lambda j, env, ctx: probe(j) if 1 in map(val.__getitem__, xs)
                   else exact(j), {}, probe is None, xs))
    val.append(1)
    return _glb(g, len(val) - 1)


def _branch(g: _Ground, xs: list, residuals: Iterable, dead,
            codes: tuple = (2, 0)) -> Iterator[PartialInterpretation]:
    """The refinements of g.at setting each value index in xs to each of
    `codes` (t then f by default), depth first, first outermost, less those
    below a node (the root too) where no leaf of g raises and dead(k, value)
    holds for a residual k ((node, atoms it reads besides its own and its
    leaves'), up to the first that raises).  An assignment re-values the
    leaves, then the residuals, on its atom's watch list, and again when it
    is undone."""
    val, nodes = g.val, []
    try:
        for n, extra in residuals:
            nodes.append((n, extra))
    except DeflogError:  # a residual not ground cuts nothing; the leaves report it
        pass
    leaves, atoms = g.leaf if nodes else [], {leaf[0]: leaf[4] for leaf in g.leaf}

    def reads(n) -> set:
        return (set(atoms.get(n, (n,) if n >= _ATOMS else ())) if type(n) is int
                else reads(n[1]) if n[0] == _NOT else set().union(*map(reads, n[1])))
    sees = [reads(n).union(extra) for n, extra in nodes]
    watch = {x: ([leaf for leaf in leaves if x in leaf[4]],
                 [k for k, seen in enumerate(sees) if x in seen]) for x in xs}
    bad, dying = set(), set()  # the slots of the leaves that raise, the residuals that cut

    def revalue(ls, ks) -> bool:  # whether the node is cut
        j = None
        for leaf in ls:
            try:
                j = g.value((leaf,), j)
                bad.discard(leaf[0])
            except DeflogError:
                bad.add(leaf[0])
        for k in ks:
            n = nodes[k][0]
            cut = dead(k, val[n] if type(n) is int else _value(n, val))
            (dying.add if cut else dying.discard)(k)
        return bool(dying) and not bad

    def search(depth: int):
        if depth == len(xs):
            yield g.interpretation()
            return
        x = xs[depth]
        for k, val[x] in enumerate((*codes, 1)):  # back at u, the watchers take their values above
            if not revalue(*watch[x]) and k < len(codes):
                yield from search(depth + 1)

    if not revalue(leaves, range(len(nodes))):
        yield from search(0)


def constrained_completions(constraints: list, i: PartialInterpretation, limits: Limits, consts=()):
    """i's completions in itertools.product order, each with every value of
    `consts`, the first outermost, less those below a node where a constraint's
    residual is f; none is ground while a constant is unset, and the cap is
    checked before any grounding."""
    atoms = i.u_atoms(i.predicate_symbols())
    limits.check("max_unknowns", len(atoms), "{n} unknown atoms exceed cap {cap}")
    g = _Ground(None, i, limits, symbols={a.predicate for a in atoms})

    def conjuncts():  # a conjunction is f where a conjunct is: each is watched alone
        for phi in constraints:
            n = g.ground(phi, {}, _compiled(phi))
            yield from ((k, ()) for k in (n[1] if type(n) is tuple and n[0] == _AND else (n,)))
    xs = [g.index[a.predicate][0] + g.index[a.predicate][1][a.args] for a in atoms]
    return (functools.reduce(lambda k, cd: k.expand(*cd), zip(consts, values), j)
            for j in _branch(g, xs, () if consts else conjuncts(), lambda k, w: w == 0)
            for values in itertools.product(i.domain, repeat=len(consts)))


def _residual_wfm(d: RuleSet, i0: PartialInterpretation, limits: Limits) -> tuple:
    """The well-founded model expanding i0 (defined atoms all u) and the
    u-valued parameter atoms read: set every atom a round derives true at
    once, else the greatest unfounded set false, until neither moves."""
    g = _Ground(d, i0, limits)
    val, n = g.val, len(g.keys)
    g.derive(list(range(n)), refresh=False)  # the leaves hold round one
    while changed := g.unfounded([h for h in range(n) if val[_ATOMS + h] == 1]):
        g.derive([h for h in g.touched(changed) if val[_ATOMS + h] == 1])
    return g.interpretation(), g.consulted()


# memo for the (pure, deterministic) fixpoint path, keyed by the rule set, the
# context's domain and assignments (callers pass `parameter_context`), the carrier
# restriction and the limits; at most _WFM_CACHE_MAX entries, oldest evicted first
_WFM_CACHE: dict = {}
_WFM_CACHE_MAX = 10_000


def parameter_context(d: RuleSet, i: PartialInterpretation) -> PartialInterpretation:
    """i restricted to the parameters of d it interprets: by locality all
    that d's well-founded model depends on, so all that its memo key holds."""
    return i.restrict([p for p in d.parameters if i.interprets(p)])


def well_founded_model(
    d: RuleSet,
    o: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    carriers: Optional[Mapping[Symbol, Iterable[tuple]]] = None,
    _ctx: EvalContext | None = None,
) -> PartialInterpretation:
    """The precision-least partial stable model expanding context o,
    by the alternating fixpoint.  The tests check it against the least
    of the enumerated partial stable models."""
    ctx = _ctx or EvalContext(limits=limits)
    carrier_key = None if carriers is None else tuple(
        sorted(((s, tuple(getattr(c, "carrier", c))) for s, c in carriers.items()),
               key=lambda kv: kv[0].name))
    key = (d, o.domain, o.assignments, carrier_key, ctx.limits)
    hit = _WFM_CACHE.get(key)
    if hit is None:
        hit = _residual_wfm(d, expand_context(d, o, ctx.limits, carriers), ctx.limits)
        if len(_WFM_CACHE) >= _WFM_CACHE_MAX:
            del _WFM_CACHE[next(iter(_WFM_CACHE))]
        _WFM_CACHE[key] = hit
    ctx.record.update(hit[1])  # a hit records what the miss did
    return hit[0]


def is_total(
    d: RuleSet,
    o: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    carriers: Optional[Mapping[Symbol, Iterable[tuple]]] = None,
) -> bool:
    """Paradox-freeness: the well-founded model is exact."""
    wfm = well_founded_model(d, o, limits, carriers)
    return all(wfm.value(h).is_exact for h in d.defined_symbols)


# ---------------------------------------------------------------------------
# Rule sets as formulas


def _agreement(d: RuleSet, j: PartialInterpretation, ctx: EvalContext) -> TV:
    """t if j's defined atoms are all exact and the same in d's well-founded
    model at j's context and carriers, f if one exact in both differs, else u."""
    carriers = {h: j.value(h) for h in d.defined_symbols}
    wfm = well_founded_model(d, parameter_context(d, j), ctx.limits, carriers, _ctx=ctx)
    pairs = {p for h, ps in carriers.items() for p in zip(wfm.value(h).values, ps.values)}
    return F if pairs & {(T, F), (F, T)} else T if pairs <= {(T, T), (F, F)} else U


def eval_definition(
    d: RuleSet,
    i: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    _ctx: EvalContext | None = None,
) -> TV:
    """Truth value of a rule set used as a formula.

    On interpretations exact over the rule set's free predicate
    symbols: t iff i is the exact well-founded model of d in its context.
    Otherwise the ultimate approximation: glb over the exact completions
    of i's unknown defined atoms and the u-valued parameter atoms d's
    well-founded model at i reads, cut wherever the model decides a subtree.
    """
    ctx = _ctx or EvalContext(limits=limits)

    def exact(j: PartialInterpretation) -> TV:  # j exact over d's free predicates
        return TV.of(_agreement(d, j, ctx) is T)

    if not i.u_atoms(s for s in d.free if s.type.is_predicate):
        return exact(i)
    atoms, root = _defined_atoms(d, i), EvalContext(limits=ctx.limits)
    try:
        _agreement(d, i, root)  # records the parameter atoms read
    except DeflogError:  # from a later round: grounding alone reads as much
        root.record.update(_Ground(d, i.revise(atoms, U), ctx.limits).consulted())
    unknown = [*root.record, *(a for a in atoms if i.atom_value(a) is U)]
    if not unknown:
        return exact(i)
    ctx.record.update(unknown)

    def probe(j: PartialInterpretation) -> TV:  # a model that raises decides nothing
        try:
            return _agreement(d, j, EvalContext(limits=ctx.limits))
        except DeflogError:
            return U

    return _leaf_glb(i, unknown, ctx.limits, exact, probe)
