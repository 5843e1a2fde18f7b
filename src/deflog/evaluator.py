"""The compositional three-valued truth assignment.

Each expression node is compiled once, on first use, into a closure
fn(i, env, ctx) -> TV kept on the node: the node's semantical rule over
the closures of its sub-formulas.  `env` maps the bound variables in
scope to their values in binding order; a quantifier or aggregate binds
its variables in a copy of it, and a rule body starts from its head
arguments.  Only definitions and let-blocks read an interpretation with
the bound variables in it, built by binding env's entries in order.

Two modes:

* kleene: truth-functional structural recursion using the Kleene
  connective tables, Min/Max quantifiers, three-valued aggregate tests,
  and the three-valued well-founded assignment for definition nodes;
* supervaluation: the ultimate approximation of the induced two-valued
  assignment, a glb over all exact completions of the free predicate
  symbols.  Every formula is ground once into a residual over its u
  atoms and searched depth first on that residual, which decides a
  subtree once it is constant and never branches on an atom it no
  longer reads, and searches once a residual that several assignments
  reach (equal sub-residuals are one node).  A card aggregate left in
  the residual is valued at every node; a second order atom or
  quantifier, a sum, a definition or a let-block waits until every atom
  it reads is assigned and is then valued exactly.

In both modes a definition or let-block over u atoms takes its glb on
that residual search too, as one opaque leaf on the atoms to complete.

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
    RuleSet, SymTerm, fold, free_symbols,
)
from .truthvalues import (
    F, T, TV, U, PartialSet, approx_aggregate, canon_order, conj, disj, glb_prec, iff,
    implies, max_truth, min_truth, neg,
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


def _term(t, raw: bool = False):
    """Compile a term into fn(i, env): its ground value, or None outside
    the domain; `raw` keeps out-of-domain integers (comparisons, bounds).
    The operands of + are raw: only the sum must be a domain element."""
    if type(t) is SymTerm:
        s = t.symbol
        return lambda i, env: env[s] if s in env else i.value(s)
    if type(t) is IntTerm:
        n = t.value
        return lambda i, env: n if raw or n in i.domain else None
    left, right = _term(t.left, True), _term(t.right, True)

    def add(i, env):
        a, b = left(i, env), right(i, env)
        ok = isinstance(a, int) and isinstance(b, int) and (raw or a + b in i.domain)
        return a + b if ok else None

    return add


def _shown(key: tuple) -> str:
    """repr(key), each relation in it with its tuples in canon_order rather
    than in the hash order of a frozenset's own repr."""
    parts = [repr(k) if type(k) is not frozenset or not k else
             "frozenset({" + ", ".join(map(repr, sorted(k, key=canon_order))) + "})" for k in key]
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


def _read(sym: Symbol, ps: PartialSet, key: tuple, ctx: EvalContext) -> TV:
    k = ps._index.get(key)
    if k is None:
        raise EvaluationError(f"domain atom {sym.name}{_shown(key)} outside the populated carrier")
    v = ps.values[k]
    if v is U:
        ctx.record.add(DomainAtom(sym, key))
    return v


_RELATION_CACHE_MAX = 4_096  # a whole templates round stores about 770


@lru_cache(maxsize=_RELATION_CACHE_MAX)
def _relation_cached(rel: frozenset, arity: int, domain: tuple) -> PartialSet:
    carrier = tuple(itertools.product(domain, repeat=arity))
    ps = PartialSet(carrier, tuple([T if k in rel else F for k in carrier]))
    if ps.values.count(T) == len(rel):  # rel is its true keys if it is within the carrier
        object.__setattr__(ps, "_true", rel)
    return ps


def _atom1(e, kids):
    p, args = e.predicate, [_term(a) for a in e.args]
    # bound-variable arguments are read from env in one pass, others as terms
    syms = tuple(a.symbol if type(a) is SymTerm else None for a in e.args)

    def atom1(i, env, ctx):
        key = tuple(map(env.get, syms))
        if None in key:
            key = tuple([f(i, env) for f in args])
            if None in key:
                return F
        return _read(p, env[p] if p in env else i.value(p), key, ctx)

    def keys(i, env, ctx):  # for definitions' grounder: [the key], or None
        key = tuple(map(env.get, syms))
        key = tuple([f(i, env) for f in args]) if None in key else key
        return None if None in key else [key]

    atom1.keys = keys
    return atom1


def _atom2(e, kids):
    p = e.predicate
    # per argument: a domain term, or the symbol of a predicate argument
    parts = [(_term(a), None) if at.kind == "domain"
             else (None, a.symbol if type(a) is SymTerm else None)
             for a, at in zip(e.args, p.type.args)]

    def keys(i, env, ctx):  # the keys to read, or None outside the domain
        choices = []
        for term, sym in parts:
            if term is not None:
                v = term(i, env)
                if v is None:
                    return None
                choices.append((v,))
                continue
            if sym is None:
                raise EvaluationError("predicate argument must be a symbol")
            ps = env[sym] if sym in env else i.value(sym)
            if ps.is_exact:
                choices.append((ps.true_keys(),))
                continue
            ctx.record.update(DomainAtom(sym, key) for key in ps.keys_with(U))
            choices.append([c.true_keys() for c in ps.completions(ctx.limits)])
        return list(itertools.product(*choices))

    def atom2(i, env, ctx):
        ks = keys(i, env, ctx)
        if ks is None:
            return F
        ps = env[p] if p in env else i.value(p)
        return glb_prec([_read(p, ps, key, ctx) for key in ks])

    atom2.keys = keys
    return atom2


def _cmp(e, kids):
    left, right, op = _term(e.left, raw=True), _term(e.right, raw=True), e.op

    def cmp(i, env, ctx):
        a, b = left(i, env), right(i, env)
        if a is None or b is None or op != "=" and not (
                isinstance(a, int) and isinstance(b, int)):
            return F
        return T if (a == b if op == "=" else a < b if op == "<" else a > b) else F

    return cmp


_CONNECTIVES = {And: conj, Or: disj, Implies: implies, Iff: iff}


def _connective(e, kids):
    # the Kleene tables; every operand is evaluated, so recording sees every
    # atom any consults.  ~~φ is φ's closure: a ~ run evaluates in two frames.
    if type(e) is Not:
        if type(e.body) is Not:
            return e.body.body._fn
        body = kids[0]
        return lambda i, env, ctx: neg(body(i, env, ctx))
    if len(kids) > 2:
        fns, run = kids, min_truth if type(e) is And else max_truth
        return lambda i, env, ctx: run([f(i, env, ctx) for f in fns])
    (left, right), op = kids, _CONNECTIVES[type(e)]
    return lambda i, env, ctx: op(left(i, env, ctx), right(i, env, ctx))


def _quantifier(e, kids):
    """Min (forall) or Max (exists) in the truth order of the body over
    every value of the variable, bound in a copy of env."""
    var, body, unit = e.var, kids[0], T if type(e) in (ForallFO, ForallSO) else F
    zero, arity, so = F if unit is T else T, var.type.arity, type(e) in (ForallSO, ExistsSO)

    def quantifier(i, env, ctx):
        values = i.domain if not so else [
            _relation_cached(r, arity, i.domain)
            for r in arg_value_space(var.type, i.domain, ctx.limits)
        ]
        out, env = unit, dict(env)
        for d in values:
            env[var] = d
            v = body(i, env, ctx)
            if v is not unit and out is not zero:
                out = v
        return out

    return quantifier


def _aggregate(e, kids):
    xs, body, bound = e.vars, kids[0], _term(e.bound, raw=True)

    def aggregate(i, env, ctx):
        inner, entries = dict(env), {}
        for tup in itertools.product(i.domain, repeat=len(xs)):
            inner.update(zip(xs, tup))
            entries[tup] = body(i, inner, ctx)
        n = bound(i, env)
        if not isinstance(n, int):
            raise EvaluationError("aggregate bound must be an integer")
        return approx_aggregate(e.agg, e.cmp, PartialSet.from_map(entries), n, ctx.limits)

    return aggregate


def _definition(e, kids):
    from . import definitions

    def definition(i, env, ctx):
        for var, v in env.items():  # bound one by one, in binding order
            i = i._expand(var, v)
        if type(e) is Let:
            return _let_value(e, i, ctx)
        return definitions.eval_definition(e.ruleset, i, "w", ctx.limits, _ctx=ctx)

    return definition


# one compile case per node kind, each given a node and the closures of
# its sub-formulas
_COMPILERS = {
    Atom1: _atom1, Atom2: _atom2, Cmp: _cmp, Not: _connective,
    And: _connective, Or: _connective, Implies: _connective, Iff: _connective,
    ForallFO: _quantifier, ExistsFO: _quantifier, ForallSO: _quantifier,
    ExistsSO: _quantifier, Aggregate: _aggregate, DefinitionExpr: _definition, Let: _definition,
}


def _compile(e, kids):
    return _COMPILERS[type(e)](e, kids)


def _compiled(e):
    """The closure fn(i, env, ctx) -> TV of expression e, kept on the
    node, compiled sub-formulas first by `fold`."""
    return fold(e, _compile, "_fn")


def _let_value(e: Let, i: PartialInterpretation, ctx: EvalContext) -> TV:
    from . import definitions

    pars = sorted(e.ruleset.parameters, key=lambda s: s.name)
    par_preds = [p for p in pars if p.type.is_predicate]
    if i.exact_on(par_preds):
        context = definitions.parameter_context(e.ruleset, i)
        wfm = definitions.well_founded_model(e.ruleset, context, ctx.limits)
        if not wfm.is_exact:
            raise NonTotalDefinitionError("let-bound definition has no exact well-founded model")
        j = i
        for d in e.ruleset.defined_symbols:  # carriers over i's domain, as built
            j = j._expand(d, wfm.value(d))
        return _compiled(e.body)(j, {}, ctx)
    for p in par_preds:
        for key in i.value(p).keys_with(U):
            ctx.record.add(DomainAtom(p, key))
    return definitions._leaf_glb(i, i.u_atoms(par_preds), ctx.limits,
                                 lambda j: _let_value(e, j, ctx))


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
        return _compiled(e)(i, {}, ctx)
    if mode != SUPERVALUATION:
        raise EvaluationError(f"unknown evaluation mode {mode!r}")
    from . import definitions

    unknown = i.u_atoms(s for s in free_symbols(e) if s.type.is_predicate)
    return definitions._residual_glb(e, i, unknown, ctx.limits)


def evaluate_exact(e, i: PartialInterpretation, limits: Limits = DEFAULT_LIMITS) -> TV:
    """Classical two-valued evaluation; i must be exact on e's free predicates."""
    preds = [s for s in free_symbols(e) if s.type.is_predicate]
    if not i.exact_on(preds):
        raise EvaluationError("evaluate_exact needs an exact interpretation")
    v = _compiled(e)(i, {}, EvalContext(limits=limits))
    if v is U:
        raise EvaluationError("exact evaluation produced u")  # pragma: no cover
    return v
