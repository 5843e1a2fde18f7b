"""Abstract syntax for the second order logic with nested definitions.

Expressions cover first/second order atoms, the five connectives, first
and second order quantifiers, cardinality/sum aggregates, interpreted
integer comparisons, rule sets used as formulas (definitions), and
let-blocks.  A run of one connective & or | is one n-ary node, printed
as the left-nested chain it reads as.

`fold` is the one bottom-up traversal: from an explicit stack, children
first, it calls f(node, their results) on every node, optionally keeping
each result on the node.  Free symbols, the fragment classifier, the
unparser and the rewriting walkers are each one f; the type checker and
substitution pass scope downward and recurse over `children`.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

from .vocab import CONST, DOMAIN, Symbol, Type

# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class SymTerm:
    symbol: Symbol


@dataclass(frozen=True)
class IntTerm:
    value: int


@dataclass(frozen=True)
class AddTerm:
    left: "Term"
    right: "Term"


Term = Union[SymTerm, IntTerm, AddTerm]


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Atom1:
    """First order predicate application p(t1, ..., tn)."""

    predicate: Symbol
    args: tuple


@dataclass(frozen=True)
class Atom2:
    """Second order predicate application P(a1, ..., an)."""

    predicate: Symbol
    args: tuple


@dataclass(frozen=True)
class Cmp:
    """Interpreted comparison over integer domain elements."""

    op: str  # '=', '<', '>'
    left: Term
    right: Term


@dataclass(frozen=True, eq=False, repr=False)
class Not:
    """Negation.  Equality, hash and repr loop over a ~ run, so a rule set
    can hash and order (by repr) a deep one; repr is the dataclass one."""

    body: "Expr"

    def _run(self) -> tuple:  # the ~ run's length and the formula under it
        n, e = 0, self
        while type(e) is Not:
            n, e = n + 1, e.body
        return n, e

    def __eq__(self, other) -> bool:
        return self._run() == other._run() if type(other) is Not else NotImplemented

    def __hash__(self) -> int:
        return hash(self._run())

    def __repr__(self) -> str:
        n, e = self._run()
        return "Not(body=" * n + repr(e) + ")" * n


class _Run:
    """A run of one connective over its operands `args`, at least two.
    A first operand of the same connective is spliced in, so a
    left-nested chain has one representation.  `repr` is that chain's
    binary one, as RuleSet orders its rules by repr."""

    def __init__(self, *args):
        if len(args) < 2:
            raise TypeError(f"{type(self).__name__} needs two operands")
        if type(args[0]) is type(self):
            args = args[0].args + args[1:]
        object.__setattr__(self, "args", args)

    def __repr__(self) -> str:
        first, *rest = map(repr, self.args)
        return f"{type(self).__name__}(left=" * len(rest) + first + "".join(
            f", right={r})" for r in rest)


@dataclass(frozen=True, init=False, repr=False)
class And(_Run):
    args: tuple  # tuple[Expr, ...]


@dataclass(frozen=True, init=False, repr=False)
class Or(_Run):
    args: tuple  # tuple[Expr, ...]


@dataclass(frozen=True)
class Implies:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Iff:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class ForallFO:
    var: Symbol
    body: "Expr"


@dataclass(frozen=True)
class ExistsFO:
    var: Symbol
    body: "Expr"


@dataclass(frozen=True)
class ForallSO:
    var: Symbol
    body: "Expr"


@dataclass(frozen=True)
class ExistsSO:
    var: Symbol
    body: "Expr"


@dataclass(frozen=True)
class Aggregate:
    agg: str  # 'card' | 'sum'
    cmp: str  # '=', '<', '>'
    vars: tuple  # tuple[Symbol, ...]
    body: "Expr"
    bound: Term


@dataclass(frozen=True)
class Rule:
    """A rule  forall xs (head(xs) <- body)."""

    head: Symbol
    head_vars: tuple  # tuple[Symbol, ...]
    body: "Expr"


@dataclass(frozen=True)
class RuleSet:
    rules: tuple  # tuple[Rule, ...]

    def __post_init__(self):
        # a rule set is a set: canonicalize order, drop duplicates; a lone
        # rule is in order without its repr
        rules = tuple(self.rules)
        if len(rules) > 1:
            rules = tuple(sorted(dict.fromkeys(rules), key=repr))
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_hash", hash(self.rules))

    def __hash__(self) -> int:  # cached: rule sets key the WFM memo
        return self._hash

    @cached_property
    def defined_symbols(self) -> frozenset:
        return frozenset(r.head for r in self.rules)

    @cached_property  # every memoised WFM lookup restricts its context to these
    def parameters(self) -> frozenset:
        occurring = set()
        for r in self.rules:
            occurring |= free_symbols(r.body) - set(r.head_vars)
        return frozenset(occurring - self.defined_symbols)

    @cached_property  # each defined atom reads only the rules of its symbol
    def by_head(self) -> dict:
        out: dict = {}
        for r in self.rules:
            out.setdefault(r.head, []).append(r)
        return out

    @cached_property
    def free(self) -> frozenset:
        return self.defined_symbols | self.parameters


@dataclass(frozen=True)
class DefinitionExpr:
    """A rule set used as a formula (well-founded truth assignment)."""

    ruleset: RuleSet


@dataclass(frozen=True)
class Let:
    """let Delta in body: the defined symbols are scoped to body."""

    ruleset: RuleSet
    body: "Expr"


Expr = Union[
    Atom1, Atom2, Cmp, Not, And, Or, Implies, Iff,
    ForallFO, ExistsFO, ForallSO, ExistsSO, Aggregate, DefinitionExpr, Let,
]

_BINARY = {And: "&", Or: "|", Implies: "=>", Iff: "<=>"}
_QUANTIFIERS = (ForallFO, ExistsFO, ForallSO, ExistsSO)


# ---------------------------------------------------------------------------
# Structural traversal


# each node kind's direct sub-formulas, in the order fold visits them
_KIDS = {
    **dict.fromkeys((Atom1, Atom2, Cmp), lambda e: ()),
    **dict.fromkeys((Not, *_QUANTIFIERS, Aggregate), lambda e: (e.body,)),
    And: lambda e: e.args, Or: lambda e: e.args,
    Implies: lambda e: (e.left, e.right), Iff: lambda e: (e.left, e.right),
    DefinitionExpr: lambda e: tuple(r.body for r in e.ruleset.rules),
    Let: lambda e: (*(r.body for r in e.ruleset.rules), e.body),
}


def children(e) -> tuple:
    """e's direct sub-formulas: its operands or body, and for a definition
    or let-block its rule bodies in rule order, then the let body."""
    kids = _KIDS.get(type(e))
    if kids is None:
        raise TypeError(f"not an expression: {e!r}")
    return kids(e)


def fold(e, f, attr=None):
    """f(node, results) on every node of e, sub-formulas first, where
    results are f's results on the node's `children`; returns e's.

    One explicit stack, so a walker takes no Python frame per level.
    With `attr`, each result is kept on its node under that name, and a
    node that already holds one is not entered again.
    """
    if attr is not None and attr in getattr(e, "__dict__", ()):
        return e.__dict__[attr]
    # stack: nodes to enter and (node, child count) to finish; out: results to hand up
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            node, n = node
            k = len(out) - n
            result = f(node, out[k:])
            del out[k:]
        else:
            kids = _KIDS.get(type(node))
            if kids is None:
                raise TypeError(f"not an expression: {node!r}")
            if attr is not None and attr in node.__dict__:
                out.append(node.__dict__[attr])
                continue
            kids = kids(node)
            if kids:
                stack.append((node, len(kids)))
                stack += reversed(kids)
                continue
            result = f(node, kids)
        if attr is not None:
            object.__setattr__(node, attr, result)
        out.append(result)
    return out[0]


def rebuild(e, kids, rules=None):
    """e with `kids` for its `children`, e itself if they are the same.
    Binders, aggregate bounds and rule heads are kept; `rules(ruleset,
    bodies)`, if given, builds the rule set of a definition or let-block."""
    t = type(e)
    ruled = rules is not None and (t is DefinitionExpr or t is Let)
    if not ruled and all(map(operator.is_, kids, _KIDS[t](e))):
        return e
    if t is Not or t in _BINARY:
        return t(*kids)
    if t in _QUANTIFIERS:
        return t(e.var, kids[0])
    if t is Aggregate:
        return Aggregate(e.agg, e.cmp, e.vars, kids[0], e.bound)
    rs = rules(e.ruleset, kids) if ruled else RuleSet(tuple(
        Rule(r.head, r.head_vars, b) for r, b in zip(e.ruleset.rules, kids)))
    return DefinitionExpr(rs) if t is DefinitionExpr else Let(rs, kids[-1])


# ---------------------------------------------------------------------------
# Free symbols


def term_symbols(t: Term) -> frozenset:
    if isinstance(t, SymTerm):
        return frozenset((t.symbol,))
    if isinstance(t, IntTerm):
        return frozenset()
    return term_symbols(t.left) | term_symbols(t.right)


def _free(e, kids) -> frozenset:
    t = type(e)
    if t is Atom1 or t is Atom2:
        return frozenset((e.predicate,)).union(*map(term_symbols, e.args))
    if t is Cmp:
        return term_symbols(e.left) | term_symbols(e.right)
    if t in _QUANTIFIERS:
        return kids[0] - {e.var}
    if t is Aggregate:
        return (kids[0] - set(e.vars)) | term_symbols(e.bound)
    if t is DefinitionExpr:
        return e.ruleset.free
    if t is Let:
        return (e.ruleset.free | kids[-1]) - e.ruleset.defined_symbols
    return kids[0] if t is Not else frozenset().union(*kids)


def free_symbols(e) -> frozenset:
    """Free symbols of an expression or rule set, kept on each node."""
    if isinstance(e, RuleSet):
        return e.free
    return fold(e, _free, "_free")


# ---------------------------------------------------------------------------
# Type checking


def _term_type(t: Term, scope: dict, errors: list):
    """Return the Type of a term within `scope` (name -> Symbol)."""
    if isinstance(t, IntTerm):
        return DOMAIN
    if isinstance(t, AddTerm):
        for side in (t.left, t.right):
            st = _term_type(side, scope, errors)
            if st is not None and st.kind not in ("const", "domain"):
                errors.append(f"arithmetic over non-domain term of type {st}")
        return DOMAIN
    sym = t.symbol
    if scope.get(sym.name) != sym:
        errors.append(f"symbol {sym.name} not in scope")
        return None
    return sym.type


def _is_domain_typed(t: Type | None) -> bool:
    return t is None or t.kind in ("const", "domain")


def _check_expr(e, scope: dict, errors: list) -> None:
    while isinstance(e, Not):  # a ~ run in one frame
        e = e.body
    if isinstance(e, Atom1):
        pt = _term_type(SymTerm(e.predicate), scope, errors)
        if pt is not None and pt.kind != "pred":
            errors.append(f"{e.predicate.name} used as a first order predicate but has type {pt}")
            return
        if pt is not None and pt.arity != len(e.args):
            errors.append(
                f"{e.predicate.name}/{pt.arity} applied to {len(e.args)} arguments"
            )
        for a in e.args:
            if not _is_domain_typed(_term_type(a, scope, errors)):
                errors.append(f"non-domain argument in {e.predicate.name}(...)")
    elif isinstance(e, Atom2):
        pt = _term_type(SymTerm(e.predicate), scope, errors)
        if pt is not None and pt.kind != "so-pred":
            errors.append(f"{e.predicate.name} used as a second order predicate but has type {pt}")
            return
        if pt is not None and len(pt.args) != len(e.args):
            errors.append(
                f"{e.predicate.name} expects {len(pt.args)} arguments, got {len(e.args)}"
            )
            return
        for a, at in zip(e.args, pt.args if pt else ()):
            got = _term_type(a, scope, errors)
            if got is None:
                continue
            if at.kind == "domain":
                if not _is_domain_typed(got):
                    errors.append(
                        f"{e.predicate.name}: expected a domain argument, got {got}"
                    )
            elif got != at:
                errors.append(f"{e.predicate.name}: expected {at}, got {got}")
    elif isinstance(e, Cmp):
        for side in (e.left, e.right):
            if not _is_domain_typed(_term_type(side, scope, errors)):
                errors.append(f"comparison over a non-domain term")
    elif type(e) in _BINARY:
        for k in children(e):
            _check_expr(k, scope, errors)
    elif isinstance(e, (ForallFO, ExistsFO)):
        if e.var.type != CONST:
            errors.append(f"first order variable {e.var.name} must be domain-valued")
        _check_expr(e.body, {**scope, e.var.name: e.var}, errors)
    elif isinstance(e, (ForallSO, ExistsSO)):
        if e.var.type.kind != "pred":
            errors.append(
                f"second order variable {e.var.name} must have a first order predicate type"
            )
        _check_expr(e.body, {**scope, e.var.name: e.var}, errors)
    elif isinstance(e, Aggregate):
        inner = dict(scope)
        for v in e.vars:
            if v.type != CONST:
                errors.append(f"aggregate variable {v.name} must be domain-valued")
            inner[v.name] = v
        _check_expr(e.body, inner, errors)
        if not _is_domain_typed(_term_type(e.bound, scope, errors)):
            errors.append("aggregate bound must be a domain term")
    elif isinstance(e, DefinitionExpr):
        _check_ruleset(e.ruleset, scope, errors)
    elif isinstance(e, Let):
        inner = dict(scope)
        for d in e.ruleset.defined_symbols:
            inner[d.name] = d
        _check_ruleset(e.ruleset, scope, errors)
        _check_expr(e.body, inner, errors)
    else:
        errors.append(f"not an expression: {e!r}")


def head_var_types(head: Symbol) -> list[Type]:
    """The types rule head variables take, per the head's predicate type."""
    if head.type.kind == "pred":
        return [CONST] * head.type.arity
    if head.type.kind == "so-pred":
        return [CONST if a.kind == "domain" else a for a in head.type.args]
    return []


def _check_ruleset(rs: RuleSet, scope: dict, errors: list) -> None:
    inner = dict(scope)
    for d in rs.defined_symbols:
        inner[d.name] = d
    for r in rs.rules:
        if not r.head.type.is_predicate:
            errors.append(f"rule head {r.head.name} is not a predicate")
            continue
        expected = head_var_types(r.head)
        if len(expected) != len(r.head_vars):
            errors.append(
                f"rule for {r.head.name} has {len(r.head_vars)} head variables, "
                f"expected {len(expected)}"
            )
            continue
        body_scope = dict(inner)
        for v, t in zip(r.head_vars, expected):
            if v.type != t:
                errors.append(
                    f"head variable {v.name} of {r.head.name} has type {v.type}, expected {t}"
                )
            body_scope[v.name] = v
        _check_expr(r.body, body_scope, errors)


def typecheck(e, sigma) -> list[str]:
    """Check an expression or rule set against vocabulary `sigma`.

    Returns a list of diagnostics; empty means well-typed.
    """
    errors: list[str] = []
    scope = {s.name: s for s in sigma}
    if isinstance(e, RuleSet):
        _check_ruleset(e, scope, errors)
    else:
        _check_expr(e, scope, errors)
    return errors


# ---------------------------------------------------------------------------
# Substitution and renaming


class NameGen:
    """Deterministic fresh-name source for capture avoidance."""

    def __init__(self, taken: Iterable[str] = ()):
        self.taken = set(taken)
        self.counter = itertools.count(1)

    def fresh(self, base: Symbol) -> Symbol:
        name = base.name
        while name in self.taken:
            name = f"{base.name}_{next(self.counter)}"
        self.taken.add(name)
        return Symbol(name, base.type, base.kind)


def _subst_term(t: Term, mapping: dict) -> Term:
    if isinstance(t, SymTerm):
        repl = mapping.get(t.symbol)
        if repl is None:
            return t
        return repl if not isinstance(repl, Symbol) else SymTerm(repl)
    if isinstance(t, AddTerm):
        return AddTerm(_subst_term(t.left, mapping), _subst_term(t.right, mapping))
    return t


def _subst_pred(p: Symbol, mapping: dict) -> Symbol:
    repl = mapping.get(p)
    if repl is None:
        return p
    if isinstance(repl, SymTerm):
        repl = repl.symbol
    if not isinstance(repl, Symbol):
        raise TypeError(f"cannot substitute term {repl!r} in predicate position")
    return repl


def _mapping_symbols(mapping: dict) -> set:
    out = set()
    for v in mapping.values():
        out |= term_symbols(v) if not isinstance(v, Symbol) else {v}
    return out


def _enter_binders(binders, mapping, gen):
    """Drop shadowed entries and freshen binders that would capture."""
    mapping = {k: v for k, v in mapping.items() if k not in binders}
    clash = _mapping_symbols(mapping)
    renames = {}
    out = []
    for b in binders:
        if b in clash:
            nb = gen.fresh(b)
            renames[b] = nb
            out.append(nb)
        else:
            gen.taken.add(b.name)
            out.append(nb := b)
    if renames:
        mapping = {**mapping, **renames}
    return tuple(out), mapping


def substitute(e, mapping: dict, gen: NameGen | None = None):
    """Replace free symbol occurrences, capture-avoidingly.

    mapping: Symbol -> Symbol or Term.  Predicate positions require the
    replacement to be a symbol.
    """
    if gen is None:
        gen = NameGen({s.name for s in free_symbols(e) | _mapping_symbols(mapping)})
    if not mapping:
        return e
    if isinstance(e, (Atom1, Atom2)):  # Atom2 once its predicate is second order
        p = _subst_pred(e.predicate, mapping)
        atom_cls = Atom2 if isinstance(e, Atom2) or p.type.kind == "so-pred" else Atom1
        return atom_cls(p, tuple(_subst_term(a, mapping) for a in e.args))
    if isinstance(e, Cmp):
        return Cmp(e.op, _subst_term(e.left, mapping), _subst_term(e.right, mapping))
    if isinstance(e, _QUANTIFIERS):
        (var,), inner = _enter_binders((e.var,), mapping, gen)
        return type(e)(var, substitute(e.body, inner, gen))
    if isinstance(e, Aggregate):
        vars_, inner = _enter_binders(e.vars, mapping, gen)
        return Aggregate(
            e.agg, e.cmp, vars_, substitute(e.body, inner, gen),
            _subst_term(e.bound, mapping),
        )
    if isinstance(e, DefinitionExpr):
        return DefinitionExpr(subst_ruleset(e.ruleset, mapping, gen))
    if isinstance(e, Let):
        defined = tuple(sorted(e.ruleset.defined_symbols, key=lambda s: s.name))
        renamed, inner = _enter_binders(defined, mapping, gen)
        rs = e.ruleset
        if renamed != defined:
            rs = subst_ruleset(rs, dict(zip(defined, renamed)), gen)
        rs = subst_ruleset(rs, {k: v for k, v in inner.items() if k not in renamed}, gen)
        return Let(rs, substitute(e.body, inner, gen))
    return rebuild(e, [substitute(k, mapping, gen) for k in children(e)])


def subst_ruleset(rs: RuleSet, mapping: dict, gen: NameGen | None = None) -> RuleSet:
    """Substitute parameters of a rule set (defined symbols via mapping too)."""
    if gen is None:
        gen = NameGen({s.name for s in rs.free | _mapping_symbols(mapping)})
    rules = []
    for r in rs.rules:
        head = _subst_pred(r.head, mapping)
        head_vars, inner = _enter_binders(r.head_vars, mapping, gen)
        rules.append(Rule(head, head_vars, substitute(r.body, inner, gen)))
    return RuleSet(tuple(rules))


# ---------------------------------------------------------------------------
# Fragment classification (smallest of FO(ID*) / ESO(ID*) / ASO(ID*))

FRAGMENT_FO = "FO(ID*)"
FRAGMENT_ESO = "ESO(ID*)"
FRAGMENT_ASO = "ASO(ID*)"
FRAGMENT_SO = "SO(ID*)-only"

# a fragment set is a bit set; FO(ID*) lies inside both SO fragments
_FO, _ESO, _ASO = 1, 2, 4
_ALL = _FO | _ESO | _ASO


def _dual(m: int) -> int:
    """Fragments of ~e from those of e: negation swaps ESO and ASO."""
    return (m & _FO) | (m & _ESO) << 1 | (m & _ASO) >> 1


def _fragments(e, kids) -> int:
    """Under fold, the set of fragments containing e.

    Sugar is read through its definition: | as ~(~a & ~b), => as
    ~(a & ~b), <=> as the conjunction of both implications, and the
    first order forall as ~exists~.  Definitions and let-blocks stay in
    the fragments only when every rule has a first order head and an
    FO(ID*) body.
    """
    t = type(e)
    if t is Atom1 or t is Cmp:
        return _ALL
    if t is Not:
        return _dual(kids[0])
    if t is And or t is Or or t is Iff:
        m = functools.reduce(operator.and_, kids)
        return m & _dual(m) if t is Iff else m
    if t is Atom2:
        return _ESO | _ASO
    if t is Implies:
        return _dual(kids[0]) & kids[1]
    if t is ExistsSO:
        return kids[0] & _ESO
    if t is ForallSO:
        return kids[0] & _ASO
    if t is DefinitionExpr or t is Let:
        if not all(r.head.type.kind == "pred" and m & _FO for r, m in zip(e.ruleset.rules, kids)):
            return 0
        return _ALL if t is DefinitionExpr else kids[-1]
    return kids[0]  # first order quantifiers, aggregates


def classify(e) -> str:
    """The smallest fragment containing e (ESO preferred on ties)."""
    if isinstance(e, RuleSet):
        e = DefinitionExpr(e)
    m = fold(e, _fragments)
    for bit, name in ((_FO, FRAGMENT_FO), (_ESO, FRAGMENT_ESO), (_ASO, FRAGMENT_ASO)):
        if m & bit:
            return name
    return FRAGMENT_SO


# ---------------------------------------------------------------------------
# Unparsing


def unparse_term(t: Term) -> str:
    if isinstance(t, SymTerm):
        return t.symbol.name
    if isinstance(t, IntTerm):
        return str(t.value)
    # flat: + is left associative in the grammar, which has no term parens
    return f"{unparse_term(t.left)} + {unparse_term(t.right)}"


_SIGILS = {ForallFO: "!", ExistsFO: "?", ForallSO: "!! ", ExistsSO: "?? "}
_SCOPES = (*_QUANTIFIERS, Let)  # extend to the end of the formula


def _text(e, kids) -> str:
    t = type(e)
    if t is Atom1 or t is Atom2:
        if not e.args:
            return e.predicate.name
        return f"{e.predicate.name}({', '.join(map(unparse_term, e.args))})"
    if t is Cmp:
        return f"{unparse_term(e.left)} {e.op} {unparse_term(e.right)}"
    if t is Not:
        return f"~{kids[0]}" if type(e.body) in (Atom1, Atom2, Not) else f"~({kids[0]})"
    if t in _BINARY:
        # a run prints left-nested; a scope as its first operand is closed off
        first = kids[0]
        if type(e.args[0] if t is And or t is Or else e.left) in _SCOPES:
            first = f"({first})"
        op = f" {_BINARY[t]} "
        return "(" * (len(kids) - 1) + first + op + f"){op}".join(kids[1:]) + ")"
    if t in _QUANTIFIERS:
        typed = f"[{e.var.type}]" if t is ForallSO or t is ExistsSO else ""
        return f"{_SIGILS[t]}{e.var.name}{typed}: {kids[0]}"
    if t is Aggregate:
        head = "#" if e.agg == "card" else "sum"
        vars_ = ", ".join(v.name for v in e.vars)
        return f"{head}{{{vars_} : {kids[0]}}} {e.cmp} {unparse_term(e.bound)}"
    rules = _ruleset_text(e.ruleset, kids)
    return rules if t is DefinitionExpr else f"let {rules} in {kids[-1]}"


def _ruleset_text(rs: RuleSet, bodies) -> str:
    parts = []
    for r, body in zip(rs.rules, bodies):
        head = r.head.name
        if r.head_vars:
            head += "(" + ", ".join(v.name for v in r.head_vars) + ")"
        parts.append(f"{head} <- {body}.")
    return "{" + " ".join(parts) + "}"


def unparse(e) -> str:
    """Canonical ASCII form; parse(unparse(e)) reproduces e."""
    return fold(DefinitionExpr(e) if isinstance(e, RuleSet) else e, _text)


def unparse_ruleset(rs: RuleSet) -> str:
    return unparse(rs)
