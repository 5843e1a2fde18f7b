"""Templates: second order definitions of reusable template symbols.

A template defines template symbols in terms of interpreted and
template symbols only, making it a domain-independent building block.
Libraries of templates are validated (unique definitions, vocabulary
purity, stratification, paradox-freeness on test domains) and applied
to interpretations stratum by stratum, each template symbol receiving
the well-founded value of its definition.

The module also houses the rewriting toolbox: templification (turning a
user definition with open first order predicate symbols into a
template), macro expansion of simple non-recursive template libraries,
and elimination of existential second order quantifiers by switching
them past first order universals and skolemizing.  Rewrites are checked
by Σ-equivalence on the shared searches: the exact Σ-interpretations come
from `mx`'s (`definitions.constrained_completions`), and a formula is
expandable on one iff, for some value of its extra constants, its
supervaluation with its extra predicate symbols u is not f.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from . import definitions
from .errors import CapExceeded, EvaluationError, NonTotalDefinitionError, TypeError_
from .evaluator import SUPERVALUATION, evaluate
from .interpretation import PartialInterpretation
from .limits import DEFAULT_LIMITS, Limits
from .syntax import (
    Aggregate, And, Atom1, Atom2, Cmp, DefinitionExpr, ExistsFO, ExistsSO,
    ForallFO, ForallSO, Iff, Implies, Let, NameGen, Not, Or, Rule, RuleSet,
    SymTerm, classify, FRAGMENT_FO, fold, free_symbols, rebuild, substitute,
)
from .truthvalues import F, U, PartialSet
from .vocab import DOMAIN, Symbol, pred, predicate_carrier, so_pred

@dataclass(frozen=True)
class Template:
    """A named second order definition of template symbols."""

    name: str
    ruleset: RuleSet

    @property
    def defined(self) -> frozenset:
        return self.ruleset.defined_symbols

    @property
    def parameters(self) -> frozenset:
        return self.ruleset.parameters


@dataclass
class TemplateLibrary:
    templates: tuple

    def template_symbols(self) -> list[Symbol]:
        out: set[Symbol] = set()
        for t in self.templates:
            out |= t.defined
        return sorted(out, key=lambda s: s.name)

    def defining(self, sym: Symbol) -> Template | None:
        for t in self.templates:
            if sym in t.defined:
                return t
        return None


@dataclass
class LibraryReport:
    problems: list = field(default_factory=list)
    order: list = field(default_factory=list)  # topologically sorted templates
    skipped_contexts: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def _stratify(lib: TemplateLibrary) -> tuple[list[Template], list[str]]:
    """Topological order of templates under the uses-relation; cycles
    across distinct templates violate stratification (self-recursion
    inside one template is fine)."""
    problems: list[str] = []
    by_symbol: dict[Symbol, Template] = {}
    for t in lib.templates:
        for d in t.defined:
            if d in by_symbol:
                problems.append(
                    f"template symbol {d.name} defined in both "
                    f"{by_symbol[d].name!r} and {t.name!r}"
                )
            else:
                by_symbol[d] = t
    uses: dict[str, set[str]] = {t.name: set() for t in lib.templates}
    for t in lib.templates:
        for q in t.parameters:
            owner = by_symbol.get(q)
            if owner is not None and owner.name != t.name:
                uses[t.name].add(owner.name)
    order: list[Template] = []
    placed: set[str] = set()
    remaining = {t.name: t for t in lib.templates}
    while remaining:
        ready = sorted(
            name for name, t in remaining.items() if uses[name] <= placed
        )
        if not ready:
            problems.append(
                "stratification cycle among templates: "
                + ", ".join(sorted(remaining))
            )
            break
        for name in ready:
            order.append(remaining.pop(name))
            placed.add(name)
    return order, problems


def validate_library(
    lib: TemplateLibrary,
    test_domains: Sequence[Sequence] = ((), ("a", "b")),
    limits: Limits = DEFAULT_LIMITS,
    so_instances: Optional[Mapping[Symbol, Iterable[tuple]]] = None,
) -> LibraryReport:
    """Check unique definitions, vocabulary purity, stratification, and
    paradox-freeness of every template on every test domain."""
    report = LibraryReport()
    for t in lib.templates:
        for d in sorted(t.defined, key=lambda s: s.name):
            if d.kind != "template" or d.type.kind != "so-pred":
                report.problems.append(
                    f"{t.name}: defined symbol {d.name} is not a second order "
                    "template symbol"
                )
        for q in sorted(t.parameters, key=lambda s: s.name):
            if not q.in_template_vocab:
                report.problems.append(
                    f"{t.name}: parameter {q.name} is outside the template vocabulary"
                )
    order, strat_problems = _stratify(lib)
    report.problems.extend(strat_problems)
    report.order = order
    if report.problems:
        return report

    for domain in test_domains:
        try:
            expanded = apply_library(
                PartialInterpretation.empty(domain), lib, limits,
                so_instances=so_instances, _report=report,
            )
        except CapExceeded:
            report.skipped_contexts += 1
            continue
        except NonTotalDefinitionError as exc:
            report.problems.append(f"|D|={len(tuple(domain))}: {exc}")
            continue
        del expanded
    return report


def apply_library(
    i: PartialInterpretation,
    lib: TemplateLibrary,
    limits: Limits = DEFAULT_LIMITS,
    so_instances: Optional[Mapping[Symbol, Iterable[tuple]]] = None,
    _report: LibraryReport | None = None,
) -> PartialInterpretation:
    """The unique exact expansion of i with every template symbol's value.

    Template symbols are filled in by induction on the stratification
    order, each receiving the well-founded model of its template.  By
    locality that model depends only on the template's parameters, so
    its context is the already-expanded interpretation restricted to
    them, and one fixpoint serves every i that agrees there.
    `so_instances` optionally restricts a template symbol's carrier to
    the listed argument tuples, for instances whose full second order
    argument space is out of cap range.
    """
    for s in lib.template_symbols():
        if i.interprets(s):
            raise EvaluationError(f"interpretation already covers template symbol {s.name}")
    order, problems = _stratify(lib)
    if problems:
        raise EvaluationError("; ".join(problems))
    out = i
    for t in order:
        carriers = None
        if so_instances:
            carriers = {
                d: tuple(so_instances[d]) for d in t.defined if d in so_instances
            }
        context = definitions.parameter_context(t.ruleset, out)
        wfm = definitions.well_founded_model(t.ruleset, context, limits, carriers)
        defined = sorted(t.defined, key=lambda s: s.name)
        if not all(wfm.value(d).is_exact for d in defined):
            msg = f"template {t.name!r} is not total on this domain"
            if _report is not None:
                _report.problems.append(msg)
            raise NonTotalDefinitionError(msg)
        for d in defined:  # a carrier expand_context built, or checked
            out = out._expand(d, wfm.value(d))
    return out


# ---------------------------------------------------------------------------
# Templification


def _extended_symbol(p: Symbol, opens: tuple) -> Symbol:
    if p.type.kind == "pred":
        base = (DOMAIN,) * p.type.arity
    elif p.type.kind == "so-pred":
        base = p.type.args
    else:
        raise TypeError_(f"cannot templify non-predicate {p.name}")
    return Symbol(
        p.name + "'", so_pred(*base, *(o.type for o in opens)), "template"
    )


def _extend_atoms(e, mapping: dict, opens: tuple):
    """Replace every atom P(t̄) with P ∈ mapping by P'(t̄, ō), and in the
    rule sets defining such P the head P(x̄) by P'(x̄, ō)."""

    def rules(rs: RuleSet, bodies) -> RuleSet:
        return RuleSet(tuple(
            Rule(mapping[r.head], r.head_vars + opens, body) if r.head in mapping
            else Rule(r.head, r.head_vars, body) for r, body in zip(rs.rules, bodies)))

    def extend(n, kids):
        p2 = mapping.get(n.predicate) if type(n) in (Atom1, Atom2) else None
        if p2 is not None:
            return Atom2(p2, n.args + tuple(SymTerm(o) for o in opens))
        return rebuild(n, kids, rules)

    return fold(e, extend)


def templify(d: RuleSet, open_symbols: tuple) -> tuple[RuleSet, dict]:
    """Rewrite a user definition into a template over the open symbols.

    Every defined P gets a fresh P' extended with argument positions
    for the open symbols; every rule is universally closed over them
    (they become extra head variables).  Returns the templified rule
    set and the P -> P' map.
    """
    for o in open_symbols:
        if o.type.kind != "pred":
            raise TypeError_(
                f"open symbol {o.name} must be a first order predicate, has {o.type}"
            )
    expected = {s for s in d.parameters if not s.in_template_vocab and s.type.is_predicate}
    if set(open_symbols) != expected:
        raise TypeError_(
            "open symbols must be exactly the non-template predicate parameters"
        )
    for p in d.defined_symbols:
        if p.in_template_vocab:
            raise TypeError_(f"{p.name} is already a template symbol")
    mapping = {
        p: _extended_symbol(p, open_symbols)
        for p in sorted(d.defined_symbols, key=lambda s: s.name)
    }
    return _extend_atoms(DefinitionExpr(d), mapping, tuple(open_symbols)).ruleset, mapping


def check_correspondence(
    d: RuleSet,
    dt: RuleSet,
    mapping: dict,
    i: PartialInterpretation,
    it: PartialInterpretation,
    open_symbols: tuple,
) -> bool:
    """P^i = {d̄ | (d̄, ō^i) ∈ P'^it} for every defined P."""
    o_value = tuple(i.value(o).true_keys() for o in open_symbols)
    for p, p2 in mapping.items():
        narrow = p.type.arity
        projected = frozenset(
            key[:narrow]
            for key in it.value(p2).true_keys()
            if key[narrow:] == o_value
        )
        if i.value(p).true_keys() != projected:
            return False
    return True


# ---------------------------------------------------------------------------
# Simple templates as macros


def is_simple(t: Template) -> bool:
    """One rule, second order head, FO(ID*) body."""
    if len(t.ruleset.rules) != 1:
        return False
    rule = t.ruleset.rules[0]
    if rule.head.type.kind != "so-pred":
        return False
    return classify(rule.body) == FRAGMENT_FO


def macro_expand(phi, lib: TemplateLibrary, limits: Limits = DEFAULT_LIMITS):
    """Substitute template atoms by their defining bodies until none remain.

    Requires a library of non-recursive simple templates; termination
    comes from stratification.  Fresh names are drawn deterministically
    so output is reproducible.
    """
    order, problems = _stratify(lib)
    if problems:
        raise EvaluationError("; ".join(problems))
    rules: dict[Symbol, Rule] = {}
    for t in order:
        if not is_simple(t):
            raise EvaluationError(f"template {t.name!r} is not simple")
        rule = t.ruleset.rules[0]
        if rule.head in free_symbols(rule.body):
            raise EvaluationError(f"template {t.name!r} is recursive")
        rules[rule.head] = rule

    taken = {s.name for s in free_symbols(phi)}
    for rule in rules.values():
        taken |= {s.name for s in free_symbols(rule.body) | set(rule.head_vars)}
    gen = NameGen(taken)

    def expand(e, kids):
        if isinstance(e, Atom2) and e.predicate in rules:
            rule = rules[e.predicate]
            mapping = {var: arg.symbol if isinstance(arg, SymTerm) and var.type.kind == "pred"
                       else arg for var, arg in zip(rule.head_vars, e.args)}
            return fold(substitute(rule.body, mapping, gen), expand)
        return rebuild(e, kids)

    return fold(phi, expand)


# ---------------------------------------------------------------------------
# Second order quantifier elimination


def _connectives(e, kids):
    """Under fold, removes => and <=> so negation push-down only sees ~ & |."""
    if type(e) is Implies:
        return Or(Not(kids[0]), kids[1])
    if type(e) is Iff:
        a, b = kids
        return Or(And(a, b), And(Not(a), Not(b)))
    # rule sets stay as written: _nnf and _hoist treat them as atoms
    return rebuild(e, kids, lambda rs, bodies: rs)


_DUALS = {And: Or, Or: And, ForallFO: ExistsFO, ExistsFO: ForallFO}


def _nnf(e, positive: bool = True):
    """Push negations down to atoms, definitions and aggregates."""
    while isinstance(e, Not):
        e, positive = e.body, not positive
    t = type(e)
    if t in (Atom1, Atom2, Cmp, DefinitionExpr, Aggregate):
        return e if positive else Not(e)
    cls = t if positive else _DUALS.get(t, t)
    if t is And or t is Or:
        return cls(*[_nnf(a, positive) for a in e.args])
    if t is ForallFO or t is ExistsFO:
        return cls(e.var, _nnf(e.body, positive))
    if t is ExistsSO and not positive:
        raise EvaluationError("negated existential second order quantifier is not in ESO(ID*)")
    if t is ForallSO and positive:
        raise EvaluationError("universal second order quantifier is not in ESO(ID*)")
    if t is ExistsSO or t is ForallSO:
        return ExistsSO(e.var, _nnf(e.body, positive))
    if t is Let:  # the defined symbols stay fixed; negation moves into the body
        return Let(e.ruleset, _nnf(e.body, positive))
    raise TypeError_(f"not an expression: {e!r}")


def _switch_var(e, switched: dict, x: Symbol):
    """Replace every atom P(t̄) by P'(t̄, x) for P -> P' in `switched` (the
    switching rule; each P' is a first order predicate)."""

    def switch(n, kids):
        new = switched.get(n.predicate) if type(n) in (Atom1, Atom2) else None
        return rebuild(n, kids) if new is None else Atom1(new, n.args + (SymTerm(x),))

    return fold(e, switch)


def _hoist(e, gen: NameGen):
    """Pull existential SO quantifiers to the front; returns (vars, matrix)."""
    if isinstance(e, ExistsSO):
        var = e.var
        if var.name in gen.taken:
            fresh = gen.fresh(var)
            body = substitute(e.body, {var: fresh}, gen)
            var = fresh
        else:
            gen.taken.add(var.name)
            body = e.body
        inner_vars, matrix = _hoist(body, gen)
        return [var] + inner_vars, matrix
    if isinstance(e, (And, Or)):
        vars_, parts = [], []
        for a in e.args:
            v, m = _hoist(a, gen)
            vars_ += v
            parts.append(m)
        return vars_, type(e)(*parts)
    if isinstance(e, (ExistsFO, Let)):
        vars_, matrix = _hoist(e.body, gen)
        return vars_, ExistsFO(e.var, matrix) if type(e) is ExistsFO else Let(e.ruleset, matrix)
    if isinstance(e, ForallFO):
        vars_, matrix = _hoist(e.body, gen)
        # switching rule: each P jumps the universal by gaining an
        # argument position for the quantified variable
        switched = {p: gen.fresh(Symbol(p.name, pred(p.type.arity + 1))) for p in vars_}
        matrix = _switch_var(matrix, switched, e.var)
        # only an atom's predicate switches: where P is read otherwise, say
        # as a second order atom's argument, no first order P' replaces it
        stuck = [p.name for p in vars_ if p in free_symbols(matrix)]
        if stuck:
            raise EvaluationError(f"cannot switch second order variable {stuck[0]} past "
                                  f"!{e.var.name}: it occurs other than as a predicate")
        return list(switched.values()), ForallFO(e.var, matrix)
    if isinstance(e, (Not, Aggregate)) and fold(e.body, _so_inside):
        raise EvaluationError(
            "second order quantifier under negation is not in ESO(ID*)" if type(e) is Not
            else "cannot hoist a second order quantifier out of an aggregate")
    if isinstance(e, (Atom1, Atom2, Cmp, DefinitionExpr, Not, Aggregate)):
        return [], e
    raise TypeError_(f"not an expression: {e!r}")


def _so_inside(e, kids) -> bool:
    """Under fold, whether e holds a second order quantifier outside rule
    bodies, which _nnf and _hoist treat as atoms."""
    t = type(e)
    if t is DefinitionExpr or t is Let:
        return t is Let and kids[-1]
    return t is ExistsSO or t is ForallSO or any(kids)


def eliminate_so(phi) -> tuple:
    """Rewrite an ESO(ID*) formula into FO(ID*) over an extended vocabulary.

    Negations are pushed down, existential SO quantifiers hoisted to
    the front (switching past first order universals by extending the
    quantified predicate with the universal's variable), and the
    leading quantifiers skolemized into fresh free predicate symbols.
    Returns (formula, skolem symbols).
    """
    e = _nnf(fold(phi, _connectives))
    gen = NameGen({s.name for s in free_symbols(phi)})
    vars_, matrix = _hoist(e, gen)
    if fold(matrix, _so_inside):
        raise EvaluationError("residual second order quantifier after hoisting")
    return matrix, tuple(vars_)


# ---------------------------------------------------------------------------
# Σ-equivalence on the completion and supervaluation searches


def _all_u(i: PartialInterpretation, symbols, limits: Limits) -> PartialInterpretation:
    """i expanded with each of `symbols` but the constants u over its whole carrier."""
    for s in symbols:
        if s.type.kind != "const":  # predicate_carrier refuses any other type
            keys = tuple(predicate_carrier(s.type, i.domain, limits))
            i = i._expand(s, PartialSet(keys, (U,) * len(keys)))
    return i


def _consts(symbols) -> list:
    return sorted({s for s in symbols if s.type.kind == "const"}, key=lambda s: s.name)


def _sigma_bases(sigma: Sequence[Symbol], domain: Sequence, limits: Limits):
    """All exact interpretations of `sigma` over `domain`, as `mx` enumerates
    them: atoms t then f, constants innermost; the cap counts every atom."""
    i = _all_u(PartialInterpretation.empty(domain), sigma, limits)
    return definitions.constrained_completions([], i, limits, _consts(sigma))


def _expandable(phi, base: PartialInterpretation, limits: Limits) -> bool:
    """Whether some exact value of phi's symbols outside base makes it t: on
    an exact base, for some value of those constants, the supervaluation
    with those predicate symbols u is not f."""
    extra = [s for s in free_symbols(phi) if not base.interprets(s)]
    return any(evaluate(phi, _all_u(j, extra, limits), SUPERVALUATION, limits) is not F
               for j in definitions.constrained_completions([], base, limits, _consts(extra)))


def sigma_equivalent(
    phi1,
    phi2,
    sigma: Sequence[Symbol],
    domain: Sequence,
    limits: Limits = DEFAULT_LIMITS,
) -> bool:
    """Same Σ-restricted model class: every exact Σ-interpretation over
    the domain is expandable to a model of phi1 iff of phi2."""
    for base in _sigma_bases(sigma, domain, limits):
        if _expandable(phi1, base, limits) != _expandable(phi2, base, limits):
            return False
    return True
