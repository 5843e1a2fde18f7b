"""Random formula / rule set generators shared by the randomized suites.

Plain `random.Random` generators (seeded per test) rather than
hypothesis strategies: the suites need joint control over formula depth,
vocabulary and interpretation, and must report reproducible sample
counts.
"""

import itertools
import random

from deflog.interpretation import PartialInterpretation
from deflog.syntax import (
    AddTerm, Aggregate, And, Atom1, Atom2, Cmp, DefinitionExpr, ExistsFO, ExistsSO,
    ForallFO, ForallSO, Iff, Implies, IntTerm, Let, Not, Or, Rule, RuleSet,
    SymTerm,
)
from deflog.truthvalues import F, T, U, PartialSet
from deflog.vocab import CONST, Symbol, pred, so_pred

# a small propositional-to-unary vocabulary for randomized suites
P0 = Symbol("p", pred(0))
Q0 = Symbol("q", pred(0))
R0 = Symbol("r", pred(0))
P1 = Symbol("s", pred(1))

PROPS = (P0, Q0, R0)

# a second order predicate over unary relations, and one defined by rules
SO1 = Symbol("E", so_pred(pred(1)))
SO_HEAD = Symbol("D", so_pred(pred(1)))


def random_formula(rng: random.Random, depth: int, preds=PROPS, domain_vars=()):
    """A random formula of the given connective depth over 0-ary predicates
    (plus optional unary atoms over bound domain variables)."""
    atoms = [Atom1(p, ()) for p in preds]
    atoms += [Atom1(P1, (SymTerm(v),)) for v in domain_vars]
    if depth == 0:
        return rng.choice(atoms)
    kind = rng.choice(("not", "and", "or", "implies", "iff", "exists", "forall"))
    if kind == "not":
        return Not(random_formula(rng, depth - 1, preds, domain_vars))
    if kind in ("and", "or", "implies", "iff"):
        node = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
        return node(
            random_formula(rng, depth - 1, preds, domain_vars),
            random_formula(rng, depth - 1, preds, domain_vars),
        )
    # quantified variables carry the 0-ary function type, as in the parser
    var = Symbol(f"x{len(domain_vars)}", CONST)
    node = ExistsFO if kind == "exists" else ForallFO
    return node(var, random_formula(rng, depth - 1, preds, domain_vars + (var,)))


def random_interpretation(rng: random.Random, domain=("a",), preds=PROPS, unary=(P1,)):
    """A random partial interpretation of the generator vocabulary."""
    valuation = {}
    for p in preds:
        valuation[p] = PartialSet.from_map({(): rng.choice((T, U, F))})
    for p in unary:
        valuation[p] = PartialSet.from_map(
            {(d,): rng.choice((T, U, F)) for d in domain}
        )
    return PartialInterpretation.make(domain, valuation)


def random_body(rng: random.Random, atoms, depth: int):
    """A random propositional rule body over the given atom formulas."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    kind = rng.choice(("not", "and", "or"))
    if kind == "not":
        return Not(random_body(rng, atoms, depth - 1))
    node = And if kind == "and" else Or
    return node(random_body(rng, atoms, depth - 1), random_body(rng, atoms, depth - 1))


def random_ruleset(
    rng: random.Random, n_atoms: int = 3, max_rules: int = 4, depth: int = 2,
    negation: bool = True,
) -> RuleSet:
    """A random propositional rule set over at most n_atoms symbols.

    Every symbol gets at least one rule, so the rule set has no
    parameters and needs no context."""
    symbols = PROPS[: rng.randint(1, n_atoms)]
    atoms = [Atom1(p, ()) for p in symbols]
    make_body = random_body if negation else random_monotone_body
    rules = [Rule(s, (), make_body(rng, atoms, depth)) for s in symbols]
    for _ in range(rng.randint(0, max_rules - len(symbols))):
        rules.append(Rule(rng.choice(symbols), (), make_body(rng, atoms, depth)))
    return RuleSet(tuple(rules))


def random_monotone_body(rng: random.Random, atoms, depth: int):
    """Negation-free body: conjunctions/disjunctions of positive atoms."""
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(atoms)
    node = And if rng.random() < 0.5 else Or
    return node(
        random_monotone_body(rng, atoms, depth - 1),
        random_monotone_body(rng, atoms, depth - 1),
    )


def exact_prop_interpretations(symbols, domain=("a",)):
    """All exact interpretations of 0-ary predicates over the domain."""
    for combo in itertools.product((T, F), repeat=len(symbols)):
        yield PartialInterpretation.make(
            domain,
            {s: PartialSet.from_map({(): v}) for s, v in zip(symbols, combo)},
        )


TREE_KINDS = (
    "not", "and", "or", "implies", "iff", "forall", "exists", "forall2",
    "exists2", "aggregate", "definition", "let",
)


def random_term(rng: random.Random, fo_vars, consts):
    """A bound variable, a constant, an integer or one of them plus 1."""
    t = rng.choice([SymTerm(v) for v in fo_vars + consts] + [IntTerm(rng.randint(0, 3))])
    return AddTerm(t, IntTerm(1)) if rng.random() < 0.25 else t


def random_tree(rng: random.Random, depth: int, fo_vars=(), so_vars=(), consts=()):
    """A random formula over every node kind: first and second order
    atoms, comparisons, the connectives, both kinds of quantifier,
    aggregates, definitions and let-blocks (rules with first or second
    order heads).  Meant for syntactic walkers, not for evaluation.
    With `consts`, unary atoms and comparisons also read those constant
    symbols, integers and sums (`random_term`), over integer domains."""
    if depth == 0:
        kind = rng.choice(("atom1", "atom2", "cmp"))
        if consts and kind != "atom2":
            args = [random_term(rng, fo_vars, consts) for _ in range(2)]
            if kind == "cmp":
                return Cmp(rng.choice("=<>"), *args)
            return Atom1(P1, (args[0],)) if rng.random() < 0.7 else Atom1(rng.choice(PROPS), ())
        if kind == "atom1":
            if fo_vars and rng.random() < 0.5:
                return Atom1(P1, (SymTerm(rng.choice(fo_vars)),))
            return Atom1(rng.choice(PROPS), ())
        if kind == "atom2":
            rel = rng.choice(so_vars) if so_vars else P1
            return Atom2(SO1, (SymTerm(rel),))
        left = SymTerm(rng.choice(fo_vars)) if fo_vars else IntTerm(1)
        return Cmp(rng.choice("=<>"), left, IntTerm(rng.randint(0, 2)))

    def sub(fo=fo_vars, so=so_vars):
        return random_tree(rng, depth - 1, fo, so, consts)

    kind = rng.choice(TREE_KINDS)
    if kind == "not":
        return Not(sub())
    if kind in ("and", "or", "implies", "iff"):
        node = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
        return node(sub(), sub())
    if kind in ("forall", "exists", "aggregate"):
        var = Symbol(f"x{len(fo_vars)}", CONST)
        if kind == "aggregate":
            return Aggregate(
                rng.choice(("card", "sum")), rng.choice("=<>"), (var,),
                sub(fo_vars + (var,)), IntTerm(rng.randint(0, 2)),
            )
        node = ForallFO if kind == "forall" else ExistsFO
        return node(var, sub(fo_vars + (var,)))
    if kind in ("forall2", "exists2"):
        var = Symbol(f"X{len(so_vars)}", pred(1))
        node = ForallSO if kind == "forall2" else ExistsSO
        return node(var, sub(so=so_vars + (var,)))
    rules = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.2:
            y = Symbol("Y", pred(1))
            rules.append(Rule(SO_HEAD, (y,), sub(so=so_vars + (y,))))
        else:
            rules.append(Rule(rng.choice(PROPS), (), sub()))
    rs = RuleSet(tuple(rules))
    return DefinitionExpr(rs) if kind == "definition" else Let(rs, sub())
