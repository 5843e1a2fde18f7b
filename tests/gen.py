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
from deflog.vocab import CONST, Symbol, pred, predicate_carrier, so_pred

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


def random_tree(rng: random.Random, depth: int, fo_vars=(), so_vars=(), consts=(), rels=()):
    """A random formula over every node kind: first and second order
    atoms, comparisons, the connectives, both kinds of quantifier,
    aggregates, definitions and let-blocks (rules with first or second
    order heads).  Meant for syntactic walkers, not for evaluation.
    With `consts`, unary atoms and comparisons also read those constant
    symbols, integers and sums (`random_term`), over integer domains.
    With `rels`, first order atoms also read those relation variables, at
    bound variables or integers."""
    if depth == 0:
        kind = rng.choice(("atom1", "atom2", "cmp"))
        if rels and kind == "atom1" and rng.random() < 0.6:
            rel = rng.choice(rels)
            return Atom1(rel, tuple(SymTerm(rng.choice(fo_vars)) if fo_vars and rng.random() < 0.8
                                    else IntTerm(rng.randint(1, 3)) for _ in range(rel.type.arity)))
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
        return random_tree(rng, depth - 1, fo, so, consts, rels)

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


# guarded rules: a first order quantifier whose body holds a parameter atom
# over its variable (the guard) beside atoms of the defined R and W
EDGE, MARK = Symbol("e", pred(2)), Symbol("m", pred(1))  # parameters
REACH, WIN = Symbol("R", pred(2)), Symbol("W", pred(1))  # defined
CON = Symbol("c", CONST)
SO_WIN = Symbol("S", so_pred(pred(1)))  # read at W: an Atom2 conjunct
LOCAL = Symbol("k", pred(0))  # defined by a let-block conjunct
GUARDED = (EDGE, MARK, REACH, WIN, SO_WIN)
X, Y, Z = (Symbol(n, CONST) for n in "xyz")


def _atom(p, *args):
    return Atom1(p, tuple(a if isinstance(a, (IntTerm, AddTerm)) else SymTerm(a) for a in args))


# the perfbench shapes: reach, win, and win's dual under !/=>
REACH_RULE = Rule(REACH, (X, Y), Or(_atom(EDGE, X, Y), ExistsFO(Z, And(
    _atom(REACH, X, Z), _atom(EDGE, Z, Y)))))
WIN_RULE = Rule(WIN, (X,), ExistsFO(Y, And(_atom(EDGE, X, Y), Not(_atom(WIN, Y)))))
DUAL_RULE = Rule(WIN, (X,), ForallFO(Y, Implies(_atom(EDGE, X, Y), _atom(WIN, Y))))


def guarded_conjunct(rng: random.Random, scope: tuple, depth: int):
    """A conjunct beside a guard: mostly an atom of R or W, a negation, a
    comparison or a nested guarded quantifier; at times one that turns
    the bound off (a card aggregate, an Atom2, a let-block, or m where it
    has u atoms), each able to raise, record or create memo keys where
    the guard is f."""
    roll = rng.random()
    if depth > 0 and roll < 0.2:
        return guarded_quantifier(rng, scope, depth - 1)
    if roll < 0.3:
        return Not(guarded_conjunct(rng, scope, depth))
    if roll < 0.38:
        return Cmp(rng.choice("=<>"), SymTerm(rng.choice(scope)),
                   rng.choice((SymTerm(rng.choice(scope)), IntTerm(2))))
    if roll < 0.42:  # its bound raises at a domain element that is no integer
        w = Symbol(f"w{len(scope)}", CONST)
        return Aggregate("card", ">", (w,), _atom(REACH, rng.choice(scope), w),
                         rng.choice((IntTerm(0), SymTerm(rng.choice(scope)))))
    if roll < 0.45:  # completes W's u atoms, under the unknowns cap
        return Atom2(SO_WIN, (SymTerm(WIN),))
    if roll < 0.48:  # creates memo keys holding the scope's values
        return Let(RuleSet((Rule(LOCAL, (), _atom(WIN, rng.choice(scope))),)), Atom1(LOCAL, ()))
    if roll < 0.52:
        return _atom(MARK, rng.choice(scope))
    if rng.random() < 0.5:
        return _atom(WIN, rng.choice(scope))
    return _atom(REACH, rng.choice(scope), rng.choice(scope))


def guarded_quantifier(rng: random.Random, scope: tuple, depth: int = 1):
    """?v: e(..) & φ.. or !v: e(..) => φ, e's arguments being v and variables
    in scope (both v at times), or at times a constant, an integer or a sum."""
    v = Symbol(f"z{len(scope)}", CONST)
    inner = scope + (v,)
    args = []
    for _ in range(2):
        roll = rng.random()
        args.append(CON if roll < 0.05 else IntTerm(rng.randint(1, 3)) if roll < 0.1
                    else AddTerm(SymTerm(rng.choice(inner)), IntTerm(1)) if roll < 0.14
                    else rng.choice(inner))
    args[rng.randrange(2)] = v
    guard = _atom(EDGE, *args)
    rest = [guarded_conjunct(rng, inner, depth) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.6:
        parts = [guard, *rest]
        rng.shuffle(parts)
        return ExistsFO(v, And(*parts))
    return ForallFO(v, Implies(guard, rest[0] if len(rest) == 1 else And(*rest)))


def random_guarded_rules(rng: random.Random) -> RuleSet:
    """A rule set defining R and W, each by a fixed shape or a random
    guarded body, with at most two more random guarded rules."""
    def body(head_vars):
        q = guarded_quantifier(rng, head_vars, rng.randint(0, 2))
        return Or(_atom(EDGE, X, head_vars[-1]), q) if rng.random() < 0.3 else q

    rules = [rng.choice((REACH_RULE, Rule(REACH, (X, Y), body((X, Y))))),
             rng.choice((WIN_RULE, DUAL_RULE, Rule(WIN, (X,), body((X,)))))]
    for _ in range(rng.randint(0, 2)):
        head, hv = rng.choice(((REACH, (X, Y)), (WIN, (X,))))
        rules.append(Rule(head, hv, body(hv)))
    return RuleSet(tuple(rules))


def guarded_context(rng: random.Random, symbols, domain, p_unknown: float, exact=()):
    """An interpretation of `symbols` (of GUARDED) and, at times, of the
    constant c: e is f at about three in four tuples, and every atom of a
    symbol not in `exact` is u with probability p_unknown."""
    valuation = {sym: PartialSet.from_map({
        key: U if sym not in exact and rng.random() < p_unknown else
        F if sym is EDGE and rng.random() < 0.5 else rng.choice((T, F))
        for key in predicate_carrier(sym.type, domain)}) for sym in symbols}
    if rng.random() < 0.9:
        valuation[CON] = rng.choice(domain)
    return PartialInterpretation.make(domain, valuation)
