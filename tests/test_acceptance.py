"""End-to-end acceptance gate: ten criteria, one test (and one pass/fail
line) each.

Every criterion is checked against an oracle that is independent of the
implementation under test: brute-force completion enumeration, the
classical stable operator, Floyd-Warshall, backward induction, and
exhaustive model enumeration.  Run with -s to see the per-criterion
lines; `pytest -v` shows one PASSED/FAILED line per criterion either
way."""

import functools
import itertools
import random

from click.testing import CliRunner

from deflog.cli import main as cli_main
from deflog.definitions import partial_stable_models, stable_models, well_founded_model
from deflog.evaluator import KLEENE, SUPERVALUATION, evaluate, evaluate_exact
from deflog.interpretation import PartialInterpretation, read_structure
from deflog.parser import parse_formula, parse_ruleset
from deflog.syntax import And, Atom1, Not, Or, Rule, RuleSet, free_symbols, unparse
from deflog.templates import (
    apply_library, check_correspondence, eliminate_so, macro_expand,
    sigma_equivalent, templify,
)
from deflog.truthvalues import (
    F, T, TV, U, PartialSet, approx_aggregate, conj, disj, iff, implies, leq_prec,
    neg,
)
from deflog.vocab import Symbol, Vocabulary, pred

from conftest import GOLDEN
from gen import PROPS, random_formula, random_interpretation, random_ruleset
from oracles import (
    approx_quantifier, classical_eval, completions, exact_set, super_oracle,
)
from test_cli import CASES as CLI_CASES
from test_definitions import as_interpretation, gamma, oracle_wfm
from test_templates import (
    backward_induction, exact_relations, is_equivalence, library, load, warshall,
)
from test_truthvalues import aggregate_oracle, classical, quantifier_oracle

THREE = (T, U, F)


def criterion(n: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n:2d} ({title}): FAIL")
                raise
            print(f"criterion {n:2d} ({title}): pass")
        return wrapper
    return deco


def prop_struct(**values):
    vocab = Vocabulary.of(PROPS)
    lines = "\n".join(f"{k} = {{(): {v}}}" for k, v in values.items())
    return read_structure(f"domain = {{a}}\n{lines}\n", vocab)


def prop(text):
    return parse_formula(text, Vocabulary.of(PROPS))


@criterion(1, "kleene vs supervaluation contrast")
def test_criterion_01_mode_contrast():
    i = prop_struct(p="u", q="u")
    assert evaluate(prop("p | ~p"), i, KLEENE) is U
    assert evaluate(prop("p | ~p"), i, SUPERVALUATION) is T
    assert evaluate(prop("p | q"), i, KLEENE) is U
    assert evaluate(prop("p | q"), i, SUPERVALUATION) is U


@criterion(2, "ultimate approximations, exhaustive")
def test_criterion_02_ultimate_approximations():
    tables = {
        neg: lambda a: TV.of(a is F),
        conj: lambda a, b: TV.of(a is T and b is T),
        disj: lambda a, b: TV.of(a is T or b is T),
        implies: lambda a, b: TV.of(a is F or b is T),
        iff: lambda a, b: TV.of(a is b),
    }
    for fn, cls in tables.items():
        arity = 1 if fn is neg else 2
        for args in itertools.product(THREE, repeat=arity):
            assert fn(*args) is classical(cls, list(args))
    for q in ("forall", "exists"):
        for size in range(5):
            for values in itertools.product(THREE, repeat=size):
                s = PartialSet(tuple(range(size)), values)
                assert approx_quantifier(q, s) is quantifier_oracle(q, s)
    for cmp in ("=", "<", ">"):
        for size in range(5):
            for values in itertools.product(THREE, repeat=size):
                s = PartialSet(tuple((i,) for i in range(size)), values)
                for n in range(-1, size + 2):
                    assert approx_aggregate("card", cmp, s, n) is \
                        aggregate_oracle("card", cmp, s, n)
        weights = (-2, 1, 3)
        for values in itertools.product(THREE, repeat=len(weights)):
            s = PartialSet(tuple((w,) for w in weights), values)
            for n in range(-3, 5):
                assert approx_aggregate("sum", cmp, s, n) is \
                    aggregate_oracle("sum", cmp, s, n)


@criterion(3, "truth assignment axioms, 500 random formulas")
def test_criterion_03_truth_assignment_axioms():
    rng = random.Random(101)
    for _ in range(500):
        e = random_formula(rng, rng.randint(0, 3))
        i = random_interpretation(rng, domain=("a", "b"))
        vk = evaluate(e, i, KLEENE)
        vs = evaluate(e, i, SUPERVALUATION)
        # mode order and supervaluation oracle
        assert leq_prec(vk, vs)
        assert vs is super_oracle(e, i)
        # exactness: on a completion both modes turn classical
        exact = next(completions(i, i.predicate_symbols()))
        expected = T if classical_eval(e, exact) else F
        assert evaluate(e, exact, KLEENE) is expected
        assert evaluate(e, exact, SUPERVALUATION) is expected
        # <=p-monotonicity under a single-atom refinement
        unknown = i.u_atoms(i.predicate_symbols())
        if unknown:
            j = i.revise([rng.choice(unknown)], rng.choice((T, F)))
            assert leq_prec(vk, evaluate(e, j, KLEENE))
            assert leq_prec(vs, evaluate(e, j, SUPERVALUATION))
        # locality: an interpretation agreeing on the free symbols agrees
        other = random_interpretation(rng, domain=("a", "b"))
        merged = other
        for s in free_symbols(e):
            if s.type.is_predicate:
                merged = merged._expand(s, i.value(s))
        assert evaluate(e, merged, KLEENE) is vk
        assert evaluate(e, merged, SUPERVALUATION) is vs


@criterion(4, "rule set semantics on canonical programs")
def test_criterion_04_canonical_programs():
    vocab = Vocabulary.of(PROPS)
    o = PartialInterpretation.empty(("a",))
    p, q = vocab.get("p"), vocab.get("q")

    def vals(i, *syms):
        return "".join(str(i.value(s).value(())) for s in syms)

    d = parse_ruleset("{p <- ~q. q <- ~p.}", vocab)
    assert {vals(m, p, q) for m in partial_stable_models(d, o)} == {"uu", "tf", "ft"}
    assert vals(well_founded_model(d, o), p, q) == "uu"
    assert {vals(m, p, q) for m in stable_models(d, o)} == {"tf", "ft"}

    d = parse_ruleset("{p <- p.}", vocab)
    assert vals(well_founded_model(d, o), p) == "f"

    d = parse_ruleset("{p <- ~p.}", vocab)
    assert vals(well_founded_model(d, o), p) == "u"
    assert stable_models(d, o) == []


@criterion(5, "WFM/stable coherence, 1000 sampled rule sets")
def test_criterion_05_wfm_stable_coherence():
    rng = random.Random(103)
    o = PartialInterpretation.empty(("a",))
    for k in range(1000):
        monotone = k % 10 < 3  # 300 of the 1000 samples are negation-free
        d = random_ruleset(rng, negation=not monotone)
        wfm = well_founded_model(d, o)
        models = stable_models(d, o)
        if wfm.is_exact:
            assert models == [wfm], f"{d}"
        if monotone:
            assert wfm.is_exact
            lfp = gamma(d, frozenset())
            for s in d.defined_symbols:
                assert wfm.value(s).value(()) is (T if s in lfp else F)
        # cross-check against the alternating-fixpoint oracle
        true, possible = oracle_wfm(d)
        assert wfm == as_interpretation(d, true, possible)


# --- criterion 6: kleene-equivalent body substitution -----------------------


def kleene_body_oracle(e, asg):
    """Independent three-valued body evaluation on the f<u<t chain."""
    rank = {F: 0, U: 1, T: 2}
    by_rank = {0: F, 1: U, 2: T}
    if isinstance(e, Atom1):
        return asg[e.predicate]
    if isinstance(e, Not):
        return by_rank[2 - rank[kleene_body_oracle(e.body, asg)]]
    ranks = [rank[kleene_body_oracle(a, asg)] for a in e.args]
    return by_rank[min(ranks) if isinstance(e, And) else max(ranks)]


def sides(e):
    """The left and right operand of a run read as its left-nested chain."""
    *left, right = e.args
    return (left[0] if len(left) == 1 else type(e)(*left)), right


def equivalent_rewrite(rng, e):
    """A random Kleene-equivalence-preserving rewrite of a body."""
    roll = rng.random()
    if roll < 0.2:
        return Not(Not(e))
    if isinstance(e, And) and roll < 0.4:
        return Not(Or(*[Not(s) for s in sides(e)]))  # De Morgan
    if isinstance(e, Or) and roll < 0.4:
        return Not(And(*[Not(s) for s in sides(e)]))
    if isinstance(e, (And, Or)) and roll < 0.6:
        return type(e)(*reversed(sides(e)))  # commutativity
    if roll < 0.75:
        return Or(e, e) if rng.random() < 0.5 else And(e, e)  # idempotence
    if isinstance(e, Not):
        return Not(equivalent_rewrite(rng, e.body))
    if isinstance(e, (And, Or)):
        left, right = sides(e)
        return type(e)(equivalent_rewrite(rng, left), right)
    return Not(Not(e))


@criterion(6, "body substitution preserves partial stable models")
def test_criterion_06_body_substitution():
    rng = random.Random(107)
    o = PartialInterpretation.empty(("a",))
    checked = 0
    while checked < 100:
        d = random_ruleset(rng)
        idx = rng.randrange(len(d.rules))
        old = d.rules[idx]
        body2 = old.body
        for _ in range(rng.randint(1, 3)):
            body2 = equivalent_rewrite(rng, body2)
        # dual route: confirm the rewrite really is kleene-equivalent
        syms = sorted(
            {s for s in free_symbols(old.body) | free_symbols(body2)},
            key=lambda s: s.name,
        )
        for combo in itertools.product(THREE, repeat=len(syms)):
            asg = dict(zip(syms, combo))
            assert kleene_body_oracle(old.body, asg) is \
                kleene_body_oracle(body2, asg)
        rules2 = list(d.rules)
        rules2[idx] = Rule(old.head, old.head_vars, body2)
        d2 = RuleSet(tuple(rules2))
        key = lambda m: tuple(
            str(m.value(s).value(()))
            for s in sorted(d.defined_symbols, key=lambda x: x.name)
        )
        got = sorted(map(key, partial_stable_models(d, o)))
        got2 = sorted(map(key, partial_stable_models(d2, o)))
        assert got == got2, f"{d}  vs  {d2}"
        checked += 1


@criterion(7, "template listings against combinatorial oracles")
def test_criterion_07_template_listings():
    # equivalence relations at |D| = 2 and 3
    th = load("eq.theory")
    sym = th.vocabulary.get("isEqRelation")
    for domain in (("a", "b"), ("a", "b", "c")):
        value = apply_library(
            PartialInterpretation.empty(domain), library(th)
        ).value(sym)
        for rel in exact_relations(domain, 2):
            assert (value.value((rel,)) is T) == is_equivalence(rel, domain)

    # transitive closure vs Floyd-Warshall, all 16 x 16 pairs at |D| = 2
    th = load("tc.theory")
    sym = th.vocabulary.get("tc")
    domain = ("a", "b")
    value = apply_library(
        PartialInterpretation.empty(domain), library(th)
    ).value(sym)
    for p_rel in exact_relations(domain, 2):
        closure = warshall(p_rel, domain)
        for q_rel in exact_relations(domain, 2):
            assert (value.value((p_rel, q_rel)) is T) == (q_rel == closure)

    # integer range: range(P, 1, 3) holds exactly of P = {1, 2, 3}
    th = load("range.theory")
    sym = th.vocabulary.get("range")
    domain = (1, 2, 3)
    value = apply_library(
        PartialInterpretation.empty(domain), library(th)
    ).value(sym)
    for rel in exact_relations(domain, 1):
        assert (value.value((rel, 1, 3)) is T) == (
            rel == frozenset({(1,), (2,), (3,)})
        )

    # win/lose positions vs backward induction on every acyclic 4-node graph
    th = load("game.theory")
    win_s, lose_s = th.vocabulary.get("win"), th.vocabulary.get("lose")
    lib = library(th)
    nodes = (1, 2, 3, 4)
    pairs = [(a, b) for a in nodes for b in nodes if a != b]

    def acyclic(edges):
        seen, done = set(), set()

        def visit(n):
            if n in done:
                return True
            if n in seen:
                return False
            seen.add(n)
            ok = all(visit(b) for a, b in edges if a == n)
            done.add(n)
            return ok

        return all(visit(n) for n in nodes)

    rng = random.Random(109)
    dags = 0
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        moves = frozenset(p for p, b in zip(pairs, bits) if b)
        if not acyclic(moves):
            continue
        dags += 1
        is_won = frozenset(n for n in nodes if rng.random() < 0.25)
        iswon_rel = frozenset((n,) for n in is_won)
        carriers = {
            s: [(n, moves, iswon_rel) for n in nodes] for s in (win_s, lose_s)
        }
        out = apply_library(
            PartialInterpretation.empty(nodes), lib, so_instances=carriers
        )
        win, lose = backward_induction(nodes, moves, is_won)
        for n in nodes:
            key = (n, moves, iswon_rel)
            assert (out.value(win_s).value(key) is T) == win[n]
            assert (out.value(lose_s).value(key) is T) == lose[n]
    assert dags == 543  # number of DAGs on 4 labeled nodes


# --- criterion 8: templification correspondence -----------------------------

VOCAB8 = Vocabulary.of(
    [Symbol("A", pred(1)), Symbol("B", pred(1)), Symbol("E", pred(2))]
)
BODY_POOL = [
    "B(x)",
    "~B(x)",
    "A(x)",
    "(?y: E(x, y) & A(y))",
    "(?y: E(y, x))",
    "~(?y: E(x, y) & A(y))",  # negation through the recursion: may be non-total
]


def random_definition(rng):
    rules = []
    for _ in range(rng.randint(1, 3)):
        parts = rng.sample(BODY_POOL, rng.randint(1, 2))
        op = "&" if rng.random() < 0.5 else "|"
        rules.append(f"A(x) <- {f' {op} '.join(parts)}.")
    return parse_ruleset("{" + " ".join(rules) + "}", VOCAB8)


@criterion(8, "templification correspondence, 200 instances")
def test_criterion_08_templification():
    rng = random.Random(113)
    checked = skipped = 0
    while checked + skipped < 200:
        d = random_definition(rng)
        opens = tuple(sorted(d.parameters, key=lambda s: s.name))
        dt, mapping = templify(d, opens)
        domain = ("a",) if rng.random() < 0.5 else ("a", "b")
        it = well_founded_model(dt, PartialInterpretation.empty(domain))
        for _ in range(4):
            if checked + skipped >= 200:
                break
            valuation = {}
            for o in opens:
                carrier = list(itertools.product(domain, repeat=o.type.arity))
                members = [k for k in carrier if rng.random() < 0.5]
                valuation[o] = exact_set(carrier, members)
            context = PartialInterpretation.make(domain, valuation)
            i = well_founded_model(d, context)
            if i is None or not i.is_exact:
                skipped += 1  # Δ is not total in this context
                continue
            assert check_correspondence(d, dt, mapping, i, it, opens), f"{d}"
            checked += 1
    print(f"criterion  8 detail: {checked} checked, "
          f"{skipped} non-total skipped (rate {skipped / 200:.0%})")
    assert checked >= 100


# --- criterion 9: rewrite equivalence and size growth -----------------------

ESO_VOCAB = Vocabulary.of([Symbol("P", pred(2)), Symbol("R", pred(1))])
CLOSED_POOL = [
    "(?x: S(x))",
    "(!x: S(x) | R(x))",
    "(!x: S(x) => (?y: P(x, y)))",
    "(?x: ~S(x) & R(x))",
]
OPEN_POOL = [
    "S(x)",
    "R(x)",
    "(!y: S(y) => P(x, y))",
    "(?y: S(y) & P(y, x))",
]


def random_eso(rng):
    if rng.random() < 0.5:
        parts = rng.sample(CLOSED_POOL, rng.randint(2, 3))
        op = " & " if rng.random() < 0.7 else " | "
        return f"?? S[pred/1]: {op.join(parts)}"
    parts = rng.sample(OPEN_POOL, rng.randint(2, 3))
    op = " & " if rng.random() < 0.7 else " | "
    return f"!x: ?? S[pred/1]: {op.join(parts)}"


@criterion(9, "rewrite equivalence and polynomial size growth")
def test_criterion_09_rewrites():
    rng = random.Random(127)

    # macro expansion over a fixed simple-template library
    th = load("eq.theory")
    lib = library(th)
    eq_sym = th.vocabulary.get("isEqRelation")
    p_sym, q_sym = th.vocabulary.get("P"), th.vocabulary.get("Q")
    atoms = ["isEqRelation(P)", "isEqRelation(Q)"]
    max_ratio = 0.0
    for _ in range(50):
        n = rng.randint(1, 3)
        text = f" {'&' if rng.random() < 0.5 else '|'} ".join(
            rng.choice(atoms) for _ in range(n)
        )
        phi = parse_formula(text, th.vocabulary)
        expanded = macro_expand(phi, lib)
        max_ratio = max(max_ratio, len(unparse(expanded)) / len(unparse(phi)))
        for domain in (("a",), ("a", "b")):
            # the template takes no user parameters: its value is fixed
            # per domain, so compute it once and splice it into each base
            tval = apply_library(
                PartialInterpretation.empty(domain), lib
            ).value(eq_sym)
            carrier = list(itertools.product(domain, repeat=2))
            for p_rel in exact_relations(domain, 2):
                for q_rel in exact_relations(domain, 2):
                    base = PartialInterpretation.make(
                        domain,
                        {p_sym: exact_set(carrier, p_rel),
                         q_sym: exact_set(carrier, q_rel)},
                    )
                    lhs = evaluate_exact(phi, base.expand(eq_sym, tval))
                    rhs = evaluate_exact(expanded, base)
                    assert lhs is rhs, text

    # second order quantifier elimination
    sigma = sorted(
        [ESO_VOCAB.get("P"), ESO_VOCAB.get("R")], key=lambda s: s.name
    )
    for k in range(50):
        phi = parse_formula(random_eso(rng), ESO_VOCAB)
        matrix, _ = eliminate_so(phi)
        max_ratio = max(max_ratio, len(unparse(matrix)) / len(unparse(phi)))
        assert sigma_equivalent(phi, matrix, sigma, ("a",))
        if k % 5 == 0:  # the |D| = 2 enumeration is the expensive one
            assert sigma_equivalent(phi, matrix, sigma, ("a", "b"))

    # polynomial-growth smoke check: C = 16, k = 2 for these libraries
    print(f"criterion  9 detail: max output/input size ratio {max_ratio:.2f} "
          "(bound C*|phi|^2 with C = 16)")
    assert max_ratio <= 16  # every sampled output fits len <= 16 * len^2


@criterion(10, "CLI determinism against golden files")
def test_criterion_10_cli_determinism():
    runner = CliRunner()
    for golden, argv, code in CLI_CASES:
        first = runner.invoke(cli_main, argv)
        again = runner.invoke(cli_main, argv)
        assert first.exit_code == code, golden
        assert first.output == again.output, golden
        assert first.output == (GOLDEN / golden).read_text(), golden
