"""Three-valued evaluation: Kleene mode, supervaluation mode, and the
truth-assignment axioms (locality, exactness, precision monotonicity).

Oracles (in oracles.py): a tiny independent classical evaluator for the
generator fragment; the supervaluation oracle is its glb over completions;
the Kleene evaluator as first written (an isinstance walker binding each
variable by expanding the interpretation) for the compiled closures."""

import collections
import functools
import itertools
import random
import weakref

import pytest

from deflog import definitions, evaluator
from deflog.errors import (
    CapExceeded, DeflogError, EvaluationError, NonTotalDefinitionError,
)
from deflog.evaluator import KLEENE, SUPERVALUATION, EvalContext, evaluate, evaluate_exact
from deflog.interpretation import PartialInterpretation, read_structure
from deflog.limits import Limits
from deflog.parser import parse_formula, parse_theory
from deflog.syntax import (
    Aggregate, And, Atom1, DefinitionExpr, ExistsFO, ExistsSO, ForallFO,
    Iff, IntTerm, Let, Not, Or, Rule, RuleSet, SymTerm, fold, free_symbols,
    unparse,
)
from deflog.truthvalues import F, T, U, PartialSet, leq_prec
from deflog.vocab import CONST, DomainAtom, Symbol, Vocabulary, pred, predicate_carrier

from gen import (
    P0, P1, PROPS, Q0, R0, SO1, SO_HEAD, random_formula, random_interpretation,
    random_tree,
)
import oracles
from oracles import (
    bind_head, body_values, classical_eval, completions, exact_completions, flat_supervaluation,
    glb, has_waiting_leaf, oracle_kv, oracle_residual_search, super_oracle,
)

SAMPLES = 500


def parse(text, names="p q s"):
    vocab = Vocabulary.of([P0, Q0, P1])
    return parse_formula(text, vocab)


def struct(text):
    return read_structure(text, Vocabulary.of([P0, Q0, P1]))


class TestModeContrast:
    """The supervaluation is at least as precise as Kleene, strictly so
    on excluded-middle instances."""

    def test_excluded_middle_with_unknown_p(self):
        i = struct("domain = {a}\np = {(): u}\n")
        e = parse("p | ~p")
        assert evaluate(e, i, KLEENE) is U
        assert evaluate(e, i, SUPERVALUATION) is T

    def test_disjunction_of_distinct_unknowns_stays_unknown(self):
        i = struct("domain = {a}\np = {(): u}\nq = {(): u}\n")
        e = parse("p | q")
        assert evaluate(e, i, KLEENE) is U
        assert evaluate(e, i, SUPERVALUATION) is U

    def test_contradiction(self):
        i = struct("domain = {a}\np = {(): u}\n")
        e = parse("p & ~p")
        assert evaluate(e, i, KLEENE) is U
        assert evaluate(e, i, SUPERVALUATION) is F


class TestAxioms:
    """Randomized: the three truth-assignment axioms in both modes."""

    def test_exactness_both_modes_match_classical(self):
        rng = random.Random(11)
        for _ in range(SAMPLES // 2):
            e = random_formula(rng, rng.randint(0, 3))
            i = random_interpretation(rng, domain=("a", "b"))
            # force an exact interpretation
            i = next(completions(i, i.predicate_symbols()))
            expected = T if classical_eval(e, i) else F
            assert evaluate(e, i, KLEENE) is expected
            assert evaluate(e, i, SUPERVALUATION) is expected
            assert evaluate_exact(e, i) is expected

    def test_precision_monotonicity_and_mode_order(self):
        rng = random.Random(13)
        for _ in range(SAMPLES):
            e = random_formula(rng, rng.randint(0, 3))
            i = random_interpretation(rng, domain=("a", "b"))
            vk, vs = evaluate(e, i, KLEENE), evaluate(e, i, SUPERVALUATION)
            # kleene <=p supervaluation pointwise
            assert leq_prec(vk, vs)
            # supervaluation mode equals the brute-force oracle
            assert vs is super_oracle(e, i)
            # refine one unknown atom: both modes may only gain precision
            unknown = i.u_atoms(i.predicate_symbols())
            if unknown:
                j = i.revise([rng.choice(unknown)], rng.choice((T, F)))
                assert leq_prec(vk, evaluate(e, j, KLEENE))
                assert leq_prec(vs, evaluate(e, j, SUPERVALUATION))

    def test_locality(self):
        rng = random.Random(17)
        for _ in range(SAMPLES // 5):
            e = random_formula(rng, rng.randint(0, 2))
            i = random_interpretation(rng)
            # interpretations agreeing on the free symbols agree on e
            j = random_interpretation(rng)
            free = free_symbols(e)
            merged = j
            for s in free:
                if s.type.is_predicate:
                    merged = merged._expand(s, i.value(s))
            for mode in (KLEENE, SUPERVALUATION):
                assert evaluate(e, i, mode) is evaluate(e, merged, mode)


class TestConstructs:
    def test_quantifiers_over_partial_unary(self):
        i = struct("domain = {a, b}\ns = {(a): t, (b): u}\n")
        assert evaluate(parse("?x: s(x)"), i) is T
        assert evaluate(parse("!x: s(x)"), i) is U

    def test_comparisons(self):
        i = read_structure("domain = {1..3}\n", Vocabulary.of([P1]))
        assert evaluate(parse("1 < 2"), i) is T
        assert evaluate(parse("?x: x > 2"), i) is T
        assert evaluate(parse("!x: x + 1 > x"), i) is T
        # out-of-domain sums make atoms false, not errors
        assert evaluate(parse("?x: s(x + 3)"), i) is F

    def test_sum_operands_need_not_be_domain_elements(self):
        # only the value of a + 1 must be a domain element, not the 1
        a = Symbol("a", CONST)
        vocab = Vocabulary.of([P1, a])
        i = read_structure("domain = {68..70}\ns = {(69): t, *: f}\na = 68\n", vocab)
        assert evaluate(parse_formula("s(a + 1)", vocab), i) is T
        assert evaluate(parse_formula("?x: x = 68 & s(x + 1)", vocab), i) is T
        # an integer or sum outside the domain still names no element
        assert evaluate(parse_formula("s(1)", vocab), i) is F
        assert evaluate(parse_formula("s(1 + 1)", vocab), i) is F

    def test_equality_on_non_integer_elements(self):
        i = struct("domain = {a, b}\n")
        assert evaluate(parse("?x: ?y: x = y"), i) is T
        assert evaluate(parse("!x: !y: x = y"), i) is F
        # order comparisons are integer-only: false on symbolic elements
        assert evaluate(parse("?x: ?y: x < y"), i) is F

    def test_cardinality_aggregate(self):
        i = struct("domain = {a, b}\ns = {(a): t, (b): u}\n")
        assert evaluate(parse("#{x: s(x)} > 0"), i) is T
        assert evaluate(parse("#{x: s(x)} = 2"), i) is U
        assert evaluate(parse("#{x: s(x)} = 0"), i) is F

    def test_sum_aggregate(self):
        vocab = Vocabulary.of([P1])
        i = read_structure("domain = {1..3}\ns = {(1): t, (2): t, (3): f}\n", vocab)
        e = parse_formula("sum{x: s(x)} = 3", vocab)
        assert evaluate(e, i) is T

    def test_second_order_quantifiers(self):
        i = struct("domain = {a, b}\ns = {(a): t, (b): f}\n")
        assert evaluate(parse("?? X[pred/1]: ((!x: X(x) => s(x)) & (?x: X(x)))"), i) is T
        assert evaluate(parse("!! X[pred/1]: (?x: X(x))"), i) is F  # empty X

    def test_definition_expression_values(self):
        i = struct("domain = {a}\np = {(): t}\nq = {(): f}\n")
        assert evaluate(parse("{p <- ~q.}"), i) is T
        assert evaluate(parse("{p <- q.}"), i) is F

    def test_let_requires_total_definition(self):
        i = struct("domain = {a}\nq = {(): t}\n")
        assert evaluate(parse("let {p <- ~q.} in p"), i) is F
        with pytest.raises(NonTotalDefinitionError):
            evaluate(parse("let {p <- ~p.} in p"), i)

    def test_evaluate_exact_demands_exact_input(self):
        i = struct("domain = {a}\np = {(): u}\n")
        with pytest.raises(EvaluationError):
            evaluate_exact(parse("p"), i)

    def test_unknown_mode_rejected(self):
        i = struct("domain = {a}\np = {(): t}\n")
        with pytest.raises(EvaluationError):
            evaluate(parse("p"), i, "classical")


class TestSecondOrderAtoms:
    def test_partial_so_argument_takes_glb_over_completions(self):
        text = """
        vocab { E: template so-pred(pred/1); s: pred/1; }
        formula f { E(s) }
        """
        th = parse_theory(text)
        E, s = th.vocabulary.get("E"), th.vocabulary.get("s")
        nonempty = PartialSet.from_map(
            {(rel,): T if rel else F
             for rel in [frozenset(), frozenset({("a",)})]}
        )
        exact = PartialInterpretation.make(
            ("a",), {E: nonempty, s: PartialSet.from_map({("a",): T})}
        )
        ctx = EvalContext()
        assert evaluate(th.formulas["f"], exact, _ctx=ctx) is T
        assert ctx.record == set()  # an exact argument is read as its relation
        partial = exact.expand(s, PartialSet.from_map({("a",): U}))
        # s may complete to {} (E false) or {a} (E true): unknown; the
        # argument's u atom is recorded, and E is read at both completions
        ctx = EvalContext()
        assert evaluate(th.formulas["f"], partial, _ctx=ctx) is U
        assert ctx.record == {DomainAtom(s, ("a",))}
        unsure = partial.expand(E, nonempty.with_values({(frozenset(),): U}))
        ctx = EvalContext()
        assert evaluate(th.formulas["f"], unsure, _ctx=ctx) is U
        assert ctx.record == {DomainAtom(s, ("a",)), DomainAtom(E, (frozenset(),))}
        ctx = EvalContext()
        assert evaluate(th.formulas["f"], exact.expand(E, unsure.value(E)), _ctx=ctx) is T
        assert ctx.record == set()  # E is not read at the u key {}


def random_partial(rng, symbols, domain, p_unknown=0.3):
    """A partial interpretation of first and second order predicates,
    each atom unknown with probability p_unknown."""
    valuation = {}
    for sym in symbols:
        valuation[sym] = PartialSet.from_map({
            key: U if rng.random() < p_unknown else rng.choice((T, F))
            for key in predicate_carrier(sym.type, domain)
        })
    return PartialInterpretation.make(domain, valuation)


def exact_holds(e, j) -> bool:
    return evaluate_exact(e, j) is T


def node_kinds(e) -> set:
    """Class names of the nodes of e (aggregates by their function),
    rule bodies included."""
    return fold(e, lambda n, kids: {n.agg if type(n) is Aggregate else type(n).__name__}.union(
        *kids))


class TestPrunedSupervaluation:
    """The supervaluation searches the formula's residual depth first and
    stops below any node where it is constant, a waiting leaf counting as
    u until its atoms are assigned; the oracle is a flat loop over every
    completion."""

    def test_every_node_kind_matches_the_flat_oracle(self):
        rng = random.Random(71)
        symbols = (*PROPS, P1, SO1, SO_HEAD)
        kinds, values, waiting = set(), set(), set()
        for _ in range(400):
            e = random_tree(rng, rng.randint(0, 3))
            i = random_partial(rng, symbols, (1,))
            try:
                want = super_oracle(e, i, exact_holds)
            except DeflogError:
                continue  # e.g. a let-bound definition with no exact model
            assert evaluate(e, i, SUPERVALUATION) is want, unparse(e)
            kinds |= node_kinds(e)
            values.add(want)
            waiting.add(has_waiting_leaf(e))
        assert values == {T, U, F}
        assert waiting == {True, False}
        assert {"Atom2", "ForallSO", "ExistsSO", "sum", "DefinitionExpr", "Let"} <= kinds

    def test_cap_is_checked_before_the_search(self):
        vocab = Vocabulary.of([*PROPS, P1])
        i = read_structure("domain = {a}\ns = {(a): t}\n", vocab)
        # s(a) is true: the Kleene value at the root is already t
        e = parse_formula("p | q | r | ?x: s(x)", vocab)
        assert evaluate(e, i, SUPERVALUATION) is T
        with pytest.raises(CapExceeded, match=r"^3 unknown atoms exceed cap 2 \(--max-completions\)$"):
            evaluate(e, i, SUPERVALUATION, Limits(max_unknowns=2))

    def test_sum_aggregate_is_only_evaluated_at_the_leaves(self):
        # 6 unknown atoms, but 9 unknown entries in the aggregate set:
        # the Kleene value raises at cap 8 where every completion is fine
        t1 = Symbol("t", pred(1))
        vocab = Vocabulary.of([P0, P1, t1])
        i = read_structure("domain = {1..3}\np = {(): u}\n", vocab)
        i = i.revise(i.u_atoms([P0]), T)
        e = parse_formula("p & (sum{x, y: s(x) & t(y)} > 3)", vocab)
        limits = Limits(max_unknowns=8)
        with pytest.raises(CapExceeded):
            evaluate(e, i, KLEENE, limits)
        want = super_oracle(e, i, exact_holds)
        assert want is U
        assert evaluate(e, i, SUPERVALUATION, limits) is want

    def test_a_card_over_a_sum_waits_too(self):
        # valued at a node, the card would value the sum's 9 unknown entries
        t1 = Symbol("t", pred(1))
        vocab = Vocabulary.of([P0, P1, t1])
        i = read_structure("domain = {1..3}\np = {(): t}\n", vocab)
        e = parse_formula("p & #{z: sum{x, y: s(x) & t(y)} > z} > 1", vocab)
        limits = Limits(max_unknowns=8)
        with pytest.raises(CapExceeded):
            evaluate(e, i, KLEENE, limits)
        assert evaluate(e, i, SUPERVALUATION, limits) is super_oracle(e, i, exact_holds) is U

    def test_definition_is_only_evaluated_at_the_leaves(self):
        vocab = Vocabulary.of([P0, P1])
        i = read_structure("domain = {1..3}\n", vocab)
        e = parse_formula("{p <- ?x: s(x).} | ~{p <- ?x: s(x).}", vocab)
        assert evaluate(e, i, KLEENE) is U
        want = super_oracle(e, i, exact_holds)
        assert want is T
        assert evaluate(e, i, SUPERVALUATION, Limits(max_unknowns=4)) is want



C = Symbol("c", CONST)


def value_or_error(run):
    try:
        return run(), None
    except DeflogError as exc:
        return None, (type(exc), str(exc))


class TestResidualSearch:
    """A formula is ground once at the root and its residual is searched,
    interned, branching only on atoms the residual still reads; on formulas
    with no waiting leaf the oracles are the flat loop over every
    completion, the probe search it replaced (the oracles' `glb` with a
    Kleene probe) and, for the node count, the residual search as
    first written."""

    def cases(self, n, seed):
        """n `random_tree` formulas with no waiting leaf over a constant c,
        each with a partial interpretation over {1}, {1, 2} or {1, 2, 3} that
        may leave c unassigned or s without one of its keys."""
        rng = random.Random(seed)
        while n:
            e = random_tree(rng, rng.randint(0, 4), consts=(C,))
            if has_waiting_leaf(e):
                continue
            n -= 1
            domain = (1, 2, 3)[:rng.randint(1, 3)]
            i = random_partial(rng, (*PROPS, P1), domain, p_unknown=0.4)
            if rng.random() < 0.2:
                drop = (rng.choice(domain),)
                i = i.expand(P1, PartialSet.from_map(
                    {k: v for k, v in i.value(P1).items() if k != drop}))
            yield e, i.expand(C, rng.choice(domain)) if rng.random() < 0.8 else i

    @pytest.fixture
    def against_oracles(self, monkeypatch):
        """run(e, i): the search's value or error, checked against the flat
        oracle with the caller's record untouched and against the search as
        first written with no more nodes; returns it, the nodes searched and
        the nodes that search visited (0 and 0 where both raised)."""
        nodes, search = [], definitions._search
        monkeypatch.setattr(definitions, "_search", lambda *a: nodes.append(1) or search(*a))

        def run(e, i):
            nodes.clear()
            ctx = EvalContext()
            got = value_or_error(lambda: evaluate(e, i, SUPERVALUATION, _ctx=ctx))
            assert got == value_or_error(lambda: super_oracle(e, i, exact_holds)), unparse(e)
            assert ctx.record == set()
            first = value_or_error(lambda: oracle_residual_search(e, i))
            assert (first[0] and first[0][0], first[1]) == got, unparse(e)
            if got[1]:
                return got, 0, 0
            assert len(nodes) <= first[0][1], unparse(e)
            return got, len(nodes), first[0][1]
        return run

    def test_value_error_and_record_match_the_flat_oracle(self, against_oracles):
        kinds, values, errors = set(), set(), set()
        for e, i in self.cases(1200, 97):
            got = against_oracles(e, i)[0]
            kinds |= node_kinds(e)
            values.add(got[0])
            errors.add(got[1] and got[1][1].split()[-1])
        assert {T, U, F, None} == values
        assert {None, "carrier", "interpreted"} <= errors
        assert {"ForallFO", "ExistsFO", "card", "Cmp", "Iff"} <= kinds

    def test_cap_is_checked_first_even_where_the_root_is_decided(self):
        decided = 0
        for e, i in self.cases(300, 98):
            n = len(i.u_atoms(s for s in free_symbols(e) if s.type.is_predicate))
            if n:
                with pytest.raises(CapExceeded, match=rf"^{n} unknown atoms exceed cap {n - 1} \(--max-completions\)$"):
                    evaluate(e, i, SUPERVALUATION, Limits(max_unknowns=n - 1))
                decided += value_or_error(lambda: evaluate(e, i, KLEENE))[0] in (T, F)
        assert decided > 10

    def test_never_more_nodes_than_the_probe_search(self, monkeypatch):
        searched, probed = [], []
        search, refine = definitions._search, oracles._refine
        monkeypatch.setattr(definitions, "_search", lambda *a: searched.append(1) or search(*a))
        monkeypatch.setattr(oracles, "_refine", lambda *a: probed.append(1) or refine(*a))
        totals = [0, 0]
        for e, i in self.cases(400, 99):
            searched.clear()
            value, error = value_or_error(lambda: evaluate(e, i, SUPERVALUATION))
            if error:
                continue
            probed.clear()
            unknown = i.u_atoms(s for s in free_symbols(e) if s.type.is_predicate)
            kleene = functools.partial(evaluate, e, mode=KLEENE)
            assert glb(i, unknown, Limits(), kleene, kleene) is value
            assert len(searched) <= len(probed), unparse(e)
            totals = [totals[0] + len(searched), totals[1] + len(probed)]
        assert totals[0] < totals[1], totals

    @pytest.mark.parametrize("text", [
        "#{x: s(x)} > 0 | ~s(1)",
        "#{x: s(x)} > 0 | #{x: s(x)} < 1",
        "(#{x: s(x)} = 1) <=> (s(1) <=> ~s(2))",
        "!x: (#{y: s(y)} > 1 => s(x))",
        "#{x: s(x) & p} < 2 & (p | q)",
    ])
    def test_card_leaves_are_valued_at_each_node(self, text, against_oracles):
        # a leaf that is u at a node may be exact below it: the search
        # must keep it, not read it as the constant u or as an atom
        vocab = Vocabulary.of([P0, Q0, P1])
        e = parse_formula(text, vocab)
        for values in itertools.product((T, U, F), repeat=4):
            i = PartialInterpretation.make((1, 2), {
                P0: PartialSet.from_map({(): values[0]}), Q0: PartialSet.from_map({(): values[1]}),
                P1: PartialSet.from_map({(1,): values[2], (2,): values[3]})})
            against_oracles(e, i)

    def test_branches_only_on_atoms_the_residual_reads(self, monkeypatch):
        # z comes last in name order: the probe search in that order
        # visits about 2^18 nodes before z decides the tautology
        z, atoms = Symbol("z", pred(0)), [Symbol(f"a{k}", pred(0)) for k in range(1, 19)]
        conj = functools.reduce(And, [Atom1(a, ()) for a in atoms])
        e = Or(Or(Atom1(z, ()), Not(Atom1(z, ()))), conj)
        i = PartialInterpretation.make(
            ("d",), {s: PartialSet.from_map({(): U}) for s in (z, *atoms)})
        nodes, search = [], definitions._search
        monkeypatch.setattr(definitions, "_search", lambda *a: nodes.append(1) or search(*a))
        assert evaluate(e, i, SUPERVALUATION) is T
        assert len(nodes) < 100

    def test_tautologies_and_contradictions(self, against_oracles):
        # small random trees reach few equal residuals: no node more, but
        # hardly any fewer; trees over 4-8 atoms, each read twice, reach many
        values, totals, rng = set(), [0, 0], random.Random(101)
        for k, (phi, i) in enumerate(self.cases(300, 101)):
            e = Or(phi, Not(phi)) if k % 2 else And(Not(phi), phi)
            values.add(against_oracles(e, i)[0][0])
        assert values == {T, F, None}
        for k in range(40):
            syms = [Symbol(f"a{n}", pred(0)) for n in range(rng.randint(4, 8))]
            leaves = [Not(Atom1(s, ())) if rng.random() < 0.5 else Atom1(s, ()) for s in syms * 2]
            rng.shuffle(leaves)
            while len(leaves) > 1:  # join two neighbours by & or |
                n = rng.randrange(len(leaves) - 1)
                leaves[n:n + 2] = [rng.choice((And, Or))(leaves[n], leaves[n + 1])]
            phi = leaves[0]
            i = PartialInterpretation.make(("d",), {s: PartialSet.from_map({(): U}) for s in syms})
            got, nodes, first = against_oracles(Or(phi, Not(phi)) if k % 2 else And(Not(phi), phi), i)
            assert got == ((T if k % 2 else F), None)
            totals = [totals[0] + nodes, totals[1] + first]
        assert totals[0] < totals[1], totals

    def test_random_3cnf(self, against_oracles):
        rng, totals, values = random.Random(103), [0, 0], set()
        for _ in range(60):
            syms = [Symbol(f"a{n}", pred(0)) for n in range(rng.randint(5, 9))]
            clauses = [Or(*[Not(a) if rng.random() < 0.5 else a
                            for a in (Atom1(s, ()) for s in rng.sample(syms, 3))])
                       for _ in range(rng.randint(len(syms), 6 * len(syms)))]
            i = PartialInterpretation.make(("d",), {s: PartialSet.from_map(
                {(): U if rng.random() < 0.8 else rng.choice((T, F))}) for s in syms})
            got, nodes, first = against_oracles(And(*clauses), i)
            values.add(got[0])
            totals = [totals[0] + nodes, totals[1] + first]
        assert values == {U, F}
        assert totals[0] < totals[1], totals

    def test_iff_chains(self, against_oracles):
        rng, totals, values = random.Random(107), [0, 0], set()
        for _ in range(80):
            syms = [Symbol(f"a{n}", pred(0)) for n in range(rng.randint(2, 8))]
            lits = [Atom1(rng.choice(syms), ()) for _ in range(rng.randint(3, 14))]
            lits = [Not(a) if rng.random() < 0.3 else a for a in lits]
            e = functools.reduce(Iff, lits) if rng.random() < 0.5 else functools.reduce(
                lambda a, b: Iff(b, a), reversed(lits))
            i = PartialInterpretation.make(("d",), {s: PartialSet.from_map({(): U}) for s in syms})
            got, nodes, first = against_oracles(e, i)
            values.add(got[0])
            totals = [totals[0] + nodes, totals[1] + first]
        assert values == {T, U, F}
        assert totals[0] < totals[1], totals

    def test_no_table_outlives_the_search(self, monkeypatch):
        refs, search = [], definitions._search

        def spy(r, n, seen):
            refs.extend(weakref.ref(x) for x in (r, n) if type(x) is not int)
            return search(r, n, seen)

        monkeypatch.setattr(definitions, "_search", spy)
        vocab = Vocabulary.of([P0, Q0, R0, P1])
        e = parse_formula("((p & q) | (~r & s(1)) | s(2)) <=> ~(~(p & q) & ~(~r & s(1)) & ~s(2))",
                          vocab)
        i = read_structure("domain = {1, 2}\n", vocab)
        assert evaluate(e, i, SUPERVALUATION) is T
        assert len(refs) > 10
        assert all(ref() is None for ref in refs)


class TestWaitingLeaves:
    """Every formula is searched on its residual.  A second order atom over
    a u argument, a second order quantifier, a sum, a definition or a
    let-block is a leaf that waits, coded u, until each atom of the u
    predicates it reads is assigned; oracles are the flat search over every
    completion that such formulas took before (`flat_supervaluation`) and
    `super_oracle`.  Where a completion raises, the residual may decide
    a subtree the flat search raised in, or reach a raising completion the
    flat search never did; nowhere else may they differ."""

    def test_every_node_kind_matches_the_flat_search(self, monkeypatch):
        # the search is the residual one, whatever the formula holds
        searches, search = [], definitions._residual_glb
        monkeypatch.setattr(definitions, "_residual_glb",
                            lambda *a: searches.append(1) or search(*a))
        rng, seen, kinds = random.Random(131), collections.Counter(), set()
        for _ in range(1500):
            e = random_tree(rng, rng.randint(0, 3))
            i = random_partial(rng, (*PROPS, P1, SO1, SO_HEAD), rng.choice(((1,), (1, 2))))
            limits = Limits(max_unknowns=rng.choice((3, 20)))
            ctx, calls = EvalContext(limits=limits), len(searches)
            got = value_or_error(lambda: evaluate(e, i, SUPERVALUATION, _ctx=ctx))
            assert len(searches) == calls + 1 and ctx.record == set(), unparse(e)
            want = value_or_error(lambda: flat_supervaluation(e, i, EvalContext(limits=limits)))
            completions = [value_or_error(lambda: evaluate_exact(e, j, limits))
                           for j in exact_completions(i, free_symbols(e))]
            kinds |= node_kinds(e)
            if got == want:
                seen["same " + ("value" if got[1] is None else "error")] += 1
                if got[1] is None and all(v for v, _ in completions):
                    assert got[0] is super_oracle(e, i, exact_holds), unparse(e)
                continue
            assert got[1] is None or want[1] is None, unparse(e)
            assert not all(v for v, _ in completions), unparse(e)
            if got[1] is None:  # a decided value holds at every completion that answers
                seen["the flat search raised"] += 1
                assert got[0] is U or {v for v, _ in completions if v} <= {got[0]}, unparse(e)
            else:
                seen["the flat search answered"] += 1
        assert seen["same value"] > 1000 and seen["same error"] > 10, seen
        assert {"Atom2", "ForallSO", "ExistsSO", "card", "sum", "DefinitionExpr", "Let"} <= kinds

    def test_a_decided_residual_skips_a_raising_let(self):
        # the flat search values the non-total let-block at its first
        # completion; the residual is t as soon as s(1) is assigned, and the
        # let-block waits on s(1), so it is never valued.  Where the residual
        # needs the let-block, its error is the search's.
        vocab = Vocabulary.of([P0, P1])
        i = read_structure("domain = {1}\n", vocab)
        e = parse_formula("s(1) | ~s(1) | let {p <- ~p & s(1).} in p", vocab)
        with pytest.raises(NonTotalDefinitionError):
            flat_supervaluation(e, i, EvalContext())
        assert evaluate(e, i, SUPERVALUATION) is T
        e = parse_formula("(p | ~p) & let {q <- ~q & s(1).} in ~q", Vocabulary.of([P0, Q0, P1]))
        with pytest.raises(NonTotalDefinitionError):
            evaluate(e, i.expand(P0, PartialSet.from_map({(): U})), SUPERVALUATION)

    @pytest.mark.parametrize("leaf", ["let {r <- z(1).} in r | ~r", "#{y: z(y)} > 0 | ~z(1)"])
    def test_a_leaf_branches_on_the_atoms_it_reads(self, leaf, monkeypatch):
        # once x0 is f the residual is the leaf (and ~z(1)), which reads z:
        # branching on x1 ... x11 first, read by nothing, took 16,381 nodes
        xs = [Symbol(f"x{k}", pred(0)) for k in range(12)]
        vocab = Vocabulary.of([*xs, R0, Symbol("z", pred(1))])
        e = parse_formula(" & ".join(x.name for x in xs) + " | " + leaf, vocab)
        nodes, search = [], definitions._search
        monkeypatch.setattr(definitions, "_search", lambda *a: nodes.append(1) or search(*a))
        assert evaluate(e, read_structure("domain = {1}\n", vocab), SUPERVALUATION) is T
        assert len(nodes) < 100

    def test_a_leaf_is_valued_once_its_atoms_are_assigned(self, monkeypatch):
        # the definition reads p and s: each node where both are assigned
        # values it once, exactly, and no node before
        vocab = Vocabulary.of([P0, P1])
        i = read_structure("domain = {1, 2}\np = {(): u}\ns = {(1): u, (2): t}\n", vocab)
        e = parse_formula("(s(2) & ~s(2)) | {p <- s(1).}", vocab)
        valued, run = [], definitions.eval_definition
        monkeypatch.setattr(definitions, "eval_definition",
                            lambda d, j, *a, **k: valued.append(j) or run(d, j, *a, **k))
        assert evaluate(e, i, SUPERVALUATION) is U
        assert [j.exact_on([P0, P1]) for j in valued] == [True] * 2


def outcome(run, limits=Limits()):
    """run(ctx) on a fresh context and an empty WFM memo: its value (or
    exception type and message), the atoms it recorded and the memo keys
    it created (a memo hit would skip the recording of a fixpoint)."""
    definitions._WFM_CACHE.clear()
    ctx = EvalContext(limits=limits)
    try:
        value, error = run(ctx), None
    except Exception as exc:  # compared, whatever its type
        value, error = None, (type(exc), str(exc))
    return value, error, ctx.record, list(definitions._WFM_CACHE)


def compiled_and_walker(e, i, limits=Limits()):
    got = outcome(lambda ctx: evaluate(e, i, KLEENE, _ctx=ctx), limits)
    want = outcome(lambda ctx: oracle_kv(e, i, ctx), limits)
    assert got == want, unparse(e)
    return want


def bodies_and_walker(d, atom, i, limits=Limits()):
    got = outcome(lambda ctx: body_values(d, atom, i, ctx), limits)
    want = outcome(lambda ctx: [
        oracle_kv(r.body, bind_head(r, atom.args, i), ctx)
        for r in d.rules if r.head == atom.predicate
    ], limits)
    assert got == want, (unparse(d), atom)
    return want


def atom(p, *vars_):
    return Atom1(p, tuple(SymTerm(v) for v in vars_))


class TestCompiledAgainstWalker:
    """Each node is compiled once into a closure over a variable
    environment; the seed's walker expands the interpretation per bound
    variable instead.  Both must give the same value, recorded atoms,
    exception and WFM memo keys (definitions and let-blocks build the
    interpretation from the environment in binding order)."""

    SYMBOLS = (*PROPS, P1, SO1, SO_HEAD)
    DOMAINS = ((), (1,), (1, 2), ("a",), ("a", 2))

    def test_every_node_kind_matches_the_walker(self):
        rng = random.Random(83)
        kinds, values, errors, keyed = set(), set(), set(), 0
        for _ in range(600):
            e = random_tree(rng, rng.randint(0, 3))
            present = [s for s in self.SYMBOLS if rng.random() < 0.95]
            i = random_partial(rng, present, rng.choice(self.DOMAINS))
            value, error, _, keys = compiled_and_walker(
                e, i, Limits(max_unknowns=rng.choice((3, 20))))
            kinds |= node_kinds(e)
            values.add(value)
            errors.add(error and error[0])
            keyed += bool(keys)
        assert {T, U, F, None} <= values
        assert {None, EvaluationError, CapExceeded, NonTotalDefinitionError} <= errors
        assert {"Atom1", "Atom2", "Cmp", "Not", "And", "Or", "Implies", "Iff",
                "ForallFO", "ExistsFO", "ForallSO", "ExistsSO", "card", "sum",
                "DefinitionExpr", "Let"} <= kinds
        assert keyed > 50

    def test_rule_bodies_match_bind_head_and_the_walker(self):
        # first order (s(x)), second order (D(Y)) and propositional heads
        rng = random.Random(89)
        x, y = Symbol("x0", CONST), Symbol("Y", pred(1))
        heads, values = set(), set()
        for _ in range(200):
            rules = [
                Rule(P1, (x,), random_tree(rng, rng.randint(0, 2), fo_vars=(x,))),
                Rule(SO_HEAD, (y,), random_tree(rng, rng.randint(0, 2), so_vars=(y,))),
                Rule(rng.choice(PROPS), (), random_tree(rng, rng.randint(0, 2))),
            ]
            d = RuleSet(tuple(rng.sample(rules, rng.randint(1, 3))))
            i = random_partial(rng, self.SYMBOLS, rng.choice(self.DOMAINS[1:]))
            for a in definitions._defined_atoms(d, i):
                value, error, _, _ = bodies_and_walker(d, a, i)
                heads.add(a.predicate)
                values.update(value or [error and error[0]])
        assert heads == {P0, Q0, R0, P1, SO_HEAD}
        assert {T, U, F} <= values

    def test_quantifiers_over_an_empty_domain(self):
        x, big_x = Symbol("x", CONST), Symbol("X", pred(1))
        i = random_partial(random.Random(5), self.SYMBOLS, ())
        sx = atom(P1, x)
        cases = {
            ForallFO(x, sx): T,
            ExistsFO(x, sx): F,
            Aggregate("card", "=", (x,), sx, IntTerm(0)): T,
            And(ExistsFO(x, sx), Not(ForallFO(x, sx))): F,
        }
        for e, want in cases.items():
            assert compiled_and_walker(e, i)[0] is want
        # after a binder over no values, a definition and a rule body see
        # the variables bound around it, and only those
        inner = And(ExistsFO(x, atom(big_x, x)), DefinitionExpr(RuleSet((
            Rule(P0, (), And(ExistsFO(x, sx), Atom1(Q0, ()))),))))
        compiled_and_walker(ExistsSO(big_x, inner), i)
        y = Symbol("Y", pred(1))
        d = RuleSet((Rule(SO_HEAD, (y,), And(ForallFO(x, atom(y, x)), Let(
            RuleSet((Rule(R0, (), ExistsFO(x, atom(y, x))),)), Atom1(R0, ())))),))
        for a in definitions._defined_atoms(d, i):
            assert bodies_and_walker(d, a, i)[1] is None

    def test_rebound_variable_is_restored(self):
        # !x: p(x) & (?x: q(x)) & r(x): r must read the outer x again
        vocab = Vocabulary.of([*(Symbol(n, pred(1)) for n in "pqr"), Symbol("w", pred(0))])
        i = read_structure("domain = {1, 2}\np = {*: t}\nq = {(2): t, *: f}\n"
                           "r = {(1): f, (2): t}\nw = {(): f}\n", vocab)
        e = parse_formula("!x: p(x) & (?x: q(x)) & r(x)", vocab)
        assert compiled_and_walker(e, i)[0] is F
        e = parse_formula("?x: p(x) & (?x: q(x)) & {w <- r(x).}", vocab)
        value, _, _, keys = compiled_and_walker(e, i)
        assert value is T and len(keys) == 2

    def test_same_name_bound_symbols_keep_binding_order(self):
        # a constant x and a predicate x bound together: the memo key of a
        # definition reading both lists them in the order they were bound
        xc, xp = Symbol("x", CONST), Symbol("x", pred(1))
        d = DefinitionExpr(RuleSet((
            Rule(P0, (), And(atom(xp, xc), atom(P1, xc))),)))
        i = random_partial(random.Random(7), self.SYMBOLS, (1, 2))
        for e, order in (
            (ForallFO(xc, ExistsSO(xp, And(atom(xp, xc), d))), [CONST, pred(1)]),
            (ExistsSO(xp, ForallFO(xc, And(atom(xp, xc), d))), [pred(1), CONST]),
        ):
            _, _, _, keys = compiled_and_walker(e, i)
            assert keys
            for key in keys:
                assert [s.type for s, _ in key[2] if s.name == "x"] == order

    def test_definition_and_let_under_a_quantifier_read_the_bound_variable(self):
        vocab = Vocabulary.of([P0, P1])
        i = read_structure("domain = {1, 2, 3}\ns = {(1): t, (2): f, (3): u}\n", vocab)
        for text in ("!x: {p <- s(x).}", "?x: let {p <- s(x).} in p",
                     "#{x: {p <- s(x).}} = 1"):
            e = parse_formula(text, vocab)
            _, _, _, keys = compiled_and_walker(e, i)
            x = e.vars[0] if type(e) is Aggregate else e.var
            assert {dict(key[2])[x] for key in keys} == {1, 2, 3}, text

    def test_record_and_value_do_not_depend_on_the_memo(self):
        # a memo hit records the parameter atoms its miss recorded, and no
        # fixpoint records the atoms it defines (they are local to it)
        rng = random.Random(83)
        for _ in range(600):
            e = random_tree(rng, rng.randint(0, 3))
            present = [s for s in self.SYMBOLS if rng.random() < 0.95]
            i = random_partial(rng, present, rng.choice(self.DOMAINS))
            limits = Limits(max_unknowns=rng.choice((3, 20)))
            value, error, cold, _ = outcome(lambda ctx: evaluate(e, i, KLEENE, _ctx=ctx), limits)
            warm = EvalContext(limits=limits)
            try:
                assert evaluate(e, i, KLEENE, _ctx=warm) is value, unparse(e)
            except DeflogError as exc:
                assert (type(exc), str(exc)) == error, unparse(e)
            assert warm.record == cold, unparse(e)

    def test_inner_fixpoint_leaves_no_defined_atoms_in_the_record(self):
        # with r = t the inner definition holds; its fixpoint's own u-valued
        # r must not become an unknown of the outer one
        p, q, r, s = (Symbol(n, pred(0)) for n in "pqrs")
        vocab = Vocabulary.of([p, q, r, s])
        i = read_structure("domain = {a}\np = {(): t}\nq = {(): t}\nr = {(): t}\n"
                           "s = {(): u}\n", vocab)
        e = parse_formula("{q <- {r <- p | r.} | (s & ~s).}", vocab)
        definitions._WFM_CACHE.clear()
        assert [evaluate(e, i, KLEENE) for _ in range(2)] == [T, T]  # cold, warm
        assert evaluate(e, i, SUPERVALUATION) is T

    def test_deep_formulas_keep_one_frame_per_level(self):
        i = read_structure("domain = {a}\np = {(): t}\n", Vocabulary.of([P0]))
        # a chain is one node, and ~~φ compiles to φ's closure
        negations = Atom1(P0, ())
        for _ in range(3000):
            negations = Not(negations)
        chain = Atom1(P0, ())
        for _ in range(2999):
            chain = And(chain, Atom1(P0, ()))
        assert len(chain.args) == 3000
        assert evaluate(negations, i) is T
        assert evaluate(Not(negations), i) is F
        assert evaluate(chain, i) is T

    def test_relation_memo_stays_within_its_bound(self, monkeypatch):
        assert evaluator._relation_cached.cache_info().maxsize == evaluator._RELATION_CACHE_MAX
        small = functools.lru_cache(maxsize=4)(evaluator._relation_cached.__wrapped__)
        monkeypatch.setattr(evaluator, "_relation_cached", small)
        monkeypatch.setattr(definitions, "_relation_cached", small)
        vocab = Vocabulary.of([P0, P1, SO_HEAD])
        texts = ("?? X[pred/1]: (?x: X(x) & s(x))", "!! X[pred/1]: (!x: X(x) => s(x))",
                 "{D(Y) <- ?x: Y(x) & s(x). p <- ?? X[pred/1]: D(X).}")
        for domain in ((1,), (1, 2), ("a", "b"), (1, 2, 3)):
            i = random_partial(random.Random(len(domain)), (P0, P1, SO_HEAD), domain)
            for text in texts:
                compiled_and_walker(parse_formula(text, vocab), i)
                assert small.cache_info().currsize <= 4
        assert small.cache_info().misses > 4
