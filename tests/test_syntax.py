"""AST utilities: parsing, unparsing, typing, classification, substitution."""

import dataclasses
import functools
import random
import typing

import pytest

from deflog import definitions, syntax
from deflog.errors import ParseError
from deflog.evaluator import EvalContext, _compiled, evaluate
from deflog.interpretation import read_structure
from deflog.limits import Limits
from deflog.parser import parse_formula, parse_ruleset, parse_theory
from deflog.syntax import (
    FRAGMENT_ASO, FRAGMENT_ESO, FRAGMENT_FO, FRAGMENT_SO, And, Atom1, ExistsFO, ExistsSO,
    Expr, ForallFO, ForallSO, IntTerm, Let, NameGen, Not, Or, Rule, RuleSet, children,
    classify, fold, free_symbols, substitute, typecheck, unparse,
)
from deflog.vocab import CONST, Symbol, Vocabulary, pred, so_pred

from gen import P1, PROPS, SO1, SO_HEAD, random_formula, random_tree
from oracles import oracle_classify, oracle_kv

p2 = Symbol("p", pred(2))
r1 = Symbol("r", pred(1))
q0 = Symbol("q", pred(0))
cc = Symbol("c", CONST)
SO2 = Symbol("E", so_pred(pred(2)))
VOCAB = Vocabulary.of([p2, r1, q0, cc, SO2])


def parse(text):
    return parse_formula(text, VOCAB)


class TestParsing:
    def test_precedence(self):
        e = parse("q | q & q => q <=> q")
        # <=> binds loosest, then =>, then |, then &
        assert unparse(e) == "(((q | (q & q)) => q) <=> q)"
        assert type(e).__name__ == "Iff"

    def test_unicode_and_ascii_connectives_agree(self):
        a = parse("∀x: p(x, x) ∧ ¬q ∨ (∃y: r(y))")
        b = parse("!x: p(x, x) & ~q | (?y: r(y))")
        assert a == b

    def test_so_atom_requires_so_pred(self):
        e = parse("E(p)")
        assert type(e).__name__ == "Atom2"
        assert type(parse("r(c)")).__name__ == "Atom1"

    def test_so_quantifier_needs_annotation(self):
        e = parse("?? X[pred/1]: X(c)")
        assert type(e).__name__ == "ExistsSO"
        with pytest.raises(ParseError):
            parse("?? X: X(c)")

    def test_comparisons_and_arithmetic(self):
        e = parse("c + 1 < 3")
        assert type(e).__name__ == "Cmp"
        assert unparse(e) == "c + 1 < 3"

    def test_aggregates(self):
        e = parse("#{x: r(x)} > 1")
        assert e.agg == "card" and e.cmp == ">"
        e = parse("sum{x: r(x)} = c")
        assert e.agg == "sum"

    def test_definition_expression_and_let(self):
        e = parse("{q <- ~q.}")
        assert type(e).__name__ == "DefinitionExpr"
        e = parse("let {q <- r(c).} in q & r(c)")
        assert type(e).__name__ == "Let"

    def test_rule_head_variable_canonicalization(self):
        # bound, repeated and ground head arguments become fresh head
        # variables constrained by generated equalities
        rs = parse_ruleset("{p(x, x) <- r(x). r(c). q <- q.}", VOCAB)
        by_head = {r.head.name: r for r in rs.rules}
        assert len(by_head["p"].head_vars) == 2
        assert len(by_head["r"].head_vars) == 1
        assert by_head["q"].head_vars == ()

    def test_rule_sets_hash_by_content_whatever_the_rule_order(self):
        texts = ["{q <- r(c). p(x, y) <- r(x) & ~q. q <- q.}",
                 "{q <- q. q <- r(c). p(x, y) <- r(x) & ~q.}",
                 "{p(x, y) <- r(x) & ~q. q <- q. q <- r(c). q <- q.}"]
        sets = [parse_ruleset(t, VOCAB) for t in texts]
        assert all(rs == sets[0] for rs in sets)
        before = [hash(rs) for rs in sets]
        assert len(set(before)) == 1
        memo = {rs: n for n, rs in enumerate(sets)}
        assert memo == {sets[0]: 2}
        assert [hash(rs) for rs in sets] == before
        assert hash(RuleSet(tuple(reversed(sets[0].rules)))) == before[0]

    def test_parse_errors_carry_positions(self):
        with pytest.raises(ParseError) as exc:
            parse("q & |")
        assert exc.value.line == 1 and exc.value.column >= 1

    def test_theory_files(self):
        th = parse_theory(
            """
            vocab { a: pred/0; B: template so-pred(pred/1); }
            formula f { a }
            definition d { a <- ~a. }
            template t { B(F) <- ?x: F(x). }
            """
        )
        assert set(th.formulas) == {"f"}
        assert set(th.definitions) == {"d"}
        assert set(th.templates) == {"t"}
        assert th.vocabulary.get("B").kind == "template"


class TestRoundTrip:
    CASES = [
        "q & ~q",
        "!x: (p(x, x) => (?y: p(x, y)))",
        "?? X[pred/1]: (!x: X(x))",
        "!! X[pred/1]: (?x: X(x))",
        "E(p)",
        "#{x, y : p(x, y)} < 2",
        "sum{x : r(x)} > c + 1",
        "{q <- ~q. r(x) <- p(x, x).}",
        "let {q <- ?x: r(x).} in (q | q)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_fixed_cases(self, text):
        e = parse(text)
        out = unparse(e)
        assert parse(out) == e
        assert unparse(parse(out)) == out  # canonical form is a fixpoint

    def test_random_formulas(self):
        rng = random.Random(7)
        for _ in range(200):
            e = random_formula(rng, rng.randint(0, 3))
            out = unparse(e)
            # reparse against the generator's own vocabulary
            vocab = Vocabulary.of(
                s for s in free_symbols(e) if s.type.kind != "domain"
            )
            assert parse_formula(out, vocab) == e


class TestTypecheck:
    @pytest.mark.parametrize("text", [
        "p(c, c) & r(c)",
        "?? X[pred/1]: X(c)",
        "{r(x) <- p(x, x).}",
    ])
    def test_well_typed(self, text):
        assert typecheck(parse(text), VOCAB) == []

    def test_arity_mismatch(self):
        errs = typecheck(Atom1(p2, ()), VOCAB)
        assert errs and "p" in errs[0]

    def test_unknown_symbol(self):
        ghost = Symbol("ghost", pred(0))
        errs = typecheck(Atom1(ghost, ()), VOCAB)
        assert errs


class TestClassify:
    def test_fragments(self):
        assert classify(parse("q & (?x: r(x))")) == FRAGMENT_FO
        assert classify(parse("!x: r(x)")) == FRAGMENT_FO  # desugars into FO
        assert classify(parse("?? X[pred/1]: X(c)")) == FRAGMENT_ESO
        assert classify(parse("!! X[pred/1]: X(c)")) == FRAGMENT_ASO
        assert classify(parse("E(p)")) == FRAGMENT_ESO
        assert classify(
            parse("(?? X[pred/1]: X(c)) & (!! Y[pred/1]: Y(c))")
        ) == FRAGMENT_SO

    def test_definitions_classify_through_rule_bodies(self):
        assert classify(parse_ruleset("{q <- ~q.}", VOCAB)) == FRAGMENT_FO
        # the starred definition construct admits only first order rule
        # bodies: an SO quantifier inside a body leaves every fragment
        assert classify(
            parse_ruleset("{q <- ?? X[pred/1]: X(c).}", VOCAB)
        ) == FRAGMENT_SO

    def test_one_pass_classifier_matches_the_desugaring_oracle(self):
        rng = random.Random(59)
        seen = set()
        for _ in range(3000):
            e = random_tree(rng, rng.randint(0, 4))
            expected = oracle_classify(e)
            assert classify(e) == expected, unparse(e)
            if hasattr(e, "ruleset"):
                assert classify(e.ruleset) == oracle_classify(e.ruleset)
            seen.add(expected)
        assert seen == {FRAGMENT_FO, FRAGMENT_ESO, FRAGMENT_ASO, FRAGMENT_SO}


_SCOPES = (ForallFO, ExistsFO, ForallSO, ExistsSO, Let)


class TestRuns:
    def test_a_left_nested_chain_is_its_flat_run(self):
        # a run of & or | has one representation, whatever built it, and
        # prints as the left-nested chain the parser reads back
        vocab = Vocabulary.of([*PROPS, P1, SO1, SO_HEAD])
        rng = random.Random(61)
        reparsed = 0
        for n in range(600):
            parts = [random_tree(rng, rng.randint(0, 2)) if n % 2 else
                     random_formula(rng, rng.randint(0, 2)) for _ in range(rng.randint(2, 5))]
            for cls, op in ((And, "&"), (Or, "|")):
                nested, flat = functools.reduce(cls, parts), cls(*parts)
                assert nested == flat and hash(nested) == hash(flat)
                assert len(flat.args) >= len(parts)  # first operands of cls spliced in
                words = [unparse(x) for x in flat.args]
                if isinstance(flat.args[0], _SCOPES):
                    words[0] = f"({words[0]})"
                text = unparse(flat)
                assert unparse(nested) == text == functools.reduce(
                    lambda a, b: f"({a} {op} {b})", words)
                try:
                    assert parse_formula(text, vocab) == flat
                    reparsed += 1
                except ParseError as exc:  # the generator reuses Y in nested SO rule heads
                    assert "must be a fresh name" in str(exc)
        assert reparsed > 1000

    def test_a_negation_run_hashes_compares_and_prints_in_a_loop(self):
        # repr is the dataclass one, as RuleSet orders its rules by repr
        @dataclasses.dataclass(frozen=True)
        class Not:
            body: object

        Not.__qualname__ = "Not"
        rng = random.Random(67)
        for n in range(300):
            base = random_tree(rng, rng.randint(0, 2))
            runs = [base, base]
            for _ in range(rng.randint(1, 4)):
                runs = [Not(runs[0]), syntax.Not(runs[1])]
            assert repr(runs[1]) == repr(runs[0])
            other = syntax.Not(runs[1]) if n % 2 else runs[1].body
            assert runs[1] == syntax.Not(runs[1].body) and runs[1] != other
            assert hash(runs[1]) == hash(syntax.Not(runs[1].body))


class TestStructure:
    # one sample value per field annotation of the expression classes
    SAMPLES = {
        "Expr": Atom1(q0, ()),
        "Term": IntTerm(1),
        "Symbol": cc,
        "tuple": (),
        "str": "=",
        "RuleSet": RuleSet((Rule(q0, (), Atom1(q0, ())),)),
    }

    # the leaf rule of a search's grounder, per node kind reading a u atom:
    # ground through, valued at every node ("early"), or a leaf that waits
    # until every atom of the u predicates it reads is assigned
    LEAF_RULE = {
        "Atom1": "ground", "Cmp": "ground", "Not": "ground", "And": "ground", "Or": "ground",
        "Implies": "ground", "Iff": "ground", "ForallFO": "ground", "ExistsFO": "ground",
        "Aggregate": "early", "Atom2": "waits", "ForallSO": "waits", "ExistsSO": "waits",
        "DefinitionExpr": "waits", "Let": "waits",
    }
    # one formula per node kind reading a u atom of PARTIAL
    READS_U = {"ForallSO": "!! X[pred/1]: X(c) | q", "ExistsSO": "?? X[pred/1]: X(c) & r(c)"}
    PARTIAL = "domain = {1, 2}\nc = 1\nr = {(1): u, (2): f}\nq = {(): u}\np = {*: u}\nE = {*: u}\n"

    # one well-typed formula per node kind, for compiling and evaluating
    TYPED = {
        "Atom1": "r(c)", "Atom2": "E(p)", "Cmp": "c + 1 < 3", "Not": "~q",
        "And": "q & r(c)", "Or": "q | r(c)", "Implies": "q => r(c)",
        "Iff": "q <=> r(c)", "ForallFO": "!x: r(x)", "ExistsFO": "?x: r(x)",
        "ForallSO": "!! X[pred/1]: X(c)", "ExistsSO": "?? X[pred/1]: X(c)",
        "Aggregate": "#{x: r(x)} > 0", "DefinitionExpr": "{q <- r(c).}",
        "Let": "let {q <- ~r(c).} in q",
    }

    def test_every_node_kind_is_known_to_the_primitives(self):
        # a new node kind fails here until fold, the classifier, the
        # grounder's leaf rule and the evaluator's compiler handle it
        i = read_structure("domain = {1, 2}\nc = 1\nr = {(1): t, (2): f}\nq = {(): u}\n", VOCAB)
        for cls in typing.get_args(Expr):
            typed = parse(self.TYPED[cls.__name__])
            assert type(typed) is cls
            assert evaluate(typed, i) is oracle_kv(typed, i, EvalContext())
            assert "_fn" in vars(typed)  # compiled once, kept on the node
            kinds = [f.type.strip("'\"") for f in dataclasses.fields(cls)]
            run = cls in (And, Or)
            e = cls(*(self.SAMPLES[k] for k in kinds)) if not run else cls(
                self.SAMPLES["Expr"], self.SAMPLES["Expr"])
            visited = []
            fold(e, lambda n, results: visited.append((n, results)) or len(visited))
            # each child once, then the node, given the children's results
            assert [n for n, _ in visited] == [*children(e), e]
            assert list(visited[-1][1]) == list(range(1, len(visited)))
            assert len(visited) == 1 + (2 if run else kinds.count("Expr") + kinds.count("RuleSet"))
            classify(e)
            name = cls.__name__
            assert self.leaf_rule(self.READS_U.get(name, self.TYPED[name])) == self.LEAF_RULE[name]

    def leaf_rule(self, text, structure=PARTIAL) -> str:
        """How the formula form of the grounder treats the formula."""
        i = read_structure(structure, VOCAB)
        g = definitions._Ground(None, i, Limits(), symbols={
            a.predicate for a in i.u_atoms(i.predicate_symbols())})
        e = parse(text)
        g.ground(e, {}, _compiled(e))
        waits = {bool(wait) for _, _, _, wait, _ in g.leaf}
        return {frozenset(): "ground", frozenset({False}): "early",
                frozenset({True}): "waits"}[frozenset(waits)]

    def test_the_leaf_rule_reads_the_whole_aggregate_and_the_arguments(self):
        # a sum, and a card over a node that waits, wait; a second order
        # atom over exact arguments is ground to an atom
        assert self.leaf_rule("sum{x: r(x)} > 0") == "waits"
        assert self.leaf_rule("#{x: r(x) & (let {q <- ~r(x).} in q)} > 0") == "waits"
        assert self.leaf_rule("#{x: #{y: r(y) & r(x)} > 0} > 0") == "early"
        exact_p = self.PARTIAL.replace("p = {*: u}", "p = {*: t}")
        assert self.leaf_rule("E(p)", exact_p) == "ground"
        assert self.leaf_rule("E(p) | q", exact_p) == "ground"


class TestSubstitution:
    def test_capture_avoiding(self):
        # substituting x for a formula mentioning the bound variable
        # must rename the binder
        e = parse("?x: p(x, c)")
        x = next(iter(free_symbols(e.body) - free_symbols(e)))
        d = Symbol("d", CONST)
        out = substitute(ForallFO(x, Not(e)), {cc: x}, NameGen({x.name}))
        # the inner bound x was renamed apart from the outer x
        inner = out.body.body
        assert inner.var != x

    def test_predicate_substitution(self):
        e = parse("r(c)")
        s1 = Symbol("s1", pred(1))
        out = substitute(e, {r1: s1})
        assert out.predicate == s1

    def test_let_binder_is_renamed_apart(self):
        ell, kay, d = Symbol("L", pred(0)), Symbol("K", pred(0)), Symbol("d", CONST)
        vocab = Vocabulary.of([*VOCAB, ell, kay, d])
        e = parse_formula("let {L <- r(c).} in L & K & r(c)", vocab)
        out = substitute(e, {kay: ell, cc: d})
        # the free L substituted for K must not be captured by the let
        assert unparse(out) == "let {L_1 <- r(d).} in ((L_1 & L) & r(d))"

    def test_ruleset_canonical_order_and_dedup(self):
        a = parse_ruleset("{q <- r(c). q <- q.}", VOCAB)
        b = parse_ruleset("{q <- q. q <- r(c). q <- q.}", VOCAB)
        assert a == b


class TestFreeSymbols:
    def test_quantifier_binds(self):
        e = parse("?x: p(x, c)")
        names = {s.name for s in free_symbols(e)}
        assert names == {"p", "c"}

    def test_let_binds_defined_symbols(self):
        e = parse("let {q <- r(c).} in q")
        names = {s.name for s in free_symbols(e)}
        assert names == {"r", "c"}

    def test_ruleset_free_is_defined_plus_parameters(self):
        rs = parse_ruleset("{q <- r(c).}", VOCAB)
        assert {s.name for s in rs.defined_symbols} == {"q"}
        assert {s.name for s in rs.parameters} == {"r", "c"}
