"""Template libraries: validation, application, templification, macro
expansion and second order quantifier elimination.

Oracles: direct equivalence-relation checks, a Floyd-Warshall closure,
backward induction for game positions, and exhaustive model
enumeration for rewrites."""

import itertools
import random
from collections import Counter

import pytest
from click.testing import CliRunner

from deflog import definitions
from deflog.cli import main
from deflog.definitions import well_founded_model
from deflog.errors import CapExceeded, DeflogError, EvaluationError, TypeError_
from deflog.evaluator import evaluate_exact
from deflog.interpretation import PartialInterpretation
from deflog.limits import DEFAULT_LIMITS
from deflog.parser import parse_formula, parse_ruleset, parse_theory
from deflog.syntax import FRAGMENT_FO, ExistsSO, ForallFO, Not, classify, free_symbols, unparse
from deflog.templates import (
    Template, TemplateLibrary, _expandable, _sigma_bases, _stratify, apply_library,
    check_correspondence, eliminate_so, is_simple, macro_expand, sigma_equivalent,
    templify, validate_library,
)
from deflog.truthvalues import T
from deflog.vocab import CONST, Symbol, Vocabulary, pred, predicate_carrier

from conftest import DATA
from gen import random_tree
from oracles import (
    exact_set, expand_unknown, oracle_exact_interpretations, oracle_expandable,
    oracle_sigma_equivalent,
)


def load(name):
    return parse_theory((DATA / name).read_text())


def library(theory):
    return TemplateLibrary(
        tuple(Template(n, rs) for n, rs in theory.templates.items())
    )


def exact_relations(domain, arity):
    tuples = list(itertools.product(domain, repeat=arity))
    for r in range(len(tuples) + 1):
        for members in itertools.combinations(tuples, r):
            yield frozenset(members)


# ---------------------------------------------------------------------------
# Oracles


def is_equivalence(rel, domain) -> bool:
    return (
        all((d, d) in rel for d in domain)
        and all((b, a) in rel for a, b in rel)
        and all(
            (a, c) in rel
            for a, b in rel
            for b2, c in rel
            if b == b2
        )
    )


def warshall(rel, domain) -> frozenset:
    closed = set(rel)
    for k in domain:
        for i in domain:
            for j in domain:
                if (i, k) in closed and (k, j) in closed:
                    closed.add((i, j))
    return frozenset(closed)


def backward_induction(nodes, moves, is_won):
    """Win/lose values on an acyclic game graph, by depth recursion."""
    win, lose = {}, {}

    def eval_node(n):
        if n in win:
            return
        succs = [b for a, b in moves if a == n]
        for s in succs:
            eval_node(s)
        win[n] = n in is_won or any(lose[s] for s in succs)
        lose[n] = n not in is_won and all(win[s] for s in succs)

    for n in nodes:
        eval_node(n)
    return win, lose


def random_dag(rng, nodes):
    """Edges only from lower to higher node labels: always acyclic."""
    edges = set()
    for a, b in itertools.combinations(nodes, 2):
        if rng.random() < 0.4:
            edges.add((a, b))
    return frozenset(edges)


# ---------------------------------------------------------------------------


class TestValidation:
    def test_listing_libraries_validate(self):
        for name in ("eq.theory", "tc.theory", "range.theory", "game.theory"):
            report = validate_library(library(load(name)))
            assert report.ok, (name, report.problems)
            assert report.order

    def test_non_template_defined_symbol_is_reported(self):
        fo = Symbol("fo", pred(0))
        lib = TemplateLibrary(
            (Template("bad", parse_ruleset("{fo <- ~fo.}", Vocabulary.of([fo]))),)
        )
        report = validate_library(lib)
        assert not report.ok
        assert any("not a second order template symbol" in p for p in report.problems)

    def test_duplicate_definitions_are_reported(self):
        th = parse_theory(
            """
            vocab { B: template so-pred(); }
            template one { B <- B. }
            template two { B <- ~B. }
            """
        )
        report = validate_library(library(th))
        assert any("defined" in p and "B" in p for p in report.problems)

    def test_cross_template_cycles_are_reported(self):
        th = parse_theory(
            """
            vocab { A: template so-pred(); B: template so-pred(); }
            template one { A <- ~B. }
            template two { B <- ~A. }
            """
        )
        report = validate_library(library(th))
        assert not report.ok
        assert any("cycle" in p.lower() for p in report.problems)

    def test_paradoxical_template_is_reported_as_not_total(self):
        th = parse_theory(
            """
            vocab { B: template so-pred(); }
            template liar { B <- ~B. }
            """
        )
        report = validate_library(library(th))
        assert not report.ok
        assert any("not total" in p for p in report.problems)

    def test_self_recursion_within_a_template_is_allowed(self):
        report = validate_library(library(load("game.theory")))
        assert report.ok


class TestApplyLibrary:
    def test_equivalence_relation_template(self):
        th = load("eq.theory")
        sym = th.vocabulary.get("isEqRelation")
        for domain in (("a", "b"), ("a", "b", "c")):
            base = PartialInterpretation.empty(domain)
            out = apply_library(base, library(th))
            value = out.value(sym)
            for rel in exact_relations(domain, 2):
                expected = is_equivalence(rel, domain)
                assert (value.value((rel,)) is T) == expected, rel

    def test_transitive_closure_template(self):
        th = load("tc.theory")
        sym = th.vocabulary.get("tc")
        domain = ("a", "b")
        out = apply_library(PartialInterpretation.empty(domain), library(th))
        value = out.value(sym)
        rng = random.Random(41)
        rels = list(exact_relations(domain, 2))
        for _ in range(40):
            p_rel, q_rel = rng.choice(rels), rng.choice(rels)
            expected = q_rel == warshall(p_rel, domain)
            assert (value.value((p_rel, q_rel)) is T) == expected, (p_rel, q_rel)

    def test_recursive_range_template(self):
        # all 2^n * n^2 instances: on {1..4} the completion search over the
        # inner definition must be pruned to finish, and on {68..70} a + 1
        # must have a value where the integer 1 is not a domain element
        th = load("range.theory")
        sym = th.vocabulary.get("range")
        for domain in ((1, 2), (1, 2, 3, 4), (68, 69, 70)):
            out = apply_library(PartialInterpretation.empty(domain), library(th))
            value = out.value(sym)
            for rel in exact_relations(domain, 1):
                for a in domain:
                    for b in domain:
                        want = {(x,) for x in range(a, b + 1)} or {(a,)}
                        expected = rel == frozenset(want)
                        assert (value.value((rel, a, b)) is T) == expected, (rel, a, b)

    def test_game_template_matches_backward_induction_on_dags(self):
        th = load("game.theory")
        win_s, lose_s = th.vocabulary.get("win"), th.vocabulary.get("lose")
        lib = library(th)
        nodes = (1, 2, 3, 4)
        rng = random.Random(43)
        for _ in range(10):
            moves = random_dag(rng, nodes)
            is_won = frozenset(n for n in nodes if rng.random() < 0.3)
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
                assert (out.value(win_s).value(key) is T) == win[n], (moves, is_won)
                assert (out.value(lose_s).value(key) is T) == lose[n], (moves, is_won)

    def test_game_template_on_a_cycle_is_still_total(self):
        # observed behavior: a two-node cycle with nothing won gives the
        # drawn positions win = f and lose = f (the all-false model is
        # the unique partial stable model), so the template stays total
        th = load("game.theory")
        win_s, lose_s = th.vocabulary.get("win"), th.vocabulary.get("lose")
        moves = frozenset({(1, 2), (2, 1)})
        carriers = {
            s: [(n, moves, frozenset()) for n in (1, 2)] for s in (win_s, lose_s)
        }
        out = apply_library(
            PartialInterpretation.empty((1, 2)), library(th), so_instances=carriers
        )
        for n in (1, 2):
            assert out.value(win_s).value((n, moves, frozenset())) is not T
            assert out.value(lose_s).value((n, moves, frozenset())) is not T

    def test_already_interpreted_template_symbol_rejected(self):
        th = load("eq.theory")
        base = expand_unknown(PartialInterpretation.empty(("a",)),
                              [th.vocabulary.get("isEqRelation")])
        with pytest.raises(EvaluationError):
            apply_library(base, library(th))


# two templates, the second reading the first's symbol: its parameter
# context holds isRefl, the first's holds nothing
LAYERED = """
vocab {
  isRefl: template so-pred(pred/2);
  isEquiv: template so-pred(pred/2);
  P: pred/2;
}
template refl { isRefl(F) <- !a: F(a, a). }
template equiv {
  isEquiv(F) <- isRefl(F) & (!a: !b: F(a, b) => F(b, a))
    & (!a: !b: !c: F(a, b) & F(b, c) => F(a, c)).
}
"""


def _game_instances(th, nodes):
    win_s, lose_s = th.vocabulary.get("win"), th.vocabulary.get("lose")
    moves = frozenset({(nodes[0], nodes[1]), (nodes[1], nodes[2]), (nodes[2], nodes[1])})
    won = frozenset({(nodes[2],)})
    return {s: [(n, moves, won) for n in nodes] for s in (win_s, lose_s)}


class TestLocality:
    """A template's well-founded model depends only on its parameters, so
    `apply_library` gives the same template values whatever else the
    structure interprets, and runs one fixpoint per parameter context."""

    EXTRA = (Symbol("k", CONST), Symbol("extra", pred(1)), Symbol("E2", pred(2)))

    def with_extras(self, th, domain, rng):
        user = [s for s in th.vocabulary if s.kind == "user"]
        valuation = {}
        for s in [*user, *self.EXTRA]:
            if s.type.kind == "const":
                valuation[s] = rng.choice(domain)
            else:
                keys = list(itertools.product(domain, repeat=s.type.arity))
                valuation[s] = exact_set(keys, [k for k in keys if rng.random() < 0.5])
        return PartialInterpretation.make(domain, valuation)

    @pytest.mark.parametrize("source, domain", [
        ("eq.theory", ("a", "b")), ("tc.theory", ("a", "b")),
        ("game.theory", (1, 2, 3)), ("range.theory", (1, 2)), (LAYERED, ("a", "b")),
    ])
    def test_extra_symbols_leave_template_values_alone(self, monkeypatch, source, domain):
        th = load(source) if source.endswith(".theory") else parse_theory(source)
        lib = library(th)
        so = _game_instances(th, domain) if source == "game.theory" else None
        rng = random.Random(67)
        monkeypatch.setattr(definitions, "_WFM_CACHE", {})
        alone = apply_library(PartialInterpretation.empty(domain), lib, so_instances=so)
        for _ in range(3):
            monkeypatch.setattr(definitions, "_WFM_CACHE", {})
            base = self.with_extras(th, domain, rng)
            out = apply_library(base, lib, so_instances=so)
            for s in lib.template_symbols():
                assert out.value(s) == alone.value(s), s.name
            for s, v in base.assignments:
                assert out.value(s) is v
        # the whole structure as context gives the same model, stratum by stratum
        context = base
        for t in _stratify(lib)[0]:
            carriers = so and {d: so[d] for d in t.defined}
            wfm = well_founded_model(t.ruleset, context, DEFAULT_LIMITS, carriers)
            for d in t.defined:
                assert wfm.value(d) == alone.value(d), d.name
                context = context.expand(d, wfm.value(d))

    def test_expand_check_equiv_runs_one_fixpoint_per_test_domain(self, monkeypatch):
        # 260 exact interpretations of the unrelated P and Q over |D| <= 2,
        # one template context per domain
        calls = []
        fixpoint = definitions._residual_wfm

        def counting(*args):
            calls.append(args[1].domain)
            return fixpoint(*args)

        monkeypatch.setattr(definitions, "_WFM_CACHE", {})
        monkeypatch.setattr(definitions, "_residual_wfm", counting)
        r = CliRunner().invoke(main, ["expand", str(DATA / "eq.theory"), "--check-equiv"])
        assert r.exit_code == 0 and r.output.endswith("equiv: pass\n")
        assert calls == [("a",), ("a", "b")]


class TestTemplify:
    VOCAB = Vocabulary.of(
        [Symbol("Rch", pred(1)), Symbol("B", pred(1)), Symbol("E", pred(2))]
    )
    RULESET = "{Rch(x) <- B(x) | (?y: E(y, x) & Rch(y)).}"

    def opens(self):
        return (self.VOCAB.get("B"), self.VOCAB.get("E"))

    def test_templified_shape(self):
        d = parse_ruleset(self.RULESET, self.VOCAB)
        dt, mapping = templify(d, self.opens())
        (p2,) = mapping.values()
        assert p2.name == "Rch'"
        assert p2.kind == "template"
        assert p2.type.kind == "so-pred" and p2.type.arity == 3
        assert dt.parameters == frozenset()

    def test_open_symbols_must_match_parameters(self):
        d = parse_ruleset(self.RULESET, self.VOCAB)
        with pytest.raises(TypeError_):
            templify(d, (self.VOCAB.get("B"),))

    def test_correspondence_on_concrete_contexts(self):
        d = parse_ruleset(self.RULESET, self.VOCAB)
        dt, mapping = templify(d, self.opens())
        rch, b_sym, e_sym = (self.VOCAB.get(n) for n in ("Rch", "B", "E"))
        domain = ("a", "b")
        it = well_founded_model(dt, PartialInterpretation.empty(domain))
        assert it is not None and it.is_exact
        rng = random.Random(47)
        rels1 = list(exact_relations(domain, 1))
        rels2 = list(exact_relations(domain, 2))
        for _ in range(25):
            b_rel, e_rel = rng.choice(rels1), rng.choice(rels2)
            context = PartialInterpretation.make(
                domain,
                {
                    b_sym: exact_set([(d_,) for d_ in domain], b_rel),
                    e_sym: exact_set(
                        list(itertools.product(domain, repeat=2)), e_rel
                    ),
                },
            )
            i = well_founded_model(d, context)
            assert check_correspondence(d, dt, mapping, i, it, self.opens())

    def test_correspondence_detects_mismatches(self):
        d = parse_ruleset(self.RULESET, self.VOCAB)
        dt, mapping = templify(d, self.opens())
        rch, b_sym, e_sym = (self.VOCAB.get(n) for n in ("Rch", "B", "E"))
        domain = ("a",)
        it = well_founded_model(dt, PartialInterpretation.empty(domain))
        context = PartialInterpretation.make(
            domain,
            {
                b_sym: exact_set([("a",)], [("a",)]),
                e_sym: exact_set([("a", "a")], []),
            },
        )
        wrong = context.expand(rch, exact_set([("a",)], []))  # Rch should be {a}
        assert not check_correspondence(d, dt, mapping, wrong, it, self.opens())

    def test_atoms_extend_inside_let_definitions_and_aggregates(self):
        vocab = Vocabulary.of([
            *self.VOCAB, Symbol("L", pred(1)), Symbol("K", pred(0)),
        ])
        d = parse_ruleset(
            "{Rch(x) <- B(x) | (let {L(y) <- E(x, y) & Rch(y).} in "
            "#{z: L(z) & Rch(z)} > 0) | {K <- Rch(x) & x = x.}.}",
            vocab,
        )
        opens = tuple(vocab.get(n) for n in ("B", "E", "K"))
        dt, _ = templify(d, opens)
        assert unparse(dt) == (
            "{Rch'(x, B, E, K) <- ((B(x) | let {L(y) <- (E(x, y) & "
            "Rch'(y, B, E, K)).} in #{z : (L(z) & Rch'(z, B, E, K))} > 0) | "
            "{K <- (Rch'(x, B, E, K) & x = x).}).}"
        )


class TestTemplifyAtThreeElements:
    """Templified rules have a first order head argument and second order
    ones: a body reading no templified symbol is ground once per element
    and re-valued per relation.  Criterion 08 checks the correspondence
    at |D| <= 2; here every context of unary opens over three elements."""

    VOCAB = Vocabulary.of([Symbol(n, pred(1)) for n in "ABC"])
    FREE = ["B(x)", "~B(x)", "C(x)", "(!y: B(y) => C(y))", "(?y: B(y) & ~C(x))"]  # read no A
    POOL = FREE + ["A(x)", "(?y: C(y) & A(y))", "~(?y: B(y) & A(y))"]

    def test_random_definitions_correspond(self):
        rng, domain = random.Random(211), ("a", "b", "c")
        checked = lifted = 0
        for _ in range(12):
            rules = [f"A(x) <- {rng.choice(('&', '|')).join(rng.sample(pool, 2))}."
                     for pool in [self.FREE] + [self.POOL] * rng.randint(0, 2)]
            d = parse_ruleset("{" + " ".join(rules) + "}", self.VOCAB)
            opens = tuple(sorted(d.parameters, key=lambda s: s.name))
            dt, mapping = templify(d, opens)
            lifted += any(so for rs in definitions._plan(dt).values() for _, so in rs)
            it = well_founded_model(dt, PartialInterpretation.empty(domain))
            carrier = [(e,) for e in domain]
            for members in itertools.product(*[list(exact_relations(domain, 1))] * len(opens)):
                i = well_founded_model(d, PartialInterpretation.make(domain, {
                    o: exact_set(carrier, m) for o, m in zip(opens, members)}))
                if i.is_exact:
                    assert check_correspondence(d, dt, mapping, i, it, opens), f"{d}"
                    checked += 1
        assert lifted >= 10 and checked >= 300, (lifted, checked)


class TestMacroExpansion:
    def test_simple_template_recognition(self):
        assert is_simple(library(load("eq.theory")).templates[0])
        assert not is_simple(library(load("game.theory")).templates[0])

    def test_expansion_removes_template_symbols(self):
        th = load("eq.theory")
        lib = library(th)
        out = macro_expand(th.formulas["both"], lib)
        assert not (free_symbols(out) & set(lib.template_symbols()))
        assert classify(out) == FRAGMENT_FO

    def test_expansion_preserves_models(self):
        th = load("eq.theory")
        out = macro_expand(th.formulas["both"], library(th))
        p_sym, q_sym = th.vocabulary.get("P"), th.vocabulary.get("Q")
        domain = ("a", "b")
        carrier = list(itertools.product(domain, repeat=2))
        rng = random.Random(53)
        rels = list(exact_relations(domain, 2))
        for _ in range(30):
            p_rel, q_rel = rng.choice(rels), rng.choice(rels)
            i = PartialInterpretation.make(
                domain,
                {p_sym: exact_set(carrier, p_rel), q_sym: exact_set(carrier, q_rel)},
            )
            expected = is_equivalence(p_rel, domain) and is_equivalence(q_rel, domain)
            assert (evaluate_exact(out, i) is T) == expected, (p_rel, q_rel)

    def test_expansion_under_let_aggregate_and_definition(self):
        th = parse_theory(
            "vocab { isEqRelation: template so-pred(pred/2); P: pred/2; "
            "Q: pred/2; L: pred/0; K: pred/0; }\n"
            "template eq { isEqRelation(F) <- (!a: F(a, a)) "
            "& (!a: !b: F(a, b) => F(b, a)). }\n"
            "formula f { (let {L <- isEqRelation(P).} in "
            "L & #{x: isEqRelation(Q) & x = x} > 0) & {K <- isEqRelation(P).} }\n"
        )
        out = macro_expand(th.formulas["f"], library(th))
        assert unparse(out) == (
            "((let {L <- ((!a: P(a, a)) & !a: !b: (P(a, b) => P(b, a))).} in "
            "(L & #{x : (((!a: Q(a, a)) & !a: !b: (Q(a, b) => Q(b, a))) "
            "& x = x)} > 0)) & {K <- ((!a: P(a, a)) & !a: !b: "
            "(P(a, b) => P(b, a))).})"
        )

    def test_recursive_templates_are_rejected(self):
        th = load("range.theory")
        phi = parse_formula(
            "?? X[pred/1]: range(X, 1, 2)", th.vocabulary
        )
        with pytest.raises(EvaluationError, match="recursive|not simple"):
            macro_expand(phi, library(th))


class TestEliminateSO:
    VOCAB = Vocabulary.of([Symbol("P", pred(2)), Symbol("R", pred(1))])

    def parse(self, text):
        return parse_formula(text, self.VOCAB)

    def test_prefix_form_becomes_first_order(self):
        phi = self.parse("?? S[pred/1]: (!x: S(x) | R(x)) & (?x: S(x))")
        matrix, skolems = eliminate_so(phi)
        assert [s.name for s in skolems] == ["S"]
        assert classify(matrix) == FRAGMENT_FO

    def test_switching_past_a_universal_extends_arity(self):
        phi = self.parse("!x: ?? S[pred/1]: S(x) & (!y: S(y) => P(x, y))")
        matrix, skolems = eliminate_so(phi)
        assert len(skolems) == 1
        assert skolems[0].type.arity == 2  # pred/1 gained the universal's slot
        assert classify(matrix) == FRAGMENT_FO

    @pytest.mark.parametrize("domain", [("a",), ("a", "b")])
    def test_rewrites_are_sigma_equivalent(self, domain):
        for text in (
            "?? S[pred/1]: (!x: S(x) | R(x)) & (?x: S(x))",
            "!x: ?? S[pred/1]: S(x) & (!y: S(y) => P(x, y))",
            "(?? S[pred/1]: ?x: S(x)) | (?x: R(x))",
        ):
            phi = self.parse(text)
            matrix, _ = eliminate_so(phi)
            sigma = sorted(free_symbols(phi), key=lambda s: s.name)
            assert sigma_equivalent(phi, matrix, sigma, domain), text

    def test_let_and_definition_rule_sets_are_left_as_written(self):
        vocab = Vocabulary.of([
            *self.VOCAB, Symbol("L", pred(0)), Symbol("K", pred(0)),
        ])
        phi = parse_formula(
            "let {L <- ?x: R(x) => K.} in L & {K <- L => (?x: R(x)).}", vocab
        )
        matrix, skolems = eliminate_so(phi)
        assert skolems == ()
        assert matrix == phi
        phi = parse_formula(
            "?? S[pred/1]: (!x: S(x) => R(x)) & (let {L <- ?x: R(x) <=> K.} "
            "in L & {K <- L => (?x: S(x)).})",
            vocab,
        )
        matrix, skolems = eliminate_so(phi)
        assert [s.name for s in skolems] == ["S"]
        assert unparse(matrix) == (
            "((!x: (~S(x) | R(x))) & let {L <- ?x: (R(x) <=> K).} in "
            "(L & {K <- (L => ?x: S(x)).}))"
        )

    def test_switching_reaches_let_aggregate_and_definition_bodies(self):
        vocab = Vocabulary.of([
            *self.VOCAB, Symbol("L", pred(0)), Symbol("K", pred(0)),
        ])
        phi = parse_formula(
            "!x: ?? S[pred/1]: S(x) & x = x & #{y: S(y) & R(y)} > 0 "
            "& (let {L <- ?y: S(y) => R(y).} in L) & {K <- S(x).}",
            vocab,
        )
        matrix, skolems = eliminate_so(phi)
        assert [(s.name, s.type.arity) for s in skolems] == [("S_1", 2)]
        assert unparse(matrix) == (
            "!x: ((((S_1(x, x) & x = x) & #{y : (S_1(y, x) & R(y))} > 0) & "
            "let {L <- ?y: (S_1(y, x) => R(y)).} in L) & {K <- S_1(x, x).})"
        )

    def test_negated_so_quantifier_is_rejected(self):
        with pytest.raises(EvaluationError, match="second order"):
            eliminate_so(self.parse("~(?? S[pred/1]: ?x: S(x))"))

    def test_universal_so_quantifier_is_rejected(self):
        with pytest.raises(EvaluationError, match="second order"):
            eliminate_so(self.parse("!! S[pred/1]: ?x: S(x)"))


class TestSigmaEquivalence:
    VOCAB = Vocabulary.of([Symbol("P", pred(2)), Symbol("R", pred(1))])

    def test_propositional_laws(self):
        r = self.VOCAB.get("R")
        a = parse_formula("?x: R(x)", self.VOCAB)
        b = parse_formula("~(!x: ~R(x))", self.VOCAB)
        assert sigma_equivalent(a, b, [r], ("a", "b"))

    def test_detects_inequivalence(self):
        r = self.VOCAB.get("R")
        a = parse_formula("?x: R(x)", self.VOCAB)
        b = parse_formula("!x: R(x)", self.VOCAB)
        assert not sigma_equivalent(a, b, [r], ("a", "b"))

    def test_extra_symbols_are_existential(self):
        # a formula with a free symbol outside sigma holds when some
        # expansion makes it true
        r = self.VOCAB.get("R")
        a = parse_formula("?x: R(x) & P(x, x)", self.VOCAB)
        b = parse_formula("?x: R(x)", self.VOCAB)
        assert sigma_equivalent(a, b, [r], ("a", "b"))


class TestSigmaEquivalenceOnTheSearch:
    """Σ bases from the `mx` search and expandability as one supervaluation,
    against the enumeration of every exact value (`oracle_sigma_equivalent`)."""

    P, Q = Symbol("P", pred(2)), Symbol("Q", pred(2))
    VOCAB = Vocabulary.of([P, Q, Symbol("R", pred(1)), Symbol("T", pred(2)),
                           Symbol("Z", pred(1))])
    SWITCHED = load("eso.theory").formulas["switched"]

    @pytest.mark.parametrize("domain", [("a",), ("a", "b"), ("a", "b", "c")])
    def test_switched_against_its_rewrite_and_two_broken_ones(self, domain):
        matrix, _ = eliminate_so(self.SWITCHED)
        sigma = [self.P]
        assert sigma_equivalent(self.SWITCHED, matrix, sigma, domain)
        dropped = parse_formula("!x: T(x, x)", self.VOCAB)  # the second conjunct dropped
        assert not sigma_equivalent(self.SWITCHED, dropped, sigma, domain)
        swapped = parse_formula("!x: Z(x) & (!y: Z(y) => P(x, y))", self.VOCAB)  # ∃S∀x
        assert sigma_equivalent(self.SWITCHED, swapped, sigma, domain) is (len(domain) == 1)

    def test_the_cap_counts_every_atom_of_sigma(self):
        a = parse_formula("?x: P(x, x)", self.VOCAB)
        b = parse_formula("?x: Q(x, x)", self.VOCAB)
        limits = DEFAULT_LIMITS.with_(max_unknowns=5)
        with pytest.raises(CapExceeded, match=r"^8 unknown atoms exceed cap 5 \(--max-completions\)$"):
            sigma_equivalent(a, b, [self.P, self.Q], ("a", "b"), limits)
        # the enumeration capped each symbol alone, 4 atoms, and went through 2^8 bases
        assert not oracle_sigma_equivalent(a, b, [self.P, self.Q], ("a", "b"), limits)

    def test_bases_are_the_exact_interpretations_t_before_f(self):
        c = Symbol("c", CONST)
        sigma = [self.VOCAB.get("R"), c, self.P]
        bases = [
            tuple((s.name, getattr(v, "values", v)) for s, v in j.assignments)
            for j in _sigma_bases(sigma, ("a", "b"), DEFAULT_LIMITS)]
        want = [tuple((s.name, getattr(v, "values", v)) for s, v in j.assignments)
                for j in oracle_exact_interpretations(sigma, ("a", "b"))]
        assert len(bases) == len(want) == 2 ** 6 * 2 and set(bases) == set(want)
        assert bases[:2] == [(("P", (T,) * 4), ("R", (T, T)), ("c", d)) for d in "ab"]

    @staticmethod
    def outcome(f):
        try:
            return f()
        except DeflogError as exc:
            return type(exc)

    def compare(self, new, old, counts: Counter) -> None:
        """Equal verdicts where both answer, equal classes where both raise;
        a raise on one side only counts, as the two searches visit
        completions in different orders and stop at different ones."""
        new, old = self.outcome(new), self.outcome(old)
        if type(new) is bool and type(old) is bool:
            assert new is old
            counts[new] += 1
        elif type(new) is bool or type(old) is bool:
            counts["one side raises"] += 1
        else:
            assert new is old
            counts["both raise"] += 1

    DOMAINS = ((1,), (1, 2))
    MAX_ATOMS = 10  # Σ and extra atoms together, so the oracle's 2^n loops stay small

    @staticmethod
    def atoms(symbols, domain) -> int:
        return sum(len(predicate_carrier(s.type, domain)) for s in symbols if s.type.is_predicate)

    def test_eso_rewrites_match_the_enumeration(self):
        # every rewrite eliminate_so gives is Σ-equivalent; its negation, a
        # wrong rewrite, keeps the differential seeing both verdicts
        s, x = Symbol("S", pred(1)), Symbol("x", CONST)
        counts, wrong = Counter(), Counter()
        for seed in range(100):
            rng = random.Random(seed)
            fo = (x,) if rng.random() < 0.5 else ()
            phi = ExistsSO(s, random_tree(rng, 2, fo_vars=fo, so_vars=(s,), rels=(s,)))
            phi = ForallFO(x, phi) if fo else phi
            try:
                matrix, _ = eliminate_so(phi)
            except EvaluationError:  # not in ESO(ID*): a positive universal, say
                continue
            sigma = sorted(free_symbols(phi), key=lambda sym: sym.name)
            for domain in self.DOMAINS:
                if self.atoms(free_symbols(matrix) | set(sigma), domain) <= self.MAX_ATOMS:
                    for rewrite, seen in ((matrix, counts), (Not(matrix), wrong)):
                        self.compare(lambda: sigma_equivalent(phi, rewrite, sigma, domain),
                                     lambda: oracle_sigma_equivalent(phi, rewrite, sigma, domain),
                                     seen)
        assert counts[True] >= 100 and counts[False] == 0, counts
        assert wrong[False] >= 20, wrong
        assert counts["one side raises"] + counts["both raise"] <= 5, counts

    def test_extra_symbols_and_a_constant_match_the_enumeration(self):
        c = Symbol("c", CONST)
        counts, drawn = Counter(), Counter()
        for seed in range(100):
            rng = random.Random(seed)
            phi = random_tree(rng, 2, consts=(c,))
            free = sorted((sym for sym in free_symbols(phi) if sym.type.is_predicate),
                          key=lambda sym: sym.name)
            sigma = [sym for sym in free if rng.random() < 0.5]  # the rest are extra
            drawn["constant"] += c in free_symbols(phi)
            drawn["extra predicate"] += len(sigma) < len(free)
            for domain in self.DOMAINS:
                if self.atoms(free, domain) <= self.MAX_ATOMS:
                    for base in oracle_exact_interpretations(sigma, domain):
                        self.compare(lambda: _expandable(phi, base, DEFAULT_LIMITS),
                                     lambda: oracle_expandable(phi, base), counts)
        assert drawn["constant"] >= 40 and drawn["extra predicate"] >= 40, drawn
        assert counts[True] >= 500 and counts[False] >= 300, counts
        assert counts["one side raises"] + counts["both raise"] <= 5, counts
