"""Rule set semantics: supportedness, unfounded sets, partial stable
models, stable models and the well-founded model.

Independent oracle: the classical stable operator Γ for propositional
rule sets (least fixpoint with negative occurrences frozen), giving
stable models as fixpoints, partial stable models as Γ-oscillating
pairs, and the WFM via the alternating fixpoint."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deflog import definitions, interpretation
from deflog.cli import _mx_models
from deflog.definitions import (
    eval_definition, expand_context, greatest_unfounded_set,
    is_partial_stable, is_total, partial_stable_models, stable_models,
    well_founded_model,
)
from deflog.errors import (
    CapExceeded, DeflogError, EvaluationError, NonTotalDefinitionError, TypeError_,
)
from deflog.evaluator import SUPERVALUATION, EvalContext, evaluate, evaluate_exact
from deflog.interpretation import PartialInterpretation, read_structure
from deflog.limits import Limits
from deflog.parser import Theory, parse_ruleset, parse_theory
from deflog.syntax import (
    AddTerm, And, Atom1, Atom2, ExistsFO, ExistsSO, ForallFO, Implies, IntTerm, Not, Or, Rule,
    RuleSet, SymTerm, free_symbols, unparse,
)
from deflog.templates import Template, TemplateLibrary, apply_library
from deflog.truthvalues import F, T, U, PartialSet, max_truth
from deflog.vocab import (
    CONST, DOMAIN as DOMAIN_TYPE, DomainAtom, Symbol, Vocabulary, pred, predicate_carrier, so_pred,
)

from conftest import DATA
from gen import (
    CON, EDGE, GUARDED, MARK, P1, PROPS, REACH, SO1, SO_HEAD, SO_WIN, WIN, X, guarded_context,
    guarded_quantifier, random_guarded_rules, random_ruleset, random_tree,
)
from oracles import (
    FreshGround, exact_completions, flat_filter, is_closed, is_unfounded, oracle_demotion,
    oracle_eval_definition, oracle_exact_prudent, oracle_fresh_demotion,
    oracle_supported_candidates, oracle_unfounded_set, oracle_wfm_fixpoint, super_oracle,
)
from test_evaluator import exact_holds, node_kinds, random_partial, value_or_error

p, q, r = PROPS
VOCAB = Vocabulary.of(PROPS)
DOMAIN = ("a",)


def rs(text):
    return parse_ruleset(text, VOCAB)


def ctx(**values):
    """A propositional context interpretation; values are 't'/'u'/'f'."""
    tv = {"t": T, "u": U, "f": F}
    valuation = {
        VOCAB.get(name): PartialSet.from_map({(): tv[v]})
        for name, v in values.items()
    }
    return PartialInterpretation.make(DOMAIN, valuation)


def values_of(i, symbols=PROPS):
    return "".join(
        str(i.value(s).value(())) for s in symbols if i.interprets(s)
    )


# ---------------------------------------------------------------------------
# Independent oracle: the stable operator for propositional rule sets


def _holds(body, pos: frozenset, neg: frozenset) -> bool:
    """Two-input body evaluation: positive occurrences read `pos`,
    negated ones flip the roles (handles arbitrary nesting)."""
    if isinstance(body, Atom1):
        return body.predicate in pos
    if isinstance(body, Not):
        return not _holds(body.body, neg, pos)
    if isinstance(body, And):
        return all(_holds(a, pos, neg) for a in body.args)
    if isinstance(body, Or):
        return any(_holds(a, pos, neg) for a in body.args)
    raise AssertionError(f"oracle cannot handle {body!r}")


def gamma(d, m: frozenset) -> frozenset:
    """Least fixpoint of the one-step operator with negation frozen at m."""
    out: frozenset = frozenset()
    while True:
        new = frozenset(
            rule.head for rule in d.rules if _holds(rule.body, out, m)
        )
        if new == out:
            return out
        out = new


def oracle_partial_stable(d):
    """All (true set, possible set) pairs with I = Γ(J), J = Γ(I), I ⊆ J."""
    atoms = sorted(d.defined_symbols, key=lambda s: s.name)
    out = []
    for bits in itertools.product((0, 1), repeat=len(atoms)):
        j = frozenset(a for a, b in zip(atoms, bits) if b)
        i = gamma(d, j)
        if i <= j and gamma(d, i) == j:
            out.append((i, j))
    return out


def oracle_wfm(d):
    """Alternating fixpoint: lfp of Γ² is the true set, Γ of it the
    non-false set."""
    true: frozenset = frozenset()
    while True:
        new = gamma(d, gamma(d, true))
        if new == true:
            break
        true = new
    return true, gamma(d, true)


def as_interpretation(d, true: frozenset, possible: frozenset):
    valuation = {
        s: PartialSet.from_map(
            {(): T if s in true else (U if s in possible else F)}
        )
        for s in d.defined_symbols
    }
    return PartialInterpretation.make(DOMAIN, valuation)


# ---------------------------------------------------------------------------


class TestCanonicalPrograms:
    def test_mutual_negation(self):
        d = rs("{p <- ~q. q <- ~p.}")
        o = PartialInterpretation.empty(DOMAIN)
        models = {values_of(m, (p, q)) for m in partial_stable_models(d, o)}
        assert models == {"uu", "tf", "ft"}
        assert values_of(well_founded_model(d, o), (p, q)) == "uu"
        stables = {values_of(m, (p, q)) for m in stable_models(d, o)}
        assert stables == {"tf", "ft"}

    def test_self_support_is_false(self):
        d = rs("{p <- p.}")
        o = PartialInterpretation.empty(DOMAIN)
        assert values_of(well_founded_model(d, o), (p,)) == "f"
        assert [values_of(m, (p,)) for m in stable_models(d, o)] == ["f"]
        assert is_total(d, o)

    def test_self_negation_is_a_paradox(self):
        d = rs("{p <- ~p.}")
        o = PartialInterpretation.empty(DOMAIN)
        assert values_of(well_founded_model(d, o), (p,)) == "u"
        assert stable_models(d, o) == []
        assert not is_total(d, o)

    def test_positive_loop_with_base(self):
        d = rs("{p <- q. q <- p. p <- r.}")
        assert values_of(well_founded_model(d, ctx(r="t")), (p, q)) == "tt"
        assert values_of(well_founded_model(d, ctx(r="f")), (p, q)) == "ff"


class TestAgainstStableOperatorOracle:
    """Randomized equivalence with the independent Γ-based oracle."""

    N = 300

    def test_partial_stable_models_match(self):
        rng = random.Random(23)
        o = PartialInterpretation.empty(DOMAIN)
        for _ in range(self.N):
            d = random_ruleset(rng)
            got = {
                values_of(m, sorted(d.defined_symbols, key=lambda s: s.name))
                for m in partial_stable_models(d, o)
            }
            expected = {
                values_of(
                    as_interpretation(d, i, j),
                    sorted(d.defined_symbols, key=lambda s: s.name),
                )
                for i, j in oracle_partial_stable(d)
            }
            assert got == expected, f"{d}"

    def test_wfm_both_methods_match_alternating_fixpoint(self):
        rng = random.Random(29)
        o = PartialInterpretation.empty(DOMAIN)
        for _ in range(self.N):
            d = random_ruleset(rng)
            true, possible = oracle_wfm(d)
            expected = as_interpretation(d, true, possible)
            fix = well_founded_model(d, o)
            # the normative reading: the least of all partial stable models
            models = partial_stable_models(d, o)
            enum = next((m for m in models if all(m.leq_prec(n) for n in models)), None)
            assert fix == expected, f"{d}"
            assert enum == expected, f"{d}"

    def test_stable_models_match_in_candidate_order(self):
        # the supportedness cut drops candidate subtrees; what is left
        # must be the oracle's exact models, t before f per atom
        rng = random.Random(41)
        o = PartialInterpretation.empty(DOMAIN)
        for _ in range(self.N):
            d = random_ruleset(rng, max_rules=6)
            atoms = sorted(d.defined_symbols, key=lambda s: s.name)
            expected = sorted(
                (as_interpretation(d, i, j) for i, j in oracle_partial_stable(d) if i == j),
                key=lambda m: [m.value(a).value(()) is F for a in atoms],
            )
            assert stable_models(d, o) == expected, f"{d}"

    def test_exact_wfm_is_the_unique_stable_model(self):
        rng = random.Random(31)
        o = PartialInterpretation.empty(DOMAIN)
        for _ in range(self.N):
            d = random_ruleset(rng)
            wfm = well_founded_model(d, o)
            models = stable_models(d, o)
            if wfm.is_exact:
                assert models == [wfm], f"{d}"
            else:
                assert wfm not in models


class TestSupportednessCut:
    def test_cut_leaves_body_errors_to_the_candidates(self):
        # a is unsupported in every candidate, so no candidate evaluates
        # b's body (its bound is not an integer); with a = f and c still
        # open, a's supported value is u and the cut reaches b's body
        s, k = Symbol("s", pred(1)), Symbol("k", CONST)
        vocab = Vocabulary.of([s, k] + [Symbol(n, pred(0)) for n in "abc"])
        d = parse_ruleset("{a <- (c | ~c) & ~a. b <- #{x: s(x)} > k. c <- c.}", vocab)
        o = PartialInterpretation.make(
            ("x1",), {s: PartialSet.from_map({("x1",): T}), k: "x1"}
        )
        assert stable_models(d, o) == []

    def test_rule_bodies_of_every_node_kind_equal_the_flat_filter(self):
        # bodies holding definitions, let-blocks, sums, second order
        # quantifiers and atoms now cut too, once their atoms are assigned
        rng, seen, kinds = random.Random(139), collections.Counter(), set()
        for _ in range(300):
            d = random_tree_rules(rng)
            present = [s for s in SYMBOLS if s not in d.defined_symbols]
            limits = Limits(max_unknowns=rng.choice((3, 20)))
            o = random_partial(rng, present, (1,))
            got = outcome(lambda: stable_models(d, o, limits))
            i0 = expand_context(d, o, limits)
            atoms, ctx = definitions._defined_atoms(d, i0), EvalContext(limits=limits)
            want, errors, accepted = flat_filter(i0.refinements(atoms), lambda j: all(
                j.atom_value(a) is max_truth(definitions._body_values(d, a, j, ctx), empty=F)
                for a in atoms) and definitions._demotion(d, j, atoms, limits) is None)
            for r in d.rules:
                kinds |= node_kinds(r.body)
            if got == want:
                seen["same " + ("models" if got[1] is None else "error")] += 1
                seen["some model"] += bool(got[0])
            else:
                assert want[1] is not None and (got[1] in errors or got == (accepted, None))
                seen["a cut skipped a raising candidate"] += 1
        assert seen["some model"] > 100 and seen["same error"] > 3, seen
        assert {"Atom2", "ForallSO", "ExistsSO", "sum", "DefinitionExpr", "Let"} <= kinds

    def test_a_cut_leaf_that_raises_decides_nothing(self):
        # at a = t, b = t the let-block in a's body is non-total and b is
        # unsupported: the cut must not drop the candidate, whose check
        # reports the let's error as the flat filter does
        vocab = Vocabulary.of([Symbol(n, pred(0)) for n in "abq"])
        d = parse_ruleset("{a <- let {q <- ~q & b.} in ~q. b <- ~a.}", vocab)
        o = PartialInterpretation.empty(("x1",))
        with pytest.raises(NonTotalDefinitionError):
            stable_models(d, o)


class TestMonotoneRuleSets:
    def test_wfm_is_the_classical_least_fixpoint(self):
        rng = random.Random(37)
        o = PartialInterpretation.empty(DOMAIN)
        for _ in range(200):
            d = random_ruleset(rng, negation=False)
            wfm = well_founded_model(d, o)
            assert wfm.is_exact
            lfp = gamma(d, frozenset())  # negation-free: Γ ignores m
            for s in sorted(d.defined_symbols, key=lambda x: x.name):
                expected = T if s in lfp else F
                assert wfm.value(s).value(()) is expected, f"{d}"


class TestUnfoundedSets:
    def test_unsupported_loop_is_unfounded(self):
        d = rs("{p <- q. q <- p.}")
        i = expand_context(d, PartialInterpretation.empty(DOMAIN))
        atoms = {DomainAtom(p, ()), DomainAtom(q, ())}
        assert is_unfounded(d, i, atoms)
        assert greatest_unfounded_set(d, i) == atoms

    def test_supported_atom_is_not_unfounded(self):
        d = rs("{p <- r.}")
        i = expand_context(d, ctx(r="t"))
        assert not is_unfounded(d, i, {DomainAtom(p, ())})
        assert greatest_unfounded_set(d, i) == set()

    def test_empty_set_is_never_reported(self):
        d = rs("{p <- ~p.}")
        i = expand_context(d, PartialInterpretation.empty(DOMAIN))
        assert greatest_unfounded_set(d, i) == set()


class TestStableReport:
    def test_report_fields_on_stable_model(self):
        d = rs("{p <- ~q. q <- ~p.}")
        report = is_partial_stable(d, ctx(p="t", q="f"))
        assert report.supported and report.prudent and report.brave
        assert report.is_partial_stable and report.is_stable_exact

    def test_report_on_unsupported_interpretation(self):
        d = rs("{p <- ~q. q <- ~p.}")
        report = is_partial_stable(d, ctx(p="t", q="t"))
        assert not report.supported
        assert report.unsupported_atoms

    def test_imprudent_interpretation_names_a_witness(self):
        d = rs("{p <- p.}")
        report = is_partial_stable(d, ctx(p="t"))
        assert not report.prudent
        assert report.demotion_witness


def outcome(run):
    """run()'s value, or its exception type and message."""
    try:
        return run(), None
    except Exception as exc:  # compared, whatever its type
        return None, (type(exc), str(exc))


def demotion_and_oracle(d, i, limits=Limits()) -> str:
    """The least-fixpoint prudence check against the subset loop on i: the
    same verdict, and a witness (T, U) with T non-empty whose application
    leaves i closed.  It is the maximal one, so T holds the loop's first
    t-set and U lies within its u-set.  The check values every rule body
    at i with all t atoms demoted, which the loop may never reach: where
    the two raise differently, the check raises what that valuation does."""
    atoms = definitions._defined_atoms(d, i)
    got = outcome(lambda: definitions._demotion(d, i, atoms, limits))
    want = outcome(lambda: oracle_demotion(d, i, limits))
    if got[1] != want[1]:
        demoted = i.revise([a for a in atoms if i.atom_value(a) is T], U)
        ctx = EvalContext(limits=limits)
        valued = outcome(lambda: [definitions._body_values(d, a, demoted, ctx) for a in atoms])
        assert got[1] is not None and got[1] == valued[1], f"{d} {i}"
        return "the check raises" if want[1] is None else "both raise, differently"
    if got[1]:
        return "both raise alike"
    assert (got[0] is None) == (want[0] is None), f"{d} {i}"
    if got[0] is None:
        return "prudent"
    (t_set, u_set), (t_first, u_first) = got[0], want[0]
    assert t_set and t_set >= t_first and u_set <= u_first, f"{d} {i}"
    assert is_closed(d, i.revise(t_set, U).revise(u_set, T), limits), f"{d} {i}"
    return "imprudent"


class TestPrudenceAgainstSubsetOracle:
    """Prudence is checked with one least fixpoint on the rule set ground
    with the t atoms demoted; the oracle is the subset loop over every
    demotion and promotion, on every three-valued interpretation of the
    defined atoms."""

    def test_propositional_rule_sets(self):
        rng = random.Random(89)
        o, seen = PartialInterpretation.empty(DOMAIN), collections.Counter()
        for _ in range(1500):
            d = random_ruleset(rng)
            i0 = expand_context(d, o)
            for i in i0.refinements(definitions._defined_atoms(d, i0), (T, U, F)):
                verdict = demotion_and_oracle(d, i)
                seen[verdict] += 1
                assert is_partial_stable(d, i).prudent is (verdict == "prudent")
                if i.is_exact:
                    assert oracle_exact_prudent(d, i) is (verdict == "prudent"), f"{d} {i}"
        assert seen.keys() == {"prudent", "imprudent"} and min(seen.values()) > 5000

    def test_rule_bodies_of_every_node_kind(self):
        rng = random.Random(97)
        seen, kinds = collections.Counter(), set()
        for _ in range(300):
            d = random_tree_rules(rng)
            present = [s for s in SYMBOLS if s not in d.defined_symbols]
            limits = Limits(max_unknowns=rng.choice((3, 20)))
            i0 = expand_context(d, random_partial(rng, present, (1,)), limits)
            for i in i0.refinements(definitions._defined_atoms(d, i0), (T, U, F)):
                seen[demotion_and_oracle(d, i, limits)] += 1
            for r in d.rules:
                kinds |= node_kinds(r.body)
        assert {"prudent", "imprudent", "both raise alike", "the check raises"} <= seen.keys()
        assert {"Atom1", "Atom2", "Cmp", "Not", "And", "Or", "Implies", "Iff",
                "ForallFO", "ExistsFO", "ForallSO", "ExistsSO", "card", "sum",
                "DefinitionExpr", "Let"} <= kinds


class _CountedValues(list):
    """A value list counting each assignment of t or f to a branch index."""

    def __init__(self, val, xs):
        super().__init__(val)
        self.xs, self.assigned = set(xs), 0

    def __setitem__(self, k, v):
        if type(k) is int and k in self.xs and v != 1:
            self.assigned += 1
        super().__setitem__(k, v)


def driver_searches(monkeypatch) -> list:
    """Spy on the search driver: per search, its value list, which counts
    the nodes visited (the root and each assignment), and the refinements
    it gives, all taken before the caller reads the first."""
    searches, branch = [], definitions._branch

    def spy(g, xs, residuals, dead):
        g.val = _CountedValues(g.val, xs)
        found = list(branch(g, xs, residuals, dead))
        searches.append((g.val, found))
        return iter(found)

    monkeypatch.setattr(definitions, "_branch", spy)
    return searches


class TestSearchDriver:
    """mx and stable search on the ground value list with a watch list per
    atom; the oracle is the search as first written, `refinements` with a
    cut that reads each node's interpretation into the value list."""

    def test_stable_candidates_equal_the_cut_search_as_first_written(self, monkeypatch):
        rng, seen, kinds = random.Random(157), collections.Counter(), set()
        searches = driver_searches(monkeypatch)
        for n in range(400):
            if n % 2:
                d, limits = random_ruleset(rng, max_rules=6), Limits()
                o = PartialInterpretation.empty(DOMAIN)
            else:
                d = random_tree_rules(rng)
                limits = Limits(max_unknowns=rng.choice((3, 20)))
                o = random_partial(rng, [s for s in SYMBOLS if s not in d.defined_symbols], (1,))
            i0 = expand_context(d, o, limits)
            atoms = definitions._defined_atoms(d, i0)
            searches.clear()
            outcome(lambda: stable_models(d, o, limits))  # its search's candidates, below
            candidates, nodes = oracle_supported_candidates(d, i0, atoms, limits)
            (val, found), = searches
            assert found == candidates, f"{d}"
            assert 1 + val.assigned <= nodes, f"{d}"
            seen["cut"] += nodes < 2 ** (len(atoms) + 1) - 1
            seen["a candidate"] += bool(candidates)
            for r in d.rules:
                kinds |= node_kinds(r.body)
        assert seen["cut"] > 150 and seen["a candidate"] > 300, seen
        assert {"Atom2", "ForallSO", "ExistsSO", "sum", "DefinitionExpr", "Let"} <= kinds

    def test_prudence_on_one_grounding_equals_grounding_afresh(self):
        # stable_models checks prudence on one grounding, built at the
        # first candidate whose grounding succeeds, with each later
        # candidate's demoted values written in; on every three-valued
        # interpretation in refinement order, as TestPrudenceAgainstSubsetOracle
        # draws them, it answers or raises as grounding afresh does
        rng, seen = random.Random(163), collections.Counter()
        for n in range(600):
            if n % 3:
                d, limits = random_ruleset(rng), Limits()
                o = PartialInterpretation.empty(DOMAIN)
            else:
                d = random_tree_rules(rng)
                limits = Limits(max_unknowns=rng.choice((3, 20)))
                o = random_partial(rng, [s for s in SYMBOLS if s not in d.defined_symbols], (1,))
            i0 = expand_context(d, o, limits)
            atoms, shared = definitions._defined_atoms(d, i0), []
            for i in i0.refinements(atoms, (T, U, F)):
                got = outcome(lambda: definitions._demotion(d, i, atoms, limits, shared))
                want = outcome(lambda: oracle_fresh_demotion(d, i, atoms, limits))
                assert got == want, f"{d} {i}"
                seen["error" if got[1] else "prudent" if got[0] is None else "imprudent"] += 1
                seen["on the shared grounding"] += len(shared)
        assert min(seen.values()) > 100, seen


def test_expand_context_checks_only_a_given_carrier(monkeypatch):
    # the full carrier over the domain is well typed as built; a caller's
    # carrier is checked once, with the message it always had
    s = Symbol("s", pred(1))
    d = parse_ruleset("{s(x) <- s(x).}", Vocabulary.of([s]))
    o = PartialInterpretation.empty(("a",))
    checked, check = [], interpretation._check_value
    monkeypatch.setattr(interpretation, "_check_value",
                        lambda *a: checked.append(a[0]) or check(*a))
    assert expand_context(d, o).value(s).carrier == (("a",),) and checked == []
    with pytest.raises(TypeError_, match=r"^s: key \('z',\) not over the domain$"):
        expand_context(d, o, carriers={s: [("z",)]})
    assert checked == [s]


class TestEvalDefinition:
    def test_stable_and_wellfounded_readings(self):
        d = rs("{p <- ~q. q <- ~p.}")
        assert eval_definition(d, ctx(p="t", q="f"), "st") is T
        assert eval_definition(d, ctx(p="t", q="f"), "w") is F  # WFM is uu
        assert eval_definition(d, ctx(p="u", q="u"), "w") is F
        # p=t, q unknown: stable for q=f, not for q=t
        assert eval_definition(d, ctx(p="t", q="u"), "st") is U

    def test_wellfounded_reading_accepts_only_the_wfm(self):
        d = rs("{p <- p.}")
        assert eval_definition(d, ctx(p="f"), "w") is T
        assert eval_definition(d, ctx(p="t"), "w") is F

    def test_unknown_semantics_tag_rejected(self):
        d = rs("{p <- p.}")
        with pytest.raises(EvaluationError):
            eval_definition(d, ctx(p="f"), "classical")


class TestMemo:
    def test_wfm_memo_is_bounded_and_evicts_the_oldest(self, monkeypatch):
        bound = 16
        monkeypatch.setattr(definitions, "_WFM_CACHE", {})
        monkeypatch.setattr(definitions, "_WFM_CACHE_MAX", bound)
        rng = random.Random(59)
        o = PartialInterpretation.empty(DOMAIN)
        order: list = []  # distinct rule sets, in first-computed order
        while len(order) < 3 * bound:
            d = random_ruleset(rng)
            if d not in order:
                order.append(d)
        fifo: list = []  # what a first-in first-out memo of `bound` holds
        for d in order + order[::-3]:  # the second pass mixes hits and recomputations
            if d not in fifo:
                fifo = (fifo + [d])[-bound:]
            got = well_founded_model(d, o)
            assert len(definitions._WFM_CACHE) <= bound
            assert [k[0] for k in definitions._WFM_CACHE] == fifo
            i0 = expand_context(d, o)
            fresh = oracle_wfm_fixpoint(
                d, i0, definitions._defined_atoms(d, i0), Limits(), EvalContext()
            )
            assert got == fresh, f"{d}"
        assert len(definitions._WFM_CACHE) == bound


def run_fixpoint(run, defined, limits):
    """run(ctx) on a fresh context and an empty WFM memo: its result (or
    exception type and message), the parameter atoms it recorded (when
    it returned) and the memo keys its opaque leaves created, in order."""
    definitions._WFM_CACHE.clear()
    ctx = EvalContext(limits=limits)
    try:
        value, error = run(ctx), None
    except Exception as exc:  # compared, whatever its type
        value, error = None, (type(exc), str(exc))
    record = error or {a for a in ctx.record if a.predicate not in defined}
    return value, error, record, list(definitions._WFM_CACHE)


def residual_and_oracle(d, o, limits=Limits(), carriers=None):
    """The fixpoint over the ground residual program against the seed's
    alternating fixpoint, on d's context o and `carriers`."""
    i0 = expand_context(d, o, limits, carriers)

    def residual(ctx):
        model, record = definitions._residual_wfm(d, i0, limits)
        ctx.record.update(record)
        return model

    got = run_fixpoint(residual, d.defined_symbols, limits)
    want = run_fixpoint(lambda ctx: oracle_wfm_fixpoint(
        d, i0, definitions._defined_atoms(d, i0), limits, ctx), d.defined_symbols, limits)
    assert got == want, f"{d}"
    return want


def unfounded_and_oracle(d, i, limits=Limits()):
    got = run_fixpoint(lambda ctx: greatest_unfounded_set(d, i, limits, _ctx=ctx),
                       d.defined_symbols, limits)
    want = run_fixpoint(lambda ctx: oracle_unfounded_set(d, i, limits, _ctx=ctx),
                        d.defined_symbols, limits)
    assert got == want, f"{d}"
    return want


X0, Y = Symbol("x0", CONST), Symbol("Y", pred(1))
SYMBOLS = (*PROPS, P1, SO1, SO_HEAD)


def random_tree_rules(rng) -> RuleSet:
    """Rules with first order (s(x0)), second order (D(Y)) and
    propositional heads whose bodies are random trees of every node
    kind, some reading D at the head variable or at s."""
    def tree(**kw):
        return random_tree(rng, rng.randint(0, 3), **kw)

    d_at_y, d_at_s = Atom2(SO_HEAD, (SymTerm(Y),)), Atom2(SO_HEAD, (SymTerm(P1),))
    x = Symbol("X", pred(1))
    rules = [
        Rule(P1, (X0,), tree(fo_vars=(X0,))),
        Rule(SO_HEAD, (Y,), tree(so_vars=(Y,))),
        Rule(SO_HEAD, (Y,), rng.choice((And, Or))(tree(so_vars=(Y,)), Not(d_at_y))),
        Rule(rng.choice(PROPS), (), tree()),
        Rule(rng.choice(PROPS), (), rng.choice((And, Or))(d_at_s, tree())),
        Rule(rng.choice(PROPS), (), ExistsSO(x, And(Atom2(SO_HEAD, (SymTerm(x),)), tree()))),
    ]
    return RuleSet(tuple(rng.sample(rules, rng.randint(1, 4))))


def random_defined_values(rng, d, i):
    """i with every defined atom set to a random truth value."""
    atoms = definitions._defined_atoms(d, i)
    for v in (T, U, F):
        i = i.revise([a for a in atoms if rng.random() < 0.4], v)
    return i


class TestResidualAgainstOracle:
    """The alternating fixpoint runs on each rule set ground once per
    context.  It must give the seed's model or exception, record the
    same parameter atoms and create the same nested memo keys in the same
    order, since its rounds and passes go through the seed's
    interpretations."""

    def test_propositional_rule_sets(self):
        rng = random.Random(61)
        o = PartialInterpretation.empty(DOMAIN)
        models = set()
        for _ in range(3000):
            d = random_ruleset(rng, depth=rng.randint(1, 3))
            model, _, _, _ = residual_and_oracle(d, o)
            models.add(values_of(model))
        assert any("u" in m for m in models) and any("u" not in m for m in models)

    def test_rule_bodies_of_every_node_kind(self):
        rng = random.Random(67)
        kinds, errors, models, keyed = set(), set(), 0, 0
        for _ in range(700):
            d = random_tree_rules(rng)
            present = [s for s in SYMBOLS if s not in d.defined_symbols and rng.random() < 0.95]
            o = random_partial(rng, present, rng.choice(((1,), (1, 2), ("a",), ("a", 2))))
            model, error, _, keys = residual_and_oracle(
                d, o, Limits(max_unknowns=rng.choice((3, 20))))
            for r in d.rules:
                kinds |= node_kinds(r.body)
            errors.add(error and error[0])
            models += model is not None and not model.is_exact
            keyed += bool(keys)
        assert {None, EvaluationError, CapExceeded} <= errors
        assert {"Atom1", "Atom2", "Cmp", "Not", "And", "Or", "Implies", "Iff",
                "ForallFO", "ExistsFO", "ForallSO", "ExistsSO", "card", "sum",
                "DefinitionExpr", "Let"} <= kinds
        assert models > 20 and keyed > 50

    def test_a_round_applies_its_derived_atoms_together(self):
        # round 2 derives b(2), which q's inner definition reads; its memo
        # keys of round 2, the first where a(1) is t, hold b(2) = u, as no
        # atom of a round sees another's
        vocab = Vocabulary.of([Symbol(n, pred(1)) for n in "ab"]
                              + [Symbol(n, pred(0)) for n in "cqw"])
        d = parse_ruleset("{a(x) <- c & x = 1. b(x) <- a(1) & x = 2."
                          " q <- {w <- b(1) | a(2 + 2).}. w <- w.}", vocab)
        c = vocab.get("c")
        o = PartialInterpretation.make((1, 2), {c: PartialSet.from_map({(): T})})
        _, _, _, keys = residual_and_oracle(d, o)

        def values(key, name):
            return next(v.values for s, v in key[2] if s.name == name)

        first = next(key for key in keys if values(key, "a")[0] is T)
        assert values(first, "b")[1] is U

    def test_unfounded_sets_on_random_partial_interpretations(self):
        rng = random.Random(71)
        sizes = set()
        for n in range(2000):
            if n % 2:
                d = random_ruleset(rng, depth=rng.randint(1, 3))
                o = PartialInterpretation.empty(DOMAIN)
            else:
                d = random_tree_rules(rng)
                present = [s for s in SYMBOLS if s not in d.defined_symbols]
                o = random_partial(rng, present, rng.choice(((1,), (1, 2))))
            i = random_defined_values(rng, d, expand_context(d, o))
            gus, _, _, _ = unfounded_and_oracle(d, i, Limits(max_unknowns=rng.choice((3, 20))))
            sizes.add(None if gus is None else len(gus))
        assert {None, 0, 1, 2, 3} <= sizes


class TestDeepBodies:
    def test_deep_rule_bodies_keep_one_frame_per_level(self):
        # & and | runs are one node each, so a 3,000-long chain body goes
        # through the parser and RuleSet; the grounder cancels ~~ in a loop
        o = PartialInterpretation.empty(DOMAIN)
        chain = " & ".join(["r"] * 3000)
        for body, want in ((chain, "tft"), (f"~({chain})", "fft"),
                           (" | ".join(["q"] * 2999 + ["r"]), "tft")):
            d = rs(f"{{p <- {body}. q <- q. r <- ~q.}}")
            assert values_of(well_founded_model(d, o)) == want
        # RuleSet hashes and sorts its rules by repr: Not's hash, equality
        # and repr loop over a ~ run
        negations = Atom1(q, ())
        for _ in range(3001):
            negations = Not(negations)
        d = RuleSet((Rule(p, (), negations), *rs("{q <- q. r <- ~q.}").rules))
        assert d == RuleSet((*rs("{q <- q. r <- ~q.}").rules, Rule(p, (), negations)))
        assert values_of(well_founded_model(d, o)) == "tft"


Z0 = Symbol("Z", pred(0))
X1 = Symbol("x1", CONST)
SO_AT = Symbol("G", so_pred(DOMAIN_TYPE, pred(1)))  # a first and a second order argument
SO_PAIR = Symbol("H", so_pred(pred(1), pred(0)))  # two second order arguments
LIFT_PARAMETERS = (*PROPS, P1, SO1)


def random_lifted_rules(rng) -> RuleSet:
    """Rules with second order head variables, D(Y), G(x0, Y) and H(Y, Z),
    whose bodies are random trees reading them as first order atoms and
    reading the parameters.  Some hand Y on to a defined atom, D(Y) or
    G(t, Y) at a head or quantified variable x, x + 1 or an integer t,
    before or after a tree, so D and G may be mutually recursive and an
    atom may fall outside the domain; some also read a defined symbol
    otherwise or read Y in a second order atom, which keeps them from
    being lifted."""
    def tree(fo=(), rels=(Y,)):
        return random_tree(rng, rng.randint(0, 2), fo_vars=fo,
                           so_vars=(Y,) if rng.random() < 0.2 else (), rels=rels)

    def g_at(x):
        return Atom2(SO_AT, (rng.choice((SymTerm(x), SymTerm(x), AddTerm(SymTerm(x), IntTerm(1)),
                                         IntTerm(rng.randint(1, 3)))), SymTerm(Y)))

    d_at_y = Atom2(SO_HEAD, (SymTerm(Y),))
    rules = [
        Rule(SO_HEAD, (Y,), tree()),
        Rule(SO_AT, (X0, Y), tree(fo=(X0,))),
        Rule(SO_PAIR, (Y, Z0), tree(rels=(Y, Z0))),
        Rule(SO_HEAD, (Y,), rng.choice((And, Or))(
            tree(), Not(Atom2(SO_PAIR, (SymTerm(Y), SymTerm(p)))))),
        Rule(SO_AT, (X0, Y), Or(tree(fo=(X0,)), d_at_y)),
        Rule(SO_HEAD, (Y,), ExistsFO(X0, And(tree(fo=(X0,)), g_at(X0)))),
        Rule(SO_AT, (X0, Y), ForallFO(X1, rng.choice((Implies, Or))(
            tree(fo=(X0, X1)), rng.choice((g_at(X1), Not(g_at(X1))))))),
        Rule(SO_AT, (X0, Y), rng.choice((And, Or))(rng.choice((d_at_y, g_at(X0))), tree(fo=(X0,)))),
    ]
    return RuleSet(tuple(rng.sample(rules, rng.randint(1, 4))))


def heads_and_oracle(d, i, limits):
    """Each defined atom's residual or exception and the atoms recorded so
    far, ground in rule form and then in formula form (which folds exact
    atoms), and the memo keys created, lifted against `FreshGround`."""
    runs = []
    for grounder in (definitions._Ground, FreshGround):
        definitions._WFM_CACHE.clear()
        out = []
        for g in (grounder(d, i, limits, heads=()),
                  grounder(None, i, limits, symbols=d.defined_symbols)):
            for a in definitions._defined_atoms(d, i):
                try:
                    out.append((g.rules(d, a.predicate, a.args), None, set(g.consulted())))
                except Exception as exc:  # compared, whatever its type
                    out.append((None, (type(exc), str(exc)), set(g.consulted())))
        runs.append((out, list(definitions._WFM_CACHE)))
    assert runs[0] == runs[1], f"{d}"
    return runs[0][0]


def lifted_and_oracle(rng) -> tuple:
    """A random rule set of `random_lifted_rules` in a random context,
    some parameter's or defined symbol's carrier leaving a tuple out:
    `heads_and_oracle` at random defined values, then the well-founded
    model, the stable models and an unfounded set, each against the same
    run grounding every head afresh.  Returns the rule set and
    heads_and_oracle's answer."""
    d = random_lifted_rules(rng)
    domain = rng.choice(((1,), (1, 2), ("a", 2), (1, 2, 3)))
    present = [s for s in LIFT_PARAMETERS if rng.random() < 0.95]
    o = random_partial(rng, present, domain)
    for sym in present[-1:] if rng.random() < 0.3 else ():  # a carrier leaving a tuple out
        gone = rng.choice(predicate_carrier(sym.type, domain))
        o = o.expand(sym, PartialSet.from_map(
            {k: v for k, v in o.value(sym).items() if k != gone}))
    carriers = None
    if rng.random() < 0.3:  # a defined one: reading a tuple left out raises
        sym = rng.choice(sorted(d.defined_symbols, key=lambda s: s.name))
        keys = predicate_carrier(sym.type, domain)
        carriers = {sym: rng.sample(keys, len(keys) - rng.randint(1, 2))}
    limits = Limits(max_unknowns=rng.choice((3, 20)), max_defined_atoms=16)
    try:
        i0 = expand_context(d, o, limits, carriers)
    except CapExceeded:
        return d, []
    heads = heads_and_oracle(d, random_defined_values(rng, d, i0), limits)
    i = random_defined_values(rng, d, i0)
    runs = []
    for grounder in (definitions._Ground, FreshGround):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(definitions, "_Ground", grounder)
            runs.append([run_fixpoint(run, d.defined_symbols, limits) for run in (
                lambda ctx: well_founded_model(d, o, limits, carriers, _ctx=ctx),
                lambda ctx: stable_models(d, o, limits, carriers, _ctx=ctx),
                lambda ctx: greatest_unfounded_set(d, i, limits, _ctx=ctx))])
    assert runs[0] == runs[1], f"{d}"
    return d, heads


class TestLiftedRules:
    """A rule whose second order head variables are read only by first
    order atoms under connectives and FO quantifiers, and handed on
    unchanged to defined atoms, and whose body reads defined symbols only
    in those, is ground once per first order head arguments and re-valued
    per relation.  That must change nothing against grounding every head
    afresh."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_lifted_rules_match_grounding_every_head(self, seed):
        lifted_and_oracle(random.Random(seed))

    def test_hand_on_rules_match_grounding_every_head(self):
        # the cases the placeholders meet: hand-on rules lifted, each
        # placeholder resolved to an atom or, in formula form, a constant,
        # and a tuple left out of a defined carrier raising
        rng = random.Random(223)
        handing = atoms = folded = raised = 0
        for _ in range(400):
            d, heads = lifted_and_oracle(rng)
            handing += any(lift and free_symbols(r.body) & d.defined_symbols
                           for rs in definitions._plan(d).values() for r, lift in rs)
            for node, error, _ in heads:
                atoms += type(node) is tuple or type(node) is int and node >= definitions._ATOMS
                folded += node in (0, 2)
                raised += bool(error) and any(
                    error[1].startswith(f"domain atom {s.name}(") for s in d.defined_symbols)
        assert handing > 150 and atoms > 1000 and folded > 2500 and raised > 60, (
            handing, atoms, folded, raised)

    def test_a_part_reading_no_defined_symbol_is_valued_whole(self):
        # G(x0, Y) <- (p | (q & Y(x0))) & G(x0, Y): where p and q are u and
        # Y(x0) is t, a fresh grounding values the part before the hand-on
        # atom whole, one u beside G's atom, not the u | u it simplifies to
        g_at = Atom2(SO_AT, (SymTerm(X0), SymTerm(Y)))
        d = RuleSet((Rule(SO_AT, (X0, Y), And(Or(Atom1(p, ()), And(
            Atom1(q, ()), Atom1(Y, (SymTerm(X0),)))), g_at)),))
        o = PartialInterpretation.make((1, 2), {s: PartialSet.from_map({(): U}) for s in (p, q)})
        heads = heads_and_oracle(d, expand_context(d, o), Limits())
        assert (definitions._AND, [1, definitions._ATOMS]) in [node for node, _, _ in heads]

    def test_a_hand_on_atom_outside_the_domain_leaves_no_placeholder(self):
        # G(x0, Y) <- (p | Y(x0)) & (G(x0 + 1, Y) | q): at x0 = 3 the
        # hand-on atom is f, so the grounding there has no placeholder and
        # is valued whole, parts that read no defined symbol included
        g_next = Atom2(SO_AT, (AddTerm(SymTerm(X0), IntTerm(1)), SymTerm(Y)))
        d = RuleSet((Rule(SO_AT, (X0, Y), And(Or(Atom1(p, ()), Atom1(Y, (SymTerm(X0),))),
                                              Or(g_next, Atom1(q, ())))),))
        o = PartialInterpretation.make((1, 2, 3), {s: PartialSet.from_map({(): U}) for s in (p, q)})
        heads = heads_and_oracle(d, expand_context(d, o), Limits())
        assert [error for _, error, _ in heads] == [None] * len(heads) == [None] * 2 * 3 * 8
        assert not definitions._lifted(d.rules[0], d.defined_symbols)[1]  # it reads p and q

    def test_placeholders_are_resolved_in_closure_order(self):
        # D(Y) <- ?x0: G(x0, Y) & Y(x0), G's carrier lacking G(1, R) and
        # G(2, R): D(R) raises at G(1, R), the first its grounding reads,
        # though the grounding it shares was made at another relation
        g_at, y_at = Atom2(SO_AT, (SymTerm(X0), SymTerm(Y))), Atom1(Y, (SymTerm(X0),))
        d = RuleSet((Rule(SO_HEAD, (Y,), ExistsFO(X0, And(g_at, y_at))),
                     Rule(SO_AT, (X0, Y), y_at)))
        rel = frozenset({(1,)})
        i0 = expand_context(d, PartialInterpretation.empty((1, 2)), carriers={SO_AT: [
            k for k in predicate_carrier(SO_AT.type, (1, 2)) if k[1] != rel]})
        errors = [error[1] for _, error, _ in heads_and_oracle(d, i0, Limits()) if error]
        assert len(errors) == 2 and all(e.startswith(f"domain atom G{(1, rel)!r}") for e in errors)

    def test_a_raise_names_a_relation_as_a_fresh_grounding_does(self):
        # D(Y) <- ?x0: G(x0, Y) & Y(x0), G's carrier lacking G(1, R) and
        # G(12, R) for R = {(1,), (12,)}: equal sets may list their tuples in
        # another order, and D(R) names R as the set a fresh grounding reads
        g_at, y_at = Atom2(SO_AT, (SymTerm(X0), SymTerm(Y))), Atom1(Y, (SymTerm(X0),))
        d = RuleSet((Rule(SO_HEAD, (Y,), ExistsFO(X0, And(g_at, y_at))),
                     Rule(SO_AT, (X0, Y), y_at)))
        domain = (1, 12)
        rel = max((k for k, in predicate_carrier(SO_HEAD.type, domain)), key=len)  # D(R)'s own R
        named = frozenset(reversed(list(rel)))
        assert named == rel and list(named) != list(rel)  # (1,) and (12,) share a hash slot
        definitions._relation_cached.cache_clear()
        definitions._relation_cached(named, 1, domain)  # the set every fresh read of R names
        i0 = expand_context(d, PartialInterpretation.empty(domain), carriers={SO_AT: [
            k for k in predicate_carrier(SO_AT.type, domain) if k[1] != rel]})
        errors = [error[1] for _, error, _ in heads_and_oracle(d, i0, Limits()) if error]
        assert len(errors) == 2 and all(repr(named) in e for e in errors)

    def test_relations_reaching_outside_the_domain_hand_on_their_tuples_in_it(self):
        # a carrier may list relations over elements outside the domain: a
        # head hands on, as a fresh grounding does, only their tuples in it
        th = parse_theory((DATA / "game.theory").read_text())
        d, (win, lose) = next(iter(th.templates.values())), map(th.vocabulary.get, ("win", "lose"))
        wide, narrow = frozenset({("a", "z"), ("a", "b"), ("z", "a")}), frozenset({("a", "b")})
        carriers = {s: [(n, m, w) for n in "ab" for m, w in ((wide, frozenset({("z",)})),
                                                              (narrow, frozenset()))]
                    for s in (win, lose)}
        i0 = expand_context(d, PartialInterpretation.empty(("a", "b")), carriers=carriers)
        assert [error for _, error, _ in heads_and_oracle(d, i0, Limits())] == [None] * 16

    def test_the_eq_template_is_ground_once(self):
        # isEqRelation(F)'s body reads F in first order atoms only: one
        # grounding serves the 512 relations over three elements
        d = next(iter(parse_theory((DATA / "eq.theory").read_text()).templates.values()))
        i0 = expand_context(d, PartialInterpretation.empty(("a", "b", "c")))
        g = definitions._Ground(d, i0, Limits())
        assert len(g.keys) == 512 and len(g.lifts) == 1
        assert g.node == FreshGround(d, i0, Limits()).node
        assert g.node.count(2) == 5  # the equivalence relations on three elements

    def test_the_game_template_is_ground_once_per_position(self):
        # win and lose hand Move and IsWon on unchanged: each rule is ground
        # once per cur, kept on the rule set, and two apply_library calls
        # with other carriers answer from those groundings, until a domain
        # replaces them
        th = parse_theory((DATA / "game.theory").read_text())
        d = next(iter(th.templates.values()))
        i0 = expand_context(d, PartialInterpretation.empty(("a", "b")))
        g = definitions._Ground(d, i0, Limits())
        assert len(g.keys) == 2 * 2 * 16 * 4 and len(g.lifts) == 4 == len(d._lifts[1])
        assert g.node == FreshGround(d, i0, Limits()).node
        kept = [list(val) for _, val, _, _ in d._lifts[1].values()]  # each head writes a copy
        lib = TemplateLibrary(tuple(Template(n, rs) for n, rs in th.templates.items()))
        win, lose = th.vocabulary.get("win"), th.vocabulary.get("lose")
        built = []
        for moves, won in (({("a", "b")}, set()), ({("a", "b"), ("b", "a")}, {("b",)})):
            key = (frozenset(moves), frozenset(won))
            carriers = {s: [(n, *key) for n in ("a", "b")] for s in (win, lose)}
            answers = []
            for grounder in (definitions._Ground, FreshGround):
                definitions._WFM_CACHE.clear()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(definitions, "_Ground", grounder)
                    mp.setattr(definitions._Lifted, "of", staticmethod(
                        lambda *args, of=definitions._Lifted.of: built.append(args) or of(*args)))
                    out = apply_library(PartialInterpretation.empty(("a", "b")), lib,
                                        so_instances=carriers)
                answers.append([out.value(s) for s in (win, lose)])
            assert answers[0] == answers[1]
        assert not built and kept == [list(val) for _, val, _, _ in d._lifts[1].values()]
        # a grounding over another domain keeps only that domain's
        definitions._Ground(d, expand_context(d, PartialInterpretation.empty(("a",))), Limits())
        assert d._lifts[0] == ("a",) and len(d._lifts[1]) == 2


class TestMemoRecord:
    def test_a_hit_records_what_its_miss_recorded(self):
        rng = random.Random(73)
        recorded = 0
        for _ in range(600):
            d = random_tree_rules(rng)
            present = [s for s in SYMBOLS if s not in d.defined_symbols]
            o = random_partial(rng, present, rng.choice(((1,), (1, 2))))
            limits = Limits(max_unknowns=rng.choice((3, 20)))
            cold, _, record, _ = run_fixpoint(
                lambda ctx: well_founded_model(d, o, limits, _ctx=ctx), (), limits)
            warm = EvalContext(limits=limits)
            if cold is not None:
                assert well_founded_model(d, o, limits, _ctx=warm) is cold
                assert warm.record == record and not record & set(
                    definitions._defined_atoms(d, cold)), f"{d}"
                recorded += bool(record)
        assert recorded > 100


def bounded(g) -> tuple:
    """Whether grounder g expanded a quantifier by its guard's values, and
    whether it found a quantifier with no guard."""
    return (any(x is not None and x[-1] for x in g.guards.values()),
            any(x is None for x in g.guards.values()))


class TestGuardedGrounding:
    """A guarded FO quantifier is ground only where its guard is not f.
    Skipping the rest must change nothing but the readers of atoms no
    residual holds: models, errors, records and memo keys against the
    seed's fixpoint; values against the flat completion loops."""

    def test_rule_form_matches_the_seed_fixpoint(self):
        rng = random.Random(151)
        seen = collections.Counter()
        for _ in range(800):
            d = random_guarded_rules(rng)
            domain = rng.choice(((1, 2, 3), (1, 2), ("a", 2, 3)))
            present = [s for s in (EDGE, MARK, SO_WIN) if rng.random() < 0.97]
            o = guarded_context(rng, present, domain, rng.choice((0, 0.1, 0.3)))
            if EDGE in present and rng.random() < 0.1:  # a guard tuple e lacks is kept
                gone = rng.choice(predicate_carrier(EDGE.type, domain))
                o = o.expand(EDGE, PartialSet.from_map(
                    {k: v for k, v in o.value(EDGE).items() if k != gone}))
            carriers = None
            if rng.random() < 0.2:  # a restricted carrier turns the bound off
                h = rng.choice((REACH, WIN))
                full = predicate_carrier(h.type, domain)
                carriers = {h: rng.sample(full, len(full) - 1)}
            limits = Limits(max_unknowns=rng.choice((2, 20)))
            model, error, record, keys = residual_and_oracle(d, o, limits, carriers)
            seen["error" if error else "u model" if not model.is_exact else "exact model"] += 1
            seen["recorded"] += bool(error is None and record)
            seen["keyed"] += bool(keys)
            try:
                g = definitions._Ground(d, expand_context(d, o, limits, carriers), limits)
            except DeflogError:
                continue
            found, refused = bounded(g)
            seen["bounded"] += found
            seen["refused"] += refused
        assert min(seen[k] for k in ("error", "u model", "exact model")) > 100, seen
        assert seen["recorded"] > 150 and seen["keyed"] > 20, seen
        assert seen["bounded"] > 300 and seen["refused"] > 100, seen

    def test_formula_form_matches_the_flat_oracles(self):
        rng = random.Random(157)
        seen, vocab = collections.Counter(), Vocabulary.of(GUARDED + (CON,))
        for _ in range(600):
            e = rng.choice((ForallFO, ExistsFO))(X, guarded_quantifier(rng, (X,), 1))
            domain = rng.choice(((1, 2, 3), (1, 2)))
            i = guarded_context(rng, GUARDED, domain, 0.1,
                                exact=(EDGE,) if rng.random() < 0.8 else ())
            if not i.interprets(CON):
                i = i.expand(CON, domain[0])
            limits = Limits(max_unknowns=12)
            got = value_or_error(lambda: evaluate(e, i, SUPERVALUATION, limits))
            theory = Theory(vocab, {"f": e})
            models = value_or_error(lambda: list(_mx_models(theory, i, limits)))
            try:
                want = None if got[1] and got[1][0] is CapExceeded else super_oracle(
                    e, i, exact_holds)
            except DeflogError:  # e.g. a let-block with no exact model
                want = None
            if want is not None:
                assert got == (want, None), unparse(e)
                seen[want] += 1
            if len(i.u_atoms(i.predicate_symbols())) > limits.max_unknowns:
                assert models[1][0] is CapExceeded
                continue
            want, errors, accepted = flat_filter(
                exact_completions(i, i.predicate_symbols()),
                lambda j: evaluate_exact(e, j, limits) is T)
            if models != want:  # a cut skipped each raising completion
                assert want[1] is not None and (models[1] in errors or models == (accepted, None))
            seen["models"] += bool(models[0])
            g = definitions._Ground(None, i, limits, symbols={a.predicate for a in i.u_atoms(
                i.predicate_symbols())})
            try:
                g.ground(e, {}, e._fn)
            except DeflogError:
                continue
            seen["bounded"] += bounded(g)[0]
        assert min(seen[v] for v in (T, U, F)) > 10 and seen["models"] > 100, seen
        assert seen["bounded"] > 80, seen

    def test_a_chain_reads_each_atom_from_one_head(self):
        # reach on a permuted 24-chain: R(x, y) reads R(x, z) only at y's
        # predecessor z, so n(n-1) readers where expanding every z gave n^3
        n, rng = 24, random.Random(163)
        nodes = [f"n{k}" for k in range(n)]
        rng.shuffle(nodes)
        edges = ", ".join(f"({a}, {b}): t" for a, b in zip(nodes, nodes[1:]))
        th = parse_theory("vocab { e: pred/2; r: pred/2; }\n"
                          "definition reach { r(x, y) <- e(x, y) | (?z: r(x, z) & e(z, y)). }\n")
        o = read_structure(f"domain = {{{', '.join(sorted(nodes))}}}\ne = {{{edges}, *: f}}\n",
                           th.vocabulary)
        d = th.definitions["reach"]
        o = definitions.parameter_context(d, o)
        g = definitions._Ground(d, expand_context(d, o), Limits())
        assert sum(map(len, g.deps)) == n * (n - 1)
        r = well_founded_model(d, o).value(th.vocabulary.get("r"))
        assert {k for k, v in r.items() if v is T} == {
            (a, b) for k, a in enumerate(nodes) for b in nodes[k + 1:]}
        assert r.is_exact


def definition_run(value_of, d, i, sem, limits):
    """value_of(d, i, sem, limits, _ctx=...) on a fresh context: its value
    or exception type and message, and the atoms it recorded."""
    ctx = EvalContext(limits=limits)
    try:
        return value_of(d, i, sem, limits, _ctx=ctx), None, ctx.record
    except Exception as exc:  # compared, whatever its type
        return None, (type(exc), str(exc)), ctx.record


def pruned_and_oracle(d, i, sem="w", limits=Limits()):
    """The pruned search against the flat loop over every completion, on
    a cold memo and again on the memo both left behind."""
    definitions._WFM_CACHE.clear()
    cold = definition_run(eval_definition, d, i, sem, limits)
    definitions._WFM_CACHE.clear()
    want = definition_run(oracle_eval_definition, d, i, sem, limits)
    assert cold == want, f"{d} {i}"
    assert definition_run(eval_definition, d, i, sem, limits) == want, f"warm {d} {i}"
    return want


def random_parameter_ruleset(rng) -> RuleSet:
    """A propositional rule set; the rules of one symbol are dropped, so
    that symbol may be a parameter."""
    rules = random_ruleset(rng, depth=rng.randint(1, 3)).rules
    dropped = rng.choice(PROPS)
    return RuleSet(tuple(x for x in rules if x.head != dropped) or rules)


class TestPrunedDefinitionSearch:
    """A rule set as a formula: the completion search is cut where the
    three-valued well-founded model decides a subtree; the oracle is the
    flat loop over every completion of the relevant unknown atoms."""

    def test_random_definitions_match_the_flat_oracle(self):
        rng = random.Random(79)
        outcomes, errors = set(), set()
        for n in range(3000):
            if n % 5:
                d = random_parameter_ruleset(rng)
                i = random_partial(rng, PROPS, DOMAIN, p_unknown=0.5)
                sem = "st" if n % 5 == 1 else "w"
                limits = Limits(max_unknowns=rng.choice((2, 20)))
            else:
                d = random_tree_rules(rng)
                i = random_partial(rng, SYMBOLS, rng.choice(((1,), (1, 2), ("a", 2))))
                sem, limits = "w", Limits(max_unknowns=rng.choice((3, 5)))
            value, error, _ = pruned_and_oracle(d, i, sem, limits)
            outcomes.add((sem, value))
            errors.add(error and error[0])
        assert {(sem, v) for sem in ("w", "st") for v in (T, U, F)} <= outcomes
        assert {None, EvaluationError, CapExceeded} <= errors

    def test_stable_semantics_checks_every_completion(self, monkeypatch):
        # the model decides both completions of r, but "st" takes no cut:
        # the partial stable test runs on each, cold and warm
        d, i = rs("{p <- r.}"), ctx(p="t", r="u")
        checked = []

        def check(d, j, *args, **kw):
            checked.append(values_of(j, (p, r)))
            return is_partial_stable(d, j, *args, **kw)

        monkeypatch.setattr(definitions, "is_partial_stable", check)
        assert pruned_and_oracle(d, i, "st")[0] is U
        assert checked == ["tt", "tf"] * 2
        assert pruned_and_oracle(d, i, "w")[0] is U

    def test_the_search_stops_at_the_first_disagreement(self, monkeypatch):
        # a = t makes q t, a = f and b = t make it f: below a = f, b = f
        # no model is needed
        a, b, c = (Symbol(n, pred(0)) for n in "abc")
        d = parse_ruleset("{q <- a | (~b & c).}", Vocabulary.of([a, b, c, q]))
        i = PartialInterpretation.make(DOMAIN, {
            s: PartialSet.from_map({(): v}) for s, v in ((a, U), (b, U), (c, U), (q, T))})
        seen = []

        def model(d, o, *args, **kw):
            seen.append(values_of(o, (a, b, c)))
            return well_founded_model(d, o, *args, **kw)

        monkeypatch.setattr(definitions, "well_founded_model", model)
        assert pruned_and_oracle(d, i)[0] is U
        assert "tuu" in seen and "ftu" in seen and not any(
            v.startswith("ff") for v in seen)

    def test_a_model_that_raises_decides_nothing(self):
        # once q is unfounded, the let-block needs b exact: with b = u its
        # completion b = f has no total model, so the model at the root
        # raises, while every completion of b and c has one
        b, c, w, z = (Symbol(n, pred(0)) for n in "bcwz")
        d = parse_ruleset("{q <- q. w <- c & let {z <- ~z & ~q & ~b.} in b.}",
                          Vocabulary.of([b, c, q, w, z]))

        def context(values):
            return PartialInterpretation.make(DOMAIN, {
                s: PartialSet.from_map({(): v}) for s, v in values.items()})

        with pytest.raises(NonTotalDefinitionError):
            well_founded_model(d, context({b: U, c: U}))
        # c = t makes w t, c = f makes it f
        assert pruned_and_oracle(d, context({b: U, c: U, q: F, w: T}))[:2] == (U, None)

    def test_the_cap_holds_where_the_root_model_decides(self):
        # q is unfounded at every completion of p and r, but both are read
        d, i = rs("{q <- q & p & r.}"), ctx(p="u", q="t", r="u")
        assert eval_definition(d, i) is F
        _, error, record = pruned_and_oracle(d, i, "w", Limits(max_unknowns=1))
        assert error == (CapExceeded, "2 unknown atoms exceed cap 1 (--max-completions)")
        assert record == {DomainAtom(p, ()), DomainAtom(r, ())}

    def test_the_model_is_precision_monotone_in_its_context(self):
        # the premise of the cut: o <=p o' gives WFM(o) <=p WFM(o')
        rng = random.Random(83)
        pairs = 0
        for n in range(1000):
            if n % 2:
                d = random_parameter_ruleset(rng)
                o = random_partial(rng, [s for s in PROPS if s not in d.defined_symbols],
                                   DOMAIN, p_unknown=0.6)
            else:
                d = random_tree_rules(rng)
                present = [s for s in SYMBOLS if s not in d.defined_symbols]
                o = random_partial(rng, present, rng.choice(((1,), (1, 2))), p_unknown=0.6)
            refined = o
            for sym, ps in o.assignments:
                refined = refined.revise([DomainAtom(sym, k) for k in ps.keys_with(U)
                                          if rng.random() < 0.5], rng.choice((T, F)))
            limits = Limits(max_unknowns=6)
            try:
                low, high = well_founded_model(d, o, limits), well_founded_model(d, refined, limits)
            except DeflogError:
                continue
            assert low.leq_prec(high), f"{d} {o} {refined}"
            pairs += low != high
        assert pairs > 300


class TestCaps:
    def test_enumeration_cap_on_defined_atoms(self):
        big = Symbol("big", pred(2))
        body = Atom1(big, ())
        d = parse_ruleset(
            "{big(x, y) <- ~big(y, x).}", Vocabulary.of([big])
        )
        o = PartialInterpretation.empty(("a", "b", "c", "d"))
        with pytest.raises(CapExceeded):
            partial_stable_models(d, o, Limits(max_defined_atoms=12))

    def test_fixpoint_method_handles_more_atoms(self):
        big = Symbol("big", pred(2))
        d = parse_ruleset("{big(x, y) <- big(x, y).}", Vocabulary.of([big]))
        o = PartialInterpretation.empty(("a", "b", "c", "d"))
        wfm = well_founded_model(d, o, Limits(max_defined_atoms=12))
        assert wfm.is_exact  # all 16 atoms false
