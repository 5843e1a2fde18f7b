"""Rule set semantics: supportedness, unfounded sets, partial stable
models, stable models and the well-founded model.

Independent oracle: the classical stable operator Γ for propositional
rule sets (least fixpoint with negative occurrences frozen), giving
stable models as fixpoints, partial stable models as Γ-oscillating
pairs, and the WFM via the alternating fixpoint."""

import itertools
import random

import pytest

from deflog import definitions
from deflog.definitions import (
    eval_definition, expand_context, greatest_unfounded_set,
    is_partial_stable, is_total, is_unfounded, partial_stable_models,
    stable_models, well_founded_model,
)
from deflog.errors import CapExceeded, EvaluationError
from deflog.evaluator import EvalContext
from deflog.interpretation import PartialInterpretation
from deflog.limits import Limits
from deflog.parser import parse_ruleset
from deflog.syntax import And, Atom1, Not, Or
from deflog.truthvalues import F, T, U, PartialSet
from deflog.vocab import CONST, DomainAtom, Symbol, Vocabulary, pred

from gen import PROPS, random_ruleset

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
        return _holds(body.left, pos, neg) and _holds(body.right, pos, neg)
    if isinstance(body, Or):
        return _holds(body.left, pos, neg) or _holds(body.right, pos, neg)
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
            fresh = definitions._wfm_fixpoint(
                d, i0, definitions._defined_atoms(d, i0), Limits(), EvalContext()
            )
            assert got == fresh, f"{d}"
        assert len(definitions._WFM_CACHE) == bound


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
