"""Partial interpretations and the structure text format."""

import random
import re

import pytest

from deflog.errors import CapExceeded, EvaluationError, ParseError, TypeError_
from deflog.interpretation import (
    PartialInterpretation, read_structure, write_structure,
)
from deflog.limits import Limits
from deflog.truthvalues import F, T, U, PartialSet
from deflog.vocab import CONST, DOMAIN, DomainAtom, Symbol, Vocabulary, pred, so_pred

from oracles import (
    completions, exact_set, expand_unknown, oracle_read_structure, rebuild_expand,
    rebuild_restrict, rebuild_revise, refinements,
)

P = Symbol("P", pred(1))
Q = Symbol("Q", pred(2))
c = Symbol("c", CONST)
SO = Symbol("SO", so_pred(DOMAIN, pred(1)))
VOCAB = Vocabulary.of([P, Q, c, SO])


def interp(**values):
    domain = ("a", "b")
    valuation = {}
    for name, v in values.items():
        sym = VOCAB.get(name)
        valuation[sym] = v
    return PartialInterpretation.make(domain, valuation)


class TestConstruction:
    def test_make_sorts_domain_and_symbols(self):
        i = PartialInterpretation.make(("b", "a"), {P: PartialSet.constant([("a",), ("b",)], U)})
        assert i.domain == ("a", "b")
        assert [s.name for s, _ in i.assignments] == ["P"]

    def test_constant_values_are_domain_elements(self):
        i = interp(c="a")
        assert i.value(c) == "a"
        with pytest.raises(TypeError_):
            interp(c="z")

    def test_predicate_keys_checked_against_domain_and_arity(self):
        with pytest.raises(TypeError_):
            interp(P=PartialSet.constant([("z",)], T))
        with pytest.raises(TypeError_):
            interp(P=PartialSet.constant([("a", "b")], T))

    def test_second_order_keys_mix_elements_and_relations(self):
        value = PartialSet.constant([("a", frozenset({("b",)}))], T)
        i = interp(SO=value)
        assert i.value(SO).value(("a", frozenset({("b",)}))) is T


class TestAlgebra:
    def test_expand_restrict(self):
        i = interp(P=PartialSet.constant([("a",), ("b",)], U))
        j = i.expand(c, "b")
        assert j.value(c) == "b" and not i.interprets(c)
        k = j.restrict([c])
        assert k.interprets(c) and not k.interprets(P)
        with pytest.raises(EvaluationError):
            i.restrict([c])

    def test_expand_unknown_fills_full_carrier(self):
        i = expand_unknown(PartialInterpretation.empty(("a", "b")), [Q])
        assert len(i.value(Q).carrier) == 4
        assert not i.value(Q).is_exact

    def test_revise(self):
        i = expand_unknown(PartialInterpretation.empty(("a", "b")), [P])
        j = i.revise([DomainAtom(P, ("a",))], T)
        assert j.atom_value(DomainAtom(P, ("a",))) is T
        assert j.atom_value(DomainAtom(P, ("b",))) is U
        with pytest.raises(EvaluationError):
            i.revise([DomainAtom(Q, ("a", "a"))], T)

    def test_orders_and_exactness(self):
        lo = interp(P=PartialSet.constant([("a",), ("b",)], U))
        hi = interp(P=exact_set([("a",), ("b",)], [("a",)]))
        assert lo.leq_prec(hi) and not hi.leq_prec(lo)
        assert hi.is_exact and not lo.is_exact
        assert hi.exact_on([P])

    def test_u_atoms_sorted_by_symbol(self):
        i = expand_unknown(PartialInterpretation.empty(("a",)), [Q, P])
        atoms = i.u_atoms([Q, P])
        assert [a.predicate.name for a in atoms] == ["P", "Q"]

    def test_completions_enumerate_exact_refinements(self):
        i = expand_unknown(PartialInterpretation.empty(("a", "b")), [P])
        comps = list(completions(i, [P]))
        assert len(comps) == 4
        assert all(m.exact_on([P]) for m in comps)
        assert all(i.leq_prec(m) for m in comps)
        with pytest.raises(CapExceeded):
            list(completions(
                expand_unknown(PartialInterpretation.empty(tuple(range(5))), [P]), [P],
                Limits(max_unknowns=4)))

    def test_refinements_search_depth_first_and_cut_subtrees(self):
        i = expand_unknown(PartialInterpretation.empty(("a", "b", "c")), [P])
        atoms = i.u_atoms([P])
        seen = []

        def cut(j):
            seen.append(j.value(P).values)
            return j.value(P).values[:2] == (T, T)  # drop a and b both true

        got = [j.value(P).values for j in refinements(i, atoms, (T, U, F), cut)]
        product = [j.value(P).values for j in refinements(i, atoms, (T, U, F))]
        assert got == [v for v in product if v[:2] != (T, T)]
        # the root, the prefixes and the leaves, but nothing below a cut
        assert len(seen) == 1 + 3 + 9 + 27 - 3
        assert seen[0] == (U, U, U)


class TestSortFreeBinding:
    """`_expand`, `revise` and `restrict` edit the name-sorted assignments in
    place of the dict, sort and rebuild they once did; the oracle keeps the
    rebuild, and both must give the same tuple in the same order."""

    DOMAIN = ("a", "b")
    # two symbols named m (a constant and a predicate), names sorting
    # before, between and after the others
    POOL = (
        Symbol("a0", pred(1)), Symbol("c", CONST), Symbol("m", CONST),
        Symbol("m", pred(1)), Symbol("p", pred(1)), Symbol("x", CONST),
        Symbol("zz", pred(1)),
    )

    def value(self, rng, sym):
        if sym.type.kind == "const":
            return rng.choice(self.DOMAIN)
        return PartialSet.from_map({(d,): rng.choice((T, U, F)) for d in self.DOMAIN})

    def test_matches_the_rebuild_on_random_sequences(self):
        rng = random.Random(61)
        seen = set()
        for _ in range(300):
            start = rng.sample(self.POOL, rng.randint(0, 3))
            i = PartialInterpretation.make(
                self.DOMAIN, {s: self.value(rng, s) for s in start}
            )
            for _ in range(8):
                op = rng.choice(("expand", "expand", "revise", "restrict"))
                if op == "expand":
                    sym = rng.choice(self.POOL)
                    v = self.value(rng, sym)
                    got, want = i._expand(sym, v), rebuild_expand(i, sym, v)
                    if i.interprets(sym):
                        seen.add("rebind")
                    else:
                        pos = [s for s, _ in got.assignments].index(sym)
                        seen.add("front" if pos == 0 else
                                 "end" if pos == len(got.assignments) - 1 else "middle")
                        if any(s.name == sym.name for s, _ in i.assignments):
                            seen.add("same name")
                else:
                    preds = i.predicate_symbols()
                    if op == "revise" and preds:
                        atoms = [DomainAtom(s, (d,)) for s in preds for d in self.DOMAIN]
                        atoms = rng.sample(atoms, rng.randint(1, len(atoms)))
                        v = rng.choice((T, U, F))
                        got, want = i.revise(atoms, v), rebuild_revise(i, atoms, v)
                    else:
                        syms = [s for s, _ in i.assignments]
                        sub = rng.sample(syms, rng.randint(0, len(syms)))
                        got, want = i.restrict(sub), rebuild_restrict(i, sub)
                assert got.assignments == want.assignments
                assert [s for s, _ in got.assignments] == [s for s, _ in want.assignments]
                assert got == want and hash(got) == hash(want)
                assert got._by_symbol == want._by_symbol
                i = got
        assert seen == {"rebind", "front", "middle", "end", "same name"}

    def test_new_symbol_goes_after_every_name_at_or_below_its_own(self):
        m_const, m_pred = Symbol("m", CONST), Symbol("m", pred(1))
        i = PartialInterpretation.make(("a",), {P: PartialSet.constant([("a",)], T)})
        j = i._expand(m_pred, PartialSet.constant([("a",)], F))._expand(m_const, "a")
        j = j._expand(Symbol("A", CONST), "a")._expand(Symbol("z", CONST), "a")
        names = [(s.name, s.type.kind) for s, _ in j.assignments]
        assert names == [("A", "const"), ("P", "pred"), ("m", "pred"),
                         ("m", "const"), ("z", "const")]
        # rebinding keeps the slot, even against a same-named neighbour
        k = j._expand(m_pred, PartialSet.constant([("a",)], T))
        assert [s for s, _ in k.assignments] == [s for s, _ in j.assignments]
        assert k.value(m_pred).value(("a",)) is T and k.value(m_const) == "a"

STRUCT_TEXT = """\
// comment lines are ignored
domain = {a, b}
P = {(a): t, *: f}
Q = {(a, b): u, *: f}
c = b
SO = {(a, {(a)}): t, (b, {}): f}
"""


class TestStructureFormat:
    def test_read(self):
        i = read_structure(STRUCT_TEXT, VOCAB)
        assert i.domain == ("a", "b")
        assert i.value(P).value(("a",)) is T
        assert i.value(P).value(("b",)) is F
        assert i.value(Q).value(("a", "b")) is U
        assert i.value(c) == "b"
        assert i.value(SO).value(("a", frozenset({("a",)}))) is T

    def test_unmentioned_predicates_default_to_unknown(self):
        i = read_structure("domain = {a}\n", Vocabulary.of([P]))
        assert i.value(P).value(("a",)) is U

    def test_integer_ranges(self):
        i = read_structure("domain = {1..3}\n", Vocabulary.of([P]))
        assert i.domain == (1, 2, 3)

    def test_round_trip(self):
        i = read_structure(STRUCT_TEXT, VOCAB)
        text = write_structure(i)
        j = read_structure(text, VOCAB)
        assert i == j
        assert write_structure(j) == text

    def test_carrier_cap(self):
        # a 3,600-tuple structure, as the frontend benchmark reads, is far
        # below the default cap
        domain = [f"e{k}" for k in range(60)]
        text = f"domain = {{{', '.join(domain)}}}\nQ = {{(e0, e1): f, *: t}}\n"
        vocab = Vocabulary.of([P, Q])
        i = read_structure(text, vocab)
        assert len(i.value(Q).carrier) == 3600 and i.value(Q).value(("e0", "e1")) is F
        with pytest.raises(CapExceeded, match=r"^carrier of 3600 tuples exceeds cap 3599 "):
            read_structure(text, vocab, Limits(max_carrier=3599))
        with pytest.raises(CapExceeded, match=r"^domain of 4 elements exceeds cap 3 "):
            read_structure("domain = {a, 1..3}\n", vocab, Limits(max_carrier=3))

    @pytest.mark.parametrize("bad,msg", [
        ("P = {(a): t}\n", "domain must be declared first"),
        ("domain = {a}\nR = {(a): t}\n", "not in vocabulary"),
        ("domain = {a}\nP = {(a): t}\nP = {(a): f}\n", "duplicate assignment"),
        ("domain = {a}\nP = {(b): t, *: f}\n", r"^2:0: P: b is not a domain element$"),
        ("domain = {a}\nQ = {(a): t, *: f}\n", r"^2:0: Q: key \(a\) outside carrier$"),
        ("domain = {a}\nSO = {(a, {(b)}): t, *: f}\n",
         r"^2:0: SO: key \(a, \{\(b\)\}\) outside carrier$"),
        ("domain = {a}\nP = {(a): t, (a): x}\n", "expected t, u or f"),
        ("domain = {a}\nP = {(a): t\n", "expected"),
        ("domain = {a}\ndomain = {b}\nP = {*: f}\n", "duplicate domain"),
        ("domain = {a, b}\nQ = {(a, a): t}\n", "do not cover the carrier"),
    ])
    def test_reader_errors(self, bad, msg):
        with pytest.raises(ParseError, match=msg):
            read_structure(bad, VOCAB)

    @pytest.mark.parametrize("value, key", [
        ("{({(b)}): t, ({}): f}", "({(b)})"),  # b is no domain element
        ("{({(a, a)}): t}", "({(a, a)})"),  # a pair in a pred/1 relation
        ("{({(a)}, {}): t}", "({(a)}, {})"),  # two arguments for one
        ("{(a): t}", "(a)"),  # an element for a relation
    ])
    def test_second_order_keys_lie_in_the_carrier(self, value, key):
        # with no '*' default the carrier is never built, so each key is
        # checked; both readers once accepted these
        vocab = Vocabulary.of([Symbol("E", so_pred(pred(1)))])
        text = f"domain = {{a}}\nE = {value}\n"
        for read in (read_structure, oracle_read_structure):
            with pytest.raises(ParseError, match=rf"^2:0: E: key {re.escape(key)} outside carrier$"):
                read(text, vocab)
        ok = read_structure("domain = {a}\nE = {({(a)}): t, ({}): f}\n", vocab)
        assert ok == oracle_read_structure("domain = {a}\nE = {({(a)}): t, ({}): f}\n", vocab)

    @pytest.mark.parametrize("value, message", [
        ("{(a): t, (b): u, (a): f}", "P: key (a) given both t and f"),
        ("{(9): t, (a): t, (b): t}", "P: 9 is not a domain element"),
        ("{(a): t, (9): t, *: f}", "P: 9 is not a domain element"),
    ])
    def test_each_key_is_given_once_over_domain_elements(self, value, message):
        # a repeated key once kept its last value; an element outside the
        # domain was reported as a key outside the carrier, or as entries
        # not covering it
        with pytest.raises(ParseError, match=rf"^2:0: {re.escape(message)}$"):
            read_structure(f"domain = {{a, b}}\nP = {value}\n", VOCAB)
        if "9" not in value:  # a key given the same value twice has that value
            same = read_structure(f"domain = {{a, b}}\nP = {value.replace('f', 't')}\n", VOCAB)
            assert same.value(P).value(("a",)) is T


class TestReaderOrder:
    """The reader sorts the domain once, builds first order carriers in
    that order without a sort, and checks every predicate key as it reads
    it; only a constant's value is checked after the read."""

    DOMAIN = "domain = {b, 2, a, 1}\n"
    VALUES = {
        "default": "P = {(a): t, (2): u, *: f}\nQ = {(b, 1): u, (1, b): t, *: f}\nc = a\n",
        "no default": "P = {(b): t, (2): u, (a): f, (1): t}\nc = 2\n",
        "second order": "SO = {(a, {(b), (1)}): t, (2, {}): u, (b, {(2)}): f}\n"
                        "P = {(1): f, *: t}\n",
        "so default": "SO = {(1, {(a)}): t, *: u}\nQ = {(a, a): f, *: u}\n",
    }

    @pytest.mark.parametrize("case", sorted(VALUES))
    def test_reads_as_the_oracle_does(self, case):
        text = self.DOMAIN + self.VALUES[case]
        i = read_structure(text, VOCAB)
        assert i == oracle_read_structure(text, VOCAB)
        assert i.domain == (1, 2, "a", "b")
        assert write_structure(i) == write_structure(oracle_read_structure(text, VOCAB))
        for sym, value in i.assignments:  # carriers in canonical order
            if sym.type.is_predicate:
                assert value == PartialSet.from_map(dict(value.items()))
        assert read_structure(write_structure(i), VOCAB) == i

    def test_a_constant_outside_the_domain_is_a_type_error(self):
        for value in ("z", "{(a)}"):
            text = f"{self.DOMAIN}P = {{*: t}}\nc = {value}\n"
            with pytest.raises(TypeError_, match=r"^constant c assigned .*, not a domain element$") as new:
                read_structure(text, VOCAB)
            with pytest.raises(TypeError_) as old:
                oracle_read_structure(text, VOCAB)
            assert str(new.value) == str(old.value)

    def test_a_range_is_no_key_element(self):
        # `int` once raised a ValueError on the range token
        for value in ("P = {(1..3): t}", "c = 1..3"):
            for read in (read_structure, oracle_read_structure):
                with pytest.raises(ParseError, match=r"^2:0: expected a domain element, got '1\.\.3'$"):
                    read(f"domain = {{1..3}}\n{value}\n", VOCAB)
