"""Types, symbols, vocabularies and predicate carriers."""

import copy
import dataclasses
import gc
import pickle
import sys
import threading

import pytest

from deflog import vocab
from deflog.errors import CapExceeded, TypeError_
from deflog.limits import Limits
from deflog.vocab import (
    CONST, DOMAIN, DomainAtom, Symbol, Vocabulary, arg_value_space, pred,
    predicate_carrier, so_pred,
)


class TestTypes:
    def test_predicate_types(self):
        assert pred(2).is_predicate
        assert so_pred(pred(1), DOMAIN).is_predicate
        assert not DOMAIN.is_predicate and not CONST.is_predicate

    def test_so_pred_arguments_must_be_pred_or_domain(self):
        with pytest.raises(TypeError_):
            so_pred(so_pred(pred(1)))
        with pytest.raises(TypeError_):
            so_pred(CONST)

    def test_rendering(self):
        assert str(pred(3)) == "pred/3"
        assert str(so_pred(pred(1), DOMAIN)) == "so-pred(pred/1, domain)"
        assert str(Symbol("p", pred(1))) == "p"

    def test_value_spaces_of_other_types_are_refused(self):
        with pytest.raises(TypeError_, match=r"^type so-pred\(pred/1\) has no enumerable "):
            arg_value_space(so_pred(pred(1)), ("a",))
        with pytest.raises(TypeError_, match="^const is not a predicate type$"):
            predicate_carrier(CONST, ("a",))

    def test_types_hash_and_compare_structurally(self):
        assert pred(1) == pred(1) and hash(pred(1)) == hash(pred(1))
        assert pred(1) != pred(2)


class TestSymbolInterning:
    def test_equal_triples_give_the_same_object(self):
        assert Symbol("p", pred(1)) is Symbol("p", pred(1), "user")
        assert Symbol(name="w", type=so_pred(pred(1)), kind="template") is Symbol(
            "w", so_pred(pred(1)), "template")

    def test_a_different_kind_or_type_gives_a_different_object(self):
        p = Symbol("p", pred(1))
        assert Symbol("p", pred(1), "template") is not p
        assert Symbol("p", pred(2)) is not p and Symbol("p", CONST) is not p
        assert Symbol("p", pred(1), "template") != p and Symbol("p", pred(2)) != p

    def test_copies_are_the_interned_object(self):
        p = Symbol("p", pred(1), "interpreted")
        assert copy.copy(p) is p and copy.deepcopy(p) is p
        assert copy.deepcopy({p: (p,)}) == {p: (p,)}
        assert pickle.loads(pickle.dumps(p)) is p
        assert dataclasses.replace(p) is p
        assert dataclasses.replace(p, kind="user") is Symbol("p", pred(1))

    def test_symbols_are_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Symbol("p", pred(1)).name = "q"

    def test_the_table_holds_symbols_weakly(self):
        gc.collect()
        before = len(vocab._SYMBOLS)
        fresh = [Symbol(f"_fresh{n}", pred(n % 3)) for n in range(10_000)]
        assert len(vocab._SYMBOLS) == before + 10_000
        del fresh
        gc.collect()
        assert len(vocab._SYMBOLS) == before

    def test_threads_that_miss_together_make_one_symbol(self):
        names = [f"_race{n}" for n in range(2_000)]
        made = [[] for _ in range(8)]
        start = threading.Barrier(len(made))

        def make(out):
            start.wait()
            out.extend(Symbol(name, pred(1)) for name in names)

        threads = [threading.Thread(target=make, args=(out,)) for out in made]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(len(out) == len(names) for out in made)
        assert all(a is b for out in made[1:] for a, b in zip(made[0], out))


class TestVocabulary:
    def test_two_symbols_with_one_name_rejected(self):
        for other in (Symbol("p", pred(1), "template"), Symbol("p", CONST)):
            with pytest.raises(TypeError_, match="duplicate symbol name 'p'"):
                Vocabulary((Symbol("p", pred(1)), other))
            with pytest.raises(TypeError_, match="duplicate symbol name 'p'"):
                Vocabulary.of([Symbol("p", pred(1)), other])
        p = Symbol("p", pred(1))
        assert Vocabulary.of([p, Symbol("p", pred(1))]).symbols == (p,)

    def test_duplicate_names_with_different_types_rejected(self):
        with pytest.raises(TypeError_):
            Vocabulary.of([Symbol("p", pred(1)), Symbol("p", pred(2))])

    def test_lookup_and_set_operations(self):
        p, q = Symbol("p", pred(1)), Symbol("q", pred(2))
        v = Vocabulary.of([p, q])
        assert v.get("p") == p and v.get("r") is None
        assert p in v and Symbol("p", pred(2)) not in v
        assert all(s in v for s in Vocabulary.of([p]))
        assert set(v.union(Vocabulary.of([Symbol("r", CONST)]))) == {p, q, Symbol("r", CONST)}
        assert set(v.without([p])) == {q}


class TestDomainAtom:
    def test_rendering(self):
        p = Symbol("p", pred(2))
        assert str(DomainAtom(p, ("a", "b"))) == "p('a', 'b')"
        assert str(DomainAtom(Symbol("q", pred(0)), ())) == "q"


class TestValueSpaces:
    def test_domain_argument_space(self):
        assert arg_value_space(DOMAIN, ("a", "b")) == ["a", "b"]

    def test_predicate_argument_space_is_the_powerset(self):
        space = arg_value_space(pred(1), ("a", "b"))
        assert len(space) == 4
        assert frozenset() in space and frozenset({("a",), ("b",)}) in space

    def test_argument_space_cap(self):
        # no flag raises this cap, so the message names none
        with pytest.raises(CapExceeded, match=r"^\|D\|\^2 = 16 exceeds second order argument cap 9$"):
            arg_value_space(pred(2), ("a", "b", "c", "d"), Limits(max_so_arg_base=9))

    def test_first_order_carrier(self):
        assert predicate_carrier(pred(2), ("a", "b")) == [
            ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"),
        ]

    def test_second_order_carrier_crosses_argument_spaces(self):
        carrier = predicate_carrier(so_pred(DOMAIN, pred(1)), ("a", "b"))
        assert len(carrier) == 2 * 4
        assert ("a", frozenset()) in carrier
