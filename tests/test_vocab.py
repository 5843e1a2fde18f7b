"""Types, symbols, vocabularies and predicate carriers."""

import pytest

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

    def test_types_hash_and_compare_structurally(self):
        assert pred(1) == pred(1) and hash(pred(1)) == hash(pred(1))
        assert pred(1) != pred(2)


class TestVocabulary:
    def test_duplicate_names_with_different_types_rejected(self):
        with pytest.raises(TypeError_):
            Vocabulary.of([Symbol("p", pred(1)), Symbol("p", pred(2))])

    def test_lookup_and_set_operations(self):
        p, q = Symbol("p", pred(1)), Symbol("q", pred(2))
        v = Vocabulary.of([p, q])
        assert v.get("p") == p and v.get("r") is None
        assert p in v and Symbol("p", pred(2)) not in v
        assert Vocabulary.of([p]).issubset(v)
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
