"""Second order values are built once, in canonical order.

Over a domain in canonical order, value spaces and carriers come out in
canonical order, so the partial sets built on them take no sort; each is
checked against the sort it replaces, with the canonical key made afresh
for every key (`oracle_canon_order`)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deflog import evaluator
from deflog.definitions import expand_context
from deflog.errors import CapExceeded
from deflog.interpretation import PartialInterpretation
from deflog.limits import Limits
from deflog.parser import parse_theory
from deflog.truthvalues import F, T, TV, U, PartialSet, canon_order
from deflog.vocab import DOMAIN, arg_value_space, pred, predicate_carrier, so_pred

from oracles import oracle_canon_order, oracle_relations

_INTS = st.integers(-2, 11)
_NAMES = st.sampled_from(["a", "b", "c", "d2"])
# canonical domains of ints, of names and of both, at most 3 elements
DOMAINS = st.one_of(
    st.sets(_INTS, max_size=3), st.sets(_NAMES, max_size=3),
    st.sets(st.one_of(_INTS, _NAMES), max_size=3),
).map(lambda d: tuple(sorted(d, key=canon_order)))
# first order arities 0-2; second order types with one predicate argument
# (and maybe a domain one) or two
TYPES = st.one_of(
    st.integers(0, 2).map(pred),
    st.tuples(st.integers(0, 2), st.booleans()).map(
        lambda a: so_pred(pred(a[0]), DOMAIN) if a[1] else so_pred(pred(a[0]))),
    st.tuples(st.integers(0, 1), st.integers(0, 1)).map(
        lambda a: so_pred(pred(a[0]), pred(a[1]))),
)


def canonical(keys) -> bool:
    return list(keys) == sorted(keys, key=oracle_canon_order)


@settings(max_examples=80, deadline=None)
@given(DOMAINS, TYPES)
def test_value_spaces_and_carriers_come_in_canonical_order(domain, t):
    for arity in range(3):
        space = arg_value_space(pred(arity), domain)
        assert canonical(space)
        assert set(space) == set(oracle_relations(domain, arity))
        assert len(set(space)) == len(space)
    carrier = predicate_carrier(t, domain)
    assert canonical(carrier) and len(set(carrier)) == len(carrier)


def _theory(t) -> str:
    """A rule set defining S of type t, over S alone."""
    if t.kind == "pred":
        xs = ", ".join(f"x{k}" for k in range(t.arity))
        head = f"S({xs})" if xs else "S"
        return f"vocab {{ S: {t}; }}\ndefinition d {{ {head} <- {head}. }}\n"
    args = ", ".join(f"F{k}" if a.kind == "pred" else f"x{k}" for k, a in enumerate(t.args))
    return f"vocab {{ S: template {t}; }}\ntemplate d {{ S({args}) <- S({args}). }}\n"


@settings(max_examples=40, deadline=None)
@given(DOMAINS, TYPES)
def test_sort_free_partial_sets_equal_the_sorted_ones(domain, t):
    th = parse_theory(_theory(t))
    d = (th.definitions or th.templates)["d"]
    sym = th.vocabulary.get("S")
    value = expand_context(d, PartialInterpretation.empty(domain)).value(sym)
    carrier = predicate_carrier(t, domain)
    assert value == PartialSet.constant(carrier, U)
    assert value == PartialSet.from_map(dict.fromkeys(reversed(carrier), U))
    if t.kind == "pred" and len(domain) ** t.arity <= 9:
        # a relation another test read first, equal but not this object, may
        # be memoised already: start from an empty memo
        evaluator._relation_cached.cache_clear()
        for rel in arg_value_space(t, domain):
            ps = evaluator._relation_cached(rel, t.arity, domain)
            assert ps == PartialSet.from_map(
                {k: TV.of(k in rel) for k in itertools.product(domain, repeat=t.arity)})
            assert ps.true_keys() is rel


def test_a_relation_value_keeps_only_its_tuples_in_the_domain():
    domain = (1, "a")
    for arity, rel in ((1, frozenset({(1,), ("z",)})), (2, frozenset({("a", 1), (1, 9)})),
                       (1, frozenset({(2,)}))):
        ps = evaluator._relation_cached(rel, arity, domain)
        assert ps.true_keys() == frozenset(ps.keys_with(T)) == rel & set(ps.carrier)
        assert ps == PartialSet.from_map(
            {k: TV.of(k in rel) for k in itertools.product(domain, repeat=arity)})


def test_a_value_space_is_a_new_list_over_a_shared_memo():
    domain = ("a", "b")
    first = arg_value_space(pred(1), domain)
    expected = list(first)
    first.reverse()
    first.append(frozenset({("z",)}))
    second = arg_value_space(pred(1), domain)
    assert second == expected and second is not first
    assert all(a is b for a, b in zip(second, arg_value_space(pred(1), list(domain))))
    # the cap is checked on every call, memo or not
    with pytest.raises(CapExceeded):
        arg_value_space(pred(1), domain, Limits(max_so_arg_base=1))


def test_given_carriers_sort_as_canon_order_does():
    rng = random.Random(17)
    for _ in range(60):
        domain = rng.sample([0, 1, 2, "a", "b"], rng.randint(1, 3))
        pool = [frozenset(rng.sample(list(itertools.product(domain, repeat=n)),
                                     rng.randint(0, len(domain) ** n)))
                for n in (1, 2) for _ in range(3)]
        # keys share relations, and second order keys mix them with elements
        keys = [(rng.choice(pool), rng.choice(domain), rng.choice(pool))
                for _ in range(rng.randint(0, 12))]
        keys = list(dict.fromkeys(keys + [(r,) for r in pool if rng.random() < 0.5]))
        rng.shuffle(keys)
        expected = tuple(sorted(keys, key=oracle_canon_order))
        assert PartialSet.constant(keys, U).carrier == expected
        values = {k: rng.choice((T, U, F)) for k in keys}
        assert PartialSet.from_map(values).carrier == tuple(sorted(values, key=oracle_canon_order))
