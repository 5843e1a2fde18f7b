"""Truth value algebra, partial sets, and ultimate approximations.

The load-bearing checks compare every connective, quantifier and
aggregate table against an independent brute-force glb over exact
completions."""

import itertools

import pytest

from deflog.errors import CapExceeded, EvaluationError
from deflog.limits import Limits
from deflog.truthvalues import (
    F, T, TV, U, PartialSet, approx_aggregate, approx_quantifier,
    canon_order, conj, disj, exact_set, glb_prec, iff, implies, leq_prec,
    leq_truth, max_truth, min_truth, neg,
)

from oracles import (
    BoolFn, kleene_connective, rank_leq_truth, rank_max_truth, rank_min_truth,
    ultimate_approx,
)

THREE = (T, U, F)


def brute_glb(values):
    """Independent glb under <=p: the common exact value, else u."""
    vals = set(values)
    if len(vals) == 1:
        return vals.pop()
    return U


def classical(fn, partial_args):
    """Brute-force ultimate approximation of a classical boolean function."""
    unknown = [i for i, v in enumerate(partial_args) if v is U]
    results = []
    for choice in itertools.product((T, F), repeat=len(unknown)):
        args = list(partial_args)
        for i, v in zip(unknown, choice):
            args[i] = v
        results.append(fn(*args))
    return brute_glb(results)


class TestOrders:
    def test_truth_order_is_f_u_t(self):
        assert leq_truth(F, U) and leq_truth(U, T) and leq_truth(F, T)
        assert not leq_truth(T, U) and not leq_truth(U, F)

    def test_precision_order_puts_u_below_exact(self):
        assert leq_prec(U, T) and leq_prec(U, F)
        assert not leq_prec(T, F) and not leq_prec(F, T)
        for v in THREE:
            assert leq_prec(v, v)

    def test_exactness(self):
        assert T.is_exact and F.is_exact and not U.is_exact

    def test_min_max_truth(self):
        assert min_truth([T, U, F]) is F
        assert max_truth([T, U, F]) is T
        assert min_truth([], empty=T) is T
        assert max_truth([], empty=F) is F

    def test_truth_order_matches_the_rank_table(self):
        # identity comparisons against the rank table they replaced, on
        # every sequence up to length 4, reading every value (no early
        # exit: lazy callers must record the same atoms)
        for a, b in itertools.product(THREE, repeat=2):
            assert leq_truth(a, b) is rank_leq_truth(a, b)
        for n in range(5):
            for values in itertools.product(THREE, repeat=n):
                for empty in (T, F):
                    for fn, oracle in ((min_truth, rank_min_truth), (max_truth, rank_max_truth)):
                        read = []
                        got = fn((read.append(v) or v for v in values), empty)
                        assert got is oracle(values, empty), (fn.__name__, values, empty)
                        assert read == list(values)

    def test_glb_prec_matches_oracle(self):
        for n in (1, 2, 3):
            for combo in itertools.product(THREE, repeat=n):
                assert glb_prec(combo) is brute_glb(combo)

    def test_glb_prec_empty_is_an_error(self):
        with pytest.raises(EvaluationError):
            glb_prec([])


class TestConnectives:
    """Each Kleene table equals the ultimate approximation of the
    classical table over all 3^arity partial inputs (exhaustive)."""

    CLASSICAL = {
        "~": lambda a: TV.of(a is F),
        "&": lambda a, b: TV.of(a is T and b is T),
        "|": lambda a, b: TV.of(a is T or b is T),
        "=>": lambda a, b: TV.of(a is F or b is T),
        "<=>": lambda a, b: TV.of(a is b),
    }

    @pytest.mark.parametrize("c,fn", [
        ("~", neg),
        ("&", conj),
        ("|", disj),
        ("=>", implies),
        ("<=>", iff),
    ])
    def test_table_is_ultimate_approximation(self, c, fn):
        arity = 1 if c == "~" else 2
        for args in itertools.product(THREE, repeat=arity):
            expected = classical(self.CLASSICAL[c], list(args))
            assert fn(*args) is expected, f"{c}{args}"

    def test_kleene_connective_dispatch(self):
        assert kleene_connective("&", (T, U)) is U
        assert kleene_connective("~", (F,)) is T
        with pytest.raises(EvaluationError):
            kleene_connective("nand", (T, T))
        with pytest.raises(EvaluationError):
            kleene_connective("&", (T,))

    def test_implication_with_unknown_antecedent_is_not_true(self):
        # u => u is u under the ultimate approximation, unlike some
        # three-valued logics that make it t
        assert implies(U, U) is U


class TestPartialSet:
    def test_from_map_sorts_carrier(self):
        s = PartialSet.from_map({("b",): T, ("a",): F})
        assert s.carrier == (("a",), ("b",))
        assert s.value(("b",)) is T

    def test_constant_and_exactness(self):
        s = PartialSet.constant([1, 2], U)
        assert not s.is_exact
        assert s.keys_with(U) == (1, 2)
        assert exact_set([1, 2], [2]).is_exact

    def test_with_values_rejects_foreign_keys(self):
        s = PartialSet.constant([1], U)
        with pytest.raises(EvaluationError):
            s.with_values({2: T})

    def test_equal_sets_hash_equal_and_keep_their_hash(self):
        # the hash is cached on first use, whichever way the set was built
        built = [
            PartialSet.from_map({("b",): T, ("a",): U}),
            PartialSet.constant([("b",), ("a",)], U).with_values({("b",): T}),
            PartialSet.constant([("a",), ("b",)], T).with_values({("a",): U}),
            PartialSet.from_map({("a",): F, ("b",): F}).with_values(
                {("a",): U, ("b",): T}
            ),
        ]
        assert all(s == built[0] for s in built)
        memo = {built[0]: "hit"}
        before = [hash(s) for s in built]
        assert len(set(before)) == 1
        assert all(memo[s] == "hit" for s in built)
        memo.update({s: "again" for s in built})
        assert [hash(s) for s in built] == before and len(memo) == 1
        other = built[0].with_values({("a",): T})
        assert other != built[0] and hash(other) == hash(PartialSet.constant([("a",), ("b",)], T))

    def test_completions_count_and_precision(self):
        s = PartialSet.from_map({1: T, 2: U, 3: U})
        comps = list(s.completions())
        assert len(comps) == 4
        for c in comps:
            assert c.is_exact
            assert s.leq_prec(c)
        assert len({c.values for c in comps}) == 4

    def test_completions_cap(self):
        s = PartialSet.constant(range(5), U)
        with pytest.raises(CapExceeded):
            list(s.completions(Limits(max_unknowns=4)))

    def test_orders_lift_pointwise(self):
        a = PartialSet.from_map({1: U, 2: F})
        b = PartialSet.from_map({1: T, 2: F})
        assert a.leq_prec(b) and not b.leq_prec(a)
        assert a.leq_truth(b) and not b.leq_truth(a)

    def test_canon_order_is_total_on_mixed_keys(self):
        keys = [1, "a", (1, 2), frozenset({(1,)}), ("a", "b"), 2, "b"]
        assert sorted(keys, key=canon_order) == sorted(keys, key=canon_order)
        # sorting twice is stable and never raises on mixed types
        assert len(sorted(keys, key=canon_order)) == len(keys)


class TestUltimateApprox:
    def test_tuple_inputs_match_brute_force(self):
        xor = BoolFn("xor", lambda args: TV.of((args[0] is T) != (args[1] is T)))
        for args in itertools.product(THREE, repeat=2):
            expected = classical(
                lambda a, b: TV.of((a is T) != (b is T)), list(args)
            )
            assert ultimate_approx(xor, args) is expected

    def test_boolfn_must_be_two_valued(self):
        bad = BoolFn("bad", lambda args: U)
        with pytest.raises(EvaluationError):
            ultimate_approx(bad, (T,))

    def test_cap_on_unknown_positions(self):
        fn = BoolFn("any", lambda args: TV.of(T in args))
        with pytest.raises(CapExceeded):
            ultimate_approx(fn, (U,) * 5, Limits(max_unknowns=4))


def quantifier_oracle(q, s):
    outs = []
    for c in s.completions():
        if q == "forall":
            outs.append(TV.of(all(v is T for v in c.values)))
        else:
            outs.append(TV.of(any(v is T for v in c.values)))
    return brute_glb(outs) if outs else (T if q == "forall" else F)


class TestQuantifiers:
    @pytest.mark.parametrize("q", ["forall", "exists"])
    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4])
    def test_matches_completion_oracle(self, q, size):
        for values in itertools.product(THREE, repeat=size):
            s = PartialSet(tuple(range(size)), values)
            assert approx_quantifier(q, s) is quantifier_oracle(q, s), (q, values)

    def test_empty_carrier_conventions(self):
        empty = PartialSet((), ())
        assert approx_quantifier("forall", empty) is T
        assert approx_quantifier("exists", empty) is F


def aggregate_oracle(agg, cmp, s, n):
    test = {"=": lambda a, b: a == b, "<": lambda a, b: a < b, ">": lambda a, b: a > b}[cmp]
    outs = []
    for c in s.completions():
        if agg == "card":
            val = sum(1 for v in c.values if v is T)
        else:
            val = sum(k[0] for k, v in c.items() if v is T)
        outs.append(TV.of(test(val, n)))
    return brute_glb(outs)


class TestAggregates:
    @pytest.mark.parametrize("cmp", ["=", "<", ">"])
    def test_card_matches_completion_oracle(self, cmp):
        for size in range(5):
            for values in itertools.product(THREE, repeat=size):
                s = PartialSet(tuple((i,) for i in range(size)), values)
                for n in range(-1, size + 2):
                    assert approx_aggregate("card", cmp, s, n) is \
                        aggregate_oracle("card", cmp, s, n), (cmp, values, n)

    @pytest.mark.parametrize("cmp", ["=", "<", ">"])
    def test_sum_matches_completion_oracle(self, cmp):
        weights = (-2, 1, 3)
        for values in itertools.product(THREE, repeat=len(weights)):
            s = PartialSet(tuple((w,) for w in weights), values)
            for n in range(-3, 5):
                assert approx_aggregate("sum", cmp, s, n) is \
                    aggregate_oracle("sum", cmp, s, n), (cmp, values, n)

    def test_sum_requires_integer_first_components(self):
        s = PartialSet.from_map({("a",): T})
        with pytest.raises(EvaluationError):
            approx_aggregate("sum", "=", s, 0)

    def test_unknown_aggregate_or_cmp(self):
        s = PartialSet((), ())
        with pytest.raises(EvaluationError):
            approx_aggregate("max", "=", s, 0)
        with pytest.raises(EvaluationError):
            approx_aggregate("card", "!=", s, 0)
