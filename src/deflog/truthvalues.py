"""Three-valued truth values, partial sets, and ultimate approximations.

The value space is THREE = {t, u, f} with two partial orders:

* the truth order:      f <= u <= t
* the precision order:  u <=p f, u <=p t  (t and f incomparable)

Exact values are t and f.  A two-valued boolean function F is lifted to
partial inputs by its *ultimate approximation*: the greatest lower bound
under <=p of F over all exact completions of the input.  The Kleene
connectives, Min and Max in the truth order (the three-valued
quantifiers) and the three-valued aggregate tests below all coincide
with that construction; tests check this against an independent
brute-force oracle (`tests/oracles.py`).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, Iterator, Mapping

from .errors import EvaluationError
from .limits import DEFAULT_LIMITS, Limits


class TV(enum.Enum):
    """A three-valued truth value; the members are singletons, hashed by identity."""

    TRUE = "t"
    UNKNOWN = "u"
    FALSE = "f"
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return self.value

    def __str__(self) -> str:
        return self.value

    @property
    def is_exact(self) -> bool:
        return self is not TV.UNKNOWN

    @staticmethod
    def of(b: bool) -> "TV":
        return TV.TRUE if b else TV.FALSE


T, U, F = TV.TRUE, TV.UNKNOWN, TV.FALSE

def leq_truth(a: TV, b: TV) -> bool:
    """True iff a <= b in the truth order f <= u <= t."""
    return a is b or a is F or b is T


def leq_prec(a: TV, b: TV) -> bool:
    """True iff a <=p b: u is below both exact values, t and f incomparable."""
    return a is b or a is U


def min_truth(values: Iterable[TV], empty: TV = T) -> TV:
    """Minimum under the truth order; `empty` for an empty iterable.
    Every value is read (no early exit), so lazy callers record alike."""
    it = iter(values)
    out = next(it, empty)
    for v in it:
        if v is F or v is U and out is T:
            out = v
    return out


def max_truth(values: Iterable[TV], empty: TV = F) -> TV:
    """Maximum under the truth order; `empty` for an empty iterable.
    Every value is read (no early exit), so lazy callers record alike."""
    it = iter(values)
    out = next(it, empty)
    for v in it:
        if v is T or v is U and out is F:
            out = v
    return out


def glb_prec(values: Iterable[TV]) -> TV:
    """Greatest lower bound under <=p of a nonempty collection.

    Returns v when every input equals the exact value v, and u otherwise.
    """
    it = iter(values)
    out = next(it, None)
    if out is None:
        raise EvaluationError("glb_prec of an empty collection")
    for v in it:
        if v is not out:
            return U
    return out


# ---------------------------------------------------------------------------
# Connectives: the Kleene tables, on identity (the evaluator calls them
# once per node, with both operands already evaluated)


def neg(a: TV) -> TV:
    return U if a is U else F if a is T else T


def conj(a: TV, b: TV) -> TV:
    return F if a is F or b is F else U if a is U or b is U else T


def disj(a: TV, b: TV) -> TV:
    return T if a is T or b is T else U if a is U or b is U else F


def implies(a: TV, b: TV) -> TV:
    # Kleene material implication; equals the ultimate approximation of
    # the classical table (u => u is u, not t).
    return T if a is F or b is T else U if a is U or b is U else F


def iff(a: TV, b: TV) -> TV:
    return U if a is U or b is U else T if a is b else F


# ---------------------------------------------------------------------------
# Partial sets


def canon_order(key: Hashable):
    """A total-order sort key for carrier elements.

    Handles domain elements (ints, strings), tuples of them, and
    frozensets of tuples (exact relation values used as second order
    arguments).
    """
    if isinstance(key, tuple):
        return (2, tuple(canon_order(k) for k in key))
    if isinstance(key, frozenset):
        return _relation_order(key)
    if isinstance(key, bool):
        return (0, int(key))
    if isinstance(key, int):
        return (0, key)
    return (1, str(key))


@lru_cache(maxsize=4_096)
def _relation_order(rel: frozenset) -> tuple:
    # made once per relation: second order carriers share their relations
    return (3, tuple(sorted(canon_order(k) for k in rel)))


@dataclass(frozen=True)
class PartialSet:
    """A total map from a finite carrier in canonical order to THREE.  `from_map`
    and `constant` sort it; a direct caller passes a canonical carrier."""

    carrier: tuple
    values: tuple

    def __post_init__(self):
        if len(self.carrier) != len(self.values):
            raise EvaluationError("carrier/value length mismatch")
        object.__setattr__(
            self, "_index", {k: n for n, k in enumerate(self.carrier)}
        )

    @staticmethod
    def from_map(mapping: Mapping[Hashable, TV]) -> "PartialSet":
        keys = tuple(sorted(mapping, key=canon_order))
        return PartialSet(keys, tuple(mapping[k] for k in keys))

    @staticmethod
    def constant(carrier: Iterable[Hashable], v: TV) -> "PartialSet":
        keys = tuple(sorted(carrier, key=canon_order))
        return PartialSet(keys, (v,) * len(keys))

    def __hash__(self) -> int:  # cached on first use: most are never hashed
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash((self.carrier, self.values)))
        return self._hash

    def value(self, key: Hashable) -> TV:
        try:
            return self.values[self._index[key]]
        except KeyError:
            raise EvaluationError(f"key {key!r} not in carrier") from None

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def items(self) -> Iterator[tuple[Hashable, TV]]:
        return zip(self.carrier, self.values)

    def with_values(self, updates: Mapping[Hashable, TV]) -> "PartialSet":
        vals = list(self.values)
        for key, v in updates.items():
            try:
                vals[self._index[key]] = v
            except KeyError:
                raise EvaluationError(f"key {key!r} not in carrier") from None
        return PartialSet(self.carrier, tuple(vals))

    @property
    def is_exact(self) -> bool:  # cached on first use, as the hash
        if "_exact" not in self.__dict__:
            object.__setattr__(self, "_exact", U not in self.values)
        return self._exact

    def keys_with(self, v: TV) -> tuple:
        return tuple(k for k, w in self.items() if w is v)

    def true_keys(self) -> frozenset:  # cached on first use, as the hash
        if "_true" not in self.__dict__:
            object.__setattr__(self, "_true", frozenset(self.keys_with(T)))
        return self._true

    def leq_prec(self, other: "PartialSet") -> bool:
        return self.carrier == other.carrier and all(
            leq_prec(a, b) for a, b in zip(self.values, other.values)
        )

    def leq_truth(self, other: "PartialSet") -> bool:
        return self.carrier == other.carrier and all(
            leq_truth(a, b) for a, b in zip(self.values, other.values)
        )

    def completions(self, limits: Limits = DEFAULT_LIMITS) -> Iterator["PartialSet"]:
        """All exact refinements; 2^u of them for u unknown elements."""
        unknown = [i for i, v in enumerate(self.values) if v is U]
        limits.check("max_unknowns", len(unknown), "{n} unknown elements exceed cap {cap}")
        for choice in itertools.product((T, F), repeat=len(unknown)):
            vals = list(self.values)
            for i, v in zip(unknown, choice):
                vals[i] = v
            yield PartialSet(self.carrier, tuple(vals))


# ---------------------------------------------------------------------------
# Aggregates


_CMP = {"=": lambda a, b: a == b, "<": lambda a, b: a < b, ">": lambda a, b: a > b}


def approx_aggregate(
    agg: str, cmp: str, s: PartialSet, n: int, limits: Limits = DEFAULT_LIMITS
) -> TV:
    """Ultimate approximation of the test  agg(S) cmp n  over completions of s.

    agg is "card" or "sum"; for "sum" the first component of every
    carrier key must be an integer.
    """
    if cmp not in _CMP:
        raise EvaluationError(f"unknown comparison {cmp!r}")
    test = _CMP[cmp]
    if agg == "card":
        # interval shortcut: achievable cardinalities are exactly [lo, hi]
        lo = sum(1 for v in s.values if v is T)
        hi = lo + sum(1 for v in s.values if v is U)
        if cmp == "=":
            can_true = lo <= n <= hi
            can_false = not (lo == hi == n)
        elif cmp == "<":
            can_true, can_false = lo < n, hi >= n
        else:
            can_true, can_false = hi > n, lo <= n
        if can_true and can_false:
            return U
        return TV.of(can_true)
    if agg == "sum":
        weights = []
        for key in s.carrier:
            first = key[0] if isinstance(key, tuple) else key
            if not isinstance(first, int) or isinstance(first, bool):
                raise EvaluationError(
                    f"sum aggregate needs integer-keyed tuples, got {key!r}"
                )
            weights.append(first)
        base = sum(w for w, v in zip(weights, s.values) if v is T)
        unknown = [w for w, v in zip(weights, s.values) if v is U]
        limits.check("max_unknowns", len(unknown), "{n} unknown elements exceed cap {cap}")
        outcomes = set()
        for picks in itertools.product((0, 1), repeat=len(unknown)):
            total = base + sum(w for w, p in zip(unknown, picks) if p)
            outcomes.add(test(total, n))
            if len(outcomes) == 2:
                return U
        return TV.of(outcomes == {True})
    raise EvaluationError(f"unknown aggregate {agg!r}")
