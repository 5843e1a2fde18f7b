"""Typed symbols, vocabularies and domain atoms.

The simple type system distinguishes the domain type, booleans, first
order predicates of arity n, first order constants (0-ary functions),
and second order predicates whose argument types are first order
predicate types or the domain type.  Symbols are interned, held weakly,
and compare and hash by identity.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import TypeError_
from .limits import DEFAULT_LIMITS, Limits

_SYMBOLS, _MISS = weakref.WeakValueDictionary(), threading.Lock()  # (name, type, kind) -> Symbol


@dataclass(frozen=True)
class Type:
    kind: str  # 'domain' | 'bool' | 'pred' | 'const' | 'so-pred'
    arity: int = 0
    args: tuple["Type", ...] = ()

    def __post_init__(self):
        if self.kind == "so-pred":
            for a in self.args:
                if a.kind not in ("pred", "domain"):
                    raise TypeError_(
                        "second order argument types must be first order "
                        f"predicate types or the domain type, got {a}"
                    )
        object.__setattr__(
            self, "_hash", hash((self.kind, self.arity, self.args))
        )

    def __hash__(self) -> int:  # cached: types are hashed in hot loops
        return self._hash

    @property
    def is_predicate(self) -> bool:
        return self.kind in ("pred", "so-pred")

    def __str__(self) -> str:
        if self.kind == "pred":
            return f"pred/{self.arity}"
        if self.kind == "so-pred":
            return "so-pred(" + ", ".join(str(a) for a in self.args) + ")"
        return self.kind


DOMAIN = Type("domain")
BOOL = Type("bool")
CONST = Type("const")


def pred(arity: int) -> Type:
    return Type("pred", arity=arity)


def so_pred(*args: Type) -> Type:
    return Type("so-pred", arity=len(args), args=tuple(args))


@dataclass(frozen=True, eq=False, init=False)
class Symbol:
    """A named, typed symbol, interned: Symbol(name, type, kind) returns the
    one live symbol with that triple, held weakly, so symbols compare and
    hash by identity, in C, and equal triples give the same symbol.

    kind is 'user', 'interpreted' or 'template'; the latter two make up
    the template vocabulary.
    """

    name: str
    type: Type
    kind: str

    def __new__(cls, name: str, type: Type, kind: str = "user") -> "Symbol":
        ref = _SYMBOLS.data.get((name, type, kind))  # a hit takes no lock
        s = ref and ref()
        if s is None:
            with _MISS:  # threads that miss together make one symbol
                s = _SYMBOLS.get((name, type, kind))
                if s is None:
                    s = _SYMBOLS[name, type, kind] = object.__new__(cls)
                    vars(s).update(name=name, type=type, kind=kind)
        return s

    def __reduce__(self):  # copy, deepcopy and pickle give the interned symbol
        return Symbol, (self.name, self.type, self.kind)

    def __str__(self) -> str:
        return self.name

    @property
    def in_template_vocab(self) -> bool:
        return self.kind in ("interpreted", "template")


@dataclass(frozen=True)
class Vocabulary:
    symbols: tuple[Symbol, ...] = ()
    _by_name: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        by_name: dict[str, Symbol] = {}
        for s in self.symbols:
            if by_name.setdefault(s.name, s) is not s:
                raise TypeError_(f"duplicate symbol name {s.name!r}")
        object.__setattr__(self, "_by_name", by_name)

    @staticmethod
    def of(symbols: Iterable[Symbol]) -> "Vocabulary":
        seen = Vocabulary(tuple(symbols))._by_name  # raises on a duplicate name
        return Vocabulary(tuple(sorted(seen.values(), key=lambda s: s.name)))

    def __contains__(self, sym: Symbol) -> bool:
        return self._by_name.get(sym.name) is sym

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def get(self, name: str) -> Symbol | None:
        return self._by_name.get(name)

    def union(self, other: "Vocabulary") -> "Vocabulary":
        return Vocabulary.of(self.symbols + other.symbols)

    def without(self, drop: Iterable[Symbol]) -> "Vocabulary":
        dropped = set(drop)
        return Vocabulary.of(s for s in self.symbols if s not in dropped)


@dataclass(frozen=True)
class DomainAtom:
    """A predicate symbol applied to a tuple of ground argument values."""

    predicate: Symbol
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.predicate, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self.args:
            return self.predicate.name
        return f"{self.predicate.name}({', '.join(map(repr, self.args))})"


@lru_cache(maxsize=64)
def _relations(domain: tuple, arity: int) -> tuple:
    out = [frozenset()]
    for t in reversed(list(itertools.product(domain, repeat=arity))):
        out = out[:1] + [s | {t} for s in out] + out[1:]  # preorder of the subset tree
    return tuple(out)


def arg_value_space(
    t: Type, domain: Sequence, limits: Limits = DEFAULT_LIMITS
) -> list:
    """All exact values a symbol/argument of type t can take over `domain`.

    For a predicate type: memoised frozensets of tuples, in canonical order
    over a canonical domain.  The second-order-argument cap guards the 2^(|D|^n) blowup.
    """
    if t.kind == "domain":
        return list(domain)
    if t.kind in ("pred",):
        base = len(domain) ** t.arity
        limits.check("max_so_arg_base", base,
                     "|D|^{arity} = {n} exceeds second order argument cap {cap}", arity=t.arity)
        return list(_relations(tuple(domain), t.arity))
    raise TypeError_(f"type {t} has no enumerable first order value space")


def predicate_carrier(
    t: Type, domain: Sequence, limits: Limits = DEFAULT_LIMITS
) -> list[tuple]:
    """The set of argument tuples (domain atom keys) of a predicate type,
    at most `limits.max_carrier` of them and each of at most that many
    arguments, both checked before any is built; canonical if the domain is."""
    if not t.is_predicate:
        raise TypeError_(f"{t} is not a predicate type")
    limits.check("max_carrier", t.arity, "tuples of {n} arguments exceed cap {cap}")
    spaces = [domain] * t.arity if t.kind == "pred" else [
        arg_value_space(a, domain, limits) for a in t.args]
    size = math.prod(map(len, spaces))
    limits.check("max_carrier", size, "carrier of {n} tuples exceeds cap {cap}")
    return list(itertools.product(*spaces))
