"""Partial interpretations over finite domains, and the structure text format.

A partial interpretation assigns every symbol of a vocabulary a
well-typed value: domain elements for constants, partial sets over
argument tuples for (first and second order) predicates.  Precision and
truth orders lift pointwise over predicate values; all operations are
pure and return new interpretations.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable

from .errors import EvaluationError, ParseError, TypeError_
from .limits import DEFAULT_LIMITS, Limits
from .parser import _STRUCTURE_SKIP, _Cursor, _lex_structure, _line_col, _offset
from .truthvalues import F, T, TV, U, PartialSet, canon_order, leq_prec, leq_truth
from .vocab import DomainAtom, Symbol, Vocabulary, predicate_carrier


def _check_value(sym: Symbol, value, domain: tuple) -> None:
    t = sym.type
    if t.kind == "const":
        if value not in domain:
            raise TypeError_(f"constant {sym.name} assigned {value!r}, not a domain element")
        return
    if not t.is_predicate:
        raise TypeError_(f"symbol {sym.name} of type {t} cannot be interpreted directly")
    if not isinstance(value, PartialSet):
        raise TypeError_(f"predicate {sym.name} needs a PartialSet value")
    dom = set(domain)
    for key in value.carrier:
        if not isinstance(key, tuple) or len(key) != t.arity:
            raise TypeError_(f"{sym.name}: key {key!r} has wrong arity for {t}")
        if t.kind == "pred":
            if any(k not in dom for k in key):
                raise TypeError_(f"{sym.name}: key {key!r} not over the domain")
        else:
            for k, at in zip(key, t.args):
                if at.kind == "domain":
                    if k not in dom:
                        raise TypeError_(f"{sym.name}: {k!r} not a domain element")
                elif not isinstance(k, frozenset):
                    raise TypeError_(
                        f"{sym.name}: second order argument {k!r} is not an exact relation"
                    )


def _name(kv) -> str:
    return kv[0].name


@dataclass(frozen=True)
class PartialInterpretation:
    # canonical order, no repeats (as `make`, `empty` and the reader build it):
    # a direct constructor must keep that, for carriers over it are not sorted
    domain: tuple
    assignments: tuple  # tuple of (Symbol, value), stably sorted by name
    _by_symbol: dict = field(default=None, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self._by_symbol is None:
            object.__setattr__(self, "_by_symbol", dict(self.assignments))

    @staticmethod
    def make(domain: Iterable, valuation: dict) -> "PartialInterpretation":
        dom = tuple(sorted(set(domain), key=canon_order))
        for sym, value in valuation.items():
            _check_value(sym, value, dom)
        items = tuple(sorted(valuation.items(), key=_name))
        return PartialInterpretation(dom, items)

    @staticmethod
    def empty(domain: Iterable) -> "PartialInterpretation":
        return PartialInterpretation.make(domain, {})

    # -- lookup ------------------------------------------------------------

    def interprets(self, sym: Symbol) -> bool:
        return sym in self._by_symbol

    def value(self, sym: Symbol):
        try:
            return self._by_symbol[sym]
        except KeyError:
            raise EvaluationError(f"symbol {sym.name} not interpreted") from None

    def atom_value(self, atom: DomainAtom) -> TV:
        return self.value(atom.predicate).value(atom.args)

    def predicate_symbols(self) -> list[Symbol]:
        return [s for s, _ in self.assignments if s.type.is_predicate]

    # -- algebra -----------------------------------------------------------

    def restrict(self, sub) -> "PartialInterpretation":
        syms = set(sub)
        for s in syms:
            if s not in self._by_symbol:
                raise EvaluationError(f"cannot restrict to uninterpreted {s.name}")
        return PartialInterpretation(
            self.domain, tuple(kv for kv in self.assignments if kv[0] in syms)
        )

    def expand(self, sym: Symbol, value) -> "PartialInterpretation":
        _check_value(sym, value, self.domain)
        return self._expand(sym, value)

    def _expand(self, sym: Symbol, value) -> "PartialInterpretation":
        # unvalidated, sort-free variable binding: a bound symbol keeps its
        # slot (list.index tries identity before the dataclass __eq__), a new
        # one goes after every entry whose name sorts at or below its own
        items = list(self.assignments)
        by_symbol = self._by_symbol.copy()
        if sym in by_symbol:
            k = items.index((sym, by_symbol[sym]))
            items[k] = (items[k][0], value)
        else:
            items.insert(bisect_right(items, sym.name, key=_name), (sym, value))
        by_symbol[sym] = value
        return PartialInterpretation(self.domain, tuple(items), by_symbol)

    def revise(self, atoms: Iterable[DomainAtom], v: TV) -> "PartialInterpretation":
        by_pred: dict[Symbol, dict] = {}
        for a in atoms:
            if a.predicate not in self._by_symbol:
                raise EvaluationError(f"unknown predicate {a.predicate.name}")
            by_pred.setdefault(a.predicate, {})[a.args] = v
        j = self
        for sym, updates in by_pred.items():
            j = j._expand(sym, j._by_symbol[sym].with_values(updates))
        return j

    # -- orders ------------------------------------------------------------

    def _pointwise(self, other: "PartialInterpretation", rel) -> bool:
        if self.domain != other.domain:
            return False
        mine, theirs = self._by_symbol, other._by_symbol
        if mine.keys() != theirs.keys():
            return False
        for sym, v in mine.items():
            w = theirs[sym]
            if sym.type.is_predicate:
                if v.carrier != w.carrier or not all(
                    rel(a, b) for a, b in zip(v.values, w.values)
                ):
                    return False
            elif v != w:
                return False
        return True

    def leq_prec(self, other: "PartialInterpretation") -> bool:
        return self._pointwise(other, leq_prec)

    def leq_truth(self, other: "PartialInterpretation") -> bool:
        return self._pointwise(other, leq_truth)

    @property
    def is_exact(self) -> bool:
        return all(
            v.is_exact for s, v in self.assignments if s.type.is_predicate
        )

    def exact_on(self, syms: Iterable[Symbol]) -> bool:
        return all(
            self.value(s).is_exact for s in syms if s.type.is_predicate
        )

    # -- atoms -------------------------------------------------------------

    def u_atoms(self, preds: Iterable[Symbol]) -> list[DomainAtom]:
        out = []
        for p in sorted(set(preds), key=lambda s: s.name):
            if not p.type.is_predicate or p not in self._by_symbol:
                continue
            for key in self.value(p).keys_with(U):
                out.append(DomainAtom(p, key))
        return out


# ---------------------------------------------------------------------------
# Structure text format
#
#   domain = {a, b, c}
#   p = {(a, b): t, (b, c): u, *: f}
#   c = a
#
# `*` gives the value of unlisted tuples; integer ranges may be written
# {1..3} on input.  Second order predicate entries use relation literals
# such as {(a,b), (b,c)} as key components; when `*` is absent the listed
# keys define the carrier.


def _fmt_elem(e) -> str:
    if isinstance(e, frozenset):
        inner = sorted(e, key=canon_order)
        return "{" + ", ".join(_fmt_key(k) for k in inner) + "}"
    return str(e)


def _fmt_key(key: tuple) -> str:
    return "(" + ", ".join(_fmt_elem(k) for k in key) + ")"


def _key_formatter():
    """_fmt_key, making each distinct element's text once per formatter."""
    texts: dict = {}
    return lambda key: "(" + ", ".join(
        texts[e] if e in texts else texts.setdefault(e, _fmt_elem(e)) for e in key) + ")"


def _key_texts(sym: Symbol, carrier: tuple) -> list[str]:
    """_fmt_key of every key of `sym`'s carrier, in carrier order.  A first
    order key holds only names and ints, whose text is str's, so one %
    format per arity makes it; a second order key keeps _key_formatter's
    canonical relation text."""
    if sym.type.kind == "pred":
        return list(map(("(" + ", ".join(("%s",) * sym.type.arity) + ")").__mod__, carrier))
    return list(map(_key_formatter(), carrier))


_TV_TEXT = {T: "t", U: "u", F: "f"}


def write_structure(i: PartialInterpretation) -> str:
    lines = ["domain = {" + ", ".join(map(_fmt_elem, i.domain)) + "}"]
    for sym, value in i.assignments:
        if not sym.type.is_predicate:
            lines.append(f"{sym.name} = {_fmt_elem(value)}")
            continue
        texts, values = _key_texts(sym, value.carrier), value.values
        if sym.type.kind == "pred":
            # the most frequent value is `*`'s, f before u before t on a tie
            default = max((F, U, T), key=values.count)
            entries = [f"{t}: {_TV_TEXT[v]}" for t, v in zip(texts, values) if v is not default]
            entries.append(f"*: {_TV_TEXT[default]}")
        else:
            # second order carriers are explicit: list every entry
            entries = [f"{t}: {_TV_TEXT[v]}" for t, v in zip(texts, values)]
        lines.append(f"{sym.name} = {{" + ", ".join(entries) + "}")
    return "\n".join(lines) + "\n"


_TRUTH = {"t": T, "u": U, "f": F}


def _so_key(key: tuple, t, members: set) -> bool:
    """Whether key is an argument tuple of second order type t over the
    domain `members`: an element per domain argument, and per predicate
    argument a relation of tuples of its arity over the domain."""
    return len(key) == len(t.args) and all(
        k in members if a.kind == "domain" else isinstance(k, frozenset) and all(
            len(x) == a.arity and members.issuperset(x) for x in k)
        for k, a in zip(key, t.args))


class _StructReader(_Cursor):
    def __init__(self, text: str, vocab: Vocabulary, limits: Limits):
        super().__init__(*_lex_structure(text))
        self.vocab = vocab
        self.limits = limits

    def where(self, pos: int) -> tuple[int, int]:
        # errors name a line only; the end of input has none
        return (0, 0) if pos == self.last else (
            _line_col(self.text, _offset(_STRUCTURE_SKIP, self.text, self.tokens, pos))[0], 0)

    def skip_newlines(self):
        while self.kinds[self.peek()] == "newline":
            self.pos += 1  # a newline is never the last token

    def read_nested(self, pos: int, key: bool) -> tuple:
        """The key (`key`) or element at token `pos`, and the position
        after it.  A key `(...)` holds elements, and an element is an int,
        a name or a relation `{...}` of keys, commas between optional.
        The open keys and relations are kept on a stack, each with its
        closing token and its parts so far."""
        tokens, kinds = self.tokens, self.kinds
        stack: list = []
        while True:
            tok = tokens[pos]
            value = None
            if key:
                pos = self.expect_at(pos, "(")
                stack.append((")", []))
            elif tok == "{":
                pos += 1
                stack.append(("}", []))
            elif (kind := kinds[tok]) == "name" or kind == "int" and ".." not in tok:
                value = tok if kind == "name" else self.int_at(pos)
                pos += 1
            else:
                self.fail(f"expected a domain element, got {self.shown(pos)!r}", pos)
            while value is not None or tokens[pos] == stack[-1][0]:
                if value is None:  # close the innermost key or relation
                    closer, parts = stack.pop()
                    value = tuple(parts) if closer == ")" else frozenset(parts)
                    pos += 1
                if not stack:
                    return value, pos
                stack[-1][1].append(value)
                value = None
                if tokens[pos] == ",":
                    pos += 1
            key = stack[-1][0] == "}"

    def truth(self, pos: int) -> TV:
        v = _TRUTH.get(self.tokens[pos])
        if v is None:
            self.fail(f"expected t, u or f, got {self.shown(pos)!r}", pos)
        return v

    def read(self) -> PartialInterpretation:
        domain: list | None = None
        valuation: dict = {}
        self.skip_newlines()
        while self.pos < self.last:
            at = self.next()
            name = self.tokens[at]
            if self.kinds[name] != "name":
                self.fail(f"expected a symbol name, got {name!r}", at)
            self.expect("=")
            if name == "domain":
                if domain is not None:
                    self.fail("duplicate domain block", at)
                domain = self.read_domain()
            else:
                sym = self.vocab.get(name)
                if sym is None:
                    self.fail(f"symbol {name!r} not in vocabulary", at)
                if sym in valuation:
                    self.fail(f"duplicate assignment to {name!r}", at)
                if domain is None:
                    self.fail("domain must be declared first", at)
                valuation[sym] = self.read_value(sym, domain, at)
            self.skip_newlines()
        if domain is None:
            raise ParseError("structure has no domain block")
        # every predicate value was checked as it was read
        for sym, value in valuation.items():
            if not sym.type.is_predicate:
                _check_value(sym, value, domain)
        # unmentioned predicates default to all-unknown
        for sym in self.vocab:
            if sym.type.is_predicate and sym not in valuation:
                carrier = tuple(predicate_carrier(sym.type, domain, self.limits))
                valuation[sym] = PartialSet(carrier, (U,) * len(carrier))
        return PartialInterpretation(tuple(domain), tuple(sorted(valuation.items(), key=_name)))

    def read_domain(self) -> list:
        """The domain's elements, without repeats, in canonical order."""
        self.expect("{")
        out: list = []
        while not self.peek() == "}":
            at = self.next()
            text = self.tokens[at]
            kind = self.kinds[text]
            if kind == "int" and ".." in text:
                lo, hi = (self.int_at(at, p) for p in text.split(".."))
                self.limits.check("max_carrier", len(out) + hi - lo + 1,
                                  "domain of {n} elements exceeds cap {cap}")
                out.extend(range(lo, hi + 1))
            elif kind == "int":
                out.append(self.int_at(at))
            elif kind == "name":
                out.append(text)
            else:
                self.fail(f"bad domain element {self.shown(at)!r}", at)
            self.accept(",")
        self.expect("}")
        return sorted(set(out), key=canon_order)

    def read_value(self, sym: Symbol, domain: list, name: int):
        if not sym.type.is_predicate:
            value, self.pos = self.read_nested(self.pos, False)
            return value
        tokens = self.tokens
        pos = self.expect_at(self.pos, "{")
        entries: dict[tuple, TV] = {}
        default: TV | None = None
        members = set(domain)
        while tokens[pos] != "}":
            start = pos
            if tokens[pos] == "*":
                pos = self.expect_at(pos + 1, ":")
                default = self.truth(pos)
            else:
                key, pos = self.read_nested(pos, True)
                for e in key:
                    if not isinstance(e, frozenset) and e not in members:
                        self.fail(f"{sym.name}: {e} is not a domain element", start)
                pos = self.expect_at(pos, ":")
                v = self.truth(pos)
                if entries.setdefault(key, v) is not v:
                    self.fail(f"{sym.name}: key {_fmt_key(key)} given both "
                              f"{entries[key].value} and {v.value}", start)
            pos += 1
            if tokens[pos] == ",":
                pos += 1
        self.pos = pos + 1
        if default is not None:
            carrier = predicate_carrier(sym.type, domain, self.limits)
            full = dict.fromkeys(carrier, default)
            for key, v in entries.items():
                if key not in full:
                    self.fail(f"{sym.name}: key {_fmt_key(key)} outside carrier", name)
                full[key] = v
            return PartialSet(tuple(carrier), tuple(full.values()))
        if sym.type.kind == "pred":
            carrier = predicate_carrier(sym.type, domain, self.limits)
            values = tuple(map(entries.get, carrier))
            if len(entries) != len(carrier) or None in values:
                self.fail(
                    f"{sym.name}: entries do not cover the carrier and no '*' default given", name
                )
            return PartialSet(tuple(carrier), values)
        # a second order carrier may be too large to build: check each key
        for key in entries:
            if not _so_key(key, sym.type, members):
                self.fail(f"{sym.name}: key {_fmt_key(key)} outside carrier", name)
        return PartialSet.from_map(entries)


def read_structure(
    text: str, vocab: Vocabulary, limits: Limits = DEFAULT_LIMITS
) -> PartialInterpretation:
    return _StructReader(text, vocab, limits).read()
