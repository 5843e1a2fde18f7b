"""Concrete text syntax: one lexer, one token cursor, and a parser for
theory files.

Theory files contain a vocabulary block followed by named blocks::

    vocab {
      p: pred/1;
      e: pred/2;
      a: const;
      tc: template so-pred(pred/2, pred/2);
    }
    formula f1 { p(a) & ?x: e(x, a) }
    definition d1 { p(x) <- e(x, x). }
    template tc { tc(P, Q) <- {Q(x, y) <- P(x, y) | ?z: (Q(x, z) & Q(z, y))}. }

Connectives are ~ & | => <=>; quantifiers are !x: / ?x: (first order)
and !! P[pred/2]: / ?? P[pred/2]: (second order); aggregates are
#{x : body} op n and sum{x : body} op n.  Unicode connectives and
quantifiers are accepted on input; output is always ASCII.

Binary connectives bind loosest to tightest <=>, =>, |, & (`_BINARY`),
each left associative; ~, quantifiers and aggregates bind tighter, and a
quantifier's body extends as far right as it can.

`Parser.parse_formula` reads a formula in one loop over the token list,
by index, with explicit stacks in place of Python frames (operator
precedence, Pratt 1973): the operands read so far, the pending runs of
one connective as `[prec, class, count]`, and a frame per open
parenthesis or quantifier, aggregate or let-block body, holding the ~s
before it and the scope it shadows.  So nesting depth costs no
recursion.  Rule sets, vocabularies and types keep a method each; a
definition or let-block in a formula enters `parse_ruleset`, whose rule
bodies are formulas again.

Theories and structures (`interpretation.read_structure`) share one
token model and one token cursor, `_Cursor`.  A token is its text: one
`findall` per text, over a regex that skips space and comments, gives a
flat `list[str]` ending in the eof token '' (a structure line ends in a
newline token, its break), and a token's kind is looked up by its text.
Offsets are worked out only for an error, by walking the skip pattern
over the tokens before it; a `ParseError` gives line and column, with
lines as `str.splitlines` ends them and `//` commenting out the rest of
a line.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field

from .errors import ParseError
from .syntax import (
    AddTerm, Aggregate, And, Atom1, Atom2, Cmp, DefinitionExpr, ExistsFO,
    ExistsSO, ForallFO, ForallSO, Iff, Implies, IntTerm, Let, Not, Or, Rule,
    RuleSet, SymTerm, head_var_types,
)
from .vocab import CONST, Symbol, Type, Vocabulary, pred, so_pred

_UNICODE = str.maketrans({
    "¬": "~", "∧": "&", "∨": "|", "⇒": "=>",
    "⇔": "<=>", "←": "<-", "∀": "!", "∃": "?",
})

_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines ends a line
_COMMENT = f"//[^{_BREAKS}]*"
_NAME = r"[A-Za-z_][A-Za-z0-9_']*"
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

# A theory match is a token and the space and comments after it (`_SKIP`
# skips those before the first), so every match starts on a token, the
# eof's \Z included, and none backtracks.  Punctuation comes first, longest
# first, but `-` after the ints: `-digits` is one int token here, which
# `tokenize` splits where it follows a name or an int (`x-1`).
_SKIP_SOURCE = rf"\s*(?:{_COMMENT}\s*)*"
_SKIP = re.compile(_SKIP_SOURCE)
_THEORY = re.compile(
    rf"(<=>|=>|<-|\?\?|!!|\.\.|[{{}}()\[\],:;.~&|+/=<>!?#]|{_NAME}|-?\d+|-|\S|\Z){_SKIP_SOURCE}"
)
_THEORY_KINDS = {"": "eof", **dict.fromkeys(
    ("<=>", "=>", "<-", "??", "!!", "..", *"{}()[],:;.~&|+/=<>!?#-"), "punct")}

# Structures: `a..b` ranges, their own punctuation, and a newline token
# (the break, after any comment) ending every line; `_lex_structure` ends
# the last line with a break.  The space before a token is skipped in
# front of it, so a bad character is reported where that space starts,
# where the structure reader has always reported it.
_SPACE = f"[^\\S{_BREAKS}]"
_STRUCTURE_SKIP = re.compile(f"{_SPACE}*(?:{_COMMENT})?")
_STRUCTURE = re.compile(
    rf"{_SPACE}*(?:{_COMMENT})?([{{}}(),:=*]|{_NAME}|\r\n|[{_BREAKS}]|-?\d+(?:\.\.-?\d+)?|\S)"
)
_STRUCTURE_KINDS = {
    "": "eof", **dict.fromkeys("{}(),:=*", "punct"),
    **dict.fromkeys(("\r\n", *_BREAKS), "newline"),
}


def _line_col(text: str, offset: int) -> tuple[int, int]:
    lines = (text[:offset] + ".").splitlines()  # "." keeps a line after a last break
    return len(lines), len(lines[-1])


def _offset(skip: re.Pattern, text: str, tokens: list[str], pos: int) -> int:
    """Where the space before token `pos` starts in `text`: `skip` walked
    over the space before each token before it."""
    at = 0
    for tok in itertools.islice(tokens, pos):
        at = skip.match(text, at).end() + len(tok)
    return at


def _kinds(tokens: list[str], fixed: dict[str, str]) -> tuple[dict[str, str], int | None]:
    """Each distinct token's kind (`fixed`, else 'name', 'int', which ends in
    a digit, or 'bad', a character no other alternative took), and the
    position of the first bad token."""
    kinds = {tok: fixed.get(tok) or ("name" if tok[0] in _NAME_START else "int"
                                     if tok[-1].isdecimal() else "bad") for tok in set(tokens)}
    bad = [tok for tok, kind in kinds.items() if kind == "bad"]
    return kinds, min(map(tokens.index, bad)) if bad else None


def tokenize(text: str, kinds: dict[str, str] | None = None) -> list[str]:
    """The theory tokens of `text`, its Unicode connectives replaced by
    ASCII ones, ending in the eof token ''; given a dict `kinds`, each
    token's kind is put in it."""
    text = text.translate(_UNICODE)
    tokens = _THEORY.findall(text, _SKIP.match(text).end())
    found, bad = _kinds(tokens, _THEORY_KINDS)
    kinds = {} if kinds is None else kinds
    kinds.update(found)
    if bad is not None:
        at = _SKIP.match(text, _offset(_SKIP, text, tokens, bad)).end()
        raise ParseError(f"unexpected character {text[at]!r}", *_line_col(text, at))
    negative = {tok for tok, kind in kinds.items() if kind == "int" and tok[0] == "-"}
    if negative:  # after a name or an int, `-digits` is `-` and an int (`x-1`)
        for pos in range(len(tokens) - 1, 0, -1):
            if tokens[pos] in negative and kinds[tokens[pos - 1]] in ("name", "int"):
                tokens[pos:pos + 1] = ("-", tokens[pos][1:])
                kinds[tokens[pos + 1]] = "int"
        kinds["-"] = "punct"
    return tokens


def _lex_structure(text: str) -> tuple[str, list[str], dict[str, str]]:
    """`text` with its last line ended, its structure tokens ending in the
    eof token '', and their kinds."""
    if text and text[-1] not in _BREAKS:
        text += "\n"
    tokens = _STRUCTURE.findall(text)
    tokens.append("")
    kinds, bad = _kinds(tokens, _STRUCTURE_KINDS)
    if bad is not None:
        at = _offset(_STRUCTURE_SKIP, text, tokens, bad)
        raise ParseError(f"bad character {text[at]!r}", *_line_col(text, at))
    return text, tokens, kinds


class _Cursor:
    """A position in a token list that ends in the eof token, which `next`
    never moves past, and the tokens' kinds.  Subclasses say where a token
    is for an error (`where`) and how a message names a token without text
    (`NOTHING`)."""

    NOTHING: dict[str, str] = {}

    def __init__(self, text: str, tokens: list[str], kinds: dict[str, str]):
        self.text = text
        self.tokens = tokens
        self.kinds = kinds
        self.pos = 0
        self.last = len(tokens) - 1  # the eof token

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> int:
        """The cursor's position; it moves on unless it is at the eof."""
        pos = self.pos
        if pos < self.last:
            self.pos = pos + 1
        return pos

    def accept(self, text: str) -> bool:
        if self.tokens[self.pos] == text:
            self.pos += 1  # no caller asks for '', the eof, so this is not the last token
            return True
        return False

    def shown(self, pos: int) -> str:
        """Token `pos` as a message quotes it: a newline shows as ''."""
        tok = self.tokens[pos]
        return "" if self.kinds[tok] == "newline" else tok

    def expect(self, text: str) -> None:
        self.pos = self.expect_at(self.pos, text)

    def expect_at(self, pos: int, text: str) -> int:
        """The position after token `pos`, which must be `text`."""
        if self.tokens[pos] != text:
            kind = self.kinds[self.tokens[pos]]
            got = self.shown(pos) or self.NOTHING.get(kind, kind)
            self.fail(f"expected {text!r}, got {got!r}", pos)
        return pos + 1

    def int_at(self, pos: int, text: str = "") -> int:
        """Token `pos`, or `text` from it, as an int."""
        text = text or self.tokens[pos]
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            self.fail(f"integer of {len(text.lstrip('-'))} digits is too long", pos)

    def fail(self, message: str, pos: int | None = None):
        raise ParseError(message, *self.where(self.pos if pos is None else pos))


@dataclass
class Theory:
    """The parsed contents of a theory file."""

    vocabulary: Vocabulary
    formulas: dict = field(default_factory=dict)       # name -> Expr
    definitions: dict = field(default_factory=dict)    # name -> RuleSet
    templates: dict = field(default_factory=dict)      # name -> RuleSet


_BINARY = {"<=>": (1, Iff), "=>": (2, Implies), "|": (3, Or), "&": (4, And)}
# quantifier sigil -> (second order, first order node, second order node)
_QUANTIFIERS = {
    "!": (False, ForallFO, ForallSO), "?": (False, ExistsFO, ExistsSO),
    "!!": (True, ForallFO, ForallSO), "??": (True, ExistsFO, ExistsSO),
}
_COMPARISONS = ("=", "<", ">")
_TERM_ENDS = ("+", *_COMPARISONS)  # after a name, these make it a comparison's term


class Parser(_Cursor):
    NOTHING = {"eof": "end of input"}

    def __init__(self, text: str, vocab: Vocabulary | None = None):
        kinds: dict[str, str] = {}
        super().__init__(text, tokenize(text, kinds), kinds)
        self.scope: dict[str, Symbol] = {s.name: s for s in vocab or ()}

    def where(self, pos: int) -> tuple[int, int]:
        if pos == self.last:
            return len(self.text.splitlines()) + 1, 1
        text = self.text.translate(_UNICODE)
        return _line_col(text, _SKIP.match(text, _offset(_SKIP, text, self.tokens, pos)).end())

    def expect_name(self) -> int:
        """The position of the name at the cursor, which moves past it."""
        pos = self.next()
        if self.kinds[self.tokens[pos]] != "name":
            self.fail(f"expected a name, got {self.tokens[pos]!r}", pos)
        return pos

    def parse_args(self, item) -> list:
        """Comma separated `item()`s up to a ')', which is consumed."""
        args = []
        while not self.peek() == ")":
            args.append(item())
            if not self.accept(","):
                break
        self.expect(")")
        return args

    def shadow(self, symbols) -> dict:
        """Put `symbols` in scope by name; returns what they shadow, for `unshadow`."""
        saved = {s.name: self.scope.get(s.name) for s in symbols}
        self.scope.update({s.name: s for s in symbols})
        return saved

    def unshadow(self, saved: dict) -> None:
        for name, old in saved.items():
            if old is None:
                self.scope.pop(name, None)
            else:
                self.scope[name] = old

    # -- types and vocabulary -------------------------------------------

    def parse_type(self) -> Type:
        pos = self.expect_name()
        tok = self.tokens[pos]
        if tok == "pred":
            self.expect("/")
            pos = self.next()
            if self.kinds[self.tokens[pos]] != "int":
                self.fail("expected an arity", pos)
            arity = self.int_at(pos)
            if arity < 0:
                self.fail(f"arity {self.tokens[pos]} is negative", pos)
            return pred(arity)
        if tok == "const":
            return CONST
        if tok == "domain":
            return Type("domain")
        if tok == "so" or tok == "so_pred":
            if tok == "so":
                self.expect("-")
                inner = self.expect_name()
                if self.tokens[inner] != "pred":
                    self.fail("expected 'pred' after 'so-'", inner)
            self.expect("(")
            return so_pred(*self.parse_args(self.parse_type))
        self.fail(f"unknown type {tok!r}", pos)

    def parse_vocab_block(self) -> Vocabulary:
        self.expect("{")
        symbols = []
        while not self.peek() == "}":
            name = self.tokens[self.expect_name()]
            self.expect(":")
            kind = "user"
            if self.peek() in ("template", "interpreted"):
                kind = self.tokens[self.next()]
            t = self.parse_type()
            symbols.append(Symbol(name, t, kind))
            self.accept(";")
        self.expect("}")
        vocab = Vocabulary.of(symbols)
        self.scope.update({s.name: s for s in vocab})
        return vocab

    # -- formulas ---------------------------------------------------------

    def resolve(self, pos: int) -> Symbol:
        sym = self.scope.get(self.tokens[pos])
        if sym is None:
            self.fail(f"unknown symbol {self.tokens[pos]!r}", pos)
        return sym

    def read_term(self, pos: int) -> tuple:
        """The term at token `pos`, ints and names joined by + (left
        associative), and the position after it."""
        tokens, kinds = self.tokens, self.kinds
        left = None
        while True:
            kind = kinds[tokens[pos]]
            if kind == "int":
                right = IntTerm(self.int_at(pos))
            elif kind == "name":
                right = SymTerm(self.resolve(pos))
            else:
                self.fail(f"expected a term, got {tokens[pos]!r}", pos)
            left = right if left is None else AddTerm(left, right)
            if tokens[pos + 1] != "+":
                return left, pos + 1
            pos += 2

    def read_comparison(self, pos: int) -> tuple:
        """The comparison operator at token `pos`, the term after it, and
        the position after that."""
        op = self.tokens[pos]
        if op not in _COMPARISONS:
            self.fail("expected a comparison operator (=, <, >)", pos)
        return (op, *self.read_term(pos + 1))

    def parse_formula(self):
        """The formula at the cursor, read in one loop (see the module
        docstring).  Each pass reads a unary formula, or opens a frame: a
        parenthesis, or a quantifier, aggregate or let-block header.  A
        connective then closes the runs that bind tighter than it, and any
        other token closes the runs and then the innermost frame."""
        tokens, kinds, pos = self.tokens, self.kinds, self.pos
        operands: list = []  # the left operands of the runs
        runs: list = []  # [prec, class, count]: binding tighter towards the top
        frames: list = []  # (class, info, saved scope, negations, base of its runs)
        base = 0
        while True:
            negations = 0
            while tokens[pos] == "~":
                pos += 1
                negations += 1
            tok = tokens[pos]
            frame = None
            if tok == "#" or tok == "sum" and tokens[pos + 1] == "{":
                frame = self.aggregate_frame(pos, "card" if tok == "#" else "sum")
            elif tok in _QUANTIFIERS:
                frame = self.quantifier_frame(pos)
            elif tok == "(":
                frame = (None, None, None, pos + 1)
            elif tok == "{":
                self.pos = pos
                e = DefinitionExpr(self.parse_ruleset())
                pos = self.pos
            elif tok == "let":
                self.pos = pos + 1
                rs = self.parse_ruleset()
                at = self.expect_name()
                if tokens[at] != "in":
                    self.fail("expected 'in' after a let block", at)
                frame = (Let, rs, self.shadow(rs.defined_symbols), self.pos)
            elif (kind := kinds[tok]) == "int" or kind == "name" and tokens[pos + 1] in _TERM_ENDS:
                left, pos = self.read_term(pos)
                op, right, pos = self.read_comparison(pos)
                e = Cmp(op, left, right)
            else:
                if kind != "name":
                    self.pos = pos
                    self.expect_name()  # raises
                sym = self.resolve(pos)
                args = []
                pos += 1
                if tokens[pos] == "(":
                    pos += 1
                    while tokens[pos] != ")":
                        arg, pos = self.read_term(pos)
                        args.append(arg)
                        if tokens[pos] != ",":
                            break
                        pos += 1
                    pos = self.expect_at(pos, ")")
                e = (Atom2 if sym.type.kind == "so-pred" else Atom1)(sym, tuple(args))
            if frame is not None:
                cls, info, saved, pos = frame
                frames.append((cls, info, saved, negations, base))
                base = len(runs)
                continue
            while True:  # e is a unary formula: hand it up
                for _ in range(negations):
                    e = Not(e)
                op = _BINARY.get(tokens[pos])
                prec = 0 if op is None else op[0]
                while len(runs) > base and runs[-1][0] > prec:
                    _, cls, n = runs.pop()
                    args = operands[-n:]
                    del operands[-n:]
                    args.append(e)
                    e = cls(*args) if cls is And or cls is Or else functools.reduce(cls, args)
                if op is not None:
                    if len(runs) > base and runs[-1][0] == prec:
                        runs[-1][2] += 1
                    else:
                        runs.append([prec, op[1], 1])
                    operands.append(e)
                    pos += 1
                    break
                if not frames:
                    self.pos = pos
                    return e
                cls, info, saved, negations, base = frames.pop()
                if cls is None:
                    pos = self.expect_at(pos, ")")
                    continue
                self.unshadow(saved)
                if cls is Aggregate:
                    op, bound, pos = self.read_comparison(self.expect_at(pos, "}"))
                    e = Aggregate(info[0], op, info[1], e, bound)
                else:
                    e = cls(info, e)

    def quantifier_frame(self, pos: int) -> tuple:
        """The frame of the quantifier whose sigil is token `pos`."""
        tokens = self.tokens
        so, fo_node, so_node = _QUANTIFIERS[tokens[pos]]
        name = tokens[pos + 1]
        if not so and self.kinds[name] == "name" and tokens[pos + 2] == ":":  # !x: or ?x:
            var = Symbol(name, CONST)
            return fo_node, var, self.shadow((var,)), pos + 3
        self.pos = pos + 1
        self.expect_name()
        var_type = CONST
        if self.accept("["):
            var_type = self.parse_type()
            self.expect("]")
            if var_type.kind == "pred":
                so = True
        if so and var_type == CONST:
            self.fail(f"second order variable {name!r} needs a [pred/n] annotation")
        self.expect(":")
        var = Symbol(name, var_type)
        return so_node if so else fo_node, var, self.shadow((var,)), self.pos

    def aggregate_frame(self, pos: int, agg: str) -> tuple:
        """The frame of the aggregate whose # or sum is token `pos`."""
        self.pos = pos + 1
        self.expect("{")
        vars_ = []
        while True:
            vars_.append(Symbol(self.tokens[self.expect_name()], CONST))
            if not self.accept(","):
                break
        self.expect(":")
        return Aggregate, (agg, tuple(vars_)), self.shadow(vars_), self.pos

    # -- rules -------------------------------------------------------------

    def parse_ruleset(self) -> RuleSet:
        self.expect("{")
        rules = []
        while not self.peek() == "}":
            rules.append(self.parse_rule())
            self.accept(".")
        self.expect("}")
        return RuleSet(tuple(rules))

    def parse_rule(self) -> Rule:
        head_at = self.expect_name()
        head = self.resolve(head_at)
        if not head.type.is_predicate:
            self.fail(f"rule head {head.name!r} is not a predicate", head_at)
        raw_args = self.parse_args(self.expect_name) if self.accept("(") else []
        var_types = head_var_types(head)
        if len(raw_args) != len(var_types):
            self.fail(f"rule head {head.name} expects {len(var_types)} arguments", head_at)
        head_vars: dict[str, Symbol] = {}  # by name, in order
        equalities: list = []
        fresh_names = (f"hv{n}" for n in itertools.count(1))
        for at, t in zip(raw_args, var_types):
            name = self.tokens[at]
            if name not in self.scope and name not in head_vars:
                head_vars[name] = Symbol(name, t)
                continue
            # bound or repeated name: introduce a fresh head variable and
            # constrain it by equality (only possible for domain positions)
            if t != CONST:
                self.fail(f"second order head argument {name!r} must be a fresh name", at)
            fresh = Symbol(
                next(n for n in fresh_names if n not in self.scope and n not in head_vars), CONST
            )
            other = self.scope.get(name) or head_vars[name]
            equalities.append(Cmp("=", SymTerm(fresh), SymTerm(other)))
            head_vars[fresh.name] = fresh

        body = None
        if self.accept("<-"):
            saved = self.shadow(head_vars.values())
            body = self.parse_formula()
            self.unshadow(saved)
        if body is None and not equalities:
            self.fail(f"rule for {head.name} needs a body or ground arguments")
        for eq in equalities:
            body = eq if body is None else And(body, eq)
        return Rule(head, tuple(head_vars.values()), body)

    # -- theory files --------------------------------------------------------

    def parse_theory(self) -> Theory:
        at = self.expect_name()
        if self.tokens[at] != "vocab":
            self.fail("theory files start with a vocab block", at)
        vocab = self.parse_vocab_block()
        theory = Theory(vocab)
        while self.pos < self.last:
            at = self.expect_name()
            kind = self.tokens[at]
            name = self.tokens[self.expect_name()]
            if kind == "formula":
                self.expect("{")
                theory.formulas[name] = self.parse_formula()
                self.expect("}")
            elif kind == "definition":
                theory.definitions[name] = self.parse_ruleset()
            elif kind == "template":
                theory.templates[name] = self.parse_ruleset()
            else:
                self.fail(f"expected formula, definition or template, got {kind!r}", at)
        return theory


def parse_theory(text: str) -> Theory:
    return Parser(text).parse_theory()


def _whole(text: str, vocab: Vocabulary, parse):
    p = Parser(text, vocab)
    out = parse(p)
    if p.pos < p.last:
        p.fail(f"trailing input {p.peek()!r}")
    return out


def parse_formula(text: str, vocab: Vocabulary):
    return _whole(text, vocab, Parser.parse_formula)


def parse_ruleset(text: str, vocab: Vocabulary) -> RuleSet:
    return _whole(text, vocab, Parser.parse_ruleset)
