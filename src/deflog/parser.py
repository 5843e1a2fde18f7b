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
lexer, `_lex`, over one regex per format, and one token cursor,
`_Cursor`.  Tokens are `(kind, text, offset)` tuples; a `ParseError`
works out line and column from the offset, with lines as
`str.splitlines` ends them and `//` commenting out the rest of a line.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, field
from typing import Iterator

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
_BREAK = re.compile(f"\r\n|[{_BREAKS}]")
_COMMENT = f"//[^{_BREAKS}]*"
_NAME = r"[A-Za-z_][A-Za-z0-9_']*"

# Space and comments are skipped after each token (and by `_LEAD` before
# the first), so every match starts on a token, \Z included, and none
# backtracks.  `neg` is an int unless it follows an int or a name (`x-1`),
# where its `-` is punctuation.
_SKIP = rf"(?:\s+|{_COMMENT})*"
_LEAD = re.compile(_SKIP)
_THEORY = re.compile(
    rf"(?:(?P<name>{_NAME})|(?P<neg>-\d+)|(?P<int>\d+)|(?P<punct><=>|=>|<-"
    r"|\?\?|!!|\.\.|[{}()\[\],:;.~&|+/=<>!?#-])|(?P<bad>\S)|(?P<eof>\Z))" + _SKIP
)

# Structures: `a..b` ranges, their own punctuation, and a newline token
# ending every line (`_lex_structure` ends the last line with a break).
# A bad character is reported where the space before it starts, where the
# structure reader has always reported it.
_SPACE = f"[^\\S{_BREAKS}]"
_STRUCTURE = re.compile(
    rf"{_SPACE}*(?:(?P<int>-?\d+\.\.-?\d+|-?\d+)|(?P<name>{_NAME})|(?P<punct>[{{}}(),:=*])"
    rf"|(?P<newline>)(?:{_COMMENT})?(?:\r\n|[{_BREAKS}]))"
    rf"|(?P<bad>{_SPACE}*\S)"
)


def _line_col(text: str, offset: int) -> tuple[int, int]:
    lines = _BREAK.split(text[:offset])
    return len(lines), len(lines[-1]) + 1


def _lex(matches: Iterator[re.Match], text: str, bad: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    append = tokens.append
    for m in matches:
        kind = m.lastgroup
        if kind == "neg" and tokens and tokens[-1][0] in ("int", "name"):
            at = m.start(kind)
            append(("punct", "-", at))
            append(("int", m[kind][1:], at + 1))
        elif kind == "bad":
            at = m.start(kind)
            raise ParseError(f"{bad} {text[at]!r}", *_line_col(text, at))
        else:
            append(("int" if kind == "neg" else kind, m[kind], m.start(kind)))
    return tokens


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """The theory tokens of `text`, ending in an eof token: `(kind, text,
    offset)` with kind 'name', 'int', 'punct' or 'eof', and offset into
    `text` with its Unicode connectives replaced by ASCII ones."""
    text = text.translate(_UNICODE)
    return _lex(_THEORY.finditer(text, _LEAD.match(text).end()), text, "unexpected character")


def _lex_structure(text: str) -> tuple[str, list[tuple[str, str, int]]]:
    """`text` with its last line ended, and its structure tokens."""
    if text and text[-1] not in _BREAKS:
        text += "\n"
    tokens = _lex(_STRUCTURE.finditer(text), text, "bad character")
    tokens.append(("eof", "", len(text)))
    return text, tokens


class _Cursor:
    """A position in a token list that ends in an eof token, which `next`
    never moves past.  Subclasses say where a token is for an error
    (`where`) and how a message names a token without text (`NOTHING`)."""

    NOTHING: dict[str, str] = {}

    def __init__(self, text: str, tokens: list[tuple[str, str, int]]):
        self.text = text
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok[1] == text and tok[0] != "name"

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1  # eof has no text, so this is not the last token
            return True
        return False

    def expect(self, text: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[1] != text:
            got = tok[1] or self.NOTHING.get(tok[0], tok[0])
            self.fail(f"expected {text!r}, got {got!r}", tok)
        return tok

    def expect_at(self, pos: int, text: str) -> int:
        """The position after token `pos`, which must be `text`."""
        if self.tokens[pos][1] != text:
            self.pos = pos
            self.expect(text)
        return pos + 1

    def fail(self, message: str, tok: tuple | None = None):
        raise ParseError(message, *self.where(self.peek() if tok is None else tok))


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
        super().__init__(text, tokenize(text))
        self.scope: dict[str, Symbol] = {s.name: s for s in vocab or ()}

    def where(self, tok: tuple) -> tuple[int, int]:
        if tok[0] == "eof":
            return len(self.text.splitlines()) + 1, 1
        return _line_col(self.text.translate(_UNICODE), tok[2])

    def expect_name(self) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != "name":
            self.fail(f"expected a name, got {tok[1]!r}", tok)
        return tok

    def parse_args(self, item) -> list:
        """Comma separated `item()`s up to a ')', which is consumed."""
        args = []
        while not self.at(")"):
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
        tok = self.expect_name()
        if tok[1] == "pred":
            self.expect("/")
            arity = self.next()
            if arity[0] != "int":
                self.fail("expected an arity", arity)
            if int(arity[1]) < 0:
                self.fail(f"arity {arity[1]} is negative", arity)
            return pred(int(arity[1]))
        if tok[1] == "const":
            return CONST
        if tok[1] == "domain":
            return Type("domain")
        if tok[1] == "so" or tok[1] == "so_pred":
            if tok[1] == "so":
                self.expect("-")
                inner = self.expect_name()
                if inner[1] != "pred":
                    self.fail("expected 'pred' after 'so-'", inner)
            self.expect("(")
            return so_pred(*self.parse_args(self.parse_type))
        self.fail(f"unknown type {tok[1]!r}", tok)

    def parse_vocab_block(self) -> Vocabulary:
        self.expect("{")
        symbols = []
        while not self.at("}"):
            name = self.expect_name()
            self.expect(":")
            kind = "user"
            if self.peek()[:2] in (("name", "template"), ("name", "interpreted")):
                kind = self.next()[1]
            t = self.parse_type()
            symbols.append(Symbol(name[1], t, kind))
            self.accept(";")
        self.expect("}")
        vocab = Vocabulary.of(symbols)
        self.scope.update({s.name: s for s in vocab})
        return vocab

    # -- formulas ---------------------------------------------------------

    def resolve(self, name: tuple) -> Symbol:
        sym = self.scope.get(name[1])
        if sym is None:
            self.fail(f"unknown symbol {name[1]!r}", name)
        return sym

    def read_term(self, pos: int) -> tuple:
        """The term at token `pos`, ints and names joined by + (left
        associative), and the position after it."""
        tokens = self.tokens
        left = None
        while True:
            tok = tokens[pos]
            if tok[0] == "int":
                right = IntTerm(int(tok[1]))
            elif tok[0] == "name":
                right = SymTerm(self.resolve(tok))
            else:
                self.fail(f"expected a term, got {tok[1]!r}", tok)
            left = right if left is None else AddTerm(left, right)
            if tokens[pos + 1][1] != "+":
                return left, pos + 1
            pos += 2

    def read_comparison(self, pos: int) -> tuple:
        """The comparison operator at token `pos`, the term after it, and
        the position after that."""
        tok = self.tokens[pos]
        if tok[1] not in _COMPARISONS:
            self.fail("expected a comparison operator (=, <, >)", tok)
        return (tok[1], *self.read_term(pos + 1))

    def parse_formula(self):
        """The formula at the cursor, read in one loop (see the module
        docstring).  Each pass reads a unary formula, or opens a frame: a
        parenthesis, or a quantifier, aggregate or let-block header.  A
        connective then closes the runs that bind tighter than it, and any
        other token closes the runs and then the innermost frame."""
        tokens, pos = self.tokens, self.pos
        operands: list = []  # the left operands of the runs
        runs: list = []  # [prec, class, count]: binding tighter towards the top
        frames: list = []  # (class, info, saved scope, negations, base of its runs)
        base = 0
        while True:
            negations = 0
            while tokens[pos][1] == "~":
                pos += 1
                negations += 1
            kind, text, _ = tok = tokens[pos]
            frame = None
            if text == "#" or kind == "name" and text == "sum" and tokens[pos + 1][1] == "{":
                frame = self.aggregate_frame(pos, "card" if text == "#" else "sum")
            elif kind == "punct" and text in _QUANTIFIERS:
                frame = self.quantifier_frame(pos)
            elif text == "(":
                frame = (None, None, None, pos + 1)
            elif text == "{":
                self.pos = pos
                e = DefinitionExpr(self.parse_ruleset())
                pos = self.pos
            elif kind == "name" and text == "let":
                self.pos = pos + 1
                rs = self.parse_ruleset()
                tok = self.expect_name()
                if tok[1] != "in":
                    self.fail("expected 'in' after a let block", tok)
                frame = (Let, rs, self.shadow(rs.defined_symbols), self.pos)
            elif kind == "int" or kind == "name" and tokens[pos + 1][1] in _TERM_ENDS:
                left, pos = self.read_term(pos)
                op, right, pos = self.read_comparison(pos)
                e = Cmp(op, left, right)
            else:
                if kind != "name":
                    self.pos = pos
                    self.expect_name()  # raises
                sym = self.resolve(tok)
                args = []
                pos += 1
                if tokens[pos][1] == "(":
                    pos += 1
                    while tokens[pos][1] != ")":
                        arg, pos = self.read_term(pos)
                        args.append(arg)
                        if tokens[pos][1] != ",":
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
                op = _BINARY.get(tokens[pos][1])
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
        so, fo_node, so_node = _QUANTIFIERS[self.tokens[pos][1]]
        name = self.tokens[pos + 1]
        if not so and name[0] == "name" and self.tokens[pos + 2][1] == ":":  # !x: or ?x:
            var = Symbol(name[1], CONST)
            return fo_node, var, self.shadow((var,)), pos + 3
        self.pos = pos + 1
        name = self.expect_name()
        var_type = CONST
        if self.accept("["):
            var_type = self.parse_type()
            self.expect("]")
            if var_type.kind == "pred":
                so = True
        if so and var_type == CONST:
            self.fail(f"second order variable {name[1]!r} needs a [pred/n] annotation")
        self.expect(":")
        var = Symbol(name[1], var_type)
        return so_node if so else fo_node, var, self.shadow((var,)), self.pos

    def aggregate_frame(self, pos: int, agg: str) -> tuple:
        """The frame of the aggregate whose # or sum is token `pos`."""
        self.pos = pos + 1
        self.expect("{")
        vars_ = []
        while True:
            vars_.append(Symbol(self.expect_name()[1], CONST))
            if not self.accept(","):
                break
        self.expect(":")
        return Aggregate, (agg, tuple(vars_)), self.shadow(vars_), self.pos

    # -- rules -------------------------------------------------------------

    def parse_ruleset(self) -> RuleSet:
        self.expect("{")
        rules = []
        while not self.at("}"):
            rules.append(self.parse_rule())
            self.accept(".")
        self.expect("}")
        return RuleSet(tuple(rules))

    def parse_rule(self) -> Rule:
        head_tok = self.expect_name()
        head = self.resolve(head_tok)
        if not head.type.is_predicate:
            self.fail(f"rule head {head.name!r} is not a predicate", head_tok)
        raw_args = self.parse_args(self.expect_name) if self.accept("(") else []
        var_types = head_var_types(head)
        if len(raw_args) != len(var_types):
            self.fail(f"rule head {head.name} expects {len(var_types)} arguments", head_tok)
        head_vars: dict[str, Symbol] = {}  # by name, in order
        equalities: list = []
        fresh_names = (f"hv{n}" for n in itertools.count(1))
        for tok, t in zip(raw_args, var_types):
            name = tok[1]
            if name not in self.scope and name not in head_vars:
                head_vars[name] = Symbol(name, t)
                continue
            # bound or repeated name: introduce a fresh head variable and
            # constrain it by equality (only possible for domain positions)
            if t != CONST:
                self.fail(f"second order head argument {name!r} must be a fresh name", tok)
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
        tok = self.expect_name()
        if tok[1] != "vocab":
            self.fail("theory files start with a vocab block", tok)
        vocab = self.parse_vocab_block()
        theory = Theory(vocab)
        while self.peek()[0] != "eof":
            kind = self.expect_name()
            name = self.expect_name()[1]
            if kind[1] == "formula":
                self.expect("{")
                theory.formulas[name] = self.parse_formula()
                self.expect("}")
            elif kind[1] == "definition":
                theory.definitions[name] = self.parse_ruleset()
            elif kind[1] == "template":
                theory.templates[name] = self.parse_ruleset()
            else:
                self.fail(f"expected formula, definition or template, got {kind[1]!r}", kind)
        return theory


def parse_theory(text: str) -> Theory:
    return Parser(text).parse_theory()


def _whole(text: str, vocab: Vocabulary, parse):
    p = Parser(text, vocab)
    out = parse(p)
    if p.peek()[0] != "eof":
        p.fail(f"trailing input {p.peek()[1]!r}")
    return out


def parse_formula(text: str, vocab: Vocabulary):
    return _whole(text, vocab, Parser.parse_formula)


def parse_ruleset(text: str, vocab: Vocabulary) -> RuleSet:
    return _whole(text, vocab, Parser.parse_ruleset)
