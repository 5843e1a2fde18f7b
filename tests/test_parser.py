"""The shared lexer and cursor against the readers as first written, and a
fuzz test of both readers and the `typecheck` verb.

The oracles are `oracle_tokenize`, `OracleParser`,
`oracle_tokenize_structure` and `OracleStructReader` in `oracles.py`.
Two differences are allowed, each skipped by name where it shows:

* primed names (`p'`): structures read them now, where the first reader
  stopped at a bad character "'";
* negative arities (`pred/-1`): a `ParseError` at the arity now, where
  the first parser built the type, and a structure giving it a carrier
  failed with a `ValueError`;
* structure keys: a key given two values, or naming an element outside
  the domain, is a `ParseError` at that key now, where the first reader
  kept the last value, or reported the key as outside the carrier or the
  entries as not covering it once the value was read.
"""

import random
import re

from click.testing import CliRunner
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from deflog.cli import main
from deflog.errors import DeflogError, ParseError, TypeError_
from deflog.interpretation import (
    PartialInterpretation, _StructReader, read_structure, write_structure,
)
from deflog.limits import DEFAULT_LIMITS
from deflog.parser import Parser, parse_theory, tokenize
from deflog.syntax import unparse
from deflog.truthvalues import T, U, PartialSet
from deflog.vocab import CONST, Symbol, Vocabulary, pred

from gen import PROPS, random_interpretation, random_tree
from oracles import (
    oracle_parse_theory, oracle_read_structure, oracle_tokenize, oracle_tokenize_structure,
)

SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

# what both alphabets are made of, plus noise: Unicode connectives, line
# breaks of every kind str.splitlines knows, comments, primes, stray bytes
NOISE = [
    " ", "  ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029", "\xa0", "//", "// note\n", "$", "@", "'", "é", "\x00", "`", "٣", "\\",
]
THEORY_FRAGMENTS = NOISE + [
    "vocab", "formula", "definition", "template", "interpreted", "p", "q", "s", "E",
    "x", "x1", "p'", "_a", "sum", "let", "in", "pred", "const", "so", "so_pred", "x-1",
    "1-1", ")-1", "domain", "0", "1", "42", "-", "-1", "{", "}", "(", ")", "[", "]", ",", ":", ";",
    ".", "..", "~", "&", "|", "+", "/", "=", "<", ">", "!", "?", "#", "<=>", "=>",
    "<-", "??", "!!", "¬", "∧", "∨", "⇒", "⇔", "←", "∀", "∃",
]
STRUCT_FRAGMENTS = NOISE + [
    "domain", "p", "q", "s", "c", "a", "b", "t", "u", "f", "p'", "1", "-2", "07",
    "1..3", "0..-1", "..", "-", "=", "{", "}", "(", ")", ",", ":", "*", "/",
]

# at most 60 fragments, so nesting stays far below the depth at which what
# still recurses per level hits RecursionError (a known defect): the walkers
# that pass scope or polarity down (typecheck, substitute, _nnf, _hoist,
# the grounder) on nested parentheses, binders and => or <=> chains
def texts(fragments):
    return st.lists(
        st.one_of(
            st.sampled_from(fragments),
            st.text(st.characters(exclude_categories=("Cs",)), max_size=2),
        ),
        min_size=8,
        max_size=60,
    ).map("".join)


VOCAB = "vocab { p: pred/0; q: pred/0; r: pred/0; s: pred/1; E: so-pred(pred/1); "
VOCAB += "D: so-pred(pred/1); t: pred/2; c: const; }\n"


def outcome(read, *args):
    try:
        return ("ok", read(*args))
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line, exc.column)
    except DeflogError as exc:
        return (type(exc).__name__, str(exc))


# each token's kind, text and position, the position worked out on demand
# at every index, as an error at that token would
def theory_tokens(text):
    p = Parser(text)
    return [(p.kinds[tok], tok, *p.where(pos)) for pos, tok in enumerate(p.tokens)]


def structure_tokens(text):
    r = _StructReader(text, Vocabulary.of([]), DEFAULT_LIMITS)
    return [(r.kinds[tok], r.shown(pos), r.where(pos)[0]) for pos, tok in enumerate(r.tokens[:-1])]


def negative_arity(result) -> bool:
    return result[0] == "ParseError" and result[1].endswith("is negative")


class TestTokensMatchTheFirstReaders:
    @SETTINGS
    @given(texts(THEORY_FRAGMENTS))
    def test_theory_tokens(self, text):
        old = outcome(lambda t: [(k.kind, k.text, k.line, k.col) for k in oracle_tokenize(t)],
                      text)
        assert outcome(theory_tokens, text) == old
        if old[0] == "ok":
            assert len(tokenize(text)) == len(old[1])

    @SETTINGS
    @given(texts(STRUCT_FRAGMENTS))
    def test_structure_tokens(self, text):
        assume("'" not in text)  # primed names: see the module docstring
        assert outcome(structure_tokens, text) == outcome(oracle_tokenize_structure, text)

    def test_positions(self):
        # columns count the ASCII form of Unicode connectives; the end of
        # input sits on the line after the last
        assert theory_tokens("p ⇒\r\nq") == [
            ("name", "p", 1, 1), ("punct", "=>", 1, 3), ("name", "q", 2, 1), ("eof", "", 3, 1),
        ]
        assert theory_tokens("x-1 - -2") == [
            ("name", "x", 1, 1), ("punct", "-", 1, 2), ("int", "1", 1, 3),
            ("punct", "-", 1, 5), ("int", "-2", 1, 7), ("eof", "", 2, 1),
        ]
        assert outcome(structure_tokens, "a\n  b = {  $}") == (
            "ParseError", "2:8: bad character ' '", 2, 8
        )


def tree_theory(rng: random.Random) -> str:
    c = Symbol("c", CONST)
    body = unparse(random_tree(rng, rng.randint(0, 4), consts=(c,) if rng.random() < 0.3 else ()))
    return f"{VOCAB}formula f {{ {body} }}\n"


def chain(rng: random.Random, depth: int = 2) -> str:
    """Connectives without the parentheses `unparse` puts around each."""
    parts = []
    for i in range(rng.randint(1, 6)):
        if i:
            parts.append(rng.choice(("&", "|", "=>", "<=>", "∧", "∨", "⇒", "⇔")))
        if depth and rng.random() < 0.3:
            parts.append(f"({chain(rng, depth - 1)})")
        elif depth and rng.random() < 0.1:
            parts.append(f"{rng.choice('!?')}x: {chain(rng, depth - 1)}")
        else:
            parts.append(rng.choice(("p", "~q", "r", "s(c)", "~~p", "c = 1", "c+1 < 2")))
    return " ".join(parts)


class TestParserMatchesTheFirstParser:
    def test_unparsed_random_trees_and_chains(self):
        rng = random.Random(9)
        for _ in range(300):
            # rule heads with bound, repeated and hv-named arguments
            args = ", ".join(rng.choice(("x", "y", "c", "hv1", "hv2")) for _ in range(2))
            rules = f"definition d {{ t({args}) <- {chain(rng)}. t({args}). }}"
            for text in (tree_theory(rng), f"{VOCAB}formula f {{ {chain(rng)} }}", VOCAB + rules):
                assert outcome(parse_theory, text) == outcome(oracle_parse_theory, text)

    @SETTINGS
    @given(
        st.integers(0, 10**6),
        st.booleans(),
        st.lists(
            st.tuples(st.floats(0, 1), st.integers(0, 3), st.sampled_from(THEORY_FRAGMENTS)),
            max_size=3,
        ),
        st.floats(0, 1),
    )
    def test_edited_theories(self, seed, as_chain, edits, keep):
        rng = random.Random(seed)
        text = f"{VOCAB}formula f {{ {chain(rng)} }}\n" if as_chain else tree_theory(rng)
        # cut the end off one text in two
        text = text[: int(len(text) * keep)] if seed % 2 else text
        for where, cut, fragment in edits:
            at = int(where * len(text))
            text = text[:at] + fragment + text[at + cut:]
        new = outcome(parse_theory, text)
        if negative_arity(new):
            return  # see the module docstring
        assert new == outcome(oracle_parse_theory, text)

    @SETTINGS
    @given(texts(THEORY_FRAGMENTS))
    def test_noise_after_a_vocabulary(self, text):
        new = outcome(parse_theory, VOCAB + text)
        if not negative_arity(new):
            assert new == outcome(oracle_parse_theory, VOCAB + text)


KEY_ERROR = re.compile(r"^\d+:0: \w+: (key \(.*\) given both|\S+ is not a domain element)")
STRUCT_VOCAB = Vocabulary.of([*PROPS, Symbol("s", pred(1)), Symbol("c", CONST)])


class TestStructureReaderMatchesTheFirstReader:
    @SETTINGS
    @given(
        st.integers(0, 10**6),
        st.lists(
            st.tuples(st.floats(0, 1), st.integers(0, 3), st.sampled_from(STRUCT_FRAGMENTS)),
            max_size=3,
        ),
    )
    def test_edited_structures(self, seed, edits):
        rng = random.Random(seed)
        text = write_structure(random_interpretation(rng, domain=("a", "b", 1)).expand(
            STRUCT_VOCAB.get("c"), rng.choice(("a", "b", 1))))
        for where, cut, fragment in edits:
            at = int(where * len(text))
            text = text[:at] + fragment + text[at + cut:]
        assume("'" not in text)  # primed names: see the module docstring
        new = outcome(read_structure, text, STRUCT_VOCAB)
        first = outcome(oracle_read_structure, text, STRUCT_VOCAB)
        if new[0] == "ParseError" and KEY_ERROR.search(new[1]):
            # structure keys: see the module docstring
            assert first[0] == "ok" or first[0] == "ParseError" and first[2] in (0, new[2])
        else:
            assert new == first

    def test_primed_names_round_trip(self):
        # the first reader stopped at "2:2: bad character \"'\""
        primed = Symbol("p'", pred(1))
        i = PartialInterpretation.make(
            ("a", "b'"), {primed: PartialSet.from_map({("a",): T, ("b'",): U})}
        )
        text = write_structure(i)
        assert text.splitlines()[1].startswith("p' = ")
        assert read_structure(text, Vocabulary.of([primed])) == i


def small_ints(text: str) -> bool:
    # a range such as 1..99999999 is a domain that large; two digits keep
    # every carrier small
    digits = 0
    for ch in text:
        digits = digits + 1 if ch.isdigit() else 0
        if digits > 2:
            return False
    return True


class TestFuzz:
    @SETTINGS
    @given(st.one_of(texts(THEORY_FRAGMENTS), texts(THEORY_FRAGMENTS).map(VOCAB.__add__)))
    def test_parse_theory(self, text):
        try:
            parse_theory(text)
        except ParseError:
            pass

    @SETTINGS
    @given(texts(STRUCT_FRAGMENTS))
    def test_read_structure(self, text):
        assume(small_ints(text))
        try:
            read_structure(text, STRUCT_VOCAB)
        except (ParseError, TypeError_):
            pass

    @SETTINGS
    @given(st.one_of(texts(THEORY_FRAGMENTS), texts(THEORY_FRAGMENTS).map(VOCAB.__add__)))
    def test_typecheck_verb(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.theory"
        path.write_text(text, encoding="utf-8")
        r = CliRunner().invoke(main, ["typecheck", str(path)])
        assert r.exit_code in (0, 1, 2, 3)
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert "Traceback" not in r.stderr


DIGITS = "7" * 5000  # past int()'s default limit of 4,300 digits


class TestHugeIntegers:
    """An integer literal with more digits than int() converts is a
    ParseError at its token (exit 2), not a ValueError."""

    def run(self, tmp_path, theory, struct=None):
        (tmp_path / "t.theory").write_text(theory, encoding="utf-8")
        args = ["typecheck", str(tmp_path / "t.theory")]
        if struct is not None:
            (tmp_path / "s.struct").write_text(struct, encoding="utf-8")
            args = ["eval", str(tmp_path / "t.theory"), str(tmp_path / "s.struct")]
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
        return r.stderr.strip()

    def test_theory_literals(self, tmp_path):
        too_long = "integer of 5000 digits is too long"
        for formula, at in ((f"p({DIGITS})", "2:15"), (f"1 < {DIGITS}", "2:17"),
                            (f"p(-{DIGITS})", "2:15")):
            theory = f"vocab {{ p: pred/1; }}\nformula f {{ {formula} }}\n"
            assert self.run(tmp_path, theory) == f"error: {at}: {too_long}"
        assert self.run(tmp_path, f"vocab {{ p: pred/{DIGITS}; }}\n") == f"error: 1:17: {too_long}"

    def test_structure_literals(self, tmp_path):
        theory = "vocab { p: pred/1; }\n"
        for struct, line in ((f"domain = {{a, {DIGITS}}}\n", 1), (f"domain = {{1..{DIGITS}}}\n", 1),
                             (f"domain = {{a}}\n\np = {{({DIGITS}): t, *: f}}\n", 3)):
            assert self.run(tmp_path, theory, struct) == (
                f"error: {line}:0: integer of 5000 digits is too long")
