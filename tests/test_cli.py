"""Command line frontend: golden-file output checks, determinism and
exit codes for every verb.

Regenerate the golden files with DEFLOG_UPDATE_GOLDEN=1 after an
intentional output change."""

import collections
import functools
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import deflog
from deflog import cli, definitions
from deflog.cli import _mx_models, main
from deflog.errors import CapExceeded, EvaluationError, NonTotalDefinitionError
from deflog.evaluator import KLEENE, SUPERVALUATION, evaluate, evaluate_exact
from deflog.interpretation import read_structure
from deflog.limits import DEFAULT_LIMITS, Limits
from deflog.parser import Theory, parse_formula, parse_theory
from deflog.syntax import (
    Aggregate, Atom1, DefinitionExpr, IntTerm, Or, SymTerm, classify, free_symbols, unparse,
)
from deflog.truthvalues import F, T
from deflog.vocab import CONST, Symbol, Vocabulary, pred

from conftest import DATA, GOLDEN
from gen import (
    P0, P1, PROPS, SO1, SO_HEAD, random_formula, random_interpretation, random_ruleset,
    random_tree,
)
from oracles import exact_completions, flat_filter, oracle_constrained_completions
from test_definitions import driver_searches
from test_evaluator import node_kinds, random_partial, value_or_error

UPDATE = os.environ.get("DEFLOG_UPDATE_GOLDEN") == "1"


def d(name: str) -> str:
    return str(DATA / name)


# (golden file, argv, expected exit code)
CASES = [
    ("typecheck-props.txt", ["typecheck", d("props.theory")], 0),
    ("typecheck-props.json", ["typecheck", "--json", d("props.theory")], 0),
    ("classify-props.txt", ["classify", d("props.theory")], 0),
    ("classify-eso.txt", ["classify", d("eso.theory")], 0),
    ("classify-tc.txt", ["classify", d("tc.theory")], 0),
    (
        "eval-kleene.txt",
        ["eval", d("props.theory"), d("props_unknown.struct")],
        0,
    ),
    (
        "eval-super.txt",
        ["eval", "-m", "super", d("props.theory"), d("props_unknown.struct")],
        0,
    ),
    (
        "eval-super.json",
        ["eval", "--json", "-m", "super", d("props.theory"), d("props_unknown.struct")],
        0,
    ),
    (
        "wfm-mutex.txt",
        ["wfm", "-d", "mutex", d("props.theory"), d("props_unknown.struct")],
        0,
    ),
    (
        "wfm-paradox.txt",
        ["wfm", "-d", "paradox", d("props.theory"), d("empty.struct")],
        0,
    ),
    (
        "stable-mutex.txt",
        ["stable", "-d", "mutex", d("props.theory"), d("props_unknown.struct")],
        0,
    ),
    (
        "stable-mutex.json",
        ["stable", "--json", "-d", "mutex", d("props.theory"), d("props_unknown.struct")],
        0,
    ),
    (
        "stable-loop.txt",
        ["stable", "-d", "loop", d("loop.theory"), d("empty.struct")],
        0,
    ),
    (
        "stable-paradox.txt",
        ["stable", "-d", "paradox", d("props.theory"), d("empty.struct")],
        1,
    ),
    ("mx-choice.txt", ["mx", d("mx.theory"), d("mx_open.struct")], 0),
    ("mx-choice.json", ["mx", "--json", d("mx.theory"), d("mx_open.struct")], 0),
    (
        "expand-eq.txt",
        ["expand", "-f", "both", "--check-equiv", d("eq.theory")],
        0,
    ),
    (
        "eliminate-cover.txt",
        ["eliminate-so", "-f", "cover", "--check-equiv", d("eso.theory")],
        0,
    ),
    (
        "eliminate-switched.txt",
        ["eliminate-so", "-f", "switched", "--check-equiv", d("eso.theory")],
        0,
    ),
    ("validate-eq.txt", ["validate-lib", d("eq.theory")], 0),
    ("validate-game.txt", ["validate-lib", d("game.theory")], 0),
    ("apply-eq.txt", ["apply-lib", d("eq.theory"), d("eq_ab.struct")], 0),
    ("apply-game.txt", ["apply-lib", d("game.theory"), d("ab.struct")], 0),
    (
        "apply-eq.json",
        ["apply-lib", "--json", d("eq.theory"), d("eq_ab.struct")],
        0,
    ),
    (
        "wfm-reach.json",
        ["wfm", "--json", "-d", "reach", d("reach.theory"), d("reach.struct")],
        0,
    ),
]


@pytest.mark.parametrize("golden,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(golden, argv, code):
    runner = CliRunner()
    first = runner.invoke(main, argv)
    again = runner.invoke(main, argv)
    assert first.exit_code == code, first.output + (first.stderr or "")
    # byte-identical across runs
    assert first.output == again.output
    path = GOLDEN / golden
    if UPDATE or not path.exists():
        path.write_text(first.output)
    assert first.output == path.read_text()
    if golden.endswith(".json"):
        json.loads(first.output)  # well-formed, stable key order


HASH_SEED_ARGVS = [
    ["stable", "-d", "mutex", d("props.theory"), d("props_unknown.struct")],
    ["stable", "-d", "loop", d("loop.theory"), d("empty.struct")],
    ["mx", d("mx.theory"), d("mx_open.struct")],
    ["apply-lib", "--json", d("eq.theory"), d("eq_ab.struct")],
    ["apply-lib", "--json", d("game.theory"), d("empty.struct")],
    ["wfm", "--json", d("reach.theory"), d("reach.struct")],
    ["eval", "-m", "super", d("props.theory"), d("props_unknown.struct")],
    ["classify", d("tc.theory")],
]


def test_output_does_not_depend_on_hash_values(tmp_path):
    # symbols and truth values hash by identity and strings by the hash
    # seed, so sets of them iterate in an order no output may follow; one
    # process per seed runs every verb, and seeds 0 and 1 happen to order
    # some small string sets alike, so four seeds are compared.  The last
    # input reads S at a relation outside its carrier: the error names it
    (tmp_path / "so.theory").write_text("vocab { S: so-pred(pred/1); P: pred/1; }\n"
                                        "formula f { S(P) }\n")
    (tmp_path / "so.struct").write_text("domain = {a, b, c}\nP = {(a): t, (b): t, (c): t}\n"
                                        "S = {({(a)}): t}\n")
    argvs = HASH_SEED_ARGVS + [["eval", str(tmp_path / "so.theory"), str(tmp_path / "so.struct")]]
    src = str(pathlib.Path(deflog.__file__).parents[1])
    driver = ("import json, sys; from click.testing import CliRunner; from deflog.cli import main; "
              "print(json.dumps([(r.exit_code, r.output) for r in "
              "(CliRunner().invoke(main, argv) for argv in json.loads(sys.argv[1]))]))")
    outputs = []
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", driver, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert all(code == 0 and out for code, out in outputs[0][:-1]), outputs[0]
    assert outputs[0][-1] == [2, "error: domain atom S(frozenset({('a',), ('b',), ('c',)}),) "
                                 "outside the populated carrier\n"]
    for other in outputs[1:]:
        for argv, a, b in zip(argvs, outputs[0], other):
            assert a == b, argv


_JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\n\t\x00\x1f\x7fé€\U0001f600\ud800')))
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _JSON_TEXT),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=3).map(tuple),
                           st.dictionaries(_JSON_TEXT, kids, max_size=4)),
    max_leaves=40)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_JSON)
def test_json_writer_is_json_dumps(payload):
    # every --json verb writes through _json_text, byte for byte json.dumps's
    assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)


class TestExitCodes:
    def run(self, *argv):
        return CliRunner().invoke(main, list(argv))

    def test_missing_file_is_an_input_error(self):
        assert self.run("eval", d("nope.theory"), d("empty.struct")).exit_code == 2

    def test_unknown_definition_name(self):
        r = self.run("wfm", "-d", "nosuch", d("props.theory"), d("empty.struct"))
        assert r.exit_code == 2
        assert "nosuch" in r.stderr

    def test_ambiguous_definition_must_be_named(self):
        r = self.run("wfm", d("props.theory"), d("empty.struct"))
        assert r.exit_code == 2
        assert "pick one" in r.stderr

    def test_parse_error_is_an_input_error(self, tmp_path):
        bad = tmp_path / "bad.theory"
        bad.write_text("vocab { p: pred/ }\n")  # missing arity
        r = self.run("typecheck", str(bad))
        assert r.exit_code == 2
        assert r.stderr.startswith("error:")

    def test_negative_arity_is_a_parse_error(self, tmp_path):
        bad = tmp_path / "bad.theory"
        bad.write_text("vocab { p: pred/-1; }\n")
        struct = tmp_path / "s.struct"
        struct.write_text("domain = {a}\n")  # gives p a carrier
        r = self.run("eval", str(bad), str(struct))
        assert (r.exit_code, r.exception.code) == (2, 2)
        assert r.stderr == "error: 1:17: arity -1 is negative\n"

    @pytest.mark.parametrize("entries, message", [
        ("(a): t, (a): f", "p: key (a) given both t and f"),
        ("(9): t", "p: 9 is not a domain element"),
        ("(9): t, *: f", "p: 9 is not a domain element"),
    ])
    def test_structure_key_faults_are_input_errors(self, tmp_path, entries, message):
        theory, struct = tmp_path / "t.theory", tmp_path / "s.struct"
        theory.write_text("vocab { p: pred/1; }\nformula f { ?x: p(x) }\n")
        struct.write_text(f"domain = {{a, 1..3}}\np = {{{entries}}}\n")
        r = self.run("eval", "-m", "super", str(theory), str(struct))
        assert (r.exit_code, r.stderr) == (2, f"error: 2:0: {message}\n")

    def test_undecodable_file_is_an_input_error(self, tmp_path):
        bad = tmp_path / "bad.theory"
        bad.write_bytes(b"vocab { p: pred/0; }\n\xff\n")
        r = self.run("typecheck", str(bad))
        assert (r.exit_code, r.exception.code) == (2, 2)
        assert r.stderr.startswith("error: 'utf-8' codec can't decode byte 0xff")

    def test_completion_cap_exhaustion(self):
        r = self.run(
            "mx", "--max-completions", "2", d("mx.theory"), d("mx_open.struct")
        )
        assert r.exit_code == 3

    def test_eliminate_so_refuses_a_variable_it_cannot_switch(self, tmp_path):
        # S is an argument of E under !x: no first order S_1 can take its
        # place there, so the rewrite is refused, not printed with S free
        theory = tmp_path / "t.theory"
        theory.write_text("vocab { E: so-pred(pred/1); }\n"
                          "formula f { !x: ?? S[pred/1]: ~(S(x) <=> E(S)) }\n")
        r = self.run("eliminate-so", str(theory))
        assert (r.exit_code, r.exception.code) == (2, 2)
        assert r.stderr == ("error: cannot switch second order variable S past !x: "
                            "it occurs other than as a predicate\n")

    def test_no_stable_model_exit(self):
        r = self.run("stable", "-d", "paradox", d("props.theory"), d("empty.struct"))
        assert r.exit_code == 1

    def test_stable_cap_counts_the_atoms_the_wfm_leaves_unknown(self, tmp_path):
        # 16 defined atoms, of which the well-founded model leaves x and y u:
        # the default cap of 12 holds, as it did not over all 16
        cs = [f"c{k}" for k in range(14)]
        (tmp_path / "choice.theory").write_text(
            "vocab { x: pred/0; y: pred/0; " + " ".join(f"{c}: pred/0;" for c in cs)
            + " }\ndefinition d { x <- ~y. y <- ~x. " + " ".join(f"{c} <- {c}." for c in cs)
            + " }\n")
        r = self.run("stable", str(tmp_path / "choice.theory"), d("empty.struct"))
        assert r.exit_code == 0 and r.output.endswith("2 stable model(s)\n")


    @pytest.mark.parametrize("argv", [
        ["eval", "-m", "super", "--max-completions", "-1", d("props.theory"),
         d("props_unknown.struct")],
        ["wfm", "-d", "mutex", "--max-carrier", "-5", d("props.theory"), d("empty.struct")],
    ], ids=["max-completions", "max-carrier"])
    def test_negative_cap_is_a_usage_error(self, argv):
        r = self.run(*argv)
        assert r.exit_code == 2
        assert f"Invalid value for '{argv[-4]}'" in r.stderr

    def test_byte_order_mark_is_accepted(self, tmp_path):
        argv = []
        for name in ("props.theory", "props_unknown.struct"):
            bom = tmp_path / name
            bom.write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes())
            argv.append(str(bom))
        plain = self.run("eval", "-m", "super", d("props.theory"), d("props_unknown.struct"))
        r = self.run("eval", "-m", "super", *argv)
        assert (r.exit_code, r.output) == (0, plain.output)
        assert plain.output.startswith("contradiction: f\n")


_CAP_HELP = {
    "--max-atoms":
        "Cap on defined atoms the well-founded model leaves unknown in model enumerations.",
    "--max-completions": "Cap n on unknown atoms completed at once (2^n completions).",
    "--max-carrier": "Cap on tuples in one predicate carrier and domain elements.",
}
# each verb: whether it reads a structure, whether it takes the cap flags,
# and its own options with their help, as the verbs had them before the
# shared frame registered them
VERBS = {
    "typecheck": (False, False, {}),
    "classify": (False, False, {}),
    "eval": (True, True, {"-m, --mode": "Evaluation mode.",
                          "--color": "Colorize truth values."}),
    "wfm": (True, True, {"-d, --definition": "Definition name."}),
    "stable": (True, True, {"-d, --definition": "Definition name."}),
    "mx": (True, True, {}),
    "expand": (False, True, {
        "-f, --formula": "Formula name.",
        "--check-equiv":
            "Verify the expansion against the original by model enumeration at |D| <= 2."}),
    "eliminate-so": (False, True, {
        "-f, --formula": "Formula name.",
        "--check-equiv": "Verify the rewrite by restricted-model enumeration at |D| <= 2."}),
    "validate-lib": (False, True, {}),
    "apply-lib": (True, True, {}),
}


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_every_verb_reports_a_missing_theory_file(verb):
    structure, _, _ = VERBS[verb]
    argv = [verb, d("nope.theory")] + ([d("empty.struct")] if structure else [])
    r = CliRunner().invoke(main, argv)
    assert (r.exit_code, r.exception.code) == (2, 2)
    assert r.stderr.startswith("error: [Errno 2] ")
    assert "Traceback" not in r.output


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_every_verb_lists_its_options_in_help(verb):
    _, caps, own = VERBS[verb]
    want = {**own, "--json": "Emit JSON.", **(_CAP_HELP if caps else {}),
            "--help": "Show this message and exit."}
    r = CliRunner().invoke(main, [verb, "--help"])
    assert r.exit_code == 0
    options = r.output.split("Options:\n")[1]
    names = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", options))
    assert names == {n for names in want for n in names.split(", ")}
    flat = " ".join(options.split())
    for names, text in want.items():
        assert f"{names} " in flat and text in flat


DEEP = 3000


def left_nested(op: str, operands: list) -> str:
    return functools.reduce(lambda a, b: f"({a} {op} {b})", operands)


class TestDeepInputs:
    """3,000-deep formulas answer at the default recursion limit: & and |
    runs are one node each, the parser keeps its open parentheses and
    bodies on a stack of its own, every walker below is a fold, and ~~φ
    compiles and grounds as φ."""

    # text, its canonical form, kleene and super value with p = t, then u
    CASES = {
        "and": (" & ".join(["p"] * (DEEP - 1) + ["~p"]),
                left_nested("&", ["p"] * (DEEP - 1) + ["~p"]), "ff", "uf"),
        "or": (" | ".join(["p"] * (DEEP - 1) + ["~p"]),
               left_nested("|", ["p"] * (DEEP - 1) + ["~p"]), "tt", "ut"),
        "not": ("~" * DEEP + "p", "~" * DEEP + "p", "tt", "uu"),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_library_and_cli_answer(self, kind, tmp_path):
        text, canonical, exact, unknown = self.CASES[kind]
        source = f"vocab {{ p: pred/0; }}\nformula deep {{ {text} }}\n"
        phi = parse_theory(source).formulas["deep"]
        assert {s.name for s in free_symbols(phi)} == {"p"}
        assert classify(phi) == "FO(ID*)"
        assert unparse(phi) == canonical
        theory = tmp_path / "t.theory"
        theory.write_text(source)
        for value, want in (("t", exact), ("u", unknown)):
            struct = tmp_path / f"{value}.struct"
            struct.write_text(f"domain = {{a}}\np = {{(): {value}}}\n")
            i = read_structure(struct.read_text(), parse_theory(source).vocabulary)
            got = [evaluate(phi, i, mode).value for mode in (KLEENE, SUPERVALUATION)]
            assert "".join(got) == want
            for mode, v in zip(("kleene", "super"), want):
                r = CliRunner().invoke(main, ["eval", "-m", mode, str(theory), str(struct)])
                assert (r.exit_code, r.output) == (0, f"deep: {v}\n")
        r = CliRunner().invoke(main, ["classify", str(theory)])
        assert (r.exit_code, r.output) == (0, "formula deep: FO(ID*)\n")

    def test_wfm_reads_a_deep_negation_body(self, tmp_path):
        # the rule set hashes and orders its rules by repr, which loop over
        # a ~ run
        theory = tmp_path / "t.theory"
        theory.write_text("vocab { p: pred/0; q: pred/0; }\n"
                          f"definition d {{ p <- {'~' * DEEP}q. q <- q. }}\n")
        struct = tmp_path / "s.struct"
        struct.write_text("domain = {a}\n")
        r = CliRunner().invoke(main, ["wfm", str(theory), str(struct)])
        assert (r.exit_code, r.output) == (0, "domain = {a}\np = {*: f}\nq = {*: f}\n")

    # text, and its canonical form where that differs
    NESTED = {
        "parentheses": ("(" * DEEP + "p" + ")" * DEEP, "p"),
        "right-nested": ("(p & " * (DEEP - 1) + "p" + ")" * (DEEP - 1), None),
        "quantifiers": ("?x: " * DEEP + "p", None),
    }

    @pytest.mark.parametrize("kind", sorted(NESTED))
    def test_nested_parentheses_and_quantifiers_parse(self, kind, tmp_path):
        text, canonical = self.NESTED[kind]
        source = f"vocab {{ p: pred/0; }}\nformula deep {{ {text} }}\n"
        phi = parse_theory(source).formulas["deep"]
        assert classify(phi) == "FO(ID*)"
        assert unparse(phi) == (canonical or text)
        theory = tmp_path / "t.theory"
        theory.write_text(source)
        r = CliRunner().invoke(main, ["classify", str(theory)])
        assert (r.exit_code, r.output) == (0, "formula deep: FO(ID*)\n")
        if kind == "parentheses":
            struct = tmp_path / "s.struct"
            struct.write_text("domain = {a}\np = {(): t}\n")
            r = CliRunner().invoke(main, ["eval", str(theory), str(struct)])
            assert (r.exit_code, r.output) == (0, "deep: t\n")

    def test_what_still_recurses_is_an_input_error(self, tmp_path):
        # an => chain parses and classifies, but nests the evaluator's closures
        theory = tmp_path / "t.theory"
        theory.write_text(f"vocab {{ p: pred/0; }}\nformula deep {{ {' => '.join(['p'] * DEEP)} }}\n")
        r = CliRunner().invoke(main, ["classify", str(theory)])
        assert (r.exit_code, r.output) == (0, "formula deep: FO(ID*)\n")
        struct = tmp_path / "s.struct"
        struct.write_text("domain = {a}\np = {(): t}\n")
        r = CliRunner().invoke(main, ["eval", str(theory), str(struct)])
        assert (r.exit_code, r.stderr) == (2, "error: formula nested too deeply\n")
        assert "Traceback" not in r.output


class TestPresentation:
    def test_color_flag_styles_truth_values(self):
        r = CliRunner().invoke(
            main,
            ["eval", "--color", d("props.theory"), d("props_unknown.struct")],
            color=True,
        )
        assert r.exit_code == 0
        assert "\x1b[" in r.output

    def test_plain_output_has_no_escape_codes(self):
        r = CliRunner().invoke(
            main, ["eval", d("props.theory"), d("props_unknown.struct")]
        )
        assert "\x1b[" not in r.output


def test_supervaluation_cap_exhaustion(tmp_path):
    theory = tmp_path / "t.theory"
    theory.write_text(
        "vocab { p: pred/0; q: pred/0; r: pred/0; s: pred/0; }\n"
        "formula f { p | q | r | s }\n"
    )
    struct = tmp_path / "s.struct"
    # s is true: the Kleene value is t before any atom is completed
    struct.write_text("domain = {a}\ns = {(): t}\n")
    argv = ["eval", "-m", "super", str(theory), str(struct)]
    assert CliRunner().invoke(main, argv).output == "f: t\n"
    r = CliRunner().invoke(main, [*argv[:3], "--max-completions", "2", *argv[3:]])
    assert r.exit_code == 3
    assert r.stderr == "error: 3 unknown atoms exceed cap 2 (--max-completions)\n"


def test_structure_carrier_cap(tmp_path):
    # the cap is checked from the carrier's size, before it is built
    theory = tmp_path / "t.theory"
    theory.write_text("vocab { e: pred/2; }\n")
    struct = tmp_path / "s.struct"
    for domain, message in (
        ("{1..600}", "carrier of 360000 tuples exceeds cap 100000"),
        ("{a, 1..100000}", "domain of 100001 elements exceeds cap 100000"),
    ):
        struct.write_text(f"domain = {domain}\n")
        r = CliRunner().invoke(main, ["eval", str(theory), str(struct)])
        assert (r.exit_code, r.stderr) == (3, f"error: {message} (--max-carrier)\n")
    struct.write_text("domain = {1..20}\n")
    argv = ["eval", str(theory), str(struct)]
    assert CliRunner().invoke(main, argv).exit_code == 0
    r = CliRunner().invoke(main, [*argv[:1], "--max-carrier", "399", *argv[1:]])
    assert (r.exit_code, r.stderr) == (
        3, "error: carrier of 400 tuples exceeds cap 399 (--max-carrier)\n")


def test_tuple_length_cap(tmp_path):
    # one tuple of 2,000,000 arguments: refused before it is built, though
    # the carrier over {a} holds one tuple and the structure leaves p out
    theory = tmp_path / "t.theory"
    theory.write_text("vocab { p: pred/2000000; }\n")
    struct = tmp_path / "s.struct"
    struct.write_text("domain = {a}\n")
    start = time.perf_counter()
    r = CliRunner().invoke(main, ["eval", str(theory), str(struct)])
    assert time.perf_counter() - start < 1
    assert (r.exit_code, r.stderr) == (
        3, "error: tuples of 2000000 arguments exceed cap 100000 (--max-carrier)\n")


def test_definition_cap_holds_where_the_root_model_decides(tmp_path):
    theory = tmp_path / "t.theory"
    theory.write_text(
        "vocab { p: pred/0; q: pred/0; r: pred/0; }\n"
        "formula f { {q <- q & p & r.} }\n"
    )
    struct = tmp_path / "s.struct"
    # q is unfounded whatever p and r are, but the definition reads both
    struct.write_text("domain = {a}\np = {(): u}\nq = {(): t}\nr = {(): u}\n")
    argv = ["eval", str(theory), str(struct)]
    assert CliRunner().invoke(main, argv).output == "f: f\n"
    r = CliRunner().invoke(main, [*argv[:1], "--max-completions", "1", *argv[1:]])
    assert r.exit_code == 3
    assert r.stderr == "error: 2 unknown atoms exceed cap 1 (--max-completions)\n"


class TestModelExpansionSearch:
    """mx prunes where a constraint is f under Kleene; the oracle filters
    every completion (and every constant choice) in a flat loop."""

    C = Symbol("c", CONST)
    T1 = Symbol("t", pred(1))

    def oracle(self, theory, struct):
        constraints = [phi for _, phi in sorted(theory.formulas.items())]
        constraints += [DefinitionExpr(rs) for _, rs in sorted(theory.definitions.items())]
        consts = [s for s in [self.C] if s in theory.vocabulary and not struct.interprets(s)]
        out = []
        for base in exact_completions(struct, struct.predicate_symbols()):
            for elems in itertools.product(struct.domain, repeat=len(consts)):
                j = base
                for c, e in zip(consts, elems):
                    j = j.expand(c, e)
                if all(evaluate_exact(phi, j) is T for phi in constraints):
                    out.append(j)
        return out

    def theory(self, rng, with_const: bool, with_definition: bool):
        symbols = [*PROPS, P1] + ([self.C] if with_const else [])
        formulas = {
            f"f{n}": random_formula(rng, rng.randint(1, 3))
            for n in range(rng.randint(1, 3))
        }
        if with_const:
            formulas["fc"] = Or(Atom1(P1, (SymTerm(self.C),)), random_formula(rng, 1))
        definitions = {"d": random_ruleset(rng)} if with_definition else {}
        return Theory(Vocabulary.of(symbols), formulas, definitions)

    @pytest.mark.parametrize("with_const", [False, True])
    @pytest.mark.parametrize("with_definition", [False, True])
    def test_pruned_models_equal_the_flat_filter(self, with_const, with_definition):
        rng = random.Random(83 + 2 * with_const + with_definition)
        total = 0
        for _ in range(60):
            theory = self.theory(rng, with_const, with_definition)
            struct = random_interpretation(rng, domain=("a", "b"))
            got = list(_mx_models(theory, struct, DEFAULT_LIMITS))
            assert got == self.oracle(theory, struct)
            total += len(got)
        assert total > 0

    @pytest.mark.parametrize("const", ["none", "assigned", "unassigned"])
    def test_quantifier_and_card_constraints_equal_the_flat_filter(self, const):
        rng = random.Random(89 + len(const))
        x = Symbol("x0", CONST)
        total = 0
        for _ in range(60):
            formulas = {f"f{n}": random_formula(rng, rng.randint(1, 3))
                        for n in range(rng.randint(0, 2))}
            formulas["card"] = Aggregate(
                "card", rng.choice("=<>"), (x,),
                random_formula(rng, rng.randint(0, 2), domain_vars=(x,)),
                IntTerm(rng.randint(0, 2)))
            symbols = [*PROPS, P1]
            if const != "none":
                symbols.append(self.C)
                formulas["fc"] = Or(Atom1(P1, (SymTerm(self.C),)), random_formula(rng, 1))
            theory = Theory(Vocabulary.of(symbols), formulas)
            struct = random_interpretation(rng, domain=("a", "b"))
            if const == "assigned":
                struct = struct.expand(self.C, rng.choice(("a", "b")))
            got = list(_mx_models(theory, struct, DEFAULT_LIMITS))
            assert got == self.oracle(theory, struct)
            total += len(got)
        assert total > 0

    def test_a_card_constraint_cuts_where_its_leaf_turns_f(self, monkeypatch):
        # only the all-f completion of s satisfies c: valued at each node,
        # the card leaf turns f as soon as one s atom is t
        theory = parse_theory("vocab { s: pred/1; }\nformula c { #{x: s(x)} < 1 }\n")
        struct = read_structure("domain = {1..3}\n", theory.vocabulary)
        leaves = []
        monkeypatch.setattr(
            cli, "evaluate_exact", lambda *a: leaves.append(1) or evaluate_exact(*a))
        assert len(list(_mx_models(theory, struct, DEFAULT_LIMITS))) == 1
        assert len(leaves) == 1

    @pytest.mark.parametrize("first", ["bound", "uninterpreted"])
    def test_a_grounding_error_cuts_nothing_and_the_leaves_report_it(self, first, monkeypatch):
        # z is f everywhere but comes after the constraint whose grounding
        # raises, so no cut is made and the first leaf reports that error
        names = {"bound": "a", "uninterpreted": "b"} if first == "bound" else \
            {"bound": "b", "uninterpreted": "a"}
        theory = parse_theory(
            "vocab { p: pred/0; s: pred/1; t: pred/1; k: const; }\n"
            f"formula {names['bound']} {{ #{{x: s(x)}} > k }}\n"
            f"formula {names['uninterpreted']} {{ t(k) }}\nformula z {{ p & ~p }}\n")
        struct = read_structure("domain = {x1}\nk = x1\n", theory.vocabulary)
        struct = struct.restrict([s for s, _ in struct.assignments if s.name != "t"])
        # the search values each residual it may cut with at the root: none is
        searches, valued, branch = [], [], definitions._branch
        monkeypatch.setattr(definitions, "_branch", lambda g, xs, residuals, dead: searches.append(
            1) or branch(g, xs, residuals, lambda *a: valued.append(a) or dead(*a)))
        message = {"bound": "aggregate bound must be an integer",
                   "uninterpreted": "symbol t not interpreted"}[first]
        with pytest.raises(EvaluationError, match=f"^{message}$"):
            list(_mx_models(theory, struct, DEFAULT_LIMITS))
        assert searches == [1] and valued == []

    def test_constraints_of_every_node_kind_equal_the_flat_filter(self):
        # definitions, let-blocks, sums, second order quantifiers and atoms
        # cut once their atoms are assigned; the models come out in order,
        # and a search whose cut skips each raising completion returns the
        # models of the completions that answer
        rng, seen, kinds = random.Random(137), collections.Counter(), set()
        symbols = (*PROPS, P1, SO1, SO_HEAD)
        for n in range(200):
            formulas = {f"f{k}": random_tree(rng, rng.randint(1, 3))
                        for k in range(rng.randint(1, 3))}
            rules = {"d": random_ruleset(rng)} if n % 4 == 0 else {}
            theory = Theory(Vocabulary.of(symbols), formulas, rules)
            struct = random_partial(rng, symbols, rng.choice(((1,), (1, 2))))
            constraints = [*formulas.values()] + [DefinitionExpr(rs) for rs in rules.values()]
            limits = Limits(max_unknowns=rng.choice((3, 12)))
            got = value_or_error(lambda: list(_mx_models(theory, struct, limits)))
            want, errors, accepted = flat_filter(
                exact_completions(struct, struct.predicate_symbols()),
                lambda j: all(evaluate_exact(phi, j, limits) is T for phi in constraints))
            if len(struct.u_atoms(struct.predicate_symbols())) > limits.max_unknowns:
                want = (None, got[1])  # both check the cap first; oracle enumerates anyway
                assert got[1][0] is CapExceeded
            for phi in constraints:
                kinds |= node_kinds(phi)
            if got == want:
                seen["same " + ("models" if got[1] is None else "error")] += 1
            else:
                assert want[1] is not None and (got[1] in errors or got == (accepted, None))
                seen["a cut skipped a raising completion"] += 1
        assert seen["same models"] > 100 and seen["same error"] > 10, seen
        assert {"Atom2", "ForallSO", "ExistsSO", "sum", "DefinitionExpr", "Let"} <= kinds

    def test_the_driver_equals_the_cut_search_as_first_written(self, monkeypatch):
        # the same completions in order, or the same error, on constraints of
        # every node kind, in no more nodes than the cut search as first written
        rng, seen, kinds = random.Random(151), collections.Counter(), set()
        searches = driver_searches(monkeypatch)
        symbols = (*PROPS, P1, SO1, SO_HEAD)
        for n in range(200):
            constraints = [random_tree(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
            if n % 4 == 0:
                constraints.append(DefinitionExpr(random_ruleset(rng)))
            struct = random_partial(rng, symbols, rng.choice(((1,), (1, 2))))
            limits = Limits(max_unknowns=rng.choice((3, 12)))
            searches.clear()
            got = value_or_error(lambda: list(
                definitions.constrained_completions(constraints, struct, limits)))
            want = value_or_error(lambda: oracle_constrained_completions(constraints, struct, limits))
            for phi in constraints:
                kinds |= node_kinds(phi)
            if want[1] is not None:
                assert got == want
                seen["same error"] += 1
                continue
            (completions, nodes), visited = want[0], 1 + searches[0][0].assigned
            assert got == (completions, None)
            assert visited <= nodes
            atoms = len(struct.u_atoms(struct.predicate_symbols()))
            seen["cut"] += nodes < 2 ** (atoms + 1) - 1
            seen["a completion"] += bool(completions)
        assert seen["cut"] > 80 and seen["a completion"] > 25 and seen["same error"] > 20, seen
        assert {"Atom2", "ForallSO", "ExistsSO", "sum", "DefinitionExpr", "Let"} <= kinds

    def test_a_constraint_f_at_the_root_cuts_before_any_branch(self, monkeypatch):
        # p is t, so p & ~p is f before q or s is assigned: the root is cut,
        # and no completion reaches the leaves' exact check
        theory = parse_theory("vocab { p: pred/0; q: pred/0; s: pred/1; }\n"
                              "formula c { p & ~p }\n")
        struct = read_structure("domain = {1..3}\np = {(): t}\n", theory.vocabulary)
        leaves, searches = [], driver_searches(monkeypatch)
        monkeypatch.setattr(
            cli, "evaluate_exact", lambda *a: leaves.append(1) or evaluate_exact(*a))
        assert list(_mx_models(theory, struct, DEFAULT_LIMITS)) == []
        assert leaves == [] and searches[0][0].assigned == 0

    @pytest.mark.parametrize("order", ["ab", "ba"])
    def test_a_cut_leaf_that_raises_decides_nothing(self, order):
        # at s = t the let-block is non-total and z is f: the cut must not
        # drop the node, so the first completion's leaf reports the let's
        # error where the let comes first, and z's f before it otherwise
        let, z = ("a", "b") if order == "ab" else ("b", "a")
        theory = parse_theory(
            "vocab { q: pred/0; s: pred/0; }\n"
            f"formula {let} {{ let {{q <- ~q & s.}} in ~q }}\nformula {z} {{ ~s }}\n")
        struct = read_structure("domain = {x1}\n", theory.vocabulary)
        constraints = [phi for _, phi in sorted(theory.formulas.items())]
        want, _, _ = flat_filter(
            exact_completions(struct, struct.predicate_symbols()),
            lambda j: all(evaluate_exact(phi, j) is T for phi in constraints))
        assert value_or_error(lambda: list(_mx_models(theory, struct, DEFAULT_LIMITS))) == want
        if order == "ab":
            assert want[1] == (NonTotalDefinitionError,
                               "let-bound definition has no exact well-founded model")
        else:
            # q t, then f
            assert [j.value(theory.vocabulary.get("s")).values for j in want[0]] == [(F,), (F,)]

    def test_a_waiting_cut_leaf_is_valued_once_per_assignment_of_its_atoms(self, monkeypatch):
        # the let reads a and b, which are branched on first: it is valued
        # at the four nodes that assign both and keeps that value below
        theory = parse_theory("vocab { a: pred/0; b: pred/0; c: pred/1; q: pred/0; }\n"
                              "formula l { let {q <- a & b.} in ~q }\n")
        struct = read_structure("domain = {1..3}\n", theory.vocabulary)
        calls, wfm = [], definitions.well_founded_model
        monkeypatch.setattr(definitions, "well_founded_model",
                            lambda *a, **k: calls.append(1) or wfm(*a, **k))
        completions = definitions.constrained_completions(
            [*theory.formulas.values()], struct, DEFAULT_LIMITS)
        assert len(list(completions)) == 3 * 2 ** 4  # a & b cut, then c(1..3) and q
        assert len(calls) == 4

    def test_the_unknowns_cap_is_checked_before_the_cut_grounds(self, monkeypatch):
        # 300 u atoms against cap 20: the cap error comes at once, with no
        # constraint ground into the cut
        theory = parse_theory("vocab { p: pred/2; }\nformula c { !x: #{y: p(x, y)} > 0 }\n")
        struct = read_structure("domain = {1..300}\n", theory.vocabulary)
        grounders, ground = [], definitions._Ground
        monkeypatch.setattr(definitions, "_Ground", lambda *a, **k: grounders.append(1) or
                            ground(*a, **k))
        limits = Limits(max_unknowns=20, max_carrier=100_000)
        with pytest.raises(CapExceeded, match=r"^90000 unknown atoms exceed cap 20 "):
            list(_mx_models(theory, struct, limits))
        assert grounders == []

    def test_probe_errors_are_left_to_the_leaves(self):
        # no completion satisfies a, so no leaf evaluates b, whose bound
        # is not an integer; a probe must not report b's error either
        theory = parse_theory(
            "vocab { p: pred/0; s: pred/1; k: const; }\n"
            "formula a { p & ~p }\nformula b { #{x: s(x)} > k }\n"
        )
        struct = read_structure("domain = {x1}\nk = x1\n", theory.vocabulary)
        assert list(_mx_models(theory, struct, DEFAULT_LIMITS)) == []

    def test_sum_constraint_is_only_checked_at_the_leaves(self):
        # 6 unknown atoms but 9 unknown aggregate entries: a Kleene probe
        # would exceed cap 8, the leaves do not
        vocab = Vocabulary.of([P0, P1, self.T1])
        theory = Theory(vocab, {
            "big": parse_formula("sum{x, y: s(x) & t(y)} > 8", vocab),
            "no_p": parse_formula("~p", vocab),
        })
        struct = read_structure("domain = {1..3}\np = {(): f}\n", vocab)
        limits = Limits(max_unknowns=8)
        with pytest.raises(CapExceeded):
            evaluate(theory.formulas["big"], struct, KLEENE, limits)
        got = list(_mx_models(theory, struct, limits))
        assert got == self.oracle(theory, struct)
        assert len(got) == 11
