"""Batch command line frontend.

One verb per semantic operation; files in the theory / structure text
formats.  Every verb is registered through one frame, `_verb`.  The frame
adds THEORY_FILE (and STRUCTURE_FILE for the verbs that read a
structure), `--json`, and the cap flags of `limits.CAP_FLAGS` for the
verbs that enumerate.  It reads the files as UTF-8 with or without a
byte-order mark, parses them, and passes the verb body `theory`,
`struct` and one `limits`.  It maps every error to an exit code: 0
success, 1 semantic "no model / not total / check failed", 2 input
error, 3 resource cap exhausted.  Output is deterministic: atoms and
names are sorted before printing, and JSON output uses stable key order.
"""

from __future__ import annotations

import json
import sys

import click

from .definitions import constrained_completions, stable_models, well_founded_model
from .errors import CapExceeded, DeflogError, NonTotalDefinitionError
from .evaluator import KLEENE, SUPERVALUATION, evaluate, evaluate_exact
from .interpretation import (
    PartialInterpretation, _fmt_elem, _key_formatter, read_structure,
    write_structure,
)
from .limits import CAP_FLAGS, DEFAULT_LIMITS, Limits
from .parser import Theory, parse_theory
from .syntax import DefinitionExpr, classify, free_symbols, typecheck, unparse
from .templates import (
    Template, TemplateLibrary, _sigma_bases, apply_library,
    eliminate_so, macro_expand, sigma_equivalent, validate_library,
)
from .truthvalues import T

EXIT_NO_MODEL = 1
EXIT_INPUT = 2
EXIT_CAP = 3

_TV_COLORS = {"t": "green", "u": "yellow", "f": "red"}
# the domains --check-equiv enumerates models over
_EQUIV_DOMAINS = (("a",), ("a", "b"))


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read(path: str) -> str:
    with open(path, encoding="utf-8-sig") as f:
        return f.read()


@click.group()
def main() -> None:
    """Three-valued evaluation, rule set semantics and template rewriting
    over finite structures."""


def _verb(name: str, structure: bool = False, caps: bool = True):
    """Register the decorated body as verb `name`.  The body is called with
    the parsed `theory`, `as_json`, its own options, `limits` if `caps` and
    the read `struct` if `structure`."""
    def register(body):
        def run(theory_file: str, structure_file: str | None = None, **options) -> None:
            try:
                if caps:
                    options["limits"] = DEFAULT_LIMITS.with_(**{
                        field: value for _, field, _ in CAP_FLAGS
                        if (value := options.pop(field)) is not None})
                theory = parse_theory(_read(theory_file))
                if structure:
                    options["struct"] = read_structure(
                        _read(structure_file), theory.vocabulary, options["limits"])
                body(theory, **options)
            except CapExceeded as exc:
                _fail(EXIT_CAP, str(exc))
            except NonTotalDefinitionError as exc:
                _fail(EXIT_NO_MODEL, str(exc))
            except (DeflogError, OSError, UnicodeDecodeError) as exc:
                _fail(EXIT_INPUT, str(exc))
            except RecursionError:  # deep input to what recurses per level: the type
                # checker, substitution, the grounder, the evaluator's closures
                _fail(EXIT_INPUT, "formula nested too deeply")

        params = [click.Argument(["theory_file"])]
        if structure:
            params.append(click.Argument(["structure_file"]))
        params += reversed(getattr(body, "__click_params__", []))
        params.append(click.Option(["--json", "as_json"], is_flag=True, help="Emit JSON."))
        if caps:
            params += [click.Option([flag, field], type=click.IntRange(min=0), help=text)
                       for flag, field, text in CAP_FLAGS]
        return main.command(name, params=params, help=body.__doc__)(run)

    return register


def _library(theory: Theory) -> TemplateLibrary:
    return TemplateLibrary(
        tuple(Template(name, rs) for name, rs in theory.templates.items())
    )


def _items(theory: Theory, kinds: tuple) -> list:
    """("kind name", item) for the theory's items of each kind, by name."""
    return [(f"{kind} {name}", obj) for kind in kinds
            for name, obj in sorted(getattr(theory, f"{kind}s").items())]


def _pick(kind: str, table: dict, name: str | None):
    if not table:
        _fail(EXIT_INPUT, f"theory contains no {kind}")
    if name is None:
        if len(table) > 1:
            _fail(
                EXIT_INPUT,
                f"theory has several {kind}s ({', '.join(sorted(table))}); pick one",
            )
        return next(iter(table.items()))
    if name not in table:
        _fail(EXIT_INPUT, f"no {kind} named {name!r}")
    return name, table[name]


def _struct_json(i: PartialInterpretation) -> dict:
    symbols: dict = {}
    fmt_key = _key_formatter()
    for sym, value in i.assignments:
        if sym.type.is_predicate:
            symbols[sym.name] = {fmt_key(k): v.value for k, v in value.items()}
        else:
            symbols[sym.name] = _fmt_elem(value)
    return {"domain": [_fmt_elem(e) for e in i.domain], "symbols": symbols}


def _echo_json(payload) -> None:
    click.echo(json.dumps(payload, sort_keys=True, indent=2))


def _echo_struct(i: PartialInterpretation, as_json: bool) -> None:
    if as_json:
        _echo_json(_struct_json(i))
    else:
        click.echo(write_structure(i), nl=False)


def _echo_models(models, as_json: bool, noun: str) -> None:
    """Print (text or None, model) pairs as they come, then their count; exit 1 on none."""
    count, collected = 0, []
    for count, (text, m) in enumerate(models, 1):
        if as_json:
            collected.append(_struct_json(m))
        else:
            click.echo(f"model {count}:")
            click.echo(text or write_structure(m), nl=False)
    if as_json:
        _echo_json({"count": count, "models": collected})
    else:
        click.echo(f"{count} {noun}")
    if count == 0:
        sys.exit(EXIT_NO_MODEL)


def _styled_tv(v: str, color: bool) -> str:
    return click.style(v, fg=_TV_COLORS[v]) if color else v


@_verb("typecheck", caps=False)
def typecheck_cmd(theory: Theory, as_json: bool) -> None:
    """Type check every formula, definition and template in a theory."""
    problems: dict = {}
    for where, obj in _items(theory, ("formula", "definition", "template")):
        diags = typecheck(obj, theory.vocabulary)
        if diags:
            problems[where] = diags
    if as_json:
        _echo_json({"ok": not problems, "problems": problems})
    else:
        for where, diags in problems.items():
            for d in diags:
                click.echo(f"{where}: {d}")
        if not problems:
            click.echo("ok")
    if problems:
        sys.exit(EXIT_INPUT)


@_verb("classify", caps=False)
def classify_cmd(theory: Theory, as_json: bool) -> None:
    """Report the smallest syntactic fragment of each formula/definition."""
    rows = {where: classify(obj) for where, obj in _items(theory, ("formula", "definition"))}
    if as_json:
        _echo_json(rows)
    else:
        for where, frag in rows.items():
            click.echo(f"{where}: {frag}")


@_verb("eval", structure=True)
@click.option(
    "-m", "--mode", type=click.Choice(["kleene", "super"]), default="kleene",
    show_default=True, help="Evaluation mode.",
)
@click.option("--color", is_flag=True, help="Colorize truth values.")
def eval_cmd(
    theory: Theory, struct: PartialInterpretation, mode: str, as_json: bool,
    color: bool, limits: Limits,
) -> None:
    """Evaluate every named formula of a theory against a structure."""
    emode = KLEENE if mode == "kleene" else SUPERVALUATION
    results = {
        name: evaluate(phi, struct, emode, limits).value
        for name, phi in sorted(theory.formulas.items())
    }
    if as_json:
        _echo_json(results)
    else:
        for name, v in results.items():
            click.echo(f"{name}: {_styled_tv(v, color)}")


def _definition_context(struct, ruleset):
    """Restrict a structure to the parameters of a definition."""
    params = sorted(ruleset.parameters, key=lambda s: s.name)
    missing = [p.name for p in params if not struct.interprets(p)]
    if missing:
        _fail(EXIT_INPUT, f"structure does not interpret parameter(s) {', '.join(missing)}")
    return struct.restrict(params)


@_verb("wfm", structure=True)
@click.option("-d", "--definition", "def_name", default=None, help="Definition name.")
def wfm_cmd(
    theory: Theory, struct: PartialInterpretation, def_name, as_json: bool, limits: Limits,
) -> None:
    """Print the well-founded model of a definition in a context structure."""
    _, rs = _pick("definition", theory.definitions, def_name)
    _echo_struct(well_founded_model(rs, _definition_context(struct, rs), limits), as_json)


@_verb("stable", structure=True)
@click.option("-d", "--definition", "def_name", default=None, help="Definition name.")
def stable_cmd(
    theory: Theory, struct: PartialInterpretation, def_name, as_json: bool, limits: Limits,
) -> None:
    """List all stable models of a definition in a context structure."""
    _, rs = _pick("definition", theory.definitions, def_name)
    context = _definition_context(struct, rs)
    models = ((write_structure(m), m) for m in stable_models(rs, context, limits))
    _echo_models(sorted(models, key=lambda tm: tm[0]), as_json, "stable model(s)")


def _with_templates(theory: Theory, struct: PartialInterpretation, limits: Limits):
    """struct with every template symbol given its library value: template
    symbols have a fixed meaning, so the values struct gives them are dropped."""
    lib = _library(theory)
    template_syms = set(lib.template_symbols())
    base = struct.restrict([s for s, _ in struct.assignments if s not in template_syms])
    return apply_library(base, lib, limits)


def _mx_models(theory: Theory, struct: PartialInterpretation, limits: Limits):
    """Exact expansions of `struct` satisfying every formula and definition."""
    constraints = [phi for _, phi in sorted(theory.formulas.items())]
    constraints += [
        DefinitionExpr(rs) for _, rs in sorted(theory.definitions.items())
    ]
    if theory.templates:
        # pin template symbols, don't guess them
        struct = _with_templates(theory, struct, limits)
    consts = sorted(
        (
            s for s in theory.vocabulary
            if s.type.kind == "const" and not struct.interprets(s)
        ),
        key=lambda s: s.name,
    )
    # a residual f refutes a subtree, unless a constant is unassigned
    for j in constrained_completions(constraints, struct, limits, consts):
        if all(evaluate_exact(phi, j, limits) is T for phi in constraints):
            yield j


@_verb("mx", structure=True)
def mx_cmd(
    theory: Theory, struct: PartialInterpretation, as_json: bool, limits: Limits,
) -> None:
    """Model expansion: stream all exact expansions of a partial structure
    that satisfy every formula and definition of the theory."""
    _echo_models(((None, m) for m in _mx_models(theory, struct, limits)), as_json, "model(s)")


def _echo_rewrite(payload: dict, lines: list, equivalent, check_equiv: bool,
                  as_json: bool) -> None:
    """Print a rewrite as the JSON payload or the text lines, with the
    verdict of equivalent() under --check-equiv; exit 1 when it is fail."""
    verdict = None
    if check_equiv:
        verdict = "pass" if equivalent() else "fail"
        payload["equiv"] = verdict
        lines.append(f"equiv: {verdict}")
    if as_json:
        _echo_json(payload)
    else:
        for line in lines:
            click.echo(line)
    if verdict == "fail":
        sys.exit(EXIT_NO_MODEL)


def _expand_equivalent(phi, expanded, lib, limits) -> bool:
    """Exact-model agreement of a formula and its macro expansion at |D| <= 2,
    on the interpretations of their other symbols as `mx` enumerates them."""
    template_syms = set(lib.template_symbols())
    sigma = sorted((free_symbols(phi) | free_symbols(expanded)) - template_syms,
                   key=lambda s: s.name)
    for domain in _EQUIV_DOMAINS:
        for base in _sigma_bases(sigma, domain, limits):
            with_templates = apply_library(base, lib, limits)
            lhs = evaluate_exact(phi, with_templates, limits)
            rhs = evaluate_exact(expanded, base, limits)
            if lhs is not rhs:
                return False
    return True


@_verb("expand")
@click.option("-f", "--formula", "formula_name", default=None, help="Formula name.")
@click.option(
    "--check-equiv", is_flag=True,
    help="Verify the expansion against the original by model enumeration at |D| <= 2.",
)
def expand_cmd(
    theory: Theory, formula_name, check_equiv: bool, as_json: bool, limits: Limits,
) -> None:
    """Macro-expand the template atoms of a formula using the theory's
    templates as a library of simple templates."""
    name, phi = _pick("formula", theory.formulas, formula_name)
    lib = _library(theory)
    expanded = macro_expand(phi, lib, limits)
    _echo_rewrite(
        {"formula": name, "expanded": unparse(expanded)}, [unparse(expanded)],
        lambda: _expand_equivalent(phi, expanded, lib, limits), check_equiv, as_json)


@_verb("eliminate-so")
@click.option("-f", "--formula", "formula_name", default=None, help="Formula name.")
@click.option(
    "--check-equiv", is_flag=True,
    help="Verify the rewrite by restricted-model enumeration at |D| <= 2.",
)
def eliminate_so_cmd(
    theory: Theory, formula_name, check_equiv: bool, as_json: bool, limits: Limits,
) -> None:
    """Rewrite an existential second order formula into a first order one
    over fresh free predicate symbols."""
    name, phi = _pick("formula", theory.formulas, formula_name)
    matrix, skolems = eliminate_so(phi)
    sigma = sorted(free_symbols(phi), key=lambda s: s.name)
    skolem_rows = [(s.name, str(s.type)) for s in skolems]
    _echo_rewrite(
        {
            "formula": name,
            "rewritten": unparse(matrix),
            "skolems": [{"name": n, "type": t} for n, t in skolem_rows],
        },
        [*(f"skolem {n}: {t}" for n, t in skolem_rows), unparse(matrix)],
        lambda: all(sigma_equivalent(phi, matrix, sigma, domain, limits)
                    for domain in _EQUIV_DOMAINS),
        check_equiv, as_json)


@_verb("validate-lib")
def validate_lib_cmd(theory: Theory, as_json: bool, limits: Limits) -> None:
    """Validate the theory's templates as a stratified library."""
    report = validate_library(_library(theory), limits=limits)
    if as_json:
        _echo_json(
            {
                "ok": report.ok,
                "order": [t.name for t in report.order],
                "problems": report.problems,
                "skipped_contexts": report.skipped_contexts,
            }
        )
    else:
        click.echo("order: " + ", ".join(t.name for t in report.order))
        for p in report.problems:
            click.echo(f"problem: {p}")
        if report.skipped_contexts:
            click.echo(f"skipped contexts: {report.skipped_contexts}")
        click.echo("ok" if report.ok else "not ok")
    if not report.ok:
        sys.exit(EXIT_NO_MODEL)


@_verb("apply-lib", structure=True)
def apply_lib_cmd(
    theory: Theory, struct: PartialInterpretation, as_json: bool, limits: Limits,
) -> None:
    """Expand a structure with the value of every template symbol."""
    _echo_struct(_with_templates(theory, struct, limits), as_json)


if __name__ == "__main__":
    main()
