"""Batch command line frontend.

One verb per semantic operation; files in the theory / structure text
formats.  Exit codes: 0 success, 1 semantic "no model / not total /
check failed", 2 input error, 3 resource cap exhausted.  Output is
deterministic: atoms and names are sorted before printing, and JSON
output uses stable key order.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from .definitions import _refuter, stable_models, well_founded_model
from .errors import CapExceeded, DeflogError, NonTotalDefinitionError
from .evaluator import KLEENE, SUPERVALUATION, evaluate, evaluate_exact
from .interpretation import (
    PartialInterpretation, _fmt_elem, _fmt_key, read_structure,
    write_structure,
)
from .limits import DEFAULT_LIMITS, Limits
from .parser import Theory, parse_theory
from .syntax import DefinitionExpr, classify, free_symbols, typecheck, unparse
from .templates import (
    Template, TemplateLibrary, apply_library, eliminate_so, macro_expand,
    sigma_equivalent, validate_library,
)
from .truthvalues import T

EXIT_NO_MODEL = 1
EXIT_INPUT = 2
EXIT_CAP = 3

_TV_COLORS = {"t": "green", "u": "yellow", "f": "red"}


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _handles_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CapExceeded as exc:
            _fail(EXIT_CAP, str(exc))
        except NonTotalDefinitionError as exc:
            _fail(EXIT_NO_MODEL, str(exc))
        except (DeflogError, OSError, UnicodeDecodeError) as exc:
            _fail(EXIT_INPUT, str(exc))
        except RecursionError:  # nested parentheses, => chains, walkers with scope
            _fail(EXIT_INPUT, "formula nested too deeply")

    return wrapper


# the cap flags every verb takes: flag, Limits field, help
_LIMIT_FLAGS = (
    ("--max-atoms", "max_defined_atoms", "Cap on defined atoms in model enumerations."),
    ("--max-completions", "max_unknowns",
     "Cap n on unknown atoms completed at once (2^n completions)."),
    ("--max-carrier", "max_carrier", "Cap on tuples in one predicate carrier and domain elements."),
)


def _limit_options(fn):
    """The cap flags, passed to fn as one `limits` argument."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        caps = {field: kwargs.pop(field) for _, field, _ in _LIMIT_FLAGS}
        limits = DEFAULT_LIMITS.with_(**{k: v for k, v in caps.items() if v is not None})
        return fn(*args, limits=limits, **kwargs)

    for flag, field, text in _LIMIT_FLAGS:
        wrapper = click.option(flag, field, type=int, default=None, help=text)(wrapper)
    return wrapper


def _read_theory(path: str) -> Theory:
    with open(path, encoding="utf-8") as f:
        return parse_theory(f.read())


def _read_struct(path: str, theory: Theory, limits: Limits) -> PartialInterpretation:
    with open(path, encoding="utf-8") as f:
        return read_structure(f.read(), theory.vocabulary, limits)


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
    for sym, value in i.assignments:
        if sym.type.is_predicate:
            symbols[sym.name] = {_fmt_key(k): v.value for k, v in value.items()}
        else:
            symbols[sym.name] = _fmt_elem(value)
    return {"domain": [_fmt_elem(e) for e in i.domain], "symbols": symbols}


def _echo_json(payload) -> None:
    click.echo(json.dumps(payload, sort_keys=True, indent=2))


def _styled_tv(v: str, color: bool) -> str:
    return click.style(v, fg=_TV_COLORS[v]) if color else v


@click.group()
def main() -> None:
    """Three-valued evaluation, rule set semantics and template rewriting
    over finite structures."""


@main.command("typecheck")
@click.argument("theory_file")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@_handles_errors
def typecheck_cmd(theory_file: str, as_json: bool) -> None:
    """Type check every formula, definition and template in a theory."""
    theory = _read_theory(theory_file)
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


@main.command("classify")
@click.argument("theory_file")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@_handles_errors
def classify_cmd(theory_file: str, as_json: bool) -> None:
    """Report the smallest syntactic fragment of each formula/definition."""
    theory = _read_theory(theory_file)
    rows = {where: classify(obj) for where, obj in _items(theory, ("formula", "definition"))}
    if as_json:
        _echo_json(rows)
    else:
        for where, frag in rows.items():
            click.echo(f"{where}: {frag}")


@main.command("eval")
@click.argument("theory_file")
@click.argument("structure_file")
@click.option(
    "-m", "--mode", type=click.Choice(["kleene", "super"]), default="kleene",
    show_default=True, help="Evaluation mode.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@click.option("--color", is_flag=True, help="Colorize truth values.")
@_limit_options
@_handles_errors
def eval_cmd(
    theory_file: str, structure_file: str, mode: str, as_json: bool,
    color: bool, limits: Limits,
) -> None:
    """Evaluate every named formula of a theory against a structure."""
    theory = _read_theory(theory_file)
    struct = _read_struct(structure_file, theory, limits)
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


def _definition_context(theory, struct, ruleset):
    """Restrict a structure to the parameters of a definition."""
    params = sorted(ruleset.parameters, key=lambda s: s.name)
    missing = [p.name for p in params if not struct.interprets(p)]
    if missing:
        _fail(EXIT_INPUT, f"structure does not interpret parameter(s) {', '.join(missing)}")
    return struct.restrict(params)


@main.command("wfm")
@click.argument("theory_file")
@click.argument("structure_file")
@click.option("-d", "--definition", "def_name", default=None, help="Definition name.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@_limit_options
@_handles_errors
def wfm_cmd(
    theory_file: str, structure_file: str, def_name, as_json: bool, limits: Limits,
) -> None:
    """Print the well-founded model of a definition in a context structure."""
    theory = _read_theory(theory_file)
    struct = _read_struct(structure_file, theory, limits)
    _, rs = _pick("definition", theory.definitions, def_name)
    context = _definition_context(theory, struct, rs)
    wfm = well_founded_model(rs, context, limits)
    if as_json:
        _echo_json(_struct_json(wfm))
    else:
        click.echo(write_structure(wfm), nl=False)


@main.command("stable")
@click.argument("theory_file")
@click.argument("structure_file")
@click.option("-d", "--definition", "def_name", default=None, help="Definition name.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@_limit_options
@_handles_errors
def stable_cmd(
    theory_file: str, structure_file: str, def_name, as_json: bool, limits: Limits,
) -> None:
    """List all stable models of a definition in a context structure."""
    theory = _read_theory(theory_file)
    struct = _read_struct(structure_file, theory, limits)
    name, rs = _pick("definition", theory.definitions, def_name)
    context = _definition_context(theory, struct, rs)
    models = sorted(stable_models(rs, context, limits), key=write_structure)
    if as_json:
        _echo_json({"count": len(models), "models": [_struct_json(m) for m in models]})
    else:
        for n, m in enumerate(models, 1):
            click.echo(f"model {n}:")
            click.echo(write_structure(m), nl=False)
        click.echo(f"{len(models)} stable model(s)")
    if not models:
        sys.exit(EXIT_NO_MODEL)


def _mx_models(theory: Theory, struct: PartialInterpretation, limits: Limits):
    """Exact expansions of `struct` satisfying every formula and definition."""
    constraints = [phi for _, phi in sorted(theory.formulas.items())]
    constraints += [
        DefinitionExpr(rs) for _, rs in sorted(theory.definitions.items())
    ]
    if theory.templates:
        # template symbols have a fixed meaning: pin them, don't guess them
        lib = _library(theory)
        template_syms = set(lib.template_symbols())
        struct = struct.restrict(
            [s for s, _ in struct.assignments if s not in template_syms]
        )
        struct = apply_library(struct, lib, limits)
    consts = sorted(
        (
            s for s in theory.vocabulary
            if s.type.kind == "const" and not struct.interprets(s)
        ),
        key=lambda s: s.name,
    )
    # a residual f refutes a subtree; no grounding while constants are unassigned
    refuted = None if consts else _refuter(constraints, struct, limits)
    for base in struct.completions(struct.predicate_symbols(), limits, refuted):
        stack = [base]
        for c in consts:
            stack = [j.expand(c, d) for j in stack for d in base.domain]
        for j in stack:
            if all(evaluate_exact(phi, j, limits) is T for phi in constraints):
                yield j


@main.command("mx")
@click.argument("theory_file")
@click.argument("structure_file")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@_limit_options
@_handles_errors
def mx_cmd(
    theory_file: str, structure_file: str, as_json: bool, limits: Limits,
) -> None:
    """Model expansion: stream all exact expansions of a partial structure
    that satisfy every formula and definition of the theory."""
    theory = _read_theory(theory_file)
    struct = _read_struct(structure_file, theory, limits)
    count = 0
    collected = []
    for m in _mx_models(theory, struct, limits):
        count += 1
        if as_json:
            collected.append(_struct_json(m))
        else:
            click.echo(f"model {count}:")
            click.echo(write_structure(m), nl=False)
    if as_json:
        _echo_json({"count": count, "models": collected})
    else:
        click.echo(f"{count} model(s)")
    if count == 0:
        sys.exit(EXIT_NO_MODEL)


def _expand_equivalent(phi, expanded, lib, limits) -> bool:
    """Exact-model agreement of a formula and its macro expansion at |D| <= 2."""
    from .templates import _exact_interpretations

    template_syms = set(lib.template_symbols())
    sigma = sorted(
        {s for s in free_symbols(phi) | free_symbols(expanded)}
        - template_syms,
        key=lambda s: s.name,
    )
    for domain in (("a",), ("a", "b")):
        for base in _exact_interpretations(sigma, domain, limits):
            with_templates = apply_library(base, lib, limits)
            lhs = evaluate_exact(phi, with_templates, limits)
            rhs = evaluate_exact(expanded, base, limits)
            if lhs is not rhs:
                return False
    return True


@main.command("expand")
@click.argument("theory_file")
@click.option("-f", "--formula", "formula_name", default=None, help="Formula name.")
@click.option(
    "--check-equiv", is_flag=True,
    help="Verify the expansion against the original by model enumeration at |D| <= 2.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@_limit_options
@_handles_errors
def expand_cmd(
    theory_file: str, formula_name, check_equiv: bool, as_json: bool, limits: Limits,
) -> None:
    """Macro-expand the template atoms of a formula using the theory's
    templates as a library of simple templates."""
    theory = _read_theory(theory_file)
    name, phi = _pick("formula", theory.formulas, formula_name)
    lib = _library(theory)
    expanded = macro_expand(phi, lib, limits)
    verdict = None
    if check_equiv:
        verdict = "pass" if _expand_equivalent(phi, expanded, lib, limits) else "fail"
    if as_json:
        payload = {"formula": name, "expanded": unparse(expanded)}
        if verdict is not None:
            payload["equiv"] = verdict
        _echo_json(payload)
    else:
        click.echo(unparse(expanded))
        if verdict is not None:
            click.echo(f"equiv: {verdict}")
    if verdict == "fail":
        sys.exit(EXIT_NO_MODEL)


@main.command("eliminate-so")
@click.argument("theory_file")
@click.option("-f", "--formula", "formula_name", default=None, help="Formula name.")
@click.option(
    "--check-equiv", is_flag=True,
    help="Verify the rewrite by restricted-model enumeration at |D| <= 2.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@_limit_options
@_handles_errors
def eliminate_so_cmd(
    theory_file: str, formula_name, check_equiv: bool, as_json: bool, limits: Limits,
) -> None:
    """Rewrite an existential second order formula into a first order one
    over fresh free predicate symbols."""
    theory = _read_theory(theory_file)
    name, phi = _pick("formula", theory.formulas, formula_name)
    matrix, skolems = eliminate_so(phi)
    verdict = None
    if check_equiv:
        sigma = sorted(free_symbols(phi), key=lambda s: s.name)
        verdict = "pass"
        for domain in (("a",), ("a", "b")):
            if not sigma_equivalent(phi, matrix, sigma, domain, limits):
                verdict = "fail"
                break
    skolem_rows = [(s.name, str(s.type)) for s in skolems]
    if as_json:
        payload = {
            "formula": name,
            "rewritten": unparse(matrix),
            "skolems": [{"name": n, "type": t} for n, t in skolem_rows],
        }
        if verdict is not None:
            payload["equiv"] = verdict
        _echo_json(payload)
    else:
        for n, t in skolem_rows:
            click.echo(f"skolem {n}: {t}")
        click.echo(unparse(matrix))
        if verdict is not None:
            click.echo(f"equiv: {verdict}")
    if verdict == "fail":
        sys.exit(EXIT_NO_MODEL)


@main.command("validate-lib")
@click.argument("theory_file")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@_limit_options
@_handles_errors
def validate_lib_cmd(theory_file: str, as_json: bool, limits: Limits) -> None:
    """Validate the theory's templates as a stratified library."""
    theory = _read_theory(theory_file)
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


@main.command("apply-lib")
@click.argument("theory_file")
@click.argument("structure_file")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@_limit_options
@_handles_errors
def apply_lib_cmd(
    theory_file: str, structure_file: str, as_json: bool, limits: Limits,
) -> None:
    """Expand a structure with the value of every template symbol."""
    theory = _read_theory(theory_file)
    struct = _read_struct(structure_file, theory, limits)
    lib = _library(theory)
    template_syms = set(lib.template_symbols())
    base = struct.restrict(
        [s for s, _ in struct.assignments if s not in template_syms]
    )
    expanded = apply_library(base, lib, limits)
    if as_json:
        _echo_json(_struct_json(expanded))
    else:
        click.echo(write_structure(expanded), nl=False)


if __name__ == "__main__":
    main()
