"""No module of the package or of its tests imports a name it never uses,
and no function of the package takes a parameter it never reads.

Two stdlib `ast` scans.  Every name an import statement binds must be read
somewhere in the module, or be listed in its `__all__`.  Every parameter of
every `def` in the package must be read in its body, nested functions
included, unless it is named `_` or listed in `UNREAD` with its reason.
Leftovers of deleted code show up here first."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = sorted((ROOT / "src" / "deflog").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])

# the parameters a function takes but does not read, each with its reason
UNREAD = {
    **dict.fromkeys(("evaluator.py: _atom1(kids)", "evaluator.py: _atom2(kids)",
                     "evaluator.py: _cmp(kids)", "evaluator.py: _definition(kids)"),
                    "the compile protocol hands every case its sub-formulas' closures"),
    **dict.fromkeys(("evaluator.py: _atom1.keys(ctx)", "evaluator.py: _cmp.cmp(ctx)"),
                    "every closure takes (i, env, ctx); these record nothing"),
    **dict.fromkeys(("templates.py: check_correspondence(d)",
                     "templates.py: check_correspondence(dt)"),
                    "the correspondence is stated over both rule sets; the values suffice"),
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}  # name -> line of the import binding it
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ are exported
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def unread_parameters(source: str, module: str = "") -> list[str]:
    """"module: qualified.name(parameter)" for each parameter of a `def` in
    source that its body, nested functions and lambdas included, never reads."""
    out = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                read = {n.id for b in child.body for n in ast.walk(b) if isinstance(n, ast.Name)}
                out.extend(f"{module}: {prefix}{child.name}({p.arg})" for p in (
                    *a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg)))
                    if p.arg != "_" and p.arg not in read)
                visit(child, f"{prefix}{child.name}.")
            else:
                named = isinstance(child, ast.ClassDef)
                visit(child, f"{prefix}{child.name}." if named else prefix)

    visit(ast.parse(source), "")
    return out


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [
        "line 1: os", "line 2: d"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []
    assert unused_imports("import a.b\na.b.c()\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=[p.name for p in PACKAGE])
def test_every_parameter_is_read(path):
    found = unread_parameters(path.read_text(encoding="utf-8"), path.name)
    assert [p for p in found if p not in UNREAD] == []


def test_every_listed_unread_parameter_is_still_unread():
    found = {p for path in PACKAGE for p in unread_parameters(path.read_text(encoding="utf-8"),
                                                              path.name)}
    assert set(UNREAD) <= found


def test_the_scan_sees_an_unread_parameter():
    source = ("def f(a, b, *c, d=1, **e):\n    def g(self, _):\n        return a\n"
              "    return lambda: d\n"
              "class K:\n    def m(self, x):\n        return self\n")
    assert unread_parameters(source, "m.py") == [
        "m.py: f(b)", "m.py: f(c)", "m.py: f(e)", "m.py: f.g(self)", "m.py: K.m(x)"]
