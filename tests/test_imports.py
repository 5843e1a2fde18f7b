"""No module of the package or of its tests imports a name it never uses.

A stdlib `ast` scan: every name an import statement binds must be read
somewhere in the module, or be listed in its `__all__`.  Leftovers of
deleted code show up here first."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
MODULES = sorted([*(ROOT / "src" / "deflog").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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


@pytest.mark.parametrize("path", MODULES, ids=[f"{p.parent.name}/{p.name}" for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [
        "line 1: os", "line 2: d"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []
    assert unused_imports("import a.b\na.b.c()\n") == []
