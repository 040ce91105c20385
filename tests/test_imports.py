"""Module boundaries of the package: no module imports another module's
private names, every import sits at module level, every imported name is
used, and every definition is named somewhere outside itself."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ordtopo"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_level_public_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, f"{path.name}:{node.lineno} imports {private}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                assert not isinstance(inner, (ast.Import, ast.ImportFrom)), \
                    f"{path.name}:{inner.lineno} imports inside {getattr(node, 'name', 'a lambda')}"


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # __init__.py re-exports, so its imports are its API
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                name = (a.asname or a.name).split(".")[0]
                imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        while isinstance(node, ast.Attribute):
            node = node.value
        if isinstance(node, ast.Name):
            used.add(node.id)
    unused = sorted(set(imported) - used)
    assert not unused, f"{path.name} imports {unused} and never uses them"


def _definitions(tree):
    """(name, first line, last line) of each top-level function and class,
    and of each method but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("__"):
                    yield item.name, item.lineno, item.end_lineno


def _names(tree):
    """(name, line) for each name, attribute and imported name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno


def test_every_definition_is_referenced():
    # __init__.py re-exports, so its definitions are its API
    uses = {}
    for path in sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")):
        for name, line in _names(ast.parse(path.read_text(), filename=str(path))):
            uses.setdefault(name, []).append((path, line))
    unused = [f"{path.name}:{first} {name}"
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
              for name, first, last in _definitions(ast.parse(path.read_text()))
              if all(p == path and first <= line <= last
                     for p, line in uses.get(name, ()))]
    assert not unused, f"defined but never named elsewhere: {unused}"
