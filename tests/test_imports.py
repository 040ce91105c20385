"""Module boundaries of the package: no module imports another module's
private names, every import sits at module level, and every imported name
is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ordtopo"


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
