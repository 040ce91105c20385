"""Module boundaries of the package: no module imports another module's
private names, and every import sits at module level."""

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
