"""No module of the package (bar its ``__init__``) or of the tests imports a
name it never reads.

A change that deletes code tends to leave its imports behind, and no linter
is part of the toolchain, so this check reads each file's syntax tree with
the standard library alone.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = [
    *sorted(p for p in (ROOT / "src" / "mahabench").glob("*.py") if p.name != "__init__.py"),
    *sorted((ROOT / "tests").glob("*.py")),
]


def imported_names(tree: ast.AST) -> dict:
    """Each name an import statement binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.AST) -> set:
    """Every name the module reads, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotation = getattr(node, "returns" if isinstance(node, ast.FunctionDef)
                             else "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= read_names(ast.parse(annotation.value, mode="eval"))
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = read_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a import b, c\nx: 'c' = np.zeros(1)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]
