"""No module of the package (bar its ``__init__``) or of the tests imports a
name it never reads, and every top-level function and class of the package,
and every method, property and dataclass field of its classes, is
referenced by some package module bar ``__init__``.

A change that deletes code tends to leave its imports behind, and API that
only tests call tends to outlive its callers; no linter is part of the
toolchain, so these checks read each file's syntax tree with the standard
library alone.
"""

import ast
from pathlib import Path

import pytest

from perfbench import layertrace

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "mahabench").glob("*.py") if p.name != "__init__.py")
FILES = [*PACKAGE, *sorted((ROOT / "tests").glob("*.py"))]


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
    """Every name the module reads, string annotations included; binding a
    name, as a class body's field annotation does, is not a read."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def is_dataclass(node: ast.ClassDef) -> bool:
    """Whether the class is decorated ``@dataclass`` or ``@dataclass(...)``."""
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def definitions(tree: ast.Module) -> dict:
    """Each top-level function and class the module defines, and each method,
    property and dataclass field of its classes bar dunders, as ``name`` or
    ``Class.name``, with its line.  A named tuple's fields are left out: its
    users may unpack it by position."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = member.name
            elif (isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
                  and is_dataclass(node)):
                name = member.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                found[f"{node.name}.{name}"] = member.lineno
    return found


def referenced_names(tree: ast.AST) -> set:
    """Every name the module reads, as a name, an attribute or an import, and
    every keyword it passes: a record's field set by keyword is read by the
    record's users."""
    names = read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced(sources: dict, exempt=()) -> list:
    """``(module, line, name)`` for each definition in ``sources`` (module
    name -> source) whose last name part no module references, bar the
    ``module.name`` entries of ``exempt``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set().union(*map(referenced_names, trees.values()))
    return sorted((module, line, name) for module, tree in trees.items()
                  for name, line in definitions(tree).items()
                  if name.rpartition(".")[2] not in used and f"{module}.{name}" not in exempt)


def test_every_definition_is_referenced():
    # a traced layer is read by the benchmark's tracer, outside the package
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert unreferenced(sources, layertrace.TRACED) == []


def test_the_check_finds_an_unreferenced_definition():
    sources = {
        "a": "import b\ndef used(): pass\ndef dead(): pass\nclass Kept: pass\nb.helper()\n",
        "b": "from a import Kept\ndef helper(): used()\ndef traced(): pass\n",
        "c": ("from a import Kept\n@dataclass\nclass Record:\n    size: int\n    spare: int\n"
              "    def __post_init__(self): pass\n    def read(self): return self.size\n"
              "    def unread(self): pass\n    def traced(self): pass\n"
              "class Pair(NamedTuple):\n    left: int\n"
              "Record(size=1).read()\nPair(1)\n"),
    }
    assert unreferenced(sources, ("b.traced", "c.Record.traced")) == [
        ("a", 3, "dead"), ("c", 5, "Record.spare"), ("c", 8, "Record.unread")]
