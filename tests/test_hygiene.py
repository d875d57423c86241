"""Static checks that keep the package surface small: every exported name
has a reader inside the package, and no module imports what it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smfdenoise"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# a package's __init__ imports in order to re-export
SOURCES = [p for p in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
           if p.name != "__init__.py"]


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def exported(tree):
    """The string entries of the module's top-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def read_names(tree):
    """Names the module reads, bare or as an attribute.  The strings of
    ``__all__`` are constants, so they do not count as reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def imported(tree):
    """(bound name, line) of each top-level import, ``__future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_export_is_read_inside_the_package():
    # a public name that only tests read is test-only API
    trees = {p.stem: parse(p) for p in MODULES}
    reads = set().union(*(read_names(t) for t in trees.values()))
    unread = [f"{name}.{export}" for name, tree in trees.items()
              for export in exported(tree) if export not in reads]
    assert unread == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"line {line}: {name}" for name, line in imported(tree) if name not in used]
    assert unused == []
