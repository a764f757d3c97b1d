"""Static dead-code check of the package modules, with the stdlib `ast`.

Every name a module imports must be read in that module, and every
module-level name but a dunder must be read somewhere in the package; a root
re-export in `__init__.py` counts as a read. `__init__.py` is not checked
itself: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mhhastar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(tree: ast.Module) -> set[str]:
    """Names the tree reads: bare names, attribute names, and names imported
    from a sibling module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            out.update(alias.name for alias in node.names)
    return out


def _imports(tree: ast.Module) -> list[str]:
    """The names the module's imports bind, `from __future__` aside."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.append(alias.asname or alias.name.split(".")[0])
    return out


def _definitions(tree: ast.Module) -> list[str]:
    """Module-level names bound by def, class or assignment, dunders aside."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in out if not name.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = _tree(path)
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    }
    assert [name for name in _imports(tree) if name not in read] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_module_name(path):
    package_reads = set().union(*(_reads(_tree(p)) for p in PACKAGE.glob("*.py")))
    assert [n for n in _definitions(_tree(path)) if n not in package_reads] == []
