"""Import and name hygiene: every name a module of waldrates imports is read
in it, and every private module-level name is read somewhere in src.

No linter runs on this tree, so an import that a refactor leaves unused, or
a helper whose last caller goes, would otherwise stay.  ``__init__`` is
exempt from the import check: its imports are re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "waldrates"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    """Every name the module loads, names in string annotations included."""
    nodes = list(ast.walk(tree))
    for node in nodes[:]:
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(ann) if ann is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    nodes.extend(ast.walk(ast.parse(part.value, mode="eval")))
    return {node.id for node in nodes if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in read}
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each module-level ``_name`` (not a dunder) a def, class or assignment
    binds, with its statement."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                out.update((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name: node for name, node in out.items()
            if name.startswith("_") and not name.startswith("__")}


def _reads(tree: ast.AST) -> Counter:
    """How often each name is loaded, taken as an attribute or imported
    under ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else
                   node.attr if isinstance(node, ast.Attribute) else node.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   or isinstance(node, (ast.Attribute, ast.alias)))


def test_every_private_name_is_read():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    reads = sum(map(_reads, trees.values()), Counter())
    # a name read only inside its own definition (a recursive helper) is unread
    dead = [f"{module}:{node.lineno} {name}" for module, tree in trees.items()
            for name, node in _private_definitions(tree).items()
            if reads[name] == _reads(node)[name]]
    assert not dead, f"private module-level names that nothing in src reads: {dead}"
