"""Static checks on the package source, from its syntax trees alone.

Each module-level import is read somewhere in its module, and each
private (``_name``) module-level function, class or constant, and each
private method, is read somewhere in the package, as a name or as an
attribute.  Both catch what a refactor leaves behind.  Only the standard
library is used.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qmemsim"


def trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def read_names(tree):
    """Every name the tree loads, and every attribute it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def exported(tree):
    """The strings of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def imported_names(tree):
    """(bound name, line) of each module-level import but ``__future__``'s."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def private_definitions(tree):
    """(name, line) of each private module-level function, class or constant,
    and of each private method; dunder names are not private."""

    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if private(node.name):
                yield node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and private(item.name):
                        yield item.name, item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and private(name.id):
                        yield name.id, node.lineno


def test_every_module_level_import_is_read():
    unread = []
    for module, tree in trees().items():
        read = read_names(tree) | exported(tree)
        unread += [f"{module}:{line}: {name}" for name, line in imported_names(tree)
                   if name not in read]
    assert not unread, unread


def test_every_private_definition_is_referenced():
    modules = trees()
    read = set().union(*map(read_names, modules.values()))
    unused = [
        f"{module}:{line}: {name}"
        for module, tree in modules.items()
        for name, line in private_definitions(tree)
        if name not in read
    ]
    assert not unused, unused


def test_the_checks_see_leftovers():
    # an unread import and an unreferenced private function, as a refactor
    # that moved their only use elsewhere would leave them
    tree = ast.parse(
        "from .protocol import ChannelSummary, store_channel\n"
        "def _decayed(channel):\n    return channel\n"
        "def decay_channel(channel):\n    return ChannelSummary(channel)\n"
    )
    read = read_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in read] == ["store_channel"]
    assert [name for name, _ in private_definitions(tree) if name not in read] == ["_decayed"]
