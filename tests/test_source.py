"""Checks of the source text of `src/stockdim`, made with `ast` alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stockdim"


def module_level_names(tree):
    """The functions, classes and constants a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))


def reads(tree):
    """Every name a module loads, takes as an attribute, imports or writes as a whole string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):  # a name `__init__` imports is its public API
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):  # `ARTIFACTS` names renderers
            yield node.value


def test_every_module_level_name_in_src_is_read_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values() for name in reads(tree)}
    assert [f"{module}: {name}" for module, tree in trees.items() for name in module_level_names(tree)
            if not (name.startswith("__") and name.endswith("__")) and name not in read] == []
