"""Checks of the source text of `src/stockdim` and README, made with `ast` and `re` alone."""

import ast
import re
import sys
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


def test_every_private_name_the_docs_mention_is_in_src():
    # a backticked `_name` (or `module._name`) in a docstring, comment or README must still exist
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    known = {"_fields", "_replace", "_asdict", "_make"}  # NamedTuple's own methods
    for tree in trees:
        known.update(reads(tree))
        known.update(node.name for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        known.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    docs = [*sorted(SRC.glob("*.py")), SRC.parent.parent / "README.md"]
    mentioned = {(doc.name, name) for doc in docs
                 for name in re.findall(r"`(?:\w+\.)*(_(?!_)\w+)", doc.read_text(encoding="utf-8"))}
    assert sorted(f"{doc}: {name}" for doc, name in mentioned if name not in known) == []


def imported_names(tree):
    """The name each import statement of a module binds, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)


def test_every_name_a_module_imports_is_read_in_that_module():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the public API
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}: {name}" for name in imported_names(tree) if name not in loaded]
    assert unused == []


def test_every_module_imports_only_the_standard_library_and_stockdim():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # a relative import stays in stockdim
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside += [f"{path.name}: {root}" for root in roots
                        if root not in sys.stdlib_module_names and root != "stockdim"]
    assert outside == []
