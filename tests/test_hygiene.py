"""Source hygiene of the library: no dead imports and no orphan helpers.

Both checks read ``src/preservers`` with ``ast`` and import nothing from it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "preservers"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _references(tree):
    """(node, identifier) of every name the code uses: bare names and the
    attribute names of dotted access."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n, n.id
        elif isinstance(n, ast.Attribute):
            yield n, n.attr


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_modules_use_every_name_they_import(path):
    """``__init__.py`` imports to re-export; every other module imports a
    name only to use it."""
    tree = _tree(path)
    imported = {(alias.asname or alias.name).split(".")[0]
                for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
                for alias in n.names}
    unused = imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


def test_every_private_function_has_a_caller():
    """A module-level ``_private`` function is used somewhere in the library
    outside its own body; one that is not is left over from deleted code."""
    trees = {p: _tree(p) for p in MODULES}
    refs = [(n, name) for tree in trees.values() for n, name in _references(tree)]
    orphans = []
    for path, tree in trees.items():
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                    and not fn.name.startswith("__")):
                continue
            own = {id(n) for n in ast.walk(fn)}
            if not any(name == fn.name and id(n) not in own for n, name in refs):
                orphans.append(f"{path.name}:{fn.name}")
    assert not orphans, f"private functions with no caller: {orphans}"
