"""Three lint rules for the package, checked with ``ast`` (no linter needed).

In every module of ``src/trajent``, ``__init__.py`` included:
- every imported name is used in the module, or listed in its ``__all__``;
- every module-level private name (one leading underscore) is referenced
  somewhere in the package: read as a name or an attribute, or imported;
- where the module has an ``__all__``, it is the public surface: it lists
  every public module-level function and class, and each name it lists is
  defined in the module.
A deletion that leaves an import, a private helper or a stale export behind
fails here, and so does a public helper left out of ``__all__``, and so
does a re-export facade in ``__init__.py``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trajent"
MODULES = sorted(PACKAGE.glob("*.py"))
TREES = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
         for p in PACKAGE.glob("*.py")}


def _imported(tree: ast.Module) -> set[str]:
    """The names the module's imports bind, ``__future__`` left out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _read(tree: ast.Module) -> set[str]:
    """The names a module reads: loaded names, also inside quoted
    annotations, and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        for note in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _read(ast.parse(note.value, mode="eval"))
    return names


def _referenced(tree: ast.Module) -> set[str]:
    """The names a module reads or imports from another module."""
    return _read(tree) | {a.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom)
                          for a in node.names}


def _exported(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__`` list."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return {e.value for e in node.value.elts}
    return set()


def _definitions(tree: ast.Module) -> set[str]:
    """Module-level names the module defines: functions, classes and
    assigned names."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


def _private_definitions(tree: ast.Module) -> set[str]:
    """Defined module-level names with one leading underscore."""
    return {n for n in _definitions(tree)
            if n.startswith("_") and not n.startswith("__")}


def _public_functions_and_classes(tree: ast.Module) -> set[str]:
    """Module-level functions and classes without a leading underscore."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


EXPORTING = [p for p in MODULES if _exported(TREES[p])]


def test_modules_are_found():
    assert any(p.name == "models.py" for p in MODULES)
    assert any(p.name == "__init__.py" for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = TREES[path]
    unused = _imported(tree) - _read(tree) - _exported(tree)
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_name_is_referenced(path):
    read = set().union(*(_referenced(t) for t in TREES.values()))
    unused = _private_definitions(TREES[path]) - read
    assert not unused, (f"{path.name} defines {sorted(unused)}, which "
                        "nothing in the package reads")


@pytest.mark.parametrize("path", EXPORTING, ids=[p.name for p in EXPORTING])
def test_all_is_the_public_surface(path):
    tree = TREES[path]
    listed = _exported(tree)
    unlisted = _public_functions_and_classes(tree) - listed
    assert not unlisted, (f"{path.name} defines {sorted(unlisted)} but its "
                          "__all__ leaves them out")
    undefined = listed - _definitions(tree)
    assert not undefined, (f"{path.name} lists {sorted(undefined)} in "
                           "__all__ but never defines them")


def test_the_rules_flag_what_they_should():
    tree = ast.parse("import os\nfrom json import dumps as d, loads\n"
                     "_X = 1\ndef _f(a: 'Path') -> None:\n    loads(a)\n")
    assert _imported(tree) - _read(tree) == {"os", "d"}
    assert _private_definitions(tree) == {"_X", "_f"}
    assert "Path" in _read(tree)
    assert {"dumps", "loads"} <= _referenced(tree)
    tree = ast.parse("__all__ = ['f', 'g']\nY = 1\ndef f():\n    pass\n"
                     "class C:\n    def m(self):\n        pass\n")
    assert _public_functions_and_classes(tree) - _exported(tree) == {"C"}
    assert _exported(tree) - _definitions(tree) == {"g"}
