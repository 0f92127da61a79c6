import ast
import warnings
from pathlib import Path

import nilcone


def test_sources_compile_without_warnings():
    # an invalid escape such as "\c" in a docstring only warns; make it fail
    paths = sorted(Path(nilcone.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def _trees():
    return [ast.parse(path.read_text())
            for path in sorted(Path(nilcone.__file__).parent.glob("*.py"))]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_every_private_definition_is_used():
    # a private function, class or method that nothing in the package names
    # is dead code
    defined, named = set(), set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _private(node.name):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert defined
    assert sorted(defined - named) == []


def test_every_private_name_stored_is_read():
    # a private attribute that the package stores, or a private module-level
    # name that it binds, and that nothing in the package reads is dead state
    stored, read = set(), set()
    for tree in _trees():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                stored.update(n.id for t in targets for n in ast.walk(t)
                              if isinstance(n, ast.Name) and _private(n.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif _private(node.attr):
                    stored.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert stored
    assert sorted(stored - read) == []


def test_the_weight_engines_import_no_fractions():
    # their pairings and heights are int dot products; a Fraction enters
    # only where a weight is read in or printed
    root = Path(nilcone.__file__).parent
    for name in ("bott.py", "series.py", "grading.py"):
        imported = set()
        for node in ast.walk(ast.parse((root / name).read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
        assert "fractions" not in imported, name
