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


def _definitions_and_names():
    """The names of the package's functions, classes and methods, and every
    name the package mentions; an import in __init__.py (a re-export) is no
    mention."""
    defined, named = set(), set()
    for path in sorted(Path(nilcone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                named.add(node.name)
    return defined, named


def test_every_private_definition_is_used():
    # a private function, class or method that nothing in the package names
    # is dead code
    defined, named = _definitions_and_names()
    private = {name for name in defined if _private(name)}
    assert private
    assert sorted(private - named) == []


# Public definitions that nothing in the package names, each kept for a
# reason outside it.  An entry that is deleted, or that gains a caller in
# the package, must leave this table.
_PUBLIC_ALLOWLIST = {
    "Span": "perfbench/spans.py traces Span.coords (retired with its metric)",
    "nullspace": "perfbench/spans.py traces it (retired with its metric)",
    "kostant_partition": "perfbench/spans.py traces it (retired with its metric)",
    "sym_weights": "perfbench/spans.py and perfbench/tests trace it (retired "
                   "with its metric)",
    "conormal_canonical_weight": "README's Scope documents it as the entry "
                                 "that accepts odd gradings",
}


def test_every_public_definition_is_used_or_allowlisted():
    # a public function, class or method that nothing in the package names
    # is a second way to do a job the package's engines already do, unless
    # the allowlist says why it stays
    defined, named = _definitions_and_names()
    unnamed = {name for name in defined if not name.startswith("_")} - named
    assert sorted(unnamed - set(_PUBLIC_ALLOWLIST)) == []
    # an entry that was deleted, or that the package now calls, is stale
    assert sorted(set(_PUBLIC_ALLOWLIST) - unnamed) == []


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
