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


def test_every_private_definition_is_used():
    # a private function, class or method that nothing in the package names
    # is dead code
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(nilcone.__file__).parent.glob("*.py"))]
    defined, named = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert defined
    assert sorted(defined - named) == []
