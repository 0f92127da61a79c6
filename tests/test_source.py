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


def _modules():
    return [(path.stem, ast.parse(path.read_text()))
            for path in sorted(Path(nilcone.__file__).parent.glob("*.py"))]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


class _Uses:
    """The package's definitions, and the references that can reach each.

    A function or class outside a class body is "module.name".  It counts as
    used through a bare load of its name in its own module, a
    "from .module import name" outside __init__.py (a re-export is no use),
    or alias.name with alias bound to the module.  A method, an annotated
    class attribute (a dataclass field) or an attribute stored on self is
    "module.Class.name", used through an attribute load of its name
    anywhere in the package.

    Both rules are still name-level, so two kinds of dead code pass: a
    field or method whose name another attribute shares (a field lam counts
    as read wherever any .lam is, such as args.lam; unread fields named
    lam, N, H and eps were found by reading, not by this scan), and a
    module-level name that its own module also uses as a local.
    """

    def __init__(self):
        self.functions, self.members = set(), set()
        self.loads, self.qualified, self.attributes = set(), set(), set()
        for module, tree in _modules():
            aliases = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1 \
                        and module != "__init__":
                    for alias in node.names:
                        if node.module is None:
                            aliases[alias.asname or alias.name] = alias.name
                        else:
                            self.qualified.add((node.module, alias.name))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    self.loads.add((module, node.id))
                elif isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Load):
                        self.attributes.add(node.attr)
                    if isinstance(node.value, ast.Name) and node.value.id in aliases:
                        self.qualified.add((aliases[node.value.id], node.attr))
            self._define(module, tree, None)

    def _define(self, module, node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.AnnAssign) and cls \
                    and isinstance(child.target, ast.Name):
                self.members.add((module, cls.name, child.target.id))
            if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                continue
            if cls is None:
                self.functions.add((module, child.name))
            else:
                self.members.add((module, cls.name, child.name))
                self.members.update(
                    (module, cls.name, n.attr) for n in ast.walk(child)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self")
            self._define(module, child, child if isinstance(child, ast.ClassDef) else None)

    def unused(self, chosen):
        """The definitions whose last name passes chosen and that nothing
        in the package uses."""
        out = {"%s.%s" % key for key in self.functions if chosen(key[1])
               and key not in self.loads and key not in self.qualified}
        return out | {"%s.%s.%s" % key for key in self.members if chosen(key[2])
                      and key[2] not in self.attributes}


def test_every_private_definition_is_used():
    # a private function, class, method or attribute that nothing in the
    # package uses is dead code
    uses = _Uses()
    assert any(_private(key[1]) for key in uses.functions)
    assert sorted(uses.unused(_private)) == []


# Public definitions that nothing in the package uses, each kept for a
# reason outside it.  An entry that is deleted, or that gains a use in the
# package, must leave this table.
_PUBLIC_ALLOWLIST = {
    "linalg.Span": "perfbench/spans.py traces Span.coords (retired with its "
                   "metric)",
    "linalg.nullspace": "perfbench/spans.py traces it (retired with its metric)",
    "linalg.rank": "perfbench/spans.py traces it, and perfbench/tests asserts "
                   "that it calls rref (retired with its metric)",
    "rootdata.kostant_partition": "perfbench/spans.py traces it (retired with "
                                  "its metric)",
    "rootdata.weight": "perfbench/tests/test_perfbench.py imports it",
    "rootdata.RootSystem.pairing": "perfbench/workloads.py's qk_dominant_box "
                                   "calls kd.rs.pairing",
    "series.sym_weights": "perfbench/spans.py and perfbench/tests trace it "
                          "(retired with its metric)",
    "oracle.dense_confirmer": "perfbench/workloads.py's catalog-search passes "
                              "it to search_even_gradings",
    "grading.conormal_canonical_weight": "README's Scope documents it as the "
                                         "entry that accepts odd gradings",
}


def test_every_public_definition_is_used_or_allowlisted():
    # a public function, class, method or field that nothing in the package
    # uses is a second way to do a job the package's engines already do, or
    # state no engine reads, unless the allowlist says why it stays
    unused = _Uses().unused(lambda name: not name.startswith("_"))
    assert sorted(unused - set(_PUBLIC_ALLOWLIST)) == []
    # an entry that was deleted, or that the package now uses, is stale
    assert sorted(set(_PUBLIC_ALLOWLIST) - unused) == []


def test_every_private_name_stored_is_read():
    # a private attribute that the package stores, or a private module-level
    # name that it binds, and that nothing in the package reads is dead state
    stored, read = set(), set()
    for _, tree in _modules():
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
