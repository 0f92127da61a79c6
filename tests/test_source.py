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
    "rootdata.kostant_partition": "the height view of the one partition "
                                  "counter, _partition_counts; perfbench/"
                                  "spans.py traces it (retired with its "
                                  "metric)",
    "rootdata.weight": "perfbench/tests/test_perfbench.py imports it",
    "rootdata.weyl_dimension": "perfbench/spans.py traces it (retired with "
                               "its metric)",
    "rootdata.weyl_elements": "perfbench/spans.py traces it (retired with "
                              "its metric)",
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


def _defaults_and_calls():
    """Every parameter default in the package, as (module.function.param,
    called name, positional index or None for a keyword-only one), and every
    call, as (called name, number of positional arguments, keyword names,
    whether it passes *args or **kwargs).

    A call is matched by bare or attribute name, as _Uses matches a use; a
    method's self is not counted, and __init__ is called by its class's
    name, as is a dataclass, whose fields are its constructor's parameters
    in field order (a field default is module.Class.field).
    """
    defaults, calls = [], []
    for module, tree in _modules():
        owner = {id(f): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for f in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords)
                calls.append((name, len(node.args), {k.arg for k in node.keywords},
                              starred))
            elif isinstance(node, ast.ClassDef) and any(
                    getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                    == "dataclass" for d in node.decorator_list):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)
                          and isinstance(f.target, ast.Name)]
                defaults += [("%s.%s.%s" % (module, node.name, f.target.id),
                              node.name, i)
                             for i, f in enumerate(fields) if f.value is not None]
            elif isinstance(node, ast.FunctionDef):
                cls = owner.get(id(node))
                called = cls.name if cls and node.name == "__init__" else node.name
                where = ".".join([module] + ([cls.name] if cls else []) + [node.name])
                args = node.args
                params = (args.posonlyargs + args.args)[1 if cls else 0:]
                first = len(params) - len(args.defaults)
                defaults += [("%s.%s" % (where, p.arg), called, i)
                             for i, p in enumerate(params) if i >= first]
                defaults += [("%s.%s" % (where, p.arg), called, None)
                             for p, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None]
    return defaults, calls


def _hidden_defaults():
    """Every getattr(obj, "name", default) in the package, as
    module.getattr.name: a default that no signature shows, so no call can
    be seen to rely on it."""
    return ["%s.getattr.%s" % (module, node.args[1].value)
            for module, tree in _modules() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) == 3
            and isinstance(node.args[1], ast.Constant)]


def _unused_defaults():
    """The parameter defaults that no call in the package omits, and the
    hidden ones."""
    defaults, calls = _defaults_and_calls()

    def omits(call, param, index):
        name, npos, keywords, starred = call
        passed = param in keywords or (index is not None and index < npos)
        return starred or not passed

    return sorted([key for key, called, index in defaults
                   if not any(call[0] == called
                              and omits(call, key.rsplit(".", 1)[1], index)
                              for call in calls)] + _hidden_defaults())


# Parameter defaults that every call in the package passes, each kept for a
# reason outside it.  An entry whose default goes, or that a call in the
# package omits, must leave this table.
_DEFAULT_ALLOWLIST = {
    "series.verify_vanishing.form": "perfbench's characters workload passes "
                                    "form= (deleted with ROADMAP item 7)",
    "series.verify_vanishing_box.form": "the series' form= that perfbench "
                                        "passes (deleted with ROADMAP item 7)",
    "series.hilbert_series.form": "perfbench's characters workload passes "
                                  "form= (deleted with ROADMAP item 7)",
    "series.blattner_series_identity.form": "perfbench's characters workload "
                                            "passes form= (deleted with ROADMAP "
                                            "item 7)",
}


def test_every_parameter_default_is_relied_on():
    # a default that every call in the package overrides is a second entry
    # form that only tests reach, and so is a getattr default; a call with
    # *args or **kwargs counts as omitting, so verify_form's defaults, which
    # run relies on, pass
    defaults, _ = _defaults_and_calls()
    assert defaults
    unused = _unused_defaults()
    assert sorted(set(unused) - set(_DEFAULT_ALLOWLIST)) == []
    # an entry whose default was deleted, or that a call now omits, is stale
    assert sorted(set(_DEFAULT_ALLOWLIST) - set(unused)) == []
