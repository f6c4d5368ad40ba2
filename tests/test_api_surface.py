"""Every module-level function and class of ``src/pqe`` has a caller outside the tests.

A name counts as used when, outside its own definition, it is imported by
name from its module, read as a bare name in its own module, read as an
attribute of its module, or patched on its module by the benchmark's tracer.
The scanned files are ``src/pqe``, ``tools`` and ``perfbench`` (not
``perfbench/tests``). An attribute read counts only when its base is a
``pqe`` module: an alias bound by ``from . import x as y``, ``from pqe
import x`` or ``import pqe.x as y``, or a ``pqe.x`` chain. So
``Path.resolve()`` or ``",".join(...)`` keep no name alive. The tracer
(``perfbench/tracing.py``) replaces functions by attribute name; the
``(owner, name)`` pairs it patches are read from its ``_sites(...)`` and
``Site(...)`` calls. A string constant keeps nothing alive: the string
``"cnf_satisfiable"`` in the tracer names ``perfbench/reference``'s
function, not ``oracle.cnf_satisfiable``.

A class method cannot be traced to its callers that way: an attribute read
of an object does not say whose method it calls. So a method counts as used
when any attribute read of its name in the same scanned files lies outside
its own definition. Dunder methods are exempt; Python calls them.

A module-level import in ``src/pqe`` or ``tools`` must be read in its own
module. ``pqe/__init__.py`` is exempt: its imports are the library API.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pqe"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
SCANNED = [*PACKAGE.glob("*.py"), *(ROOT / "tools").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

ALLOWED = {
    # the enumeration reference that the D-sequent and calculus tests check records against
    "oracle.verify_dsequent",
    # the brute-force reference that test_satcore checks the SAT core against
    "oracle.cnf_satisfiable",
}


TRACING = ROOT / "perfbench" / "tracing.py"


def _tracer_sites():
    """The ``(owner, name)`` pairs the tracer patches, the owner as written
    (``pqe.solver``, ``pqe.formula.ClauseDb``, ``workloads``)."""
    sites = []
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id == "_sites":  # _sites(kind, owner, name_prefix, *attrs)
            owner, attrs = node.args[1], node.args[3:]
        elif node.func.id == "Site":  # Site(owner, attr, name, kind)
            owner, attrs = node.args[0], node.args[1:2]
        else:
            continue
        # the call inside ``_sites`` itself names no attribute
        sites.extend((ast.unparse(owner), a.value) for a in attrs if isinstance(a, ast.Constant))
    return sites


def _module_aliases(tree: ast.Module, in_package: bool):
    """Local name -> the ``pqe`` module it is bound to."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            relative = in_package and node.level == 1 and node.module is None
            if relative or (node.level == 0 and node.module == "pqe"):
                for a in node.names:
                    if a.name in MODULES:
                        aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.Import):
            for a in node.names:
                package, _, module = a.name.partition(".")
                if package == "pqe" and module in MODULES and a.asname:
                    aliases[a.asname] = module
    return aliases


def _base_module(node: ast.expr, aliases):
    """The ``pqe`` module an attribute base names, or None."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "pqe" and node.attr in MODULES:
            return node.attr
    return None


def _unused():
    defined = {
        (path.stem, stmt.name)
        for path in PACKAGE.glob("*.py")
        for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, DEFS)
    }
    used = {  # (module, name)
        (owner[len("pqe."):], name)
        for owner, name in _tracer_sites()
        if owner.startswith("pqe.") and owner[len("pqe."):] in MODULES
    }
    for path in SCANNED:
        module = path.stem if path.parent == PACKAGE else None
        tree = ast.parse(path.read_text())
        aliases = _module_aliases(tree, module is not None)
        for stmt in tree.body:
            where = (module, stmt.name if isinstance(stmt, DEFS) else None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom) and node.module:
                    used.update((node.module.rpartition(".")[2], a.name) for a in node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if module and (module, node.id) != where:
                        used.add((module, node.id))
                elif isinstance(node, ast.Attribute):
                    base = _base_module(node.value, aliases)
                    if base and (base, node.attr) != where:
                        used.add((base, node.attr))
    return {f"{module}.{name}" for module, name in defined - used}


def test_every_module_level_name_has_a_non_test_caller():
    unused = _unused()
    assert sorted(unused - ALLOWED) == []
    # an allowed name that gained a caller leaves the allowance
    assert sorted(ALLOWED - unused) == []


def test_every_tracer_site_exists():
    # the tracer replaces ``owner.__dict__[name]``: a name dropped from its
    # pqe module or class (an engine import, say) breaks every traced run
    sites = [(owner, name) for owner, name in _tracer_sites() if owner.startswith("pqe.")]
    assert {("pqe.solver", "unit_literal"), ("pqe.formula.ClauseDb", "active_ids")} <= set(sites)
    missing = []
    for owner, name in sites:
        package, module, *path = owner.split(".")
        obj = importlib.import_module(f"{package}.{module}")
        for attr in path:
            obj = getattr(obj, attr)
        if name not in vars(obj):
            missing.append(f"{owner}.{name}")
    assert missing == []


def _unused_methods():
    reads = {}  # attribute name -> [(path, line)]
    for path in SCANNED:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    unused = set()
    for path in PACKAGE.glob("*.py"):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name.startswith("__") and fn.name.endswith("__"):
                    continue
                outside = [
                    (p, line)
                    for p, line in reads.get(fn.name, ())
                    if p != path or not fn.lineno <= line <= fn.end_lineno
                ]
                if not outside:
                    unused.add(f"{path.stem}.{cls.name}.{fn.name}")
    return unused


def test_every_class_method_has_a_non_test_caller():
    assert sorted(_unused_methods()) == []


def _unread_imports():
    unread = []
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "tools").glob("*.py")]:
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for a in stmt.names:
                    # ``import a.b`` binds ``a``
                    name = a.asname or a.name.partition(".")[0]
                    if name not in read:
                        unread.append(f"{path.relative_to(ROOT)}: {name}")
    return unread


def test_every_module_level_import_is_read():
    assert _unread_imports() == []
