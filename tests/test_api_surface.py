"""Every module-level function and class of ``src/pqe`` has a caller outside the tests.

A name counts as used when, outside its own definition, it is imported by
name from its module, read as a bare name in its own module, or appears as
an attribute or a string constant in ``src/pqe``, ``tools`` or ``perfbench``
(not ``perfbench/tests``). The string case covers the names that the
benchmark's tracer patches by attribute. Methods are out of scope: attribute
names collide across classes and modules (``ClauseDb.is_active`` against a
module-level ``is_active``), so an attribute read cannot say whose method it
calls. The same collision counts every ``str.join`` call as a use of
``dsequent.join``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pqe"
SCANNED = [*PACKAGE.glob("*.py"), *(ROOT / "tools").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

ALLOWED = {
    # the enumeration reference that the D-sequent and calculus tests check records against
    "oracle.verify_dsequent",
    # SAT by elimination, the entry point test_sat_reduction checks against the SAT core
    "harness.pqe_sat_verdict",
}


def _unused():
    defined = {
        (path.stem, stmt.name)
        for path in PACKAGE.glob("*.py")
        for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, DEFS)
    }
    used = set()  # (module, name)
    words = set()  # (attribute or string, (module, definition) it appears in)
    for path in SCANNED:
        module = path.stem if path.parent == PACKAGE else None
        for stmt in ast.parse(path.read_text()).body:
            where = (module, stmt.name if isinstance(stmt, DEFS) else None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom) and node.module:
                    used.update((node.module.rpartition(".")[2], a.name) for a in node.names)
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if module and (module, node.id) != where:
                        used.add((module, node.id))
                elif isinstance(node, ast.Attribute):
                    words.add((node.attr, where))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    words.add((node.value, where))
    return {
        f"{module}.{name}"
        for module, name in defined - used
        if not any(word == name and where != (module, name) for word, where in words)
    }


def test_every_module_level_name_has_a_non_test_caller():
    unused = _unused()
    assert sorted(unused - ALLOWED) == []
    # an allowed name that gained a caller leaves the allowance
    assert sorted(ALLOWED - unused) == []
