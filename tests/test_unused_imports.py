"""No stale imports under src/wanloc.  A name that a module imports and
never reads is there only for a `perfbench/tracing.py` binding, so it must
be listed in `TRACED` as `wanloc.<module>:<name>`; when a binding goes, the
import goes with it.  The package's `__init__` re-exports its imports and
is not checked."""

import ast
from pathlib import Path

import wanloc
from perfbench.tracing import TRACED

SRC = Path(wanloc.__file__).resolve().parent
BOUND = {b for bindings in TRACED.values() for b in bindings}


def unread_imports(path):
    """The names the module at `path` binds by an import and never loads."""
    tree = ast.parse(path.read_text())
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return imported - read


def test_every_unread_import_is_a_traced_binding():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    stale = [f"wanloc.{p.stem}:{name}" for p in modules
             for name in sorted(unread_imports(p))
             if f"wanloc.{p.stem}:{name}" not in BOUND]
    assert not stale, f"imported, never read, not traced: {stale}"


def test_the_check_sees_an_unread_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import math\nfrom os import path, sep\n"
                      "print(math.pi, sep)\n")
    assert unread_imports(module) == {"path"}
