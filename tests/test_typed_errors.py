"""Every failed check under src/wanloc raises a WanlocError subclass, so
that `construct` turns it into an `error` row of report.csv and `main` into
a documented exit code.  The few other raises are listed here: input checks
of the direct API, which no valid config reaches, and the module
`__getattr__` hooks."""

import ast
import importlib
from pathlib import Path

import wanloc
from wanloc.errors import WanlocError

SRC = Path(wanloc.__file__).resolve().parent

# (module, enclosing function, raised name)
ALLOWED_RAISES = {
    ("dichotomy", "detect_uniform_gaps", "ValueError"),
    ("dichotomy", "check_bounded_density", "ValueError"),
    ("dichotomy", "initial_basis", "ValueError"),
    ("io", "write_matrix", "ValueError"),
    ("io", "read_matrix", "ValueError"),
    ("lattice", "SiteGrid.__post_init__", "ValueError"),
    ("xhat", "FilterSpec.__post_init__", "ValueError"),
    ("dichotomy", "__getattr__", "AttributeError"),
    ("spectral", "__getattr__", "AttributeError"),
}


def raises(path):
    """(enclosing function or class-qualified method, raised name) of every
    `raise` in the module at `path`; the name is None for a bare `raise`."""
    found = set()

    def visit(node, scope):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.add((scope, exc.id if isinstance(exc, ast.Name) else None))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def is_typed(module, name):
    # a builtin exception is no attribute of the module
    exc = getattr(module, name, None)
    return isinstance(exc, type) and issubclass(exc, WanlocError)


def test_every_raise_is_a_wanloc_error_or_listed():
    untyped = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "wanloc" if path.stem == "__init__" else f"wanloc.{path.stem}")
        untyped.update((path.stem, scope, name)
                       for scope, name in raises(path)
                       if name is None or not is_typed(module, name))
    assert untyped == ALLOWED_RAISES


def test_the_check_sees_methods_and_chained_raises(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("class A:\n    def f(self):\n        raise KeyError\n"
                      "def g():\n    try:\n        pass\n"
                      "    except OSError as exc:\n"
                      "        raise ValueError('x') from exc\n")
    assert raises(module) == {("A.f", "KeyError"), ("g", "ValueError")}
