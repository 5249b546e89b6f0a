"""scipy's LAPACK runs on its own bundled OpenBLAS, whose thread pool
contends with numpy's.  The one scipy factorization on a hot path, the
pivoted QR in `initial_basis`, runs with that pool pinned to one thread.
This guard lists every scipy name wanloc imports, so that a new scipy
factorization is a visible decision: route it through the pin, or accept
the contention, and then update the list."""

import ast
from pathlib import Path

import wanloc

ALLOWED = {
    ("scipy.linalg", "qr"),        # pinned in dichotomy._qr_pivots
    ("scipy.linalg", "toeplitz"),  # builds a matrix, no BLAS call
    ("scipy.linalg", "svdvals"),   # kept only for a benchmark tracer binding
}


def scipy_imports():
    """(module, name) of every scipy import under src/wanloc, with name
    None for a plain `import scipy...`."""
    found = set()
    for path in Path(wanloc.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "scipy"):
                found |= {(node.module, a.name) for a in node.names}
            elif isinstance(node, ast.Import):
                found |= {(a.name, None) for a in node.names
                          if a.name.split(".")[0] == "scipy"}
    return found


def test_scipy_imports_are_the_known_few():
    assert scipy_imports() == ALLOWED
