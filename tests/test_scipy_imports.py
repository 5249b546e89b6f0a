"""A wanloc process loads no scipy and so only one BLAS: numpy's bundled
OpenBLAS, whose pool the pivoted QR of `initial_basis` pins to one thread.
scipy's own OpenBLAS would add a second thread pool and, through
`scipy.linalg`, about 0.3 s of imports to every CLI start.  Two guards keep
it out: no module-level scipy import under src/wanloc, with function-level
imports limited to the known few, and a fresh interpreter that runs every
subcommand without loading a scipy module."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wanloc
from wanloc import dichotomy

from suite_common import DIS_PARAMS, DIS_SEED, TOPO_PARAMS

# (module, enclosing function, imported module, name)
ALLOWED_FUNCTION_IMPORTS = {
    # the QR when numpy links no bundled OpenBLAS
    ("dichotomy", "_qr_pivots", "scipy.linalg", "qr"),
    # served to the perfbench/tracing.py bindings only
    ("dichotomy", "__getattr__", "scipy.linalg", "svdvals"),
    ("spectral", "__getattr__", "scipy.linalg", "svdvals"),
}


def scipy_imports():
    """(module, enclosing function or None, imported module, name) of every
    scipy import under src/wanloc; name is None for `import scipy...`."""
    found = set()

    def visit(node, stem, func):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "scipy"):
            found.update((stem, func, node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            found.update((stem, func, a.name, None) for a in node.names
                         if a.name.split(".")[0] == "scipy")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, stem, func)

    for path in Path(wanloc.__file__).parent.rglob("*.py"):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    return found


def test_no_module_level_scipy_import():
    found = scipy_imports()
    assert {f for f in found if f[1] is None} == set()
    assert found == ALLOWED_FUNCTION_IMPORTS


RUN_EVERY_SUBCOMMAND = """
import json, sys
from wanloc.cli import (PipelineConfig, run_chern, run_model_dump,
                        run_pipeline, run_verify)
out, dis_params, dis_seed, topo_params = json.loads(sys.argv[1])
dis = PipelineConfig(model_type="disordered", L=6, model_params=dis_params,
                     seed=dis_seed)
topo = PipelineConfig(model_type="haldane", L=6, model_params=topo_params,
                      seed=0)
report = run_pipeline(dis, out + "/dis")
assert report.bands is not None, report.stages
run_pipeline(topo, out + "/topo")
run_verify(dis, out + "/verify")
run_chern(topo, out + "/chern")
run_model_dump(dis, out + "/model")
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy")))
"""


def test_subcommands_load_no_scipy(tmp_path):
    """pipeline (through the band stage), verify, chern and model in a fresh
    interpreter: not one scipy module is loaded."""
    if dichotomy._numpy_lapack() is None:
        pytest.skip("numpy has no bundled OpenBLAS: the QR falls back to scipy")
    src = str(Path(wanloc.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = json.dumps([str(tmp_path), DIS_PARAMS, DIS_SEED, TOPO_PARAMS])
    proc = subprocess.run([sys.executable, "-c", RUN_EVERY_SUBCOMMAND, args],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
