"""The benchmark tracer rebinds wanloc names at run time; every binding it
lists must exist, or `perfbench/run.py --trace 1` fails on first use."""

import importlib

from perfbench import tracing
from perfbench.tracing import TRACED
from wanloc import cli
from wanloc.cli import PipelineConfig

from suite_common import TOPO_PARAMS


def test_every_traced_binding_resolves():
    for span, bindings in TRACED.items():
        for binding in bindings:
            mod_name, attr = binding.split(":")
            module = importlib.import_module(mod_name)
            assert hasattr(module, attr), f"{span}: {binding} is missing"


def bound_objects():
    return [getattr(importlib.import_module(mod_name), attr)
            for bindings in TRACED.values()
            for mod_name, attr in (b.split(":") for b in bindings)]


def test_traced_chern_makes_one_dense_factorization(tmp_path):
    """`wanloc chern` under the tracer: one N-row factorization, every span
    nested in the run, and every binding restored afterwards."""
    cfg = PipelineConfig(model_type="haldane", L=8, model_params=TOPO_PARAMS,
                         seed=0, output_dir=str(tmp_path))
    before = bound_objects()
    tracer = tracing.Tracer("chern")
    with tracing.install(tracer):
        cli.run_chern(cfg)
    root, *rest = tracer.spans
    assert root.name == "cli.run_chern" and root.parent is None
    assert rest and all(s.parent is not None for s in rest)
    metrics = tracing.layer_metrics(tracer.spans, n_rows=2 * 8 * 8)
    assert metrics["linalg.dense_N_factorizations"] == 1
    assert all(x is y for x, y in zip(before, bound_objects(), strict=True))
