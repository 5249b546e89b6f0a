"""The benchmark tracer rebinds wanloc names at run time; every binding it
lists must exist, or `perfbench/run.py --trace 1` fails on first use."""

import importlib

from perfbench.tracing import TRACED


def test_every_traced_binding_resolves():
    for span, bindings in TRACED.items():
        for binding in bindings:
            mod_name, attr = binding.split(":")
            module = importlib.import_module(mod_name)
            assert hasattr(module, attr), f"{span}: {binding} is missing"
