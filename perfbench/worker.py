"""Fresh-process steps of the benchmark, started by run.py.

    python3 perfbench/worker.py setup CONFIG
        import wanloc, build the model of CONFIG and factorize its H once:
        what every CLI invocation pays before its own work.  Prints
        time.monotonic() when done; the caller subtracts its own reading
        from just before the start, so interpreter start is included.
    python3 perfbench/worker.py traced WORKLOAD WORKDIR
        one traced reference call, with whatever BLAS thread count the
        environment sets; prints one JSON line with its wall time, gate
        problems, per-layer metrics and spans.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def setup(config_path):
    import numpy as np
    from wanloc import cli
    model = cli.build_model(cli.parse_config(config_path))
    np.linalg.eigh(model.H)
    print(repr(time.monotonic()))


# L of the untraced call that loads code and fills caches before the traced
# call, so a fresh process is not timed cold
WARMUP_L = 6


def traced(name, workdir):
    from perfbench import environment, tracing, workloads
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference(workload)
    workloads.run_call(workload, workloads.REFERENCE_SEED, workdir, L=WARMUP_L)
    tracer = tracing.Tracer("single-thread")
    with tracing.install(tracer):
        outcome = workloads.run_call(workload, workloads.REFERENCE_SEED,
                                     workdir, reference=reference)
    print(json.dumps({
        "wall_s": outcome.wall_s, "problems": outcome.problems,
        "blas_threads": environment.blas_threads(),
        "metrics": tracing.layer_metrics(tracer.spans, outcome.n_rows),
        "spans": tracing.spans_as_records(tracer.spans)}))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        traced(sys.argv[2], sys.argv[3])
