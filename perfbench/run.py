#!/usr/bin/env python3
"""wanloc benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a wanloc checkout; the program is imported from its
`src/`.  A run first makes a reference call on fixed inputs (which also
warms the process) and gates it against reference.json, then calls the
workload's `wanloc.cli` entry point on inputs generated from --seed until
the next call would end after --seconds.  Every call is gated (see
workloads.py); the last line printed is the JSON result.

--trace 0 reports the end-to-end metrics: wall_s (median warm call),
wall_s_tail, setup_s (median of fresh-process set-ups), peak_rss_mb.
--trace 1 reports the per-layer metrics instead: the reference call and
every other measured call are traced, untraced calls in between give the
tracing overhead, and a fresh process with BLAS pinned to one thread makes
a traced single-threaded pass.  Spans go to .bench_out/ in the checkout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
SUBPROCESS_TIMEOUT_S = 150
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


def require_program():
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "wanloc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no wanloc sources under {src}; run from the "
                 "root of a wanloc checkout")
    sys.path[:0] = [str(src), str(ROOT)]


class Tally:
    """Operations attempted and failed; an operation fails if it raises or
    misses the gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            outcome = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return None
        if outcome.problems:
            self.failed += 1
            self.problems.extend(outcome.problems)
        return outcome


def measure_loop(seconds, step):
    """Call step(1), step(2), ... until the next call would end after
    `seconds`, judged by the last one; always at least once."""
    start = time.perf_counter()
    i = 1
    while True:
        t = time.perf_counter()
        step(i)
        now = time.perf_counter()
        i += 1
        if now - start + (now - t) > seconds:
            return


def tail(samples):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it.  Below 100 samples that percentile is under p90, no
    longer a tail, so the maximum is reported instead."""
    xs = sorted(samples)
    n = len(xs)
    if n < 100:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def measure_setup(workload, workdir):
    from perfbench import workloads as wl
    cfg = Path(workdir) / "setup.cfg"
    cfg.write_text(wl.config_text(workload, wl.REFERENCE_SEED))
    times = []
    for _ in range(SETUP_REPS):
        # the worker reports when it finished: waiting with a timeout polls
        # in 50 ms steps, too coarse for a set-up of a few hundred ms.
        # time.monotonic() reads CLOCK_MONOTONIC, one clock for all
        # processes on Linux.
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(WORKER), "setup", str(cfg)],
                              cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def timed_run(workload, seed, seconds, workdir, tally):
    from perfbench import workloads as wl
    setup = measure_setup(workload, workdir)
    ref = tally.call(wl.run_call, workload, wl.REFERENCE_SEED, workdir,
                     reference=wl.load_reference(workload))
    walls = []

    def step(i):
        outcome = tally.call(wl.run_call, workload, wl.call_seed(seed, i),
                             workdir)
        if outcome is not None:
            walls.append(outcome.wall_s)

    measure_loop(seconds, step)
    if not walls:
        return None
    tail_s, pct, n = tail(walls)
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "wall_s_tail": (tail_s, "s"),
               "setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                               .ru_maxrss / 1024.0, "MB")}
    detail = {"reference_wall_s": ref.wall_s if ref else None,
              "wall_samples": walls, "tail_percentile": pct,
              "tail_samples": n, "setup_samples": setup}
    return metrics, detail, ref


def single_thread_pass(workload, workdir):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "traced", workload.name, str(workdir)],
        cwd=ROOT, env=dict(os.environ, **SINGLE_THREAD_ENV), check=True,
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    return json.loads(proc.stdout.splitlines()[-1])


def traced_run(workload, seed, seconds, workdir, tally):
    from perfbench import tracing
    from perfbench import workloads as wl

    def traced_call(run_id, *args, **kwargs):
        tracer = tracing.Tracer(run_id)
        with tracing.install(tracer):
            outcome = tally.call(wl.run_call, *args, **kwargs)
        return outcome, tracer

    ref, ref_tracer = traced_call("reference", workload, wl.REFERENCE_SEED,
                                  workdir,
                                  reference=wl.load_reference(workload))
    untraced, traced = [], []

    def step(i):
        s = wl.call_seed(seed, i)
        outcome = tally.call(wl.run_call, workload, s, workdir)
        if outcome is not None:
            untraced.append(outcome.wall_s)
        outcome, tracer = traced_call(f"call-{i}", workload, s, workdir)
        if outcome is not None:
            traced.append((outcome, tracer))

    measure_loop(seconds, step)
    tally.attempted += 1
    try:
        single = single_thread_pass(workload, workdir)
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        tally.failed += 1
        tally.problems.append(f"single-threaded pass: {exc} "
                              f"{(getattr(exc, 'stderr', None) or '')[-800:]}")
        single = None
    else:
        if single["problems"]:
            tally.failed += 1
            tally.problems.extend(single["problems"])
    if ref is None or not traced or not untraced or single is None:
        return None

    per_call = [tracing.layer_metrics(tr.spans, o.n_rows) for o, tr in traced]
    metrics = {k: statistics.median(m[k] for m in per_call)
               for k in per_call[0]}
    # counts come from the reference call: fixed inputs, so they repeat
    ref_layers = tracing.layer_metrics(ref_tracer.spans, ref.n_rows)
    for k in tracing.COUNT_METRICS:
        metrics[k] = ref_layers[k]
    traced_wall = statistics.median(o.wall_s for o, _ in traced)
    untraced_wall = statistics.median(untraced)
    metrics.update({
        "trace.spans": len(ref_tracer.spans),
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "single_thread.wall_s": single["wall_s"],
    })
    tracers = [ref_tracer] + [tr for _, tr in traced]
    detail = {
        "single_thread": {k: single[k] for k in ("wall_s", "blas_threads",
                                                 "metrics")},
        "span_table": {tr.run_id: tracing.span_table(tr.spans)
                       for tr in tracers},
        "spans": [r for tr in tracers for r in tracing.spans_as_records(
            tr.spans)] + single["spans"],
    }
    units = {k: unit_of(k) for k in metrics}
    return {k: (v, units[k]) for k, v in metrics.items()}, detail, ref


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_written"):
        return "B"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    from perfbench import environment
    from perfbench import workloads as wl
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    tally = Tally()
    try:
        run = (traced_run if args.trace else timed_run)(
            workload, args.seed, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run is None:
        for p in tally.problems:
            print(p, file=sys.stderr)
        sys.exit(f"perfbench: {workload.name} produced no result")
    metrics, detail, ref = run

    env = environment.fingerprint(ref.n_rows if ref else workload.n_rows,
                                  ref.rank if ref else None, args.seed)
    env["seed_affects_input"] = workload.seeded
    fail_ratio = tally.failed / tally.attempted
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": workload.name, "env": env, "attempted": tally.attempted,
         "failed": tally.failed, "problems": tally.problems,
         "metrics": metrics, **detail}))

    print(f"workload {workload.name} (L={workload.L}) seed {args.seed} "
          f"trace {args.trace}: {workload.why}")
    print("env " + json.dumps(env))
    for p in tally.problems:
        print(f"GATE FAILURE: {p}")
    if "tail_samples" in detail:
        print(f"wall_s_tail is p{detail['tail_percentile']:.0f} of "
              f"{detail['tail_samples']} warm calls")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':40s} {fail_ratio:14.6g} ratio "
          f"({tally.failed}/{tally.attempted})")
    print(f"details in {OUT / (stem + '.json')}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
