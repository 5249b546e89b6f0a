"""Tests of the benchmark harness itself (not of wanloc).

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import run, tracing
from perfbench import workloads as wl
from wanloc import cli
from wanloc.diagnostics import ChernReport

ROOT = Path(__file__).resolve().parents[2]
SMOKE_L = 6


def span(sid, name, start, end, parent=None, rows=None):
    return tracing.Span(sid=sid, name=name, start=start, end=end,
                        parent=parent, run_id="t", rows=rows)


def test_self_time_subtracts_union_of_children():
    spans = [span(0, "cli.run_pipeline", 0.0, 10.0),
             span(1, "xhat.gap_certificate", 1.0, 3.0, parent=0),
             span(2, "spectral.operator_norm", 2.0, 5.0, parent=0),
             span(3, "io.write_csv", 9.0, 12.0, parent=0),
             span(4, "linalg.svdvals", 1.5, 2.0, parent=1, rows=8)]
    own = tracing.self_times(spans)
    # children of the root cover [1, 5] and [9, 10]: overlap counted once,
    # the part beyond the parent's end not at all
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 0.5)
    assert own[4] == pytest.approx(0.5)


def test_layer_metrics_split_dense_and_small_factorizations():
    spans = [span(0, "cli.run_chern", 0.0, 4.0),
             span(1, "spectral.fermi_projector", 0.5, 2.5, parent=0),
             span(2, "linalg.eigh", 0.5, 2.0, parent=1, rows=72),
             span(3, "linalg.eigh", 3.0, 3.25, parent=0, rows=2),
             span(4, "linalg.eigh", 3.25, 3.5, parent=0, rows=2)]
    m = tracing.layer_metrics(spans, n_rows=72)
    assert m["linalg.dense_N_factorizations"] == 1
    assert m["linalg.dense_N_s"] == pytest.approx(1.5)
    assert m["linalg.small_factorizations"] == 2
    assert m["spectral.fermi_projector_s"] == pytest.approx(2.0)
    assert m["spectral.self_s"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(4.0 - 2.0 - 0.5)
    # self times of all layers add up to the root span
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) \
        == pytest.approx(4.0)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail([float(i) for i in range(1, 21)]) == (20.0, 100.0, 20)
    value, pct, n = run.tail([float(i) for i in range(1, 201)])
    assert (value, pct, n) == (190.0, 95.0, 200)


def test_measure_loop_runs_at_least_once():
    calls = []
    run.measure_loop(0.0, calls.append)
    assert calls == [1]


def bare_report(verdict):
    return cli.RunReport(verdict=verdict, stages={})


def test_gate_rejects_wrong_verdict():
    cfg = cli.PipelineConfig(model_type="haldane", L=6, model_params={},
                             seed=0)
    _, problems, _ = wl.check_pipeline_topological(
        bare_report(cli.VERDICT_OK), None, cfg, 72)
    assert any("verdict" in p for p in problems)
    _, problems, _ = wl.check_pipeline_trivial(
        bare_report(cli.VERDICT_CERT), None, cfg, 72)
    assert any("verdict" in p for p in problems)


def test_gate_rejects_suite_failure_and_marker_off_oracle(tmp_path):
    (tmp_path / "verify_certificates.csv").write_text(
        "# model=disordered\nlambda,delta,snorm,min_gap_distance,pass\n")
    summary = {"decay_lemma": 1, "prod_sum_lemma": 0, "schur_bound": 0}
    _, problems, _ = wl.check_verify((summary, cli.EXIT_INEQUALITY),
                                     str(tmp_path), None, 72)
    assert problems
    reports = [ChernReport(window=w, value=v, imag_residual=0.0,
                           trace_terms=4 * w * w)
               for w, v in ((1, 0.999), (3, 0.98))]
    _, problems, _ = wl.check_chern((reports, 1), None, None, 72)
    assert len(problems) == 1 and "window 3" in problems[0]


def test_compare_reference_tolerance():
    ref = {"certificate_snorm": [0.25, 1e-4], "chern": [-0.0]}
    assert wl.compare_reference({"certificate_snorm": [0.25, 1e-4],
                                 "chern": [0.0]}, ref) == []
    close = {"certificate_snorm": [0.25 * (1 + 1e-12), 1e-4], "chern": [0.0]}
    assert wl.compare_reference(close, ref) == []
    off = {"certificate_snorm": [0.25, 1e-4 * (1 + 1e-9)], "chern": [0.0]}
    assert wl.compare_reference(off, ref)
    short = {"certificate_snorm": [0.25], "chern": [0.0]}
    assert wl.compare_reference(short, ref)


def test_reference_call_matches_and_perturbed_reference_fails(tmp_path):
    workload = wl.WORKLOADS["chern-large"]
    reference = wl.load_reference(workload)
    outcome = wl.run_call(workload, wl.REFERENCE_SEED, tmp_path,
                          reference=reference)
    assert outcome.problems == []
    perturbed = {"chern": [v * (1 + 1e-8) for v in reference["chern"]]}
    assert wl.compare_reference(outcome.values, perturbed)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_smoke_small_L(name, tmp_path):
    workload = wl.WORKLOADS[name]
    outcome = wl.run_call(workload, 3, tmp_path, L=SMOKE_L)
    assert outcome.n_rows == 2 * SMOKE_L ** 2
    assert outcome.wall_s > 0
    assert list(tmp_path.iterdir()) == []


def test_traced_counts_repeat_and_bindings_restored(tmp_path):
    workload = replace(wl.WORKLOADS["pipeline-topological"], L=SMOKE_L)
    bindings = [b.split(":") for bs in tracing.TRACED.values() for b in bs]
    before = [getattr(sys.modules[m], a) for m, a in bindings]
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer("t")
        with tracing.install(tracer):
            outcome = wl.run_call(workload, 0, tmp_path)
        assert tracer.spans[0].name == "cli.run_pipeline"
        assert all(s.parent is not None for s in tracer.spans[1:])
        m = tracing.layer_metrics(tracer.spans, outcome.n_rows)
        counts.append({k: m[k] for k in tracing.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["xhat.certificate_calls"] > 0
    assert counts[0]["linalg.dense_N_factorizations"] > 0
    after = [getattr(sys.modules[m], a) for m, a in bindings]
    assert all(x is y for x, y in zip(before, after))


def test_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "chern-large", "--seed", "1", "--seconds", "0",
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2
    assert set(result["metrics"]) == {"wall_s", "wall_s_tail", "setup_s",
                                      "peak_rss_mb"}
    assert all(math.isfinite(m["value"]) and m["value"] > 0
               for m in result["metrics"].values())


def test_run_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
