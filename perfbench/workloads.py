"""The benchmark's workloads: generated configs, calls into the public
`wanloc.cli` entry points, and the correctness gate on every call.

Sizes are chosen so that one run of `run.py` (set-up probes, a reference
call and a measured loop of several warm calls) fits about 30 s on a
2-core machine; the L=16 pipelines (about 20 s a call) and L=32 Chern
runs (about 14 s) do not leave room for more than one warm call.
"""

import csv
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from wanloc import cli

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# seed of the reference call that opens every run; its outputs are compared
# with reference.json (7 is the seed of the shipped disordered config)
REFERENCE_SEED = 7
REFERENCE_RTOL = 1e-10
DEFECT_MAX = 1e-8
CHERN_ORACLE_TOL = 0.01

MODEL_SECTIONS = {
    "disordered": {"type": "disordered", "gap": "2.0", "w": "0.5"},
    "haldane-topological": {"type": "haldane", "t1": "1.0",
                            "t2": repr(1.0 / 3.0), "phi": repr(math.pi / 2.0),
                            "m": "0.2"},
}


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str      # wanloc.cli entry point: run_<entry>
    model: str      # key of MODEL_SECTIONS
    L: int
    why: str

    @property
    def seeded(self):
        """Whether the seed changes the program's input (disorder, cases)."""
        return self.model == "disordered"

    @property
    def n_rows(self):
        return 2 * self.L * self.L


WORKLOADS = {w.name: w for w in (
    Workload("pipeline-trivial", "pipeline", "disordered", 12,
             "trivial insulator: certificates pass at Delta=4, so band "
             "projectors, strips, wannierization and fits run"),
    Workload("pipeline-topological", "pipeline", "haldane-topological", 12,
             "Chern insulator: every Delta fails, certificates dominate and "
             "no band stage runs"),
    Workload("verify", "verify", "disordered", 10,
             "inequality suites, certificates and surveys: many small "
             "factorizations, slower with more BLAS threads"),
    Workload("chern-large", "chern", "haldane-topological", 24,
             "one N x N eigh and two Chern markers at N=1152: the O(N^3) "
             "floor and the marker dominate"),
)}


def call_seed(seed, index):
    """Seed of the index-th measured call of a run started with `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0]
               % 2**31)


def config_text(workload, seed, L=None):
    """INI config for one call; the program receives nothing else."""
    model = dict(MODEL_SECTIONS[workload.model])
    lines = ["[model]", f"type = {model.pop('type')}",
             f"L = {L or workload.L}", f"seed = {seed}"]
    lines += [f"{k} = {v}" for k, v in model.items()]
    lines += ["", "[pipeline]", "fermi_energy = 0.0", "delta_list = 4, 8, 16",
              "output_dir = out", ""]
    return "\n".join(lines)


@dataclass
class Outcome:
    """One call: its wall time, what the gate found, and the values that
    are compared with the reference."""

    wall_s: float
    n_rows: int
    rank: int | None = None
    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)


def _read_csv(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def check_pipeline_trivial(report, out, cfg, n_rows):
    problems = []
    if report.verdict != cli.VERDICT_OK:
        problems.append(f"verdict {report.verdict!r}, expected "
                        f"{cli.VERDICT_OK!r} ({report.stages})")
    rank = report.projector.rank if report.projector is not None else None
    if rank != n_rows // 2:
        problems.append(f"rank {rank}, expected {n_rows // 2}")
    if report.basis_final is None:
        problems.append("no final basis")
    else:
        ortho = report.basis_final.orthonormality_defect()
        complete = report.basis_final.completeness_defect(report.projector.P)
        if not (ortho <= DEFECT_MAX and complete <= DEFECT_MAX):
            problems.append(f"orthonormality {ortho:.3e} / completeness "
                            f"{complete:.3e} above {DEFECT_MAX}")
        fits = _read_csv(os.path.join(out, "basis_final.csv"))
        failed = [r["alpha"] for r in fits if r["pass"] != "1"]
        if len(fits) != n_rows // 2 or failed:
            problems.append(f"{len(fits)} fits, failing: {failed[:5]}")
    values = {"certificate_snorm": [c.snorm for c in report.certificates],
              "gap_intervals": [v for iv in (report.gaps.intervals
                                             if report.gaps else [])
                                for v in iv],
              "chern": [c.value for c in report.chern]}
    return rank, problems, values


def check_pipeline_topological(report, out, cfg, n_rows):
    problems = []
    if report.verdict != cli.VERDICT_CERT:
        problems.append(f"verdict {report.verdict!r}, expected "
                        f"{cli.VERDICT_CERT!r}")
    for delta in cfg.delta_list:
        certs = [c for c in report.certificates if c.delta == delta]
        if not certs or all(c.passed for c in certs):
            problems.append(f"no failing certificate at Delta={delta:g}")
    rank = report.projector.rank if report.projector is not None else None
    values = {"certificate_snorm": [c.snorm for c in report.certificates],
              "chern": [c.value for c in report.chern]}
    return rank, problems, values


def check_verify(result, out, cfg, n_rows):
    summary, code = result
    problems = []
    if code != 0 or set(summary) != {"decay_lemma", "prod_sum_lemma",
                                     "schur_bound"} \
            or any(summary.values()):
        problems.append(f"suite failures {summary}, exit code {code}")
    certs = _read_csv(os.path.join(out, "verify_certificates.csv"))
    values = {"certificate_snorm": [float(r["snorm"]) for r in certs]}
    return None, problems, values


def check_chern(result, out, cfg, n_rows):
    reports, oracle = result
    problems = []
    if not isinstance(oracle, int) or len(reports) != 2:
        problems.append(f"oracle {oracle!r}, {len(reports)} windows")
    else:
        for rep in reports:
            if abs(rep.value - oracle) > CHERN_ORACLE_TOL:
                problems.append(f"marker {rep.value:.6f} at window "
                                f"{rep.window} is not within "
                                f"{CHERN_ORACLE_TOL} of {oracle}")
    return None, problems, {"chern": [r.value for r in reports]}


CHECKS = {"pipeline-trivial": check_pipeline_trivial,
          "pipeline-topological": check_pipeline_topological,
          "verify": check_verify,
          "chern-large": check_chern}


def compare_reference(values, reference, rtol=REFERENCE_RTOL):
    """Problems where `values` differ from `reference` by more than rtol,
    relative to the larger magnitude of each pair."""
    problems = []
    for key, expected in reference.items():
        got = values.get(key)
        if got is None or len(got) != len(expected):
            problems.append(f"{key}: {0 if got is None else len(got)} values, "
                            f"reference has {len(expected)}")
            continue
        for i, (g, e) in enumerate(zip(got, expected)):
            if abs(g - e) > rtol * max(abs(g), abs(e)):
                problems.append(f"{key}[{i}] = {g!r}, reference {e!r}")
                break
    return problems


def load_reference(workload):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[workload.name]


def run_call(workload, seed, workdir, L=None, reference=None):
    """One call of the workload's CLI entry point on a fresh config and
    output directory, timed from config parsing to return, then gated and,
    when a reference is given, compared with it."""
    tmp = tempfile.mkdtemp(prefix="call-", dir=workdir)
    try:
        cfg_path = os.path.join(tmp, "workload.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(config_text(workload, seed, L))
        out = os.path.join(tmp, "out")
        entry = getattr(cli, f"run_{workload.entry}")
        t0 = time.perf_counter()
        cfg = cli.parse_config(cfg_path)
        result = entry(cfg, out_dir=out)
        wall = time.perf_counter() - t0
        n_rows = 2 * cfg.L * cfg.L
        rank, problems, values = CHECKS[workload.name](result, out, cfg,
                                                       n_rows)
        if reference is not None:
            problems += compare_reference(values, reference)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return Outcome(wall_s=wall, n_rows=n_rows, rank=rank, problems=problems,
                   values=values)
