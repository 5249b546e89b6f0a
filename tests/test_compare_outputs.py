"""The output comparator of tests/compare_outputs.py: a pipeline run at 1
and at 2 BLAS threads agrees within its thread tolerances, and a single
perturbed cell or entry is caught."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from wanloc.io import read_matrix, write_matrix

import compare_outputs
from compare_outputs import THREAD_TOLERANCES, compare_dirs

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def thread_runs(tmp_path_factory):
    """`wanloc pipeline` on configs/haldane_trivial.cfg in one subprocess at
    1 and one at 2 BLAS threads: the two output directories."""
    base = tmp_path_factory.mktemp("threads")
    outs = []
    for threads in (1, 2):
        out = base / f"t{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "wanloc.cli", "pipeline",
                        str(ROOT / "configs" / "haldane_trivial.cfg"),
                        "--out", str(out)], env=env, check=True,
                       capture_output=True)
        outs.append(out)
    return outs


def test_pipeline_agrees_across_thread_counts(thread_runs):
    one, two = thread_runs
    assert "verdict,exponential-basis-constructed" in \
        (one / "report.csv").read_text()
    assert compare_dirs(one, two, THREAD_TOLERANCES) == []
    assert compare_outputs.main([str(one), str(two), "--threads"]) == 0
    assert compare_outputs.main([str(one), str(one)]) == 0


def _perturb_csv(path, line, column, delta):
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = repr(float(cells[column]) + delta)
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _perturb_wdmx(path, delta):
    M = read_matrix(path)
    M[3, 5] += delta
    write_matrix(path, M)


@pytest.mark.parametrize("name, perturb, where", [
    ("basis_final.csv", lambda p: _perturb_csv(p, 7, 2, 1e-11),
     "line 7, xi: "),
    ("gaps.csv", lambda p: _perturb_csv(p, 3, 5, 1e-4),
     "line 3, decay_gamma: "),
    ("xhat.wdmx", lambda p: _perturb_wdmx(p, 1e-11), "entry (3, 5): "),
])
def test_one_perturbed_cell_is_caught(thread_runs, tmp_path, name, perturb,
                                      where):
    one, two = thread_runs
    changed = tmp_path / "changed"
    shutil.copytree(two, changed)
    perturb(changed / name)
    failures = compare_dirs(one, changed, THREAD_TOLERANCES)
    assert len(failures) == 1
    assert failures[0].startswith(f"{name}: {where}")
    assert "difference" in failures[0]


def test_report_outcome_numbers_are_compared_token_by_token(thread_runs,
                                                            tmp_path):
    one, _ = thread_runs
    changed = tmp_path / "changed"
    shutil.copytree(one, changed)
    report = changed / "report.csv"
    text = report.read_text()
    stage = next(line for line in text.splitlines()
                 if line.startswith("decay,"))
    gamma = stage.split("gamma=")[1].split()[0]
    bumped = repr(float(gamma) * (1 + 1e-3))
    report.write_text(text.replace(f"gamma={gamma} ", f"gamma={bumped} "))
    failures = compare_dirs(one, changed, THREAD_TOLERANCES)
    assert failures == [f"report.csv: line 5, decay: {float(gamma)!r} != "
                        f"{float(bumped)!r} (difference "
                        f"{abs(float(bumped) - float(gamma)):.3e})"]
    assert compare_dirs(one, changed) == ["report.csv: files differ"]
