import os
import struct
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import wanloc.io as io
from wanloc.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_VERDICT,
                        MODELS, VERDICT_CERT, VERDICT_ERROR, VERDICT_FIT,
                        VERDICT_OK, PipelineConfig, RunReport, build_model,
                        construct, _default_anchors, main, parse_config,
                        run_pipeline, write_run)
from wanloc.errors import ConfigError, WindowTooLargeError
from wanloc.lattice import ROW_SLAB, TightBindingModel, make_grid
from wanloc.xhat import FilterSpec, build_xhat

from suite_common import DIS_PARAMS, DIS_SEED, TOPO_PARAMS

FULL_CONFIG = """\
[model]
type = disordered
L = 8
gap = 2.0
w = 0.5
seed = 7

[pipeline]
fermi_energy = 0.0
basis_mode = columns
s_grid = 1.0, 2.0, 2.5, 3.0
delta_list = 4, 8, 16
gamma_list = 0.025, 0.05, 0.1, 0.2
d_min = 0.25
d_max = 0.5
output_dir = {out}
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_full_config(tmp_path):
    cfg = parse_config(write_config(tmp_path,
                                    FULL_CONFIG.format(out=tmp_path / "out")))
    assert cfg.model_type == "disordered"
    assert cfg.L == 8
    assert cfg.seed == 7
    assert cfg.model_params == {"gap": 2.0, "w": 0.5}
    assert cfg.delta_list == (4.0, 8.0, 16.0)
    assert cfg.d_min == 0.25


def test_parse_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, "[model]\ntype = ssh\nL = 8\n"
                                              "t1 = 1.0\nt2 = 0.45\n"))
    assert cfg.basis_mode == "columns"
    assert cfg.gamma_list == (0.025, 0.05, 0.1, 0.2)


def test_parse_rejects_empty_model_section(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "[model]\n\n[pipeline]\nd_min = 0.5\n"))


def test_parse_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "nope.cfg"))


def test_validation_rejects_small_delta(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(
            tmp_path, "[model]\ntype = atomic\nL = 6\n\n"
                      "[pipeline]\ndelta_list = 1.0, 8\n"))


def test_validation_rejects_small_lattice(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, "[model]\ntype = atomic\nL = 2\n"))


DIS6_MODEL = "[model]\ntype = disordered\nL = 6\ngap = 2.0\nw = 0.5\nseed = 7\n"


def assert_config_error(tmp_path, text, match):
    cfg = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=match):
        parse_config(cfg)
    assert main(["pipeline", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", ["delta_list = 4, nan", "fermi_energy = nan",
                                  "d_max = inf", "s_grid = 1, -inf"])
def test_validation_rejects_non_finite_numbers(tmp_path, line):
    assert_config_error(tmp_path, DIS6_MODEL + f"\n[pipeline]\n{line}\n",
                        "non-finite")


def test_validation_rejects_non_finite_model_parameter(tmp_path):
    assert_config_error(tmp_path, DIS6_MODEL.replace("w = 0.5", "w = nan"),
                        "non-finite value of w")


@pytest.mark.parametrize("d_min", ["0", "-0.25"])
def test_validation_rejects_nonpositive_d_min(tmp_path, d_min):
    assert_config_error(tmp_path,
                        DIS6_MODEL + f"\n[pipeline]\nd_min = {d_min}\n",
                        "d_min must be > 0")


def test_parse_rejects_unknown_pipeline_key(tmp_path):
    # a misspelled delta_list must not fall back to the default widths
    assert_config_error(tmp_path, DIS6_MODEL + "\n[pipeline]\ndelta = 8\n",
                        "unknown \\[pipeline\\] key delta")


@pytest.mark.parametrize("model, key", [(DIS6_MODEL, "bogus"),
                                        (DIS6_MODEL, "m"),
                                        ("[model]\ntype = atomic\nL = 6\n", "t1")])
def test_validation_rejects_model_parameter_the_model_does_not_read(
        tmp_path, model, key):
    assert_config_error(tmp_path, model + f"{key} = 3\n",
                        f"does not read {key}$")


def test_shipped_configs_parse():
    root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    for name in ("disordered", "haldane_trivial", "haldane_topological"):
        cfg = parse_config(os.path.join(root, f"{name}.cfg"))
        assert cfg.delta_list == (4.0, 8.0, 16.0)


def test_build_model_dispatch(tmp_path):
    cfg = parse_config(write_config(
        tmp_path, "[model]\ntype = haldane\nL = 4\nt1 = 1.0\nt2 = 0.0\n"
                  "phi = 0.0\nm = 1.0\n"))
    model = build_model(cfg)
    assert model.params["type"] == "haldane"
    assert model.grid.dimension == 32


# a value for every [model] parameter, away from each type's default
GIVEN_PARAMS = {"haldane": {"t1": 0.8, "t2": 0.2, "phi": 1.1, "m": 0.4},
                "disordered": {"gap": 3.0, "w": 0.25},
                "ssh": {"t1": 0.4, "t2": 1.2}, "atomic": {"m": 2.0}}


@pytest.mark.parametrize("model_type", sorted(MODELS))
def test_build_model_covers_every_type(model_type):
    defaults, _ = MODELS[model_type]
    assert set(GIVEN_PARAMS[model_type]) == set(defaults)
    for given in ({}, GIVEN_PARAMS[model_type]):
        cfg = PipelineConfig(model_type=model_type, L=5, model_params=given,
                             seed=3)
        model = build_model(cfg)
        for name, value in {**defaults, **given}.items():
            assert model.params[name] == value
        assert model.params["type"] == ("haldane" if model_type == "atomic"
                                        else model_type)
        assert model.grid.dimension == (10 if model_type == "ssh" else 50)


def test_config_rejects_an_unknown_type_at_construction():
    with pytest.raises(ConfigError, match="kagome"):
        PipelineConfig(model_type="kagome", L=6, model_params={}, seed=0)


def test_replace_checks_the_new_config():
    cfg = PipelineConfig(model_type="disordered", L=8, model_params=DIS_PARAMS,
                         seed=DIS_SEED)
    with pytest.raises(ConfigError, match="L must be >= 4"):
        replace(cfg, L=3)
    with pytest.raises(ConfigError, match="every Delta must be >= 2"):
        replace(cfg, delta_list=(1.0,))


def test_wdmx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    R = rng.standard_normal((6, 4))
    inputs = (M, R, np.asfortranarray(M), R[::2, 1::2], M.T)
    path = str(tmp_path / "m.wdmx")
    for A in inputs:
        io.write_matrix(path, A)
        back = io.read_matrix(path)
        assert back.shape == A.shape
        assert np.array_equal(back, A.astype(np.complex128))
        with open(path, "rb") as fh:
            assert fh.read(4) == b"WDMX"
            assert fh.read(16) == np.array(A.shape, dtype="<u8").tobytes()
            assert fh.read() == np.array(A, dtype="<c16", order="C").tobytes()


def test_wdmx_slabbed_write_matches_the_one_shot_bytes(tmp_path, dis12_report,
                                                      topological12_report):
    """Written a row slab at a time, a real, a complex and a 1 x N operand,
    over more than two slabs where they have rows, give the bytes of one
    complex128 conversion of the whole matrix.  The xhat.wdmx that
    `write_run` writes from the row slabs of a real and a complex X-tilde
    (N = 288, three slabs) has the bytes of `write_matrix` of `build_xhat`."""
    rng = np.random.default_rng(4)
    rows = 2 * ROW_SLAB + 17
    inputs = (rng.standard_normal((rows, 9)),
              rng.standard_normal((rows, 6)) + 1j * rng.standard_normal((rows, 6)),
              rng.standard_normal((1, rows)),
              rng.standard_normal((2 * rows, 5))[::2])
    path = tmp_path / "m.wdmx"
    for A in inputs:
        io.write_matrix(str(path), A)
        one_shot = (b"WDMX" + struct.pack("<QQ", *A.shape)
                    + np.ascontiguousarray(A, dtype="<c16").tobytes())
        assert path.read_bytes() == one_shot
    for report, dtype in ((dis12_report, np.float64),
                          (topological12_report, np.complex128)):
        xt = report.xtilde
        assert xt.matrix.dtype == dtype and len(xt.matrix) > 2 * ROW_SLAB
        cfg = PipelineConfig(model_type="disordered", L=12,
                             model_params=DIS_PARAMS, seed=DIS_SEED)
        for delta in (4.0, 16.0):
            out = tmp_path / f"{dtype.__name__}-{delta:g}"
            write_run(RunReport(xtilde=xt, chosen_delta=delta), cfg, str(out))
            io.write_matrix(str(path), build_xhat(xt, FilterSpec(delta)))
            assert (out / "xhat.wdmx").read_bytes() == path.read_bytes()


def test_wdmx_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.wdmx"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(ValueError):
        io.read_matrix(str(path))


def test_csv_has_metadata_and_header(tmp_path):
    path = str(tmp_path / "t.csv")
    io.write_csv(path, ("a", "b"), [(1, 2.5), (3, 0.1)],
                 meta={"model": "x", "seed": 1, "L": 8, "Delta": 0})
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "# model=x seed=1 L=8 Delta=0"
    assert lines[1] == "a,b"
    assert lines[2] == "1,2.5"


def test_model_subcommand_dumps_hamiltonian(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "[model]\ntype = ssh\nL = 6\nt1 = 1.0\n"
                                 "t2 = 0.45\n")
    assert main(["model", cfg, "--out", str(out)]) == EXIT_OK
    H = io.read_matrix(str(out / "hamiltonian.wdmx"))
    assert H.shape == (12, 12)
    assert np.allclose(H, H.conj().T)


def test_chern_subcommand_rejects_1d(tmp_path):
    cfg = write_config(tmp_path, "[model]\ntype = ssh\nL = 6\nt1 = 1.0\n"
                                 "t2 = 0.45\n")
    assert main(["chern", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert not (tmp_path / "o").exists()


def test_chern_subcommand_writes_marker_and_oracle(tmp_path):
    cfg = write_config(tmp_path,
                       "[model]\ntype = haldane\nL = 8\nt1 = 1.0\n"
                       "t2 = 0.3333333333333333\nphi = 1.5707963267948966\n"
                       "m = 0.2\nseed = 0\n\n[pipeline]\nchern_windows = 2\n")
    out = tmp_path / "chern_out"
    assert main(["chern", cfg, "--out", str(out)]) == EXIT_OK
    lines = (out / "chern.csv").read_text().splitlines()
    assert lines[1] == "window,value,imag_residual,trace_terms,oracle"
    row = lines[2].split(",")
    assert row[-1] == "1"             # k-space oracle for this phase


@pytest.mark.parametrize("windows", ["0", "-1", "1.7"])
def test_chern_subcommand_rejects_nonpositive_window(tmp_path, windows):
    cfg = write_config(tmp_path,
                       "[model]\ntype = haldane\nL = 8\nt1 = 1.0\n"
                       "t2 = 0.3333333333333333\nphi = 1.5707963267948966\n"
                       f"m = 0.2\n\n[pipeline]\nchern_windows = {windows}\n")
    assert main(["chern", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_validation_rejects_unknown_basis_mode(tmp_path):
    cfg = write_config(tmp_path, "[model]\ntype = atomic\nL = 6\n\n"
                                 "[pipeline]\nbasis_mode = bogus\n")
    with pytest.raises(ConfigError, match="basis mode"):
        parse_config(cfg)
    for command in ("pipeline", "verify"):
        out = str(tmp_path / command)
        assert main([command, cfg, "--out", out]) == EXIT_CONFIG


def test_pipeline_empty_range_ends_with_report(tmp_path):
    # every level of the atomic model lies above E_F: rank P = 0
    cfg = write_config(tmp_path, "[model]\ntype = atomic\nL = 6\nm = 1.0\n\n"
                                 "[pipeline]\nfermi_energy = -5\n")
    out = tmp_path / "empty"
    assert main(["pipeline", cfg, "--out", str(out)]) == EXIT_VERDICT
    report = (out / "report.csv").read_text()
    assert "IncompleteBasisError: projector has empty range" in report
    assert report.splitlines()[-1] == "verdict,stage-error"


def test_verify_runtime_failure_exits_with_runtime_code(tmp_path):
    # rank P = 0 is a numerical failure of the run, not a config error
    cfg = write_config(tmp_path, "[model]\ntype = atomic\nL = 6\nm = 1.0\n\n"
                                 "[pipeline]\nfermi_energy = -5\n")
    assert main(["verify", cfg, "--out", str(tmp_path / "v")]) == EXIT_RUNTIME


def test_chern_oversized_window_is_config_error(tmp_path):
    # half-width 3 leaves less than L/4 of margin on an L=8 sample
    cfg = write_config(tmp_path,
                       "[model]\ntype = haldane\nL = 8\nt1 = 1.0\n"
                       "t2 = 0.3333333333333333\nphi = 1.5707963267948966\n"
                       "m = 0.2\n\n[pipeline]\nchern_windows = 3\n")
    with pytest.raises(WindowTooLargeError):
        parse_config(cfg)
    for command in ("chern", "pipeline"):
        out = tmp_path / command
        assert main([command, cfg, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


def test_negative_gamma_is_config_error(tmp_path):
    text = ("[model]\ntype = disordered\nL = 6\ngap = 2.0\nw = 0.5\n\n"
            "[pipeline]\ngamma_list = {}\n")
    with pytest.raises(ConfigError, match="gamma"):
        parse_config(write_config(tmp_path, text.format("0.05, -0.1")))
    for command in ("pipeline", "verify"):
        out = tmp_path / command
        cfg = write_config(tmp_path, text.format("-0.1"))
        assert main([command, cfg, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
    # a zero rate is an untilted operator, which tilt_lipschitz handles
    assert parse_config(write_config(
        tmp_path, text.format("0, 0.1"))).gamma_list == (0.0, 0.1)


def test_empty_output_path_is_config_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    empty = write_config(tmp_path, "[model]\ntype = atomic\nL = 4\n\n"
                                   "[pipeline]\noutput_dir =\n", "empty.cfg")
    named = write_config(tmp_path, "[model]\ntype = atomic\nL = 4\n\n"
                                   "[pipeline]\noutput_dir = named\n")
    for command in ("pipeline", "verify", "chern", "model"):
        assert main([command, empty]) == EXIT_CONFIG, command
        assert main([command, named, "--out", ""]) == EXIT_CONFIG, command
    assert sorted(os.listdir(tmp_path)) == ["empty.cfg", "run.cfg"]


def test_negative_disorder_is_config_error(tmp_path):
    # numpy's uniform(-w/2, w/2) raises ValueError for w < 0
    text = "[model]\ntype = disordered\nL = 6\ngap = 2.11\nw = {}\n"
    with pytest.raises(ConfigError, match="w must be >= 0"):
        parse_config(write_config(tmp_path, text.format("-0.178")))
    for command in ("model", "pipeline", "chern", "verify"):
        out = tmp_path / command
        cfg = write_config(tmp_path, text.format("-0.178"))
        assert main([command, cfg, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
    # the clean limit stays allowed
    assert parse_config(write_config(
        tmp_path, text.format("0"))).model_params["w"] == 0.0


def test_pipeline_exit_codes(tmp_path):
    ok_cfg = write_config(tmp_path, "[model]\ntype = atomic\nL = 6\nm = 1.0\n",
                          name="ok.cfg")
    assert main(["pipeline", ok_cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
    # Fermi level placed exactly on an eigenvalue: hard stage error
    bad_cfg = write_config(tmp_path,
                           "[model]\ntype = atomic\nL = 6\nm = 1.0\n\n"
                           "[pipeline]\nfermi_energy = 1.0\n", name="bad.cfg")
    assert main(["pipeline", bad_cfg, "--out", str(tmp_path / "b")]) == EXIT_VERDICT
    missing = write_config(tmp_path, "[pipeline]\nd_min = 0.1\n", name="no.cfg")
    assert main(["pipeline", missing, "--out", str(tmp_path / "c")]) == EXIT_CONFIG


def test_seed_override(tmp_path):
    cfg_path = write_config(tmp_path, "[model]\ntype = disordered\nL = 6\n"
                                      "gap = 2.0\nw = 0.5\nseed = 7\n")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["model", cfg_path, "--out", str(out1)]) == EXIT_OK
    assert main(["model", cfg_path, "--out", str(out2), "--seed", "9"]) == EXIT_OK
    H1 = io.read_matrix(str(out1 / "hamiltonian.wdmx"))
    H2 = io.read_matrix(str(out2 / "hamiltonian.wdmx"))
    assert not np.array_equal(H1, H2)


def test_negative_seed_in_config_is_a_config_error(tmp_path):
    cfg_path = write_config(tmp_path, "[model]\ntype = disordered\nL = 6\n"
                                      "gap = 2.0\nw = 0.5\nseed = -1\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(cfg_path)
    for command in ("pipeline", "verify", "model"):
        out = tmp_path / command
        assert main([command, cfg_path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


def test_negative_seed_flag_is_a_config_error(tmp_path):
    cfg_path = write_config(tmp_path, "[model]\ntype = disordered\nL = 6\n"
                                      "gap = 2.0\nw = 0.5\nseed = 7\n")
    for command in ("pipeline", "verify", "model"):
        out = tmp_path / command
        assert main([command, cfg_path, "--out", str(out),
                     "--seed", "-1"]) == EXIT_CONFIG
        assert not out.exists()


def test_verify_exit_code_on_inequality_failure(tmp_path, monkeypatch):
    import wanloc.cli as cli
    monkeypatch.setattr(cli.diagnostics, "lemma_decay_check",
                        lambda *a, **k: (1.0, 0.0, False))
    cfg_path = write_config(tmp_path, "[model]\ntype = atomic\nL = 6\nm = 1.0\n")
    assert main(["verify", cfg_path, "--out", str(tmp_path / "v")]) == 3


def test_verify_checks_the_span_of_the_basis_once(tmp_path, monkeypatch):
    """`build_xtilde` checks that the basis spans range(P); the surveys of
    `verify` read the surrogate and do not repeat the check."""
    import wanloc.xhat as xhat
    check, calls = xhat.check_spans_range, []

    def spy(*args):
        calls.append(args)
        return check(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("wanloc") and hasattr(module, "check_spans_range"):
            monkeypatch.setattr(module, "check_spans_range", spy)
    cfg_path = write_config(tmp_path, "[model]\ntype = atomic\nL = 6\nm = 1.0\n")
    assert main(["verify", cfg_path, "--out", str(tmp_path / "v")]) == EXIT_OK
    assert len(calls) == 1


def test_pipeline_atomic_verdict_with_sentinels(tmp_path):
    cfg = PipelineConfig(model_type="atomic", L=6, model_params={"m": 1.0},
                         seed=0, output_dir=str(tmp_path / "atom"))
    report = run_pipeline(cfg)
    assert report.verdict == "exponential-basis-constructed"
    assert all(f is not None and f.flag == "compact-support"
               for f in report.final_fits)
    for name in ("report.csv", "decay.csv", "basis_initial.csv",
                 "certificates.csv", "gaps.csv", "strips.csv",
                 "basis_final.csv", "chern.csv"):
        assert os.path.exists(os.path.join(cfg.output_dir, name)), name


def test_pipeline_outputs_are_byte_deterministic(tmp_path):
    outs = []
    for tag in ("r1", "r2"):
        cfg = PipelineConfig(model_type="disordered", L=8,
                             model_params={"gap": 2.0, "w": 0.5}, seed=7,
                             output_dir=str(tmp_path / tag))
        run_pipeline(cfg)
        outs.append(tmp_path / tag)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between runs"


def test_failed_fit_has_its_own_verdict(tmp_path):
    # haldane_topological.cfg with only m changed: trivial (m_c = sqrt 3),
    # gapped and certified, but most per-function fits fall below r2 0.9
    text = Path(os.path.dirname(__file__), "..", "configs",
                "haldane_topological.cfg").read_text()
    assert "m = 0.2\n" in text
    cfg = write_config(tmp_path, text.replace("m = 0.2\n", "m = 1.9\n"))
    out = tmp_path / "m19"
    assert main(["pipeline", cfg, "--out", str(out)]) == EXIT_VERDICT
    report = (out / "report.csv").read_text()
    assert "fits,failed" in report and "error," not in report
    assert report.splitlines()[-1] == "verdict,fit-failed"


def _non_hermitian_model(cfg):
    model = build_model(cfg)
    H = model.H.copy()
    H[0, 1] += 1.0
    return TightBindingModel(grid=model.grid, H=H, params=model.params)


def test_invariant_errors_end_in_documented_exit_codes(tmp_path, monkeypatch):
    import wanloc.cli as cli
    monkeypatch.setattr(cli, "build_model", _non_hermitian_model)
    cfg = write_config(tmp_path, "[model]\ntype = atomic\nL = 6\nm = 1.0\n")
    out = tmp_path / "p"
    assert main(["pipeline", cfg, "--out", str(out)]) == EXIT_VERDICT
    report = (out / "report.csv").read_text()
    assert "error,NotHermitianError: Hamiltonian not Hermitian" in report
    assert report.splitlines()[-1] == "verdict,stage-error"
    for command in ("verify", "chern", "model"):
        assert main([command, cfg, "--out", str(tmp_path / command)]) == EXIT_RUNTIME


def test_chern_residual_exits_with_runtime_code(tmp_path, monkeypatch):
    import wanloc.cli as cli
    monkeypatch.setattr(cli.diagnostics, "CHERN_IMAG_TOL", -1.0)
    cfg = write_config(tmp_path, "[model]\ntype = atomic\nL = 8\nm = 1.0\n")
    assert main(["chern", cfg, "--out", str(tmp_path / "c")]) == EXIT_RUNTIME


def _config_file(name):
    return os.path.join(os.path.dirname(__file__), os.pardir, "configs", name)


TOPOLOGICAL_CFG = Path(_config_file("haldane_topological.cfg")).read_text()


def _files(path):
    return {name: (path / name).read_bytes() for name in os.listdir(path)}


def test_rerun_into_one_directory_removes_the_earlier_pipeline_files(tmp_path):
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir()
    (shared / "notes.txt").write_text("kept\n")
    trivial = _config_file("haldane_trivial.cfg")
    topological = _config_file("haldane_topological.cfg")
    assert main(["pipeline", trivial, "--out", str(shared)]) == EXIT_OK
    assert len(os.listdir(shared)) == 13
    assert main(["pipeline", topological, "--out", str(shared)]) == EXIT_VERDICT
    assert main(["pipeline", topological, "--out", str(fresh)]) == EXIT_VERDICT
    left = _files(shared)
    assert left.pop("notes.txt") == b"kept\n"
    assert len(left) == 6
    assert left == _files(fresh)


def _no_writes(*args, **kwargs):
    raise AssertionError("construct wrote a file")


@pytest.mark.parametrize("fixture, model_type, params, seed", [
    ("dis12_report", "disordered", DIS_PARAMS, DIS_SEED),
    ("topological12_report", "haldane", TOPO_PARAMS, 0)])
def test_construct_writes_nothing(fixture, model_type, params, seed, request,
                                  tmp_path, monkeypatch):
    written = request.getfixturevalue(fixture)
    cfg = PipelineConfig(model_type=model_type, L=12, model_params=params,
                         seed=seed, output_dir=str(tmp_path / "never"))
    monkeypatch.setattr(io, "write_csv", _no_writes)
    monkeypatch.setattr(io, "write_matrix", _no_writes)
    report = construct(cfg)
    assert report.verdict == written.verdict
    assert report.verdict in (VERDICT_OK, VERDICT_CERT)
    assert ([astuple(c) for c in report.certificates]
            == [astuple(c) for c in written.certificates])
    assert not (tmp_path / "never").exists()


FRONT_FILES = {"hamiltonian.wdmx", "decay.csv", "basis_initial.csv",
               "basis_initial.wdmx", "certificates.csv", "report.csv"}
BAND_FILES = {"xhat.wdmx", "gaps.csv", "strips.csv", "basis_final.csv",
              "basis_final.wdmx"}


@pytest.mark.parametrize("config, verdict, files", [
    ("[model]\ntype = atomic\nL = 6\nm = 1.0\n", VERDICT_OK,
     FRONT_FILES | BAND_FILES | {"chern.csv"}),
    ("[model]\ntype = ssh\nL = 12\nt1 = 1.0\nt2 = 0.45\n", VERDICT_FIT,
     FRONT_FILES | BAND_FILES),
    (TOPOLOGICAL_CFG, VERDICT_CERT, FRONT_FILES),
    # trivial (m_c = sqrt 3) near the transition: certified, failing fits
    (TOPOLOGICAL_CFG.replace("m = 0.2\n", "m = 1.9\n"), VERDICT_FIT,
     FRONT_FILES | BAND_FILES | {"chern.csv"}),
    ("[model]\ntype = atomic\nL = 6\nm = 0.0\n", VERDICT_ERROR,
     {"hamiltonian.wdmx", "report.csv"}),
], ids=["constructed", "ssh", "certificate-failed", "fit-failed",
        "stage-error"])
def test_pipeline_files_of_each_verdict(tmp_path, config, verdict, files):
    report = run_pipeline(parse_config(write_config(tmp_path, config)),
                          out_dir=str(tmp_path / "out"))
    assert report.verdict == verdict
    assert set(os.listdir(tmp_path / "out")) == files


@pytest.mark.parametrize("L", [4, 5, 12, 24])
def test_default_anchors_lie_on_the_sample(L):
    """A sheet keeps the (c, c) triple, offset by max(L // 4, 1) along the
    diagonal; a chain's anchors share its x values and lie on it, at y = 0."""
    c, off = (L - 1) / 2.0, max(L // 4, 1)
    sheet = _default_anchors(make_grid(L, 2, ndim=2))
    assert [tuple(a.tolist()) for a in sheet] == [
        (c, c), (c - off, c - off), (c + off, c + off)]
    chain = _default_anchors(make_grid(L, 2, ndim=1))
    assert [tuple(a.tolist()) for a in chain] == [
        (c, 0.0), (c - off, 0.0), (c + off, 0.0)]
