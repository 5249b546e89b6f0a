"""The dtype follows H: a real Hamiltonian is carried in float64 from its
diagonalization on, a complex one in complex128, and a gauge twin of a real
model (complex path) gives the same physics as the real path."""

import csv
from dataclasses import replace

import numpy as np
import pytest

import wanloc as wl
from wanloc import cli
from wanloc.cli import PipelineConfig, run_pipeline

from suite_common import DIS_PARAMS, DIS_SEED

RTOL = 1e-10


def gauge_twin(model, seed=3):
    """H' = D H D* with a random diagonal phase D: same spectrum, complex H."""
    d = np.exp(2j * np.pi * np.random.default_rng(seed).random(model.grid.dimension))
    return replace(model, H=d[:, None] * model.H * d.conj()[None, :])


def test_dtype_follows_hamiltonian(dis8_stack, topo8_stack, dis12_report):
    model, P, basis, xt = dis8_stack
    assert not np.any(model.H.imag) and model.H.dtype == np.complex128
    for arr in (P.V, P.P, basis.psi, xt.matrix, dis12_report.basis_final.psi,
                *dis12_report.bands.vectors):
        assert arr.dtype == np.float64
    _, P, basis, xt = topo8_stack
    for arr in (P.V, basis.psi, xt.matrix):
        assert arr.dtype == np.complex128


def _pipeline(tmp_path, monkeypatch, twin):
    out = tmp_path / ("twin" if twin else "real")
    cfg = PipelineConfig(model_type="disordered", L=8, model_params=DIS_PARAMS,
                         seed=DIS_SEED, output_dir=str(out))
    with monkeypatch.context() as patch:
        if twin:
            build = cli.build_model
            patch.setattr(cli, "build_model", lambda cfg: gauge_twin(build(cfg)))
        report = run_pipeline(cfg)
    with open(out / "strips.csv") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    strips = [float(r[k]) for r in rows for k in ("norm_left", "norm_right")]
    P, basis = report.projector, report.basis_initial
    lambdas = wl.gap_midpoints(0.0, 7.0)
    xt = wl.build_xtilde(basis, P)
    xh = wl.build_xhat(xt, wl.FilterSpec(8.0))
    _, tilt_rows = wl.tilt_lipschitz(xh, (0.05, 0.2), [(3.5, 3.5), (0.0, 7.0)],
                                     xt.grid)
    surveys = ([v for row in wl.sqrt_bound_survey(P, basis, lambdas) for v in row]
               + [v for row in wl.tilted_comm_survey(xt, lambdas) for v in row]
               + [v for row in tilt_rows for v in row])
    return report, strips, surveys


def test_gauge_twin_matches_real_path(tmp_path, monkeypatch):
    real, strips_r, surveys_r = _pipeline(tmp_path, monkeypatch, twin=False)
    twin, strips_t, surveys_t = _pipeline(tmp_path, monkeypatch, twin=True)
    assert real.projector.V.dtype == np.float64
    assert twin.projector.V.dtype == np.complex128
    assert real.verdict == twin.verdict == cli.VERDICT_OK
    np.testing.assert_allclose([c.snorm for c in twin.certificates],
                               [c.snorm for c in real.certificates],
                               rtol=RTOL, atol=0)
    np.testing.assert_allclose(np.ravel(twin.gaps.intervals),
                               np.ravel(real.gaps.intervals), rtol=RTOL, atol=0)
    assert len(strips_r) == 2 * len(real.bands.vectors)
    np.testing.assert_allclose(strips_t, strips_r, rtol=RTOL, atol=0)
    np.testing.assert_allclose(surveys_t, surveys_r, rtol=RTOL, atol=0)


def test_site_pair_bins_cached_per_grid():
    grid = wl.make_grid(5, 2, ndim=2)
    order, starts, dist = grid.site_pair_bins
    assert grid.site_pair_bins[0] is order
    sx, sy = grid.site_coords()
    d = np.sqrt((sx[:, None] - sx[None, :]) ** 2
                + (sy[:, None] - sy[None, :]) ** 2).ravel()
    assert np.array_equal(d[order][starts], dist)
    assert np.all(np.diff(d[order]) >= 0)
    assert dist[0] == 0.0 and dist[-1] == pytest.approx(4.0 * np.sqrt(2.0))
