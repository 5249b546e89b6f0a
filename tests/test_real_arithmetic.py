"""The dtype follows H: a real Hamiltonian is carried in float64 from its
diagonalization on, a complex one in complex128, and a gauge twin of a real
model (complex path) gives the same physics as the real path.  A complex H
that obeys the x <-> y mirror S H S = conj(H), such as the Haldane model, is
diagonalized in real form and gives the physics of the complex eigensolve."""

import csv
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest

import wanloc as wl
from wanloc import cli, spectral
from wanloc.cli import PipelineConfig, run_pipeline
from wanloc.lattice import xy_mirror
from wanloc.spectral import Projector, eigh_projector, projector_operand
from wanloc.xhat import certificate_coupling

from suite_common import (DIS_PARAMS, DIS_SEED, TOPO_PARAMS, gauge_phases,
                          gauge_twin)

RTOL = 1e-10
REAL_FORM_TOL = 1e-12


def test_dtype_follows_hamiltonian(dis8_stack, topo8_stack, dis12_report):
    model, P, basis, xt = dis8_stack
    assert model.H.dtype == np.float64
    for arr in (P.V, P.P, basis.psi, xt.matrix, dis12_report.basis_final.psi,
                *dis12_report.bands.vectors):
        assert arr.dtype == np.float64
    _, P, basis, xt = topo8_stack
    for arr in (P.V, basis.psi, xt.matrix):
        assert arr.dtype == np.complex128


def test_range_factor_stages_stay_real(dis8_stack, dis12_report,
                                       monkeypatch):
    """On a real H the surrogate, the coupling K (and so its N x n slab
    products, whose complex part K would inherit) and every slab of the
    kernel envelopes stay float64."""
    _, P, _, xt = dis8_stack
    assert xt.matrix.dtype == np.float64
    assert certificate_coupling(xt, wl.FilterSpec(4.0)).dtype == np.float64
    seen, site_maxima = [], spectral._site_maxima

    def spy(A, o):
        seen.append(A.dtype)
        return site_maxima(A, o)

    monkeypatch.setattr(spectral, "_site_maxima", spy)
    wl.kernel_decay_fit(P)
    spectral.factor_envelope(dis12_report.bands.vectors[0],
                             dis12_report.model.grid)
    assert seen and set(seen) == {np.dtype(np.float64)}


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
    surveys = ([v for row in wl.sqrt_bound_survey(xt, lambdas) for v in row]
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


def record_eigh(monkeypatch):
    """Replace np.linalg.eigh by a recorder; returns the list that each call
    appends (operand dtype, eigenvalues) to."""
    calls = []
    eigh = np.linalg.eigh

    def recorder(A, *args, **kwargs):
        out = eigh(A, *args, **kwargs)
        calls.append((A.dtype, out[0]))
        return out

    monkeypatch.setattr(np.linalg, "eigh", recorder)
    return calls


def haldane_draws(count=6, seed=11):
    """Random (t1, t2, phi, m) with phi away from 0 and pi, so H is complex."""
    rng = np.random.default_rng(seed)
    return [(float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-1.0, 1.0)),
             float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, np.pi - 0.2)),
             float(rng.uniform(-3.0, 3.0))) for _ in range(count)]


def shipped_topological():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "haldane_topological.cfg")
    return cli.build_model(cli.parse_config(path))


@pytest.mark.parametrize("params, dtype", [
    ((1.0, 0.0, np.pi / 2, 0.5), np.float64),
    ((1.0, 1 / 3, 0.0, 0.5), np.float64),
    ((1.0, 1 / 3, np.pi / 2, 0.5), np.complex128),
    ((1.0, 1 / 3, np.pi, 0.5), np.complex128),
    (None, np.float64)])
def test_haldane_dtype_follows_its_amplitudes(params, dtype):
    """Real amplitudes (t2 = 0, phi = 0, the atomic model) build a float64
    H, which is its own operand; exp(i pi) has an imaginary part, so
    phi = pi stays complex."""
    model = (wl.build_atomic(6) if params is None
             else wl.build_haldane(6, *params))
    assert model.H.dtype == dtype
    if dtype is np.float64:
        A, mirror = projector_operand(model)
        assert A is model.H and mirror is None


def test_xy_mirror_swaps_the_coordinates():
    grid = wl.make_grid(5, 2, ndim=2)
    s = xy_mirror(grid)
    assert np.array_equal(grid.x[s], grid.y) and np.array_equal(grid.y[s], grid.x)
    assert np.array_equal(s % 2, np.arange(grid.dimension) % 2)
    assert np.array_equal(s[s], np.arange(grid.dimension))
    assert xy_mirror(wl.make_grid(5, 2, ndim=1)) is None


@pytest.mark.parametrize("L, params", [(12, None)] + [(L, p) for L in (4, 7)
                                                     for p in haldane_draws()])
def test_haldane_obeys_the_xy_mirror_bitwise(L, params, monkeypatch):
    """The guard of the real-form eigensolve: a bond-table edit that breaks
    the mirror makes H fall back to the complex eigh and fails here."""
    model = (shipped_topological() if params is None
             else wl.build_haldane(L, *params))
    H, s = model.H, xy_mirror(model.grid)
    assert np.any(H.imag)
    assert np.array_equal(H[s][:, s], H.conj())
    calls = record_eigh(monkeypatch)
    wl.fermi_projector(model, 0.0)
    assert [dtype for dtype, _ in calls] == [np.float64]


def topological(L):
    return wl.build_haldane(L, TOPO_PARAMS["t1"], TOPO_PARAMS["t2"],
                            TOPO_PARAMS["phi"], TOPO_PARAMS["m"])


def complex_reference(model, fermi_energy=0.0):
    """Eigenvalues and Projector from a direct complex eigh of H."""
    evals, evecs = np.linalg.eigh(model.H)
    gap = 2.0 * float(np.min(np.abs(evals - fermi_energy)))
    return evals, Projector(factor=evecs[:, evals < fermi_energy],
                                 fermi_energy=fermi_energy, gap=gap,
                                 grid=model.grid)


@pytest.mark.parametrize("L", [6, 8])
def test_real_form_matches_the_complex_eigensolve(L, monkeypatch):
    model = topological(L)
    ref_evals, ref = complex_reference(model)
    calls = record_eigh(monkeypatch)
    P = wl.fermi_projector(model, 0.0)
    (dtype, evals), = calls
    assert dtype == np.float64
    np.testing.assert_allclose(evals, ref_evals, rtol=0, atol=REAL_FORM_TOL)
    assert P.rank == ref.rank
    assert P.gap == pytest.approx(ref.gap, rel=REAL_FORM_TOL)
    assert P.V.dtype == np.complex128
    assert np.linalg.norm(P.V.conj().T @ P.V - np.eye(P.rank)) < REAL_FORM_TOL
    assert np.max(np.abs(P.P - ref.P)) < REAL_FORM_TOL
    windows = [w for w in (1, 2) if w <= L / 4.0]
    for got, want in zip(wl.chern_marker(P, windows),
                         wl.chern_marker(ref, windows), strict=True):
        assert got.value == pytest.approx(want.value, rel=REAL_FORM_TOL)


def perturbed_diagonal(model, seed=5):
    """The model with a random on-site term, which breaks the mirror."""
    d = np.random.default_rng(seed).uniform(-0.05, 0.05, model.grid.dimension)
    return replace(model, H=model.H + np.diag(d))


def test_models_without_the_mirror_take_the_complex_path(monkeypatch):
    topo = topological(8)
    twin = gauge_twin(topo)
    chain = gauge_twin(wl.build_ssh_chain(12, t1=1.0, t2=0.45))
    calls = record_eigh(monkeypatch)
    for model in (perturbed_diagonal(topo), twin, chain):
        calls.clear()
        P = wl.fermi_projector(model, 0.0)
        assert [dtype for dtype, _ in calls] == [np.complex128]
        _, ref = complex_reference(model)
        assert np.max(np.abs(P.P - ref.P)) < REAL_FORM_TOL
    # the twin's P' = D P D*, with P from the real form of the mirror path
    d = gauge_phases(topo.grid.dimension)
    P = wl.fermi_projector(topo, 0.0)
    twin_P = wl.fermi_projector(twin, 0.0)
    assert np.max(np.abs(twin_P.P - d[:, None] * P.P * d.conj()[None, :])) \
        < REAL_FORM_TOL


def test_chern_frees_the_hamiltonian_before_its_eigensolve(tmp_path,
                                                           monkeypatch):
    """`run_chern` drops the model once the real operand M exists, so the
    complex H is gone when the one N x N eigh allocates its buffers."""
    refs, dense = [], []
    build, eigh = cli.build_model, np.linalg.eigh

    def recording_build(cfg):
        model = build(cfg)
        refs.append(weakref.ref(model.H))
        return model

    def recorder(A, *args, **kwargs):
        if A.ndim == 2:     # not the k-space oracle's stack of 2 x 2 blocks
            dense.append((A.dtype, refs[-1]() is None))
        return eigh(A, *args, **kwargs)

    monkeypatch.setattr(cli, "build_model", recording_build)
    monkeypatch.setattr(np.linalg, "eigh", recorder)
    cfg = PipelineConfig(model_type="haldane", L=8, model_params=TOPO_PARAMS,
                         seed=0, output_dir=str(tmp_path))
    cli.run_chern(cfg)
    assert dense == [(np.float64, True)]


@pytest.mark.parametrize("kind", ["real", "mirror", "twin"])
def test_eigensolve_step_is_the_fermi_projector(kind):
    """`fermi_projector` is the operand step followed by the eigensolve
    step, bit for bit, on each of the three operands."""
    topo = topological(8)
    model = {"real": wl.build_haldane(8, 1.0, 0.0, 0.0, 3.0), "mirror": topo,
             "twin": gauge_twin(topo)}[kind]
    A, mirror = projector_operand(model)
    assert A.dtype == (np.complex128 if kind == "twin" else np.float64)
    assert (mirror is not None) == (kind == "mirror")
    got = eigh_projector(A, mirror, model.grid, 0.0)
    want = wl.fermi_projector(model, 0.0)
    assert got.factor.dtype == want.factor.dtype
    assert got.factor.shape == want.factor.shape
    assert got.factor.tobytes() == want.factor.tobytes()
    assert got.gap == want.gap and got.grid is want.grid
    assert np.array_equal(got.mirror, want.mirror)
