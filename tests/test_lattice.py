import numpy as np
import pytest

import wanloc as wl
from wanloc.diagnostics import _haldane_bloch
from wanloc.errors import (GapClosureRiskError, GaplessModelError,
                           ModelTooSmallError, NotHermitianError)
from wanloc.lattice import TightBindingModel, make_grid


def bulk_min_gap(t1, t2, phi, m, n_k=24):
    """Independent oracle: min direct gap of the Bloch bulk over a k grid.

    n_k divisible by 3 puts the gap-closing momenta exactly on the grid.
    """
    ks = 2.0 * np.pi * np.arange(n_k) / n_k
    gap = np.inf
    for k1 in ks:
        for k2 in ks:
            e = np.linalg.eigvalsh(_haldane_bloch(k1, k2, t1, t2, phi, m))
            gap = min(gap, e[1] - e[0])
    return gap


def test_haldane_real_symmetric_with_mass_gap():
    model = wl.build_haldane(8, t1=1.0, t2=0.0, phi=0.0, m_stagger=1.0)
    assert np.allclose(model.H.imag, 0.0)
    assert np.allclose(model.H, model.H.T)
    ev = np.linalg.eigvalsh(model.H)
    half = ev.size // 2
    assert ev[half] - ev[half - 1] == pytest.approx(2.0, abs=1e-6)


def test_haldane_regime_label_matches_gap_closing_oracle():
    t2, phi = 1.0 / 3.0, np.pi / 2.0
    boundary = 3.0 * np.sqrt(3.0) * abs(t2 * np.sin(phi))
    # the bulk gap closes only at the claimed boundary mass
    assert bulk_min_gap(1.0, t2, phi, boundary) < 1e-8
    assert bulk_min_gap(1.0, t2, phi, boundary - 0.3) > 0.1
    assert bulk_min_gap(1.0, t2, phi, boundary + 0.3) > 0.1
    topo = wl.build_haldane(8, 1.0, t2, phi, 0.0)
    assert topo.params["regime"] == "topological"
    triv = wl.build_haldane(8, 1.0, t2, phi, boundary + 0.3)
    assert triv.params["regime"] == "trivial"


def test_haldane_atomic_limit_is_diagonal():
    model = wl.build_haldane(4, t1=0.0, t2=0.0, phi=0.0, m_stagger=1.0)
    assert np.allclose(model.H, np.diag(np.diagonal(model.H)))
    diag = np.real(np.diagonal(model.H))
    assert set(np.round(diag, 12)) == {-1.0, 1.0}


def test_haldane_too_small_rejected():
    with pytest.raises(ModelTooSmallError):
        wl.build_haldane(3, 1.0, 0.0, 0.0, 1.0)


def test_disordered_clean_limit_two_levels():
    model = wl.build_disordered_insulator(6, gap=2.0, w=0.0, seed=0)
    ev = np.linalg.eigvalsh(model.H)
    assert np.all(np.abs(np.abs(ev) - 1.0) <= 0.25)


def test_disordered_deterministic_per_seed():
    a = wl.build_disordered_insulator(6, gap=2.0, w=0.5, seed=7)
    b = wl.build_disordered_insulator(6, gap=2.0, w=0.5, seed=7)
    assert np.array_equal(a.H, b.H)
    c = wl.build_disordered_insulator(6, gap=2.0, w=0.5, seed=8)
    assert not np.array_equal(a.H, c.H)


def test_disordered_gap_survives_disorder():
    model = wl.build_disordered_insulator(6, gap=2.0, w=0.5, seed=7)
    ev = np.linalg.eigvalsh(model.H)
    half = ev.size // 2
    assert ev[half] - ev[half - 1] >= 1.0


def test_disordered_rejects_gap_closing_disorder():
    with pytest.raises(GapClosureRiskError):
        wl.build_disordered_insulator(6, gap=2.0, w=2.0, seed=0)


def test_ssh_decoupled_dimers():
    model = wl.build_ssh_chain(8, t1=1.0, t2=0.0)
    ev = np.linalg.eigvalsh(model.H)
    assert np.allclose(np.sort(ev), [-1.0] * 8 + [1.0] * 8)


def test_ssh_edge_modes_in_fully_dimerized_limit():
    model = wl.build_ssh_chain(8, t1=0.0, t2=1.0)
    ev = np.linalg.eigvalsh(model.H)
    assert np.sum(np.abs(ev) < 1e-12) == 2


def test_ssh_shape_and_hermiticity():
    model = wl.build_ssh_chain(2, t1=1.0, t2=0.5)
    assert model.H.shape == (4, 4)
    assert np.allclose(model.H, model.H.conj().T)


def test_ssh_rejects_gapless():
    with pytest.raises(GaplessModelError):
        wl.build_ssh_chain(8, t1=1.0, t2=-1.0)


def test_position_operators_read_out_coordinates():
    model = wl.build_haldane(4, 0.0, 0.0, 0.0, 1.0)
    X, Y = wl.position_operators(model)
    assert set(np.diagonal(X)) <= set(range(4))
    assert set(np.diagonal(Y)) <= set(range(4))
    assert np.array_equal(X, np.diag(np.diagonal(X)))
    assert np.linalg.norm(X @ Y - Y @ X) == 0.0


def test_position_operators_1d_has_zero_y():
    model = wl.build_ssh_chain(6, t1=1.0, t2=0.5)
    X, Y = wl.position_operators(model)
    assert np.all(Y == 0.0)
    assert np.array_equal(np.diagonal(X), np.repeat(np.arange(6), 2))


@pytest.mark.parametrize("build", [
    lambda: wl.build_haldane(6, 1.0, 1 / 3, np.pi / 2, 0.2),
    lambda: wl.build_disordered_insulator(6, 2.0, 0.5, 3),
    lambda: wl.build_ssh_chain(6, 1.0, 0.45),
])
def test_builders_hermitian(build):
    model = build()
    H = model.H
    assert np.linalg.norm(H - H.conj().T) <= 1e-12 * max(np.linalg.norm(H), 1.0)


def test_grid_coordinates_cover_every_index():
    grid = wl.make_grid(5, orbitals_per_site=2, ndim=2)
    assert grid.dimension == 50
    assert grid.x.min() == 0 and grid.x.max() == 4
    assert grid.y.min() == 0 and grid.y.max() == 4
    # every (site, orbital) pair appears exactly once
    coords = list(zip(grid.x.tolist(), grid.y.tolist()))
    assert len(coords) == 50 and len(set(coords)) == 25


def test_model_rejects_non_hermitian_hamiltonian():
    H = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        TightBindingModel(grid=make_grid(2, 1, ndim=1), H=H, params={},
                          spectral_gap_estimate=0.0)
