import numpy as np
import pytest

import wanloc as wl
from wanloc.diagnostics import _haldane_bloch
from wanloc.errors import (GapClosureRiskError, GaplessModelError,
                           ModelTooSmallError, NotHermitianError)
from wanloc.lattice import (HERMITICITY_RTOL, ROW_SLAB, TightBindingModel,
                            make_grid)


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


def per_ndim_layout(width, orbitals, ndim):
    """The coordinates `make_grid` built before its one box path: a meshgrid
    for a sheet, an arange beside zeros for a chain."""
    if ndim == 2:
        sx, sy = np.meshgrid(np.arange(width), np.arange(width), indexing="ij")
        sx, sy = sx.ravel(), sy.ravel()
    else:
        sx, sy = np.arange(width), np.zeros(width, dtype=int)
    return np.repeat(sx, orbitals), np.repeat(sy, orbitals)


@pytest.mark.parametrize("width, orbitals, ndim",
                         [(5, 2, 2), (4, 1, 2), (1, 1, 2), (6, 2, 1), (3, 1, 1)])
def test_make_grid_matches_the_per_ndim_layout(width, orbitals, ndim):
    grid = make_grid(width, orbitals, ndim=ndim)
    x, y = per_ndim_layout(width, orbitals, ndim)
    assert np.array_equal(grid.x, x) and grid.x.dtype == x.dtype
    assert np.array_equal(grid.y, y) and grid.y.dtype == y.dtype
    # a sheet is a width x width box, a chain a width x 1 box
    assert grid.shape == ((width, width) if ndim == 2 else (width, 1))


def test_make_grid_rejects_other_dimensions():
    with pytest.raises(ValueError, match="ndim"):
        make_grid(4, 1, ndim=3)


def test_grids_built_alike_are_equal_and_hash_equal():
    """The box defines the layout, so a grid is its three fields."""
    sheet = make_grid(5, 2, ndim=2)
    assert sheet == make_grid(5, 2, ndim=2)
    assert hash(sheet) == hash(make_grid(5, 2, ndim=2))
    assert sheet != make_grid(5, 2, ndim=1)
    assert sheet != make_grid(5, 1, ndim=2)
    assert len({sheet, make_grid(5, 2, ndim=2), make_grid(5, 2, ndim=1)}) == 2


def test_model_rejects_non_hermitian_hamiltonian():
    H = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        TightBindingModel(grid=make_grid(2, 1, ndim=1), H=H, params={})


@pytest.mark.parametrize("eps, hermitian", [(1e-14, True), (1e-9, False)])
def test_hermiticity_defect_spans_every_row_slab(eps, hermitian):
    """The defect is the Frobenius norm of H - H^H over all rows, also for a
    defect past the first ROW_SLAB rows (N = 200 here): in the lower and the
    upper triangle of the off-diagonal slab pair, and in the diagonal block
    of the ragged last slab."""
    model = wl.build_haldane(10, 1.0, 1.0 / 3.0, np.pi / 2.0, 0.2)
    N = len(model.H)
    assert N > ROW_SLAB
    for row, col in ((N - 1, 3), (3, N - 1), (N - 1, 130)):
        H = model.H.copy()
        H[row, col] += eps
        assert (np.linalg.norm(H - H.conj().T) <= HERMITICITY_RTOL
                * np.linalg.norm(H)) == hermitian
        if hermitian:
            TightBindingModel(grid=model.grid, H=H, params={})
            continue
        with pytest.raises(NotHermitianError,
                           match=f"{np.sqrt(2.0) * eps:.3e}"):
            TightBindingModel(grid=model.grid, H=H, params={})


def reference_haldane(L, t1, t2, phi, m):
    """Cell loop written from the builder docstring: t1 from A(c) to B(c),
    B(c - e_x), B(c - e_y); t2*exp(i*phi) on A along +e_x, -e_x+e_y, -e_y
    and on B along the reversed vectors; +m on A, -m on B."""
    def idx(cx, cy, orb):
        return (cx * L + cy) * 2 + orb

    H = np.zeros((2 * L * L, 2 * L * L), dtype=complex)

    def add(i, j, amp):
        H[i, j] += amp
        H[j, i] += np.conj(amp)

    t2c = t2 * np.exp(1j * phi)
    inside = range(L)
    for cx in range(L):
        for cy in range(L):
            a, b = idx(cx, cy, 0), idx(cx, cy, 1)
            H[a, a] += m
            H[b, b] += -m
            for vx, vy in ((0, 0), (-1, 0), (0, -1)):
                if cx + vx in inside and cy + vy in inside:
                    add(a, idx(cx + vx, cy + vy, 1), t1)
            for vx, vy in ((1, 0), (-1, 1), (0, -1)):
                if cx + vx in inside and cy + vy in inside:
                    add(a, idx(cx + vx, cy + vy, 0), t2c)
                if cx - vx in inside and cy - vy in inside:
                    add(b, idx(cx - vx, cy - vy, 1), t2c)
    return H


def reference_disordered(L, gap, w, seed):
    """On-site -gap/2, +gap/2 plus uniform noise in [-w/2, w/2]; gap/32
    between opposite orbitals of nearest-neighbour cells."""
    N = 2 * L * L
    rng = np.random.default_rng(seed)
    onsite = np.where(np.arange(N) % 2 == 0, -gap / 2.0, +gap / 2.0)
    H = np.diag((onsite + rng.uniform(-w / 2.0, w / 2.0, size=N)).astype(complex))
    for cx in range(L):
        for cy in range(L):
            for px, py in ((cx + 1, cy), (cx, cy + 1)):
                if px < L and py < L:
                    for orb in (0, 1):
                        i = (cx * L + cy) * 2 + orb
                        j = (px * L + py) * 2 + 1 - orb
                        H[i, j] += gap / 32.0
                        H[j, i] += gap / 32.0
    return H


def reference_ssh(L, t1, t2):
    """t1 inside each cell, t2 from orbital 1 to the next cell's orbital 0."""
    H = np.zeros((2 * L, 2 * L), dtype=complex)
    for cx in range(L):
        H[2 * cx, 2 * cx + 1] += t1
        H[2 * cx + 1, 2 * cx] += t1
        if cx + 1 < L:
            H[2 * cx + 1, 2 * cx + 2] += t2
            H[2 * cx + 2, 2 * cx + 1] += t2
    return H


@pytest.mark.parametrize("L", [4, 5])
@pytest.mark.parametrize("params", [
    (1.0, 1 / 3, np.pi / 2, 0.2), (1.0, 1 / 3, np.pi / 2, 0.0),
    (0.0, 0.3, 0.7, 1.0), (-0.7, 0.25, -1.1, -0.4), (1.0, 0.0, 0.0, 3.0),
])
def test_haldane_bonds_match_the_cell_loop_bytes(L, params):
    """H is float64 when every amplitude is real (t2 = 0 here) and complex128
    otherwise; its complex128 conversion is the cell-loop reference."""
    H = wl.build_haldane(L, *params).H
    assert H.dtype == (np.float64 if params[1] == 0.0 else np.complex128)
    assert np.asarray(H, complex).tobytes() \
        == reference_haldane(L, *params).tobytes()


@pytest.mark.parametrize("L", [4, 5])
def test_other_builders_match_the_cell_loop_bytes(L):
    """The real models, the atomic one included, build a float64 H whose
    complex128 conversion, the bytes `hamiltonian.wdmx` holds, is the
    complex cell-loop reference."""
    for gap, w, seed in ((2.0, 0.5, 7), (2.11, 0.0, 3)):
        H = wl.build_disordered_insulator(L, gap, w, seed).H
        assert H.dtype == np.float64
        assert H.astype(np.complex128).tobytes() \
            == reference_disordered(L, gap, w, seed).tobytes()
    for t1, t2 in ((1.0, 0.5), (0.0, 1.0), (-0.3, 0.8)):
        H = wl.build_ssh_chain(L, t1, t2).H
        assert H.dtype == np.float64
        assert H.astype(np.complex128).tobytes() \
            == reference_ssh(L, t1, t2).tobytes()
    for m in (1.0, 0.0):
        H = wl.build_atomic(L, m).H
        assert H.dtype == np.float64
        assert np.asarray(H, complex).tobytes() \
            == reference_haldane(L, 0.0, 0.0, 0.0, m).tobytes()


def reference_bloch(k1, k2, t1, t2, phi, m):
    """Closed form: f = t1 (1 + e^{-ik1} + e^{-ik2}) off the diagonal and
    m + 2 t2 sum cos(k.v + phi), -m + 2 t2 sum cos(k.v - phi) on it."""
    f = t1 * (1.0 + np.exp(-1j * k1) + np.exp(-1j * k2))
    nnn = ((1, 0), (-1, 1), (0, -1))
    ga = 2.0 * t2 * sum(np.cos(k1 * v1 + k2 * v2 + phi) for v1, v2 in nnn)
    gb = 2.0 * t2 * sum(np.cos(k1 * v1 + k2 * v2 - phi) for v1, v2 in nnn)
    return np.stack([np.stack([m + ga, f], axis=-1),
                     np.stack([np.conj(f), -m + gb], axis=-1)], axis=-2)


@pytest.mark.parametrize("params", [
    (1.0, 1 / 3, np.pi / 2, 0.2), (1.0, 0.0, 0.0, 3.0),
    (-0.7, 0.25, -1.1, -0.4), (0.0, 1.2, 2.5, 0.0),
])
def test_haldane_bloch_is_the_fourier_sum_of_the_bonds(params):
    ks = 2.0 * np.pi * np.arange(9) / 9
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    h = _haldane_bloch(k1, k2, *params)
    assert h.shape == (9, 9, 2, 2)
    assert np.max(np.abs(h - reference_bloch(k1, k2, *params))) <= 1e-13
    scalar = _haldane_bloch(0.3, -1.7, *params)
    assert scalar.shape == (2, 2)
    assert np.max(np.abs(scalar - reference_bloch(0.3, -1.7, *params))) <= 1e-13
