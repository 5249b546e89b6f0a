import ctypes
import functools
import importlib.util
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import qr

import wanloc as wl
from wanloc import dichotomy
from wanloc.cli import _delta_step
from wanloc.dichotomy import attach_moments, density_centroids, fix_phases
from wanloc.errors import LapackError, NumericalDegeneracyError
from wanloc.lattice import ROW_SLAB, make_grid
from wanloc.spectral import Projector, bracket, range_basis, tilt_operator

from suite_common import DIS_PARAMS, DIS_SEED, TOPO_PARAMS, centroid


def projector_on(grid, columns):
    """Rank-k projector onto the given unit coordinate directions."""
    V = np.eye(grid.dimension, dtype=complex)[:, list(columns)]
    return Projector(factor=V, gap=1.0, grid=grid)


# --- projected spectra -------------------------------------------------------

def test_projected_spectrum_full_projector_gives_coordinates():
    grid = make_grid(3, 1, ndim=2)
    P = projector_on(grid, range(grid.dimension))
    X = np.diag(grid.x.astype(float))
    evals, vecs = wl.projected_spectrum(P, X)
    assert np.allclose(np.sort(evals), np.sort(grid.x.astype(float)))
    assert vecs.shape == (9, 9)


def test_projected_spectrum_rank_one():
    grid = make_grid(3, 1, ndim=1)
    v = np.array([0.6, 0.8, 0.0], dtype=complex)
    P = Projector(factor=v[:, None], gap=1.0, grid=grid)
    X = np.diag(grid.x.astype(float))
    evals, _ = wl.projected_spectrum(P, X)
    assert evals.shape == (1,)
    assert evals[0] == pytest.approx((v.conj() @ X @ v).real, abs=1e-12)


def test_projected_spectrum_ssh_dimer_positions():
    model = wl.build_ssh_chain(8, t1=1.0, t2=0.0)
    P = wl.fermi_projector(model, 0.0)
    X = np.diag(model.grid.x.astype(float))
    evals, _ = wl.projected_spectrum(P, X)
    # decoupled-dimer oracle: one bonding state per cell, at the cell position
    assert np.allclose(evals, np.arange(8), atol=1e-10)


def test_projected_spectrum_invariant_under_range_basis_change(dis_projectors):
    model, P = dis_projectors[8]
    X = np.diag(model.grid.x.astype(float))
    evals, _ = wl.projected_spectrum(P, X)
    # rotate an orthonormal basis of range(P) by a random unitary and rebuild
    W = range_basis(P.P)
    assert W.shape[1] == P.rank
    rng = np.random.default_rng(5)
    A = rng.standard_normal((P.rank, P.rank)) + 1j * rng.standard_normal((P.rank, P.rank))
    U, _ = np.linalg.qr(A)
    W2 = W @ U
    M = W2.conj().T @ X @ W2
    evals2 = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    assert np.max(np.abs(evals - evals2)) <= 1e-9


# --- gap detection -----------------------------------------------------------

def test_detect_gaps_hand_separable():
    gaps = wl.detect_uniform_gaps([0.0, 0.1, 1.0, 1.05, 2.0], d_min=0.5)
    assert isinstance(gaps, wl.GapStructure)
    assert len(gaps.intervals) == 3
    assert gaps.d == pytest.approx(0.9)
    assert gaps.D == pytest.approx(0.1)


def test_detect_gaps_integer_spectrum():
    gaps = wl.detect_uniform_gaps(np.arange(11.0), d_min=0.5)
    assert len(gaps.intervals) == 11
    assert gaps.d == pytest.approx(1.0)
    assert gaps.D == 0.0
    assert np.allclose(gaps.xi, np.arange(11.0))


def test_detect_gaps_failure_on_uniform_spacing():
    evals = np.arange(0.0, 4.0, 0.4)
    out = wl.detect_uniform_gaps(evals, d_min=0.5)
    assert isinstance(out, wl.GapDetectionFailure)
    assert out.reason == "no uniform gaps"


def test_detect_gaps_diameter_ceiling():
    out = wl.detect_uniform_gaps([0.0, 0.3, 5.0], d_min=1.0, d_max=0.25)
    assert isinstance(out, wl.GapDetectionFailure)
    assert "ceiling" in out.reason


# --- band projectors ---------------------------------------------------------

def test_band_projectors_single_cluster_recovers_projector():
    grid = make_grid(3, 1, ndim=1)
    P = projector_on(grid, [1])
    X = np.diag(grid.x.astype(float))
    evals, vecs = wl.projected_spectrum(P, X)
    gaps = wl.detect_uniform_gaps(evals, d_min=0.5)
    bands = wl.band_projectors(vecs, gaps, grid)
    assert len(bands.vectors) == 1
    V = bands.vectors[0]
    assert np.linalg.norm(V @ V.conj().T - P.P) <= 1e-10


def test_band_projectors_ssh_dimers_are_rank_one():
    model = wl.build_ssh_chain(8, t1=1.0, t2=0.0)
    P = wl.fermi_projector(model, 0.0)
    X = np.diag(model.grid.x.astype(float))
    evals, vecs = wl.projected_spectrum(P, X)
    gaps = wl.detect_uniform_gaps(evals, d_min=0.5)
    bands = wl.band_projectors(vecs, gaps, model.grid)
    assert [V.shape[1] for V in bands.vectors] == [1] * 8
    assert np.allclose(gaps.xi, np.arange(8), atol=1e-10)
    projs = [V @ V.conj().T for V in bands.vectors]
    assert np.linalg.norm(sum(projs) - P.P) <= 1e-8
    for j in range(8):
        for k in range(j + 1, 8):
            assert np.linalg.norm(projs[j] @ projs[k]) <= 1e-8


def test_band_projectors_reject_clusters_missing_a_band():
    model = wl.build_ssh_chain(8, t1=1.0, t2=0.0)
    P = wl.fermi_projector(model, 0.0)
    X = np.diag(model.grid.x.astype(float))
    evals, vecs = wl.projected_spectrum(P, X)
    gaps = wl.detect_uniform_gaps(evals, d_min=0.5)
    gaps.members = gaps.members[:-1]
    with pytest.raises(NumericalDegeneracyError, match="do not sum to P"):
        wl.band_projectors(vecs, gaps, model.grid)


def test_band_projectors_reject_band_vectors_that_are_not_orthonormal():
    model = wl.build_ssh_chain(8, t1=1.0, t2=0.0)
    P = wl.fermi_projector(model, 0.0)
    X = np.diag(model.grid.x.astype(float))
    evals, vecs = wl.projected_spectrum(P, X)
    gaps = wl.detect_uniform_gaps(evals, d_min=0.5)
    # a Gram defect of 2e-6 * sqrt(8), far above BASIS_TOL
    with pytest.raises(NumericalDegeneracyError,
                       match="band vectors not orthonormal"):
        wl.band_projectors(vecs * (1.0 + 1e-6), gaps, model.grid)


@pytest.mark.parametrize("stack", ["dis8_stack", "topo8_stack"])
def test_band_blocks_span_the_projected_spectrum_subspaces(stack, request):
    """The Delta step's vectors, from diag(m1) + K in the surrogate's basis,
    split into the band subspaces and fits of `projected_spectrum(P, Xhat)`
    in V coordinates."""
    _, P, _, xt = request.getfixturevalue(stack)
    spectrum, U, _ = _delta_step(xt, 4.0, [])
    xh = wl.build_xhat(xt, 4.0)
    gaps = wl.detect_uniform_gaps(spectrum, d_min=0.25)
    assert isinstance(gaps, wl.GapStructure)
    bands = wl.band_projectors(fix_phases(xt.basis.psi @ U), gaps, P.grid)
    _, recomputed = wl.projected_spectrum(P, xh)
    ref = wl.band_projectors(recomputed, gaps, P.grid)
    assert len(bands.vectors) == len(ref.vectors) == len(gaps.intervals)
    for V, R in zip(bands.vectors, ref.vectors, strict=True):
        assert V.shape[1] == R.shape[1]
        assert np.linalg.norm(V @ V.conj().T - R @ R.conj().T) <= 1e-12
    for fit, fit_ref in zip(bands.decay_profiles, ref.decay_profiles,
                            strict=True):
        assert (fit is None) == (fit_ref is None)
        if fit is not None:
            # the columns gaps.csv reports
            assert fit.gamma == pytest.approx(fit_ref.gamma, rel=1e-5)
            assert fit.r_squared == pytest.approx(fit_ref.r_squared, rel=1e-5)


# --- strip localization ------------------------------------------------------

def test_strip_check_single_site_band_is_exact():
    grid = make_grid(5, 1, ndim=1)
    P = projector_on(grid, [2])
    n1, n2 = wl.strip_localization_check(P.V, 2.0, grid, 0.1,
                                         anchors=[(0.0, 0.0), (2.0, 0.0)])
    assert n1 <= 1e-12 and n2 <= 1e-12


def test_strip_check_two_site_band_support_bound():
    grid = make_grid(6, 1, ndim=1)
    psi = np.zeros(6, dtype=complex)
    psi[2] = psi[3] = 1.0 / np.sqrt(2.0)
    n1, n2 = wl.strip_localization_check(psi[:, None], 2.5, grid, 0.0,
                                         anchors=[(0.0, 0.0)])
    assert n1 <= 0.5 + 1e-12 and n2 <= 0.5 + 1e-12


def test_strip_norms_uniform_across_disordered_bands(dis12_report):
    rep = dis12_report
    grid = rep.projector.grid
    anchors = [(5.5, 5.5), (2.5, 2.5), (8.5, 8.5)]
    norms = []
    for j, Vj in enumerate(rep.bands.vectors):
        nl, nr = wl.strip_localization_check(Vj, float(rep.gaps.xi[j]), grid,
                                             0.05, anchors)
        norms.append(max(nl, nr))
    assert max(norms) / min(norms) <= 3.0


def test_strip_norms_match_tilted_band_projector(dis12_report):
    """Norms from the QR factors of the band vectors equal the norms of the
    N x N tilted band projector B P_j B^-1 weighted by x - xi_j."""
    rep = dis12_report
    grid = rep.projector.grid
    anchors = [(5.5, 5.5), (2.5, 2.5), (8.5, 8.5)]
    for j, Vj in enumerate(rep.bands.vectors):
        xi = float(rep.gaps.xi[j])
        xshift = grid.x.astype(float) - xi
        ref_left = ref_right = 0.0
        for anchor in anchors:
            Pg = tilt_operator(Vj @ Vj.conj().T, 0.05, anchor, grid)
            ref_left = max(ref_left, wl.operator_norm(xshift[:, None] * Pg))
            ref_right = max(ref_right, wl.operator_norm(Pg * xshift[None, :]))
        nl, nr = wl.strip_localization_check(Vj, xi, grid, 0.05, anchors)
        assert nl == pytest.approx(ref_left, rel=1e-12)
        assert nr == pytest.approx(ref_right, rel=1e-12)


def test_strip_norms_bounded_for_trivial_bands(trivial12_report):
    rep = trivial12_report
    grid = rep.projector.grid
    anchors = [(5.5, 5.5), (2.5, 2.5), (8.5, 8.5)]
    norms = []
    for j, Vj in enumerate(rep.bands.vectors):
        nl, nr = wl.strip_localization_check(Vj, float(rep.gaps.xi[j]), grid,
                                             0.05, anchors)
        norms.append(max(nl, nr))
    # uniform upper bound; the min can sit near zero deep in the insulator
    assert max(norms) <= 0.5


# --- per-band wannierization -------------------------------------------------

def test_wannierize_rank_one_band():
    grid = make_grid(4, 1, ndim=2)
    i = 7
    P = projector_on(grid, [i])
    vecs, centers = wl.wannierize_band(P.V, grid.y, xi_j=float(grid.x[i]))
    assert vecs.shape[1] == 1
    assert centers[0][0] == grid.x[i]
    assert centers[0][1] == pytest.approx(float(grid.y[i]), abs=1e-12)


def test_wannierize_two_decoupled_sites():
    grid = make_grid(6, 1, ndim=2)
    i0 = int(np.flatnonzero((grid.x == 2) & (grid.y == 0))[0])
    i5 = int(np.flatnonzero((grid.x == 2) & (grid.y == 5))[0])
    P = projector_on(grid, [i0, i5])
    vecs, centers = wl.wannierize_band(P.V, grid.y, xi_j=2.0)
    assert sorted(centers[:, 1].tolist()) == [0.0, 5.0]
    for k in range(2):
        assert np.count_nonzero(np.abs(vecs[:, k]) > 1e-12) == 1


def test_wannierize_matches_rediagonalized_band_projector(dis12_report):
    """Centres from the band vectors equal the eigenvalues of Y compressed to
    a basis of range(P_j) recovered from the N x N band projector."""
    y = dis12_report.projector.grid.y.astype(float)
    for j, Vj in enumerate(dis12_report.bands.vectors):
        W = range_basis(Vj @ Vj.conj().T)
        assert W.shape[1] == Vj.shape[1]
        ref = np.linalg.eigvalsh(W.conj().T @ (y[:, None] * W))
        _, centers = wl.wannierize_band(Vj, y, float(dis12_report.gaps.xi[j]))
        assert np.max(np.abs(centers[:, 1] - ref)) <= 1e-12


def test_wannierized_functions_globally_orthonormal(dis12_report):
    final = dis12_report.basis_final
    G = final.psi.conj().T @ final.psi
    assert np.linalg.norm(G - np.eye(final.n_functions)) <= 1e-8
    assert final.completeness_defect(dis12_report.projector.P) <= 1e-8


def test_wannierized_band_functions_decay(dis12_report):
    fits = [f for f in dis12_report.final_fits if f is not None]
    assert len(fits) == dis12_report.basis_final.n_functions
    for f in fits:
        assert f.flag == "compact-support" or (f.gamma > 0 and f.r_squared >= 0.9)


# --- bounded density and relabeling -----------------------------------------

def brute_force_density(centers, radius=1.0, mesh=0.25, pad=1.5):
    """Independent oracle: scan a fine query mesh for the densest disc."""
    centers = np.asarray(centers, dtype=float)
    lo = centers.min(axis=0) - pad
    hi = centers.max(axis=0) + pad
    xs = np.arange(lo[0], hi[0] + mesh, mesh)
    ys = np.arange(lo[1], hi[1] + mesh, mesh)
    best = 0
    for qx in xs:
        for qy in ys:
            d2 = (centers[:, 0] - qx) ** 2 + (centers[:, 1] - qy) ** 2
            best = max(best, int(np.sum(d2 <= radius ** 2 + 1e-12)))
    return best


def test_bounded_density_integer_grid():
    xs, ys = np.meshgrid(np.arange(10), np.arange(10), indexing="ij")
    centers = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)
    assert brute_force_density(centers) == 5
    assert wl.check_bounded_density(centers) == 5


def test_bounded_density_single_and_coincident():
    assert wl.check_bounded_density(np.array([[3.0, 4.0]])) == 1
    assert wl.check_bounded_density(np.tile([[1.0, 1.0]], (7, 1))) == 7


@pytest.mark.parametrize("block_pairs", [1, 7, 1 << 18])
def test_bounded_density_blocks_match_all_pairs(block_pairs, monkeypatch):
    """Counting in query blocks gives the all-pairs count, also with
    centres at distance exactly 1 of a query (integer points)."""
    import wanloc.dichotomy as dichotomy
    grid = make_grid(6, 2, ndim=2)
    rng = np.random.default_rng(5)
    centers = np.vstack([rng.uniform(0.0, 5.0, size=(30, 2)),
                         [[2.0, 2.0], [3.0, 2.0], [2.0, 3.0], [1.0, 2.0],
                          [2.0, 1.0], [4.0, 4.0], [4.0, 5.0]]])
    sx, sy = grid.site_coords()
    q = np.vstack([centers, np.stack([sx, sy], axis=1)])
    d2 = ((q[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    expected = int((d2 <= 1.0 + 1e-12).sum(axis=1).max())
    monkeypatch.setattr(dichotomy, "DENSITY_BLOCK_PAIRS", block_pairs)
    assert wl.check_bounded_density(centers, grid) == expected
    assert expected >= 5


def test_relabel_square_membership():
    grid = make_grid(4, 1, ndim=2)
    psi = np.eye(grid.dimension, 3, dtype=complex)
    centers = np.array([[0.3, -0.2], [0.5, 0.0], [1.2, 0.9]])
    basis = wl.GeneralizedWannierBasis(psi=psi, centers=centers, grid=grid)
    out = wl.relabel_to_lattice(basis)
    assert tuple(out.centers[0]) == (0, 0)
    assert tuple(out.centers[1]) == (1, 0)
    assert tuple(out.centers[2]) == (1, 1)
    assert np.allclose(out.centers, [[0, 0], [1, 0], [1, 1]])


def test_relabel_degeneracy_indices_in_original_order():
    grid = make_grid(4, 1, ndim=2)
    psi = np.eye(grid.dimension, 2, dtype=complex)
    centers = np.array([[2.1, 2.2], [1.8, 2.4]])   # same unit square (2, 2)
    out = wl.relabel_to_lattice(
        wl.GeneralizedWannierBasis(psi=psi, centers=centers, grid=grid))
    assert out.centers.tolist() == [[2, 2], [2, 2]]
    assert out.degeneracy.tolist() == [1, 2]
    assert out.max_degeneracy == 2


def test_relabel_drops_moments_taken_about_old_centres(topo8_stack):
    _, P, _, _ = topo8_stack
    raw = attach_moments(wl.initial_basis(P), (3.0,))
    assert wl.initial_basis(P).moments is None
    out = wl.relabel_to_lattice(raw)
    assert out.moments is None
    assert not np.array_equal(out.centers, raw.centers)
    # moments about the new centres come only from attach_moments
    fresh = attach_moments(out, (3.0,)).moments[3.0]
    assert not np.allclose(fresh, raw.moments[3.0], rtol=1e-3)


def test_relabel_consistent_with_square_occupancy(dis12_report):
    basis = dis12_report.basis_initial
    raw = wl.initial_basis(dis12_report.projector)
    m = np.floor(raw.centers + 0.5).astype(int)
    occupancy = {}
    for row in m:
        key = (int(row[0]), int(row[1]))
        occupancy[key] = occupancy.get(key, 0) + 1
    assert basis.max_degeneracy == max(occupancy.values())
    # each original centre lies in the half-open square of its assigned m
    for k, (m1, m2) in enumerate(basis.centers):
        cx, cy = raw.centers[k]
        assert m1 - 0.5 <= cx < m1 + 0.5
        assert m2 - 0.5 <= cy < m2 + 0.5


# --- initial basis -----------------------------------------------------------

def test_initial_basis_atomic_gives_deltas():
    model = wl.build_haldane(4, 0.0, 0.0, 0.0, 1.0)
    P = wl.fermi_projector(model, 0.0)
    basis = wl.initial_basis(P)
    assert basis.n_functions == P.rank
    for k in range(basis.n_functions):
        col = basis.psi[:, k]
        assert np.count_nonzero(np.abs(col) > 1e-12) == 1
        i = int(np.argmax(np.abs(col)))
        assert col[i].real == pytest.approx(1.0, abs=1e-12)
        assert basis.centers[k, 0] == pytest.approx(float(model.grid.x[i]))


def test_initial_basis_rank_one_phase_convention():
    grid = make_grid(3, 1, ndim=1)
    v = np.array([0.6, -0.8j, 0.0])
    P = Projector(factor=v[:, None], gap=1.0, grid=grid)
    basis = wl.initial_basis(P)
    lead = basis.psi[np.argmax(np.abs(basis.psi[:, 0])), 0]
    assert lead.imag == pytest.approx(0.0, abs=1e-12)
    assert lead.real > 0


def test_initial_basis_orthonormal_complete_with_bounded_moments(dis_projectors):
    _, P = dis_projectors[8]
    basis = attach_moments(wl.initial_basis(P), (3.0,))
    assert basis.orthonormality_defect() <= 1e-8
    assert basis.completeness_defect(P.P) <= 1e-8
    # uniform moment bound across functions (pilot value 1.04)
    assert basis.moments[3.0].max() <= 2.0


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_completeness_defect_matches_the_dense_formula(dtype):
    """Summed a row slab at a time, the defect is the Frobenius norm of the
    dense Psi Psi^H - P, for a P that spans more than two slabs."""
    rng = np.random.default_rng(11)
    grid = make_grid(12, 2)
    N, n = grid.dimension, 100
    assert N > 2 * ROW_SLAB
    A = rng.standard_normal((N, n)).astype(dtype)
    E = rng.standard_normal((N, N)).astype(dtype)
    if dtype is np.complex128:
        A += 1j * rng.standard_normal((N, n))
        E += 1j * rng.standard_normal((N, N))
    psi = np.linalg.qr(A)[0]
    P = psi @ psi.conj().T + 1e-6 * (E + E.conj().T)
    basis = wl.GeneralizedWannierBasis(psi=psi, centers=np.zeros((n, 2)),
                                       grid=grid)
    dense = np.linalg.norm(psi @ psi.conj().T - P)
    # two sums of N^2 squares in different orders: over 150 seeds they
    # differ by up to 2.7e-15 relative, while a lost slab moves the norm
    # by O(1)
    assert basis.completeness_defect(P) == pytest.approx(dense, rel=1e-14)


def test_initial_basis_pxp_mode_matches_projected_spectrum_1d(ssh24):
    model, P, evals, vecs = ssh24
    basis = wl.initial_basis(P, mode="pxp-eigen")
    assert np.allclose(basis.psi, vecs, atol=1e-12)
    # centroid centres sit near the projected-position eigenvalues
    assert np.max(np.abs(basis.centers[:, 0] - evals)) <= 0.5
    assert basis.orthonormality_defect() <= 1e-8


def lowdin_reference(A):
    """The iterated symmetric orthonormalization `initial_basis` used before
    it took the polar factor of the n x n selection matrix."""
    W = np.array(A, dtype=complex)
    for _ in range(3):
        S = W.conj().T @ W
        evals, U = np.linalg.eigh(0.5 * (S + S.conj().T))
        W = W @ (U * (1.0 / np.sqrt(evals))) @ U.conj().T
        if np.linalg.norm(W.conj().T @ W - np.eye(W.shape[1])) < 1e-13:
            break
    return W


def test_polar_basis_matches_lowdin(dis8_stack, topo8_stack, dis_projectors):
    stacks = [dis8_stack[1], topo8_stack[1], dis_projectors[12][1]]
    for P in stacks:
        V = P.V
        _, _, pivots = qr(V.conj().T, mode="economic", pivoting=True)
        cols = np.sort(pivots[:P.rank])
        A = V @ V[cols].conj().T
        ref = fix_phases(lowdin_reference(A))
        basis = wl.initial_basis(P)
        assert basis.psi.dtype == V.dtype
        assert np.max(np.abs(basis.psi - ref)) <= 1e-12
        # the selection condition number is that of the n x n factor
        sv = np.linalg.svd(V[cols].conj().T, compute_uv=False)
        assert sv[0] / sv[-1] == pytest.approx(np.linalg.cond(A), rel=1e-10)


def test_initial_basis_pivots_only_is_byte_identical(dis8_stack, topo8_stack):
    """Asking the pivoted QR for R and pivots only selects the same columns
    as the economic factorization, so the basis keeps every bit."""
    for P in (dis8_stack[1], topo8_stack[1]):
        V = P.V
        _, _, pivots = qr(V.conj().T, mode="economic", pivoting=True)
        cols = np.sort(pivots[:P.rank])
        U, _, Zh = np.linalg.svd(V[cols].conj().T)
        ref = fix_phases(V @ (U @ Zh))
        psi = wl.initial_basis(P).psi
        assert psi.dtype == ref.dtype and psi.shape == ref.shape
        assert psi.tobytes() == ref.tobytes()


def numpy_lapack():
    lapack = dichotomy._numpy_lapack()
    if lapack is None:
        pytest.skip("numpy's bundled OpenBLAS cannot be found")
    return lapack


@pytest.fixture
def numpy_pool_of_two():
    """numpy's OpenBLAS pool set to two threads for the test, so a pin to
    one thread shows; the count it had is restored afterwards."""
    lapack = numpy_lapack()
    before = lapack.get_threads()
    lapack.set_threads(2)
    assert lapack.get_threads() == 2
    yield lapack.get_threads
    lapack.set_threads(before)


def spied_lapack(monkeypatch, geqp3):
    """Route `_qr_pivots` through `geqp3(real_geqp3, *args)` for both dtypes."""
    lapack = numpy_lapack()
    spied = lapack._replace(
        dgeqp3=functools.partial(geqp3, lapack.dgeqp3),
        zgeqp3=functools.partial(geqp3, lapack.zgeqp3))
    monkeypatch.setattr(dichotomy, "_numpy_lapack", lambda: spied)


def test_initial_basis_qr_runs_on_one_numpy_thread(dis8_stack, topo8_stack,
                                                   monkeypatch,
                                                   numpy_pool_of_two):
    get = numpy_pool_of_two
    seen = []

    def spy(real, *args):
        seen.append(get())
        return real(*args)

    spied_lapack(monkeypatch, spy)
    wl.initial_basis(dis8_stack[1])
    wl.initial_basis(topo8_stack[1])
    assert seen == [1, 1]
    assert get() == 2


def test_initial_basis_restores_numpy_threads_after_qr_raises(
        dis8_stack, monkeypatch, numpy_pool_of_two):
    get = numpy_pool_of_two

    def failing(real, *args):
        assert get() == 1
        raise RuntimeError("qr failed")

    spied_lapack(monkeypatch, failing)
    with pytest.raises(RuntimeError, match="qr failed"):
        wl.initial_basis(dis8_stack[1])
    assert get() == 2


def test_nonzero_lapack_info_is_a_typed_error(dis8_stack, monkeypatch,
                                              numpy_pool_of_two):
    get = numpy_pool_of_two
    spied_lapack(monkeypatch, lambda real, *args: -4)
    with pytest.raises(LapackError, match="info=-4"):
        wl.initial_basis(dis8_stack[1])
    assert get() == 2


def test_concurrent_initial_basis_restores_numpy_threads(monkeypatch,
                                                        numpy_pool_of_two):
    """Pins from several threads at once each see one thread, and the pool
    ends at the count it had before any of them."""
    get = numpy_pool_of_two
    P = wl.fermi_projector(wl.build_disordered_insulator(
        4, seed=DIS_SEED, **DIS_PARAMS), 0.0)
    seen = []

    def spy(real, *args):
        seen.append(get())
        time.sleep(0)
        return real(*args)

    def work():
        for _ in range(20):
            wl.initial_basis(P)

    spied_lapack(monkeypatch, spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert seen == [1] * 80
    assert get() == 2


def test_initial_basis_without_numpy_lapack_library(dis8_stack, monkeypatch):
    P = dis8_stack[1]
    monkeypatch.setattr(dichotomy, "_numpy_lapack", lambda: None)
    basis = wl.initial_basis(P)
    assert basis.n_functions == P.rank
    assert basis.orthonormality_defect() <= 1e-10


def test_single_thread_qr_changes_no_bits(dis_projectors, monkeypatch):
    """The basis from numpy's geqp3 pinned to one thread keeps every bit of
    the basis from the scipy fallback on scipy's pool as it is, on these
    operands."""
    projectors = [
        wl.fermi_projector(wl.build_disordered_insulator(
            6, seed=DIS_SEED, **DIS_PARAMS), 0.0),
        wl.fermi_projector(wl.build_haldane(
            6, TOPO_PARAMS["t1"], TOPO_PARAMS["t2"], TOPO_PARAMS["phi"],
            TOPO_PARAMS["m"]), 0.0),
        dis_projectors[16][1],
    ]
    assert [P.V.dtype.kind for P in projectors] == ["f", "c", "f"]
    pinned = [wl.initial_basis(P).psi.tobytes() for P in projectors]
    monkeypatch.setattr(dichotomy, "_numpy_lapack", lambda: None)
    assert [wl.initial_basis(P).psi.tobytes() for P in projectors] == pinned


def scipy_blas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with scipy."""
    scipy_init = Path(importlib.util.find_spec("scipy").origin).resolve()
    for path in sorted((scipy_init.parent.parent / "scipy.libs").glob(
            "libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads", None)
            if get is not None and set_ is not None:
                get.restype, set_.argtypes = ctypes.c_int, (ctypes.c_int,)
                return get, set_
    pytest.skip("scipy's bundled OpenBLAS cannot be found")


@pytest.mark.parametrize("L", [6, 8, 12, 16])
def test_qr_pivots_match_scipy_single_thread(L):
    """numpy's LAPACKE geqp3 gives the pivots of scipy's pivoted QR on one
    thread, on real (disordered) and complex (Haldane) operands."""
    numpy_lapack()
    get, set_ = scipy_blas_threads()
    models = [wl.build_disordered_insulator(L, seed=DIS_SEED, **DIS_PARAMS),
              wl.build_haldane(L, TOPO_PARAMS["t1"], TOPO_PARAMS["t2"],
                               TOPO_PARAMS["phi"], 1.6)]
    before = get()
    set_(1)
    try:
        for model in models:
            A = wl.fermi_projector(model, 0.0).V.conj().T
            ref = qr(A, mode="r", pivoting=True)[1]
            assert np.array_equal(dichotomy._qr_pivots(A), ref)
    finally:
        set_(before)


def test_pinned_qr_pivots_do_not_depend_on_the_pool_size(monkeypatch,
                                                         numpy_pool_of_two):
    """On Haldane L=16 m=0.2 a geqp3 on two threads orders near-equal column
    norms differently; the pin gives the operand's one-thread pivots on a
    pool of two."""
    lapack = numpy_lapack()
    P = wl.fermi_projector(wl.build_haldane(
        16, TOPO_PARAMS["t1"], TOPO_PARAMS["t2"], TOPO_PARAMS["phi"],
        TOPO_PARAMS["m"]), 0.0)
    seen, real_pivots = [], dichotomy._qr_pivots

    def spy(A):
        seen.append((A, real_pivots(A)))
        return seen[-1][1]

    monkeypatch.setattr(dichotomy, "_qr_pivots", spy)
    wl.initial_basis(P)
    assert numpy_pool_of_two() == 2
    (A, pivots), = seen
    lapack.set_threads(1)
    assert np.array_equal(pivots, real_pivots(A))


# a fresh process that runs `construct` on Haldane m=0.2 at L=16 and prints
# the initial basis's pivots, the verdict and the certificate norms
THREAD_PROBE = """
import json, sys
from wanloc import cli, dichotomy
pivots, qr_pivots = [], dichotomy._qr_pivots
def spy(A):
    pivots.append(qr_pivots(A))
    return pivots[-1]
dichotomy._qr_pivots = spy
cfg = cli.PipelineConfig(model_type="haldane", L=16,
                         model_params=json.loads(sys.argv[1]), seed=0)
report = cli.construct(cfg)
print(json.dumps({"pivots": pivots[0][:report.projector.rank].tolist(),
                  "verdict": report.verdict,
                  "snorm": [c.snorm for c in report.certificates]}))
"""


def test_initial_basis_does_not_depend_on_the_blas_thread_count():
    """Mirror-image columns of P tie exactly in norm on the Haldane sheet;
    the pivot tilt breaks the ties by index, so one and two BLAS threads
    select the same basis, with the same verdict and certificate norms."""
    src = str(Path(wl.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", THREAD_PROBE, json.dumps(TOPO_PARAMS)],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        runs.append(json.loads(done.stdout))
    one, two = runs
    assert one["pivots"] == two["pivots"]
    assert one["verdict"] == two["verdict"] == "certificate-failed"
    assert np.allclose(one["snorm"], two["snorm"], rtol=1e-12, atol=0.0)


def attach_moments_reference(basis, s_grid):
    """The per-function loop `attach_moments` replaced."""
    moments = {}
    dens = np.abs(basis.psi) ** 2
    for s in s_grid:
        vals = np.empty(basis.n_functions)
        for k in range(basis.n_functions):
            br = bracket(basis.grid.x - basis.centers[k, 0],
                         basis.grid.y - basis.centers[k, 1])
            vals[k] = float(np.sum(br ** (2.0 * s) * dens[:, k]))
        moments[float(s)] = vals
    return moments


def test_attach_moments_matches_per_function_loop(dis12_report, topo8_stack):
    s_grid = (0.5, 1.0, 2.0, 2.5, 3.0)
    for basis in (dis12_report.basis_initial, dis12_report.basis_final,
                  topo8_stack[2]):
        got = attach_moments(basis, s_grid).moments
        ref = attach_moments_reference(basis, s_grid)
        assert list(got) == list(ref)
        for s in s_grid:
            np.testing.assert_allclose(got[s], ref[s], rtol=1e-12, atol=0)


def test_phase_fixing_is_idempotent_and_normalizing():
    rng = np.random.default_rng(0)
    W = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    W, _ = np.linalg.qr(W)
    fixed = fix_phases(W)
    assert np.allclose(fix_phases(fixed), fixed)
    for k in range(3):
        lead = fixed[np.argmax(np.abs(fixed[:, k])), k]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)


def fix_phases_reference(W):
    """The per-column loop `fix_phases` replaced."""
    W = np.array(W)
    for k in range(W.shape[1]):
        col = W[:, k]
        lead = col[int(np.argmax(np.abs(col)))]
        if abs(lead) > 0:
            W[:, k] = col * (np.conj(lead) / abs(lead))
    return W


def test_fix_phases_matches_column_loop_bit_for_bit(dis8_stack, topo8_stack):
    rng = np.random.default_rng(3)
    with_zero = rng.standard_normal((20, 5)) + 1j * rng.standard_normal((20, 5))
    with_zero[:, 2] = 0.0
    real_zero = rng.standard_normal((20, 4))
    real_zero[:, 1] = 0.0
    blocks = {"real": dis8_stack[1].V, "complex": topo8_stack[1].V,
              "complex-zero-column": with_zero, "real-zero-column": real_zero}
    for name, W in blocks.items():
        got, ref = fix_phases(W), fix_phases_reference(W)
        assert got.dtype == ref.dtype, name
        assert got.tobytes() == ref.tobytes(), name


def test_density_centroids_of_delta():
    grid = make_grid(4, 1, ndim=2)
    psi = np.zeros((grid.dimension, 1), dtype=complex)
    psi[9, 0] = 1.0
    c = density_centroids(psi, grid)
    assert c[0, 0] == grid.x[9] and c[0, 1] == grid.y[9]
