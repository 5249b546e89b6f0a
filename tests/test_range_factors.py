"""Stages after the one `eigh(H)` read range(P) through its factors: the
surrogate, the certificate coupling and the kernel fits form no N x N P, Q,
P_j or X-hat - X-tilde.  These tests hold them to the N x N formulas they
replace and bound the memory that `construct` allocates."""

import tracemalloc

import numpy as np
import pytest

import wanloc as wl
from wanloc.cli import PipelineConfig, construct
from wanloc.lattice import ROW_SLAB, make_grid
from wanloc.spectral import factor_envelope, kernel_envelope
from wanloc.xhat import certificate_coupling

from suite_common import DIS_PARAMS, DIS_SEED, TOPO_PARAMS

# peak traced allocation of one `construct` at L=12, in complex N x N
# arrays (16 N^2 bytes), about 10% above the measured 5.21 (Haldane) and
# 4.63 (disordered); with N x N P, Q and P_j they were 8.42 and 5.41
CONSTRUCT_PEAK_NXN = {"haldane": 5.75, "disordered": 5.15}


@pytest.fixture(scope="module")
def stacks12(dis_projectors):
    """(P, labelled basis, X-tilde) of the disordered (real) and the
    Haldane Chern (complex) insulator at L=12, N = 288: three row slabs."""
    topo = wl.build_haldane(12, TOPO_PARAMS["t1"], TOPO_PARAMS["t2"],
                            TOPO_PARAMS["phi"], TOPO_PARAMS["m"])
    out = []
    for P in (dis_projectors[12][1], wl.fermi_projector(topo, 0.0)):
        basis = wl.relabel_to_lattice(wl.initial_basis(P))
        out.append((P, basis, wl.build_xtilde(basis, P)))
    assert out[0][2].grid.dimension > 2 * ROW_SLAB
    return out


def test_xtilde_matches_the_projector_formula(stacks12):
    """X-tilde from the basis factor equals Q X Q + W diag(m1) W^H with
    Q = I - V V^H to 1e-12 L, and is Hermitian bit for bit."""
    for P, basis, xt in stacks12:
        V, W = P.V, basis.psi
        Q = np.eye(len(V)) - V @ V.conj().T
        ref = Q @ (basis.grid.x[:, None] * Q) + (W * basis.m1) @ W.conj().T
        M = xt.matrix
        assert np.max(np.abs(M - ref)) <= 1e-12 * basis.grid.width
        assert np.array_equal(M, M.conj().T)


def test_coupling_matches_the_dense_sandwich(stacks12):
    """K from the filter defect, a row slab at a time, is W^H (Xh - Xt) W."""
    for _, basis, xt in stacks12:
        W = basis.psi
        for delta in (4.0, 16.0):
            spec = wl.FilterSpec(delta)
            ref = W.conj().T @ (wl.build_xhat(xt, spec) - xt.matrix) @ W
            K = certificate_coupling(xt, spec)
            assert np.max(np.abs(K - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_factor_envelope_matches_the_dense_kernel(stacks12, dis12_report):
    """The envelope of V V^H from the factor, for the projector and a band
    block, is `kernel_envelope` of the dense V V^H."""
    factors = [(P.V, P.grid) for P, _, _ in stacks12]
    factors.append((dis12_report.bands.vectors[0], dis12_report.model.grid))
    for V, grid in factors:
        dist, mags = factor_envelope(V, grid)
        ref_dist, ref = kernel_envelope(V @ V.conj().T, grid)
        assert np.array_equal(dist, ref_dist)
        assert np.max(np.abs(mags - ref)) <= 1e-15


@pytest.mark.parametrize("orbitals", [1, 3])
def test_factor_envelope_slabs_cover_whole_sites(orbitals):
    """Slabs hold whole sites also where the orbital count does not divide
    ROW_SLAB, and cover more than one slab."""
    grid = make_grid(14, orbitals)
    assert grid.dimension // orbitals > ROW_SLAB // orbitals
    rng = np.random.default_rng(5)
    A = rng.standard_normal((grid.dimension, 20)) \
        + 1j * rng.standard_normal((grid.dimension, 20))
    V = np.linalg.qr(A)[0]
    _, mags = factor_envelope(V, grid)
    assert np.max(np.abs(mags - kernel_envelope(V @ V.conj().T, grid)[1])) \
        <= 1e-15


@pytest.mark.parametrize("model", ["haldane", "disordered"])
def test_construct_peak_allocation_budget(model, tmp_path):
    """`construct` allocates at most CONSTRUCT_PEAK_NXN complex N x N arrays
    at its peak: H, X-tilde and one transient N x N array at a time."""
    if model == "haldane":
        params, seed = TOPO_PARAMS, 0
    else:
        params, seed = DIS_PARAMS, DIS_SEED
    cfg = PipelineConfig(model_type=model, L=12, model_params=params,
                         seed=seed, output_dir=str(tmp_path))
    tracemalloc.start()
    try:
        report = construct(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict in ("certificate-failed",
                              "exponential-basis-constructed")
    N = report.model.grid.dimension
    assert peak <= CONSTRUCT_PEAK_NXN[model] * 16 * N * N
