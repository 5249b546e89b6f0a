import numpy as np
import pytest
from scipy.linalg import svdvals

import wanloc as wl
from wanloc.errors import (InsufficientRangeError, NoGapError,
                           NotOrthonormalError, TiltTooLargeError)
from wanloc.lattice import TightBindingModel, make_grid
from wanloc.spectral import Projector, kernel_envelope, matrix_decay_fit


def model_from_matrix(H, width, orbitals=1, ndim=2):
    grid = make_grid(width, orbitals_per_site=orbitals, ndim=ndim)
    return TightBindingModel(grid=grid, H=np.asarray(H, dtype=complex),
                             params={"type": "custom"})


def test_fermi_projector_diagonal_hamiltonian():
    grid = make_grid(2, 1, ndim=1)
    model = TightBindingModel(grid=grid, H=np.diag([-1.0 + 0j, 1.0]),
                              params={})
    P = wl.fermi_projector(model, 0.0)
    assert np.allclose(P.P, np.diag([1.0, 0.0]))
    assert P.rank == 1
    assert P.gap == pytest.approx(2.0)


def test_fermi_projector_closed_form_two_level():
    grid = make_grid(2, 1, ndim=1)
    model = TightBindingModel(grid=grid, H=np.array([[0, 1], [1, 0]], dtype=complex),
                              params={})
    P = wl.fermi_projector(model, 0.0)
    assert np.allclose(P.P, 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-12)


def test_fermi_projector_ssh_half_filling_rank():
    model = wl.build_ssh_chain(8, t1=1.0, t2=0.0)
    P = wl.fermi_projector(model, 0.0)
    assert P.rank == 8


def test_fermi_projector_rejects_fermi_on_eigenvalue():
    grid = make_grid(2, 1, ndim=1)
    model = TightBindingModel(grid=grid, H=np.diag([0.0 + 0j, 1.0]),
                              params={})
    with pytest.raises(NoGapError):
        wl.fermi_projector(model, 1e-8)


def test_projector_invariants_across_builders(dis_projectors, trivial_projectors):
    for (_, P) in list(dis_projectors.values()) + list(trivial_projectors.values()):
        assert np.linalg.norm(P.P @ P.P - P.P) <= 1e-10
        assert np.linalg.norm(P.P - P.P.conj().T) <= 1e-12
        assert abs(np.trace(P.P).real - P.rank) <= 1e-8


@pytest.mark.parametrize("V", [np.array([[1.0], [1.0]]),
                               np.array([[1.0, 0.6], [0.0, 0.8]])])
def test_projector_rejects_non_orthonormal_basis(V):
    grid = make_grid(2, 1, ndim=1)
    with pytest.raises(NotOrthonormalError):
        Projector(factor=V, fermi_energy=0.0, gap=1.0, grid=grid)


def test_mirror_projector_checks_orthonormality_of_its_factor():
    # U is unitary, so the check reads R^T R - I on the stored real factor
    P = wl.fermi_projector(wl.build_haldane(8, 1.0, 1 / 3, np.pi / 2, 0.2), 0.0)
    R = P.factor.copy()
    R[0, 0] += 1e-6
    with pytest.raises(NotOrthonormalError, match="not orthonormal"):
        Projector(factor=R, fermi_energy=0.0, gap=P.gap, grid=P.grid,
                  mirror=P.mirror)


def test_tilt_zero_gamma_is_identity():
    model = wl.build_disordered_insulator(4, 2.0, 0.5, 1)
    A = model.H
    assert np.array_equal(wl.tilt_operator(A, 0.0, (1.0, 1.0), model.grid), A)


def test_tilt_leaves_diagonal_matrices_unchanged():
    grid = make_grid(4, 1, ndim=2)
    A = np.diag(np.linspace(0.0, 3.0, grid.dimension))
    out = wl.tilt_operator(A, 0.3, (0.5, 0.5), grid)
    assert np.allclose(out, A, atol=1e-14)


def test_tilt_round_trip():
    model = wl.build_disordered_insulator(6, 2.0, 0.5, 2)
    P = wl.fermi_projector(model, 0.0)
    tilted = wl.tilt_operator(P.P, 0.1, (2.0, 3.0), model.grid)
    back = wl.tilt_operator(tilted, -0.1, (2.0, 3.0), model.grid)
    assert np.linalg.norm(back - P.P) <= 1e-9 * np.linalg.norm(P.P)


def test_tilted_projector_is_projection():
    model = wl.build_disordered_insulator(6, 2.0, 0.5, 2)
    P = wl.fermi_projector(model, 0.0)
    Pg = wl.tilt_operator(P.P, 0.1, (2.5, 2.5), model.grid)
    assert np.linalg.norm(Pg @ Pg - Pg) <= 1e-9


def test_tilt_overflow_guard():
    grid = make_grid(8, 1, ndim=2)
    with pytest.raises(TiltTooLargeError):
        wl.tilt_operator(np.eye(grid.dimension), 5.0, (0.0, 0.0), grid)


def test_tilted_projector_distance_near_linear_in_gamma(dis_projectors):
    model, P = dis_projectors[8]
    ratios = []
    for gamma in (0.025, 0.05, 0.1):
        Pg = wl.tilt_operator(P.P, gamma, (3.5, 3.5), model.grid)
        ratios.append(wl.operator_norm(Pg - P.P) / gamma)
    assert max(ratios) / min(ratios) < 1.5
    norm_01 = wl.operator_norm(
        wl.tilt_operator(P.P, 0.1, (3.5, 3.5), model.grid) - P.P)
    assert norm_01 <= max(ratios) * 0.1 + 1e-12


def test_kernel_decay_atomic_is_compact_support():
    model = wl.build_haldane(6, 0.0, 0.0, 0.0, 1.0)
    P = wl.fermi_projector(model, 0.0)
    prof = wl.kernel_decay_fit(P)
    assert prof.flag == "compact-support"
    assert prof.gamma == np.inf


def test_kernel_decay_constant_kernel_flagged_no_decay():
    grid = make_grid(8, 1, ndim=2)
    N = grid.dimension
    prof = matrix_decay_fit(np.full((N, N), 1.0 / N), grid)
    assert prof.flag == "no-decay"
    assert abs(prof.gamma) < 1e-2


def test_kernel_decay_gapped_model_exponential(trivial_projectors):
    _, P = trivial_projectors[12]
    prof = wl.kernel_decay_fit(P)
    assert prof.gamma > 0
    assert prof.r_squared >= 0.9
    assert prof.samples >= 10


@pytest.mark.parametrize("orbitals, ndim", [(1, 2), (2, 2), (2, 1)])
def test_kernel_envelope_orbital_reduction_matches_4d_max(orbitals, ndim):
    grid = make_grid(5, orbitals, ndim=ndim)
    N = grid.dimension
    ns = N // orbitals
    rng = np.random.default_rng(3)
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    dist, mags = kernel_envelope(A, grid)
    per_pair = np.abs(A).reshape(ns, orbitals, ns, orbitals).max(axis=(1, 3))
    order, starts, ref_dist = grid.site_pair_bins
    assert np.array_equal(dist, ref_dist)
    assert np.array_equal(mags, np.maximum.reduceat(per_pair.ravel()[order],
                                                    starts))


def test_kernel_decay_needs_enough_bins():
    grid = make_grid(2, 1, ndim=2)
    N = grid.dimension
    with pytest.raises(InsufficientRangeError):
        matrix_decay_fit(np.full((N, N), 0.25), grid)


def test_commutator_of_positions_vanishes():
    model = wl.build_haldane(4, 1.0, 0.0, 0.0, 1.0)
    X, Y = wl.position_operators(model)
    assert np.linalg.norm(wl.commutator(X, Y)) == 0.0


def test_operator_norm_identity():
    assert wl.operator_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("shape", [(30, 30), (30, 7), (7, 30)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_operator_norm_matches_svd(shape, dtype):
    """The Gram-matrix norm equals the top singular value, in every shape,
    and for rank-1 operands near the ends of the float64 range."""
    rng = np.random.default_rng(11)

    def draw(*s):
        A = rng.standard_normal(s)
        return A + 1j * rng.standard_normal(s) if dtype is complex else A

    outer = np.outer(draw(shape[0]), draw(shape[1]))
    for A in (draw(*shape), 1e-200 * outer, 1e150 * outer):
        got = wl.operator_norm(A)
        assert np.isfinite(got)
        assert got == pytest.approx(svdvals(A)[0], rel=1e-12, abs=0)
    assert wl.operator_norm(np.zeros(shape, dtype=dtype)) == 0.0


@pytest.mark.parametrize("dtype", [float, complex])
def test_operator_norm_of_a_stack_is_per_matrix(dtype):
    """A stack returns each matrix's norm, bit for bit, each scaled by its own
    max|A|: scales 1e-200 and 1e150 and a zero matrix share one stack."""
    rng = np.random.default_rng(12)
    A = rng.standard_normal((5, 9, 6))
    if dtype is complex:
        A = A + 1j * rng.standard_normal(A.shape)
    A[1] *= 1e-200
    A[2] *= 1e150
    A[3] = 0.0
    for stack in (A, A.swapaxes(-1, -2)):
        got = wl.operator_norm(stack)
        assert got.shape == (5,)
        assert got.tolist() == [wl.operator_norm(M) for M in stack]
        assert got[3] == 0.0
    assert wl.operator_norm(np.zeros((2, 3, 3))).tolist() == [0.0, 0.0]


def test_operator_norm_empty_matrix_is_zero():
    assert wl.operator_norm(np.zeros((0, 0))) == 0.0


def test_hermitian_norm_matches_operator_norm():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    herm = A + A.conj().T
    anti = A - A.conj().T
    assert wl.hermitian_norm(herm) == pytest.approx(wl.operator_norm(herm),
                                                    rel=1e-12)
    assert wl.hermitian_norm(1j * anti) == pytest.approx(
        wl.operator_norm(anti), rel=1e-12)
    neg = -np.diag([3.0, 1.0, 2.0])     # the largest |eigenvalue| is negative
    assert wl.hermitian_norm(neg) == 3.0
    assert wl.hermitian_norm(np.zeros((6, 6))) == 0.0
    assert wl.hermitian_norm(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("dtype", [float, complex])
def test_hermitian_norm_of_a_stack_is_per_matrix(dtype):
    """A stack returns each matrix's largest |eigenvalue|, bit for bit, with
    0.0 for a zero matrix in it and for a stack of empty matrices."""
    rng = np.random.default_rng(13)
    A = rng.standard_normal((2, 3, 7, 7))
    if dtype is complex:
        A = A + 1j * rng.standard_normal(A.shape)
    stack = A + A.conj().swapaxes(-1, -2)
    stack[1, 2] = 0.0
    got = wl.hermitian_norm(stack)
    assert got.shape == (2, 3)
    assert got.tolist() == [[wl.hermitian_norm(M) for M in row]
                            for row in stack]
    assert got[1, 2] == 0.0
    assert wl.hermitian_norm(np.zeros((3, 0, 0))).tolist() == [0.0] * 3
    assert wl.hermitian_norm(np.zeros((2, 4, 4), dtype=dtype)).tolist() == [
        0.0, 0.0]


def test_commutator_position_with_atomic_projector():
    model = wl.build_haldane(4, 0.0, 0.0, 0.0, 1.0)
    P = wl.fermi_projector(model, 0.0)
    X, _ = wl.position_operators(model)
    assert np.linalg.norm(wl.commutator(X, P.P)) <= 1e-12


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError):
        wl.commutator(np.eye(2), np.eye(3))


def test_position_projector_commutators_bounded_in_size(dis_projectors):
    norms = []
    for L in (8, 12, 16):
        model, P = dis_projectors[L]
        X, Y = wl.position_operators(model)
        norms.append(max(wl.operator_norm(wl.commutator(X, P.P)),
                         wl.operator_norm(wl.commutator(Y, P.P))))
    assert max(norms) <= 1.2 * norms[0]
