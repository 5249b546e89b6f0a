import numpy as np
import pytest
from scipy.linalg import svdvals

import wanloc as wl
from wanloc.errors import (IncompleteBasisError, OutsideGapSetError,
                           SqrtResolventError)
from wanloc.lattice import SiteGrid, make_grid
from wanloc.spectral import Projector, orthonormality_defect, range_defect
from wanloc.cli import _delta_step
from wanloc.xhat import (FilterSpec, XtildeOperator, build_xhat, build_xtilde,
                         certificate_coupling, check_spans_range,
                         gap_certificate, gap_distance)

from suite_common import commutator


def atomic_setup(L=6):
    """Diagonal projector with a delta basis on an L x L two-orbital grid."""
    model = wl.build_haldane(L, 0.0, 0.0, 0.0, 1.0)
    P = wl.fermi_projector(model, 0.0)
    basis = wl.relabel_to_lattice(wl.initial_basis(P))
    return model, P, basis


# --- filter profile ----------------------------------------------------------

def test_filter_normalization_and_support():
    assert wl.filter_fourier(0.0) == 1.0
    assert wl.filter_fourier(1.0) == 0.0
    assert wl.filter_fourier(-1.0) == 0.0
    assert wl.filter_fourier(2.0) == 0.0
    assert wl.filter_fourier(0.5) == pytest.approx(0.421875, abs=1e-15)
    xs = np.linspace(-2, 2, 41)
    assert np.allclose(wl.filter_fourier(xs), wl.filter_fourier(-xs))


def test_filter_spec_minimum_width():
    with pytest.raises(ValueError):
        FilterSpec(1.5)


# --- surrogate construction --------------------------------------------------

def test_xtilde_atomic_equals_position():
    model, P, basis = atomic_setup()
    xt = build_xtilde(basis, P)
    X, _ = wl.position_operators(model)
    assert np.linalg.norm(xt.matrix - X) <= 1e-10


def test_xtilde_single_function_origin_center():
    grid = SiteGrid(width=1, orbitals_per_site=1, ndim=2)
    P = Projector(factor=np.eye(1, dtype=complex), fermi_energy=0.0,
                  gap=1.0, grid=grid)
    basis = wl.GeneralizedWannierBasis(psi=np.eye(1, dtype=complex),
                                       centers=np.zeros((1, 2)), grid=grid,
                                       degeneracy=np.ones(1, dtype=int))
    xt = build_xtilde(basis, P)
    assert np.all(xt.matrix == 0.0)


def basis_with_column_in_range_q(P, basis):
    """The basis with its last column replaced by a unit vector of range(Q)."""
    psi = basis.psi.astype(complex)
    q = (np.eye(len(psi)) - P.P)[:, 0]
    psi[:, -1] = q / np.linalg.norm(q)
    return wl.GeneralizedWannierBasis(psi=psi, centers=basis.centers,
                                      grid=basis.grid,
                                      degeneracy=basis.degeneracy)


def test_xtilde_rejects_basis_with_a_column_in_range_q(dis8_stack, topo8_stack):
    for _, P, basis, _ in (dis8_stack, topo8_stack):
        off = basis_with_column_in_range_q(P, basis)
        # still orthonormal, so only the range check can see it
        assert off.orthonormality_defect() <= 1e-12
        with pytest.raises(IncompleteBasisError, match="range defect 1.0"):
            build_xtilde(off, P)


def basis_with_column_tilted(P, basis, eps):
    """The basis with its last column turned by the angle eps towards a unit
    vector of range(Q): still orthonormal, and a real W stays real."""
    psi = basis.psi.copy()
    q = (np.eye(len(psi)) - P.P)[:, 0]
    psi[:, -1] = np.cos(eps) * psi[:, -1] + np.sin(eps) * q / np.linalg.norm(q)
    return wl.GeneralizedWannierBasis(psi=psi, centers=basis.centers,
                                      grid=basis.grid,
                                      degeneracy=basis.degeneracy)


@pytest.mark.parametrize("eps, rejected", [(1e-5, True), (1e-6, True),
                                           (1e-10, False)])
def test_span_check_is_first_order_in_the_tilt(dis8_stack, topo8_stack, eps,
                                               rejected):
    """A column tilted by eps out of range(P) leaves ||(I - P) W|| = eps,
    seen at eps = 1e-6 against a 1e-8 tolerance, while the Gram defect of
    V^H W moves only by eps^2."""
    for _, P, basis, _ in (dis8_stack, topo8_stack):
        W = basis_with_column_tilted(P, basis, eps).psi
        assert W.dtype == basis.psi.dtype
        if rejected:
            with pytest.raises(IncompleteBasisError, match="range defect"):
                check_spans_range(W, P)
        else:
            assert check_spans_range(W, P) == (orthonormality_defect(W),
                                               range_defect(W, P))
    assert dis8_stack[2].psi.dtype == np.float64
    assert topo8_stack[2].psi.dtype == np.complex128


@pytest.mark.parametrize("eps", [1e-6, 1e-3])
def test_range_defect_is_the_completeness_defect_over_sqrt2(dis8_stack,
                                                            topo8_stack, eps):
    """For an orthonormal basis of rank P columns, ||(I - P) W|| is
    ||W W^H - P|| / sqrt(2): the dense reference formula."""
    for _, P, basis, _ in (dis8_stack, topo8_stack):
        tilted = basis_with_column_tilted(P, basis, eps)
        outside = range_defect(tilted.psi, P)
        assert outside == pytest.approx(eps, rel=1e-6)
        assert np.sqrt(2.0) * outside == pytest.approx(
            tilted.completeness_defect(P.P), rel=1e-6)


def test_xtilde_integer_projected_spectrum(dis8_stack):
    _, P, _, xt = dis8_stack
    evals, _ = wl.projected_spectrum(P, xt.matrix)
    assert np.max(np.abs(evals - np.round(evals))) <= 1e-8


def test_xtilde_distance_to_position_respects_schur_bound(dis8_stack):
    model, P, basis, xt = dis8_stack
    X, _ = wl.position_operators(model)
    rep = wl.schur_row_sums(basis.psi, basis.m1, basis.grid)
    comm = wl.operator_norm(commutator(X, P.P))
    direct = wl.operator_norm(xt.matrix - X)
    assert direct <= rep.bound + 2.0 * comm + 1e-9


def test_xtilde_rejects_incomplete_basis(dis8_stack):
    _, P, basis, _ = dis8_stack
    truncated = wl.GeneralizedWannierBasis(
        psi=basis.psi[:, :-2], centers=basis.centers[:-2], grid=basis.grid,
        degeneracy=basis.degeneracy[:-2])
    with pytest.raises(IncompleteBasisError):
        build_xtilde(truncated, P)


# --- filter smoothing --------------------------------------------------------

def test_xhat_of_diagonal_surrogate_is_identity_map():
    model, P, basis = atomic_setup()
    xt = build_xtilde(basis, P)
    xh = build_xhat(xt, FilterSpec(4.0))
    assert np.array_equal(xh, xt.matrix)


def test_xhat_entry_scaling_and_bandwidth(dis8_stack):
    _, _, _, xt = dis8_stack
    xh = build_xhat(xt, FilterSpec(2.0))
    grid = xt.grid
    dx = np.abs(grid.x[:, None] - grid.x[None, :])
    dy = np.abs(grid.y[:, None] - grid.y[None, :])
    # entries with (dx, dy) = (1, 0) are scaled by fhat(1/2) = 0.421875
    sel = (dx == 1) & (dy == 0)
    assert np.allclose(xh[sel], xt.matrix[sel] * 0.421875, atol=1e-15)
    # exact zeros at or beyond the bandwidth in either coordinate
    assert np.all(xh[(dx >= 2.0) | (dy >= 2.0)] == 0.0)


def xhat_reference(xt, spec):
    """The filter evaluated on the N x N coordinate offsets, as `build_xhat`
    did before it took the 2L - 1 lattice offsets."""
    x = xt.grid.x.astype(float)
    y = xt.grid.y.astype(float)
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    return xt.matrix * (wl.filter_fourier(dx / spec.delta)
                        * wl.filter_fourier(dy / spec.delta))


def random_xtilde(grid, seed=1):
    """A real symmetric stand-in for X-tilde carried by a basis on `grid`."""
    A = np.random.default_rng(seed).standard_normal((grid.dimension,) * 2)
    basis = wl.GeneralizedWannierBasis(psi=np.eye(grid.dimension)[:, :1],
                                       centers=np.zeros((1, 2)), grid=grid)
    return XtildeOperator(matrix=A + A.T, basis=basis)


@pytest.mark.parametrize("delta", [2.0, 4.5, 1e5])
def test_xhat_matches_offset_array_reference(delta, dis8_stack, ssh24):
    P_ssh = ssh24[1]
    xts = [dis8_stack[3],                                   # 2-D, two orbitals
           random_xtilde(make_grid(6, 1, ndim=2)),          # 2-D, one orbital
           build_xtilde(wl.relabel_to_lattice(wl.initial_basis(P_ssh)),
                        P_ssh)]                             # 1-D SSH chain
    for xt in xts:
        spec = FilterSpec(delta)
        assert np.array_equal(build_xhat(xt, spec), xhat_reference(xt, spec))


@pytest.mark.parametrize("orbitals", [1, 2])
def test_xhat_on_a_chain_is_the_one_axis_mask(orbitals):
    """A chain's one-site y axis adds nothing: the mask is kron(T, ones)."""
    xt = random_xtilde(make_grid(7, orbitals, ndim=1))
    i = np.arange(7)
    T = wl.filter_fourier(np.abs(i[:, None] - i) / 3.0)
    assert np.array_equal(build_xhat(xt, FilterSpec(3.0)),
                          xt.matrix * np.kron(T, np.ones((orbitals, orbitals))))


def test_xhat_hermitian(dis8_stack):
    _, _, _, xt = dis8_stack
    xh = build_xhat(xt, FilterSpec(8.0))
    assert np.linalg.norm(xh - xh.conj().T) <= 1e-12 * max(
        1.0, np.linalg.norm(xh))


# --- closeness ---------------------------------------------------------------

def test_closeness_zero_in_atomic_limit():
    model, P, basis = atomic_setup()
    xt = build_xtilde(basis, P)
    xh = build_xhat(xt, FilterSpec(4.0))
    assert wl.closeness_norm(xh, model.grid.x) <= 1e-10


def test_closeness_bounded_across_sizes(dis_projectors):
    norms = []
    for L in (8, 12, 16):
        model, P = dis_projectors[L]
        basis = wl.relabel_to_lattice(wl.initial_basis(P))
        xt = build_xtilde(basis, P)
        xh = build_xhat(xt, FilterSpec(8.0))
        norms.append(wl.closeness_norm(xh, model.grid.x))
    assert max(norms) / min(norms) < 1.2


def test_closeness_approaches_unfiltered_distance_for_wide_filters(dis8_stack):
    model, _, _, xt = dis8_stack
    X, _ = wl.position_operators(model)
    wide = build_xhat(xt, FilterSpec(1e5))
    assert abs(wl.closeness_norm(wide, model.grid.x)
               - wl.operator_norm(xt.matrix - X)) <= 1e-6


# --- tilt response -----------------------------------------------------------

def test_tilt_lipschitz_diagonal_operator_is_tilt_free():
    model, P, basis = atomic_setup()
    xt = build_xtilde(basis, P)
    xh = build_xhat(xt, FilterSpec(4.0))
    sup, rows = wl.tilt_lipschitz(xh, (0.05, 0.1), [(2.0, 2.0)], model.grid)
    assert sup <= 1e-12


def test_tilt_lipschitz_near_linear_scaling(dis8_stack):
    model, _, _, xt = dis8_stack
    xh = build_xhat(xt, FilterSpec(8.0))
    anchors = [(3.5, 3.5)]
    _, rows = wl.tilt_lipschitz(xh, (0.05, 0.1), anchors, model.grid)
    norm_at = {g: n for (g, _, _, n, _) in rows}
    assert 1.6 <= norm_at[0.1] / norm_at[0.05] <= 2.4


@pytest.mark.parametrize("stack", ["dis8_stack", "topo8_stack"])
def test_tilt_lipschitz_matches_svd_of_tilt_difference(stack, request):
    """Each row agrees with the top singular value of the N x N difference
    B Xh B^-1 - Xh, real (disordered) or complex (Haldane); a zero rate
    gives exactly zero."""
    model, _, _, xt = request.getfixturevalue(stack)
    grid = model.grid
    xh = build_xhat(xt, FilterSpec(8.0))
    gammas = (0.0, 0.05, 0.2)
    anchors = [(3.5, 3.5), (0.0, 7.0)]
    sup, rows = wl.tilt_lipschitz(xh, gammas, anchors, grid)
    assert len(rows) == len(gammas) * len(anchors)
    for gamma, a1, a2, norm, ratio in rows:
        if gamma == 0.0:
            assert norm == 0.0 and ratio == 0.0
            continue
        tilted = wl.tilt_operator(xh, gamma, (a1, a2), grid)
        ref = svdvals(tilted - xh)[0]
        assert norm == pytest.approx(ref, rel=1e-12, abs=0)
        assert ratio == pytest.approx(ref / gamma, rel=1e-12, abs=0)
    assert sup == max(r[4] for r in rows)


def test_tilt_lipschitz_uniform_in_anchor(dis8_stack):
    model, _, _, xt = dis8_stack
    xh = build_xhat(xt, FilterSpec(8.0))
    sup_center, _ = wl.tilt_lipschitz(xh, (0.1,), [(3.5, 3.5)], model.grid)
    sup_shift, _ = wl.tilt_lipschitz(xh, (0.1,), [(8.5, 8.5)], model.grid)
    assert sup_shift / sup_center < 2.0
    assert sup_center / sup_shift < 2.0


# --- mid-gap machinery -------------------------------------------------------

def test_gap_set_membership_and_midpoints():
    assert wl.in_gap_set(0.5)
    assert wl.in_gap_set(-0.6)
    assert not wl.in_gap_set(0.0)
    assert not wl.in_gap_set(0.25)
    assert not wl.in_gap_set(0.8)
    assert wl.gap_midpoints(0.0, 7.0) == [m + 0.5 for m in range(7)]


def test_sqrt_resolvent_single_function():
    grid = SiteGrid(width=1, orbitals_per_site=1, ndim=2)
    P = Projector(factor=np.eye(1, dtype=complex), fermi_energy=0.0,
                  gap=1.0, grid=grid)
    basis = wl.GeneralizedWannierBasis(psi=np.eye(1, dtype=complex),
                                       centers=np.zeros((1, 2)), grid=grid,
                                       degeneracy=np.ones(1, dtype=int))
    S = wl.sqrt_resolvent(0.5, basis, P)
    assert S.matrix[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_sqrt_resolvent_empty_projector_is_scaled_identity():
    grid = make_grid(4, 1, ndim=2)
    N = grid.dimension
    P = Projector(factor=np.zeros((N, 0), dtype=complex),
                  fermi_energy=-10.0, gap=1.0, grid=grid)
    basis = wl.GeneralizedWannierBasis(psi=np.zeros((N, 0), dtype=complex),
                                       centers=np.zeros((0, 2)), grid=grid,
                                       degeneracy=np.ones(0, dtype=int))
    S = wl.sqrt_resolvent(0.5, basis, P)
    assert np.allclose(S.matrix, np.sqrt(2.0) * np.eye(N), atol=1e-12)


def test_sqrt_resolvent_commutes_with_projector(dis8_stack):
    _, P, basis, _ = dis8_stack
    S = wl.sqrt_resolvent(0.5, basis, P)
    assert np.linalg.norm(S.matrix @ P.P - P.P @ S.matrix) <= 1e-9
    assert np.linalg.norm(S.matrix @ S.inverse - np.eye(P.P.shape[0])) <= 1e-9


def test_sqrt_resolvent_rejects_values_outside_gap_set(dis8_stack):
    _, P, basis, _ = dis8_stack
    with pytest.raises(OutsideGapSetError):
        wl.sqrt_resolvent(1.0, basis, P)


def test_sqrt_resolvent_rejects_basis_outside_range_p(dis8_stack):
    _, P, basis, _ = dis8_stack
    with pytest.raises(SqrtResolventError, match="sign operator"):
        wl.sqrt_resolvent(0.5, basis_with_column_in_range_q(P, basis), P)


def test_gap_certificate_rejects_values_outside_gap_set(dis8_stack):
    _, _, basis, xt = dis8_stack
    K = certificate_coupling(xt, FilterSpec(4.0))
    with pytest.raises(OutsideGapSetError, match="lambda=1.0 outside"):
        gap_certificate(K, basis.m1, 1.0, 4.0)


def test_gap_certificate_unfiltered_surrogate_is_exact(dis8_stack):
    _, P, basis, xt = dis8_stack
    # so wide that fhat is exactly 1 at every lattice offset: Xhat = Xtilde
    spec = FilterSpec(1e200)
    ident = build_xhat(xt, spec)
    assert np.array_equal(ident, xt.matrix)
    spectrum, _ = wl.projected_spectrum(P, ident)
    cert = gap_certificate(certificate_coupling(xt, spec), basis.m1, 0.5, 8.0)
    assert cert.snorm <= 1e-9
    assert gap_distance(spectrum, cert.lam) >= 0.25
    assert cert.passed


@pytest.mark.parametrize("stack, all_pass", [("dis8_stack", True),
                                              ("topo8_stack", False)])
def test_gap_certificate_matches_full_sandwich(stack, all_pass, request):
    """The basis-coordinate norm equals ||S P (Xh - Xt) P S|| built N x N."""
    _, P, basis, xt = request.getfixturevalue(stack)
    lambdas = wl.gap_midpoints(0.0, 7.0)
    _, _, certs = _delta_step(xt, 4.0, lambdas)
    xh = build_xhat(xt, FilterSpec(4.0))
    D = P.P @ (xh - xt.matrix) @ P.P
    for lam, cert in zip(lambdas, certs, strict=True):
        S = wl.sqrt_resolvent(lam, basis, P).matrix
        assert cert.snorm == pytest.approx(wl.operator_norm(S @ D @ S),
                                           rel=1e-10)
    assert all(c.passed for c in certs) == all_pass


@pytest.mark.parametrize("stack", ["dis8_stack", "topo8_stack"])
def test_delta_step_spectrum_matches_projected_spectrum(stack, request):
    """diag(m1) + K in the surrogate's basis has the spectrum of P Xhat P
    taken in V coordinates, and the certificates measure their gap
    distances from it."""
    _, P, _, xt = request.getfixturevalue(stack)
    lambdas = wl.gap_midpoints(0.0, 7.0)
    for delta in (4.0, 8.0):
        spectrum, _, certs = _delta_step(xt, delta, lambdas)
        ref, _ = wl.projected_spectrum(P, build_xhat(xt, FilterSpec(delta)))
        assert np.max(np.abs(spectrum - ref)) <= 1e-12
        for lam, cert in zip(lambdas, certs, strict=True):
            assert cert.min_gap_distance == pytest.approx(
                float(np.min(np.abs(ref - lam))), abs=1e-12)


@pytest.mark.parametrize("stack", ["dis8_stack", "topo8_stack"])
def test_delta_step_eigenvectors_only_when_every_certificate_passes(
        stack, request):
    """U is formed only at a width a run can keep; a failing width, also
    one where some certificates pass (topological L=8 at Delta=16), gets
    eigvalsh's spectrum, within 1e-12 of eigh's, and no U."""
    _, _, _, xt = request.getfixturevalue(stack)
    lambdas = wl.gap_midpoints(0.0, 7.0)
    for delta in (4.0, 16.0):
        spectrum, U, certs = _delta_step(xt, delta, lambdas)
        passed = all(c.passed for c in certs)
        assert (U is not None) == passed
        M = np.diag(xt.basis.m1) + certificate_coupling(xt, FilterSpec(delta))
        ref, vecs = np.linalg.eigh(0.5 * (M + M.conj().T))
        assert np.max(np.abs(spectrum - ref)) <= 1e-12
        if passed:
            assert U.shape == vecs.shape
            assert np.array_equal(spectrum, ref)
        for cert in certs:
            assert cert.min_gap_distance == np.min(np.abs(spectrum - cert.lam))


def test_delta_step_without_vectors_keeps_the_certificates(dis8_stack):
    """keep_vectors=False forms no U even where every certificate passes,
    and leaves the certificate norms as they are."""
    _, _, _, xt = dis8_stack
    lambdas = wl.gap_midpoints(0.0, 7.0)
    spectrum, U, certs = _delta_step(xt, 4.0, lambdas)
    bare, no_U, bare_certs = _delta_step(xt, 4.0, lambdas, keep_vectors=False)
    assert U is not None and no_U is None
    assert np.max(np.abs(bare - spectrum)) <= 1e-12
    assert [c.snorm for c in bare_certs] == [c.snorm for c in certs]
    assert [c.passed for c in bare_certs] == [c.passed for c in certs]


def test_gap_certificate_norm_decreases_with_filter_width(dis8_stack):
    _, P, _, xt = dis8_stack
    lambdas = wl.gap_midpoints(0.0, 7.0)
    norms = []
    for delta in (4.0, 8.0, 16.0):
        _, _, certs = _delta_step(xt, delta, lambdas)
        assert all(c.passed for c in certs)
        norms.append(max(c.snorm for c in certs))
    assert norms[0] > norms[1] > norms[2]
