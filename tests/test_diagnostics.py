import numpy as np
import pytest

import wanloc as wl
from wanloc import cli, diagnostics
from wanloc.cli import PipelineConfig
from wanloc.dichotomy import attach_moments
from wanloc.errors import (ChernResidualError, GaplessModelError,
                           InsufficientRangeError, OutsideGapSetError,
                           UnsupportedGeometryError, WindowTooLargeError)
from wanloc.lattice import make_grid, xy_mirror
from wanloc.spectral import Projector, bracket, decay_floor, eigh_projector
from wanloc.xhat import build_xtilde

from suite_common import TOPO_PARAMS, commutator, gauge_twin

RNG_SEED = 1234


def delta_vector(grid, site_index):
    v = np.zeros(grid.dimension, dtype=complex)
    v[site_index] = 1.0
    return v


def synthetic_profile(grid, mu, shape):
    br = bracket(grid.x - mu[0], grid.y - mu[1])
    v = shape(br)
    return v / np.linalg.norm(v), br


# --- moments ------------------------------------------------------------------


def s_moment(v, mu, grid, s):
    """The 2s-th moment of one function about mu, from `attach_moments`."""
    basis = wl.GeneralizedWannierBasis(psi=v[:, None], centers=np.array([mu]),
                                       grid=grid)
    return attach_moments(basis, (s,)).moments[float(s)][0]


def test_s_moment_of_centred_delta():
    grid = make_grid(6, 1, ndim=2)
    i = int(np.flatnonzero((grid.x == 2) & (grid.y == 3))[0])
    assert s_moment(delta_vector(grid, i), (2.0, 3.0), grid, s=1.0) == 1.0
    assert s_moment(delta_vector(grid, i), (2.0, 3.0), grid, s=2.5) == 1.0


def test_s_moment_of_displaced_delta():
    grid = make_grid(8, 1, ndim=2)
    i = int(np.flatnonzero((grid.x == 4) & (grid.y == 5))[0])
    # displacement (3, 4): bracket^2 = 1 + 25 = 26
    val = s_moment(delta_vector(grid, i), (1.0, 1.0), grid, s=1.0)
    assert val == pytest.approx(26.0, abs=1e-12)


def test_s_moment_equal_weight_pair():
    grid = make_grid(6, 1, ndim=2)
    i0 = int(np.flatnonzero((grid.x == 2) & (grid.y == 2))[0])
    i1 = int(np.flatnonzero((grid.x == 3) & (grid.y == 2))[0])
    v = (delta_vector(grid, i0) + delta_vector(grid, i1)) / np.sqrt(2.0)
    assert s_moment(v, (2.0, 2.0), grid, s=1.0) == pytest.approx(1.5)


def test_s_moment_monotone_in_s():
    grid = make_grid(8, 1, ndim=2)
    v, _ = synthetic_profile(grid, (3.5, 3.5), lambda r: np.exp(-0.7 * r))
    vals = [s_moment(v, (3.5, 3.5), grid, s) for s in (0.5, 1.0, 2.0, 3.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] >= 1.0


# --- exponential fits ----------------------------------------------------------


def test_fit_exponential_delta_is_compact_support():
    grid = make_grid(10, 1, ndim=2)
    i = int(np.flatnonzero((grid.x == 5) & (grid.y == 5))[0])
    fit = wl.fit_exponential(delta_vector(grid, i), (5.0, 5.0), grid)
    assert fit.flag == "compact-support"
    assert fit.gamma == np.inf


def test_fit_exponential_recovers_synthetic_rate():
    grid = make_grid(40, 1, ndim=2)
    mu = (19.5, 19.5)
    v, _ = synthetic_profile(grid, mu, lambda r: np.exp(-0.5 * r))
    fit = wl.fit_exponential(v, mu, grid)
    assert fit.gamma == pytest.approx(0.5, abs=0.02)
    assert fit.r_squared >= 0.99


def test_fit_exponential_flags_algebraic_profile():
    grid = make_grid(60, 1, ndim=2)
    mu = (29.5, 29.5)
    v, _ = synthetic_profile(grid, mu, lambda r: r ** -3.0)
    fit = wl.fit_exponential(v, mu, grid)
    assert fit.r_squared < 0.9


def test_fit_exponential_needs_enough_shells():
    grid = make_grid(4, 1, ndim=2)
    v, _ = synthetic_profile(grid, (1.5, 1.5), lambda r: np.exp(-0.3 * r))
    with pytest.raises(InsufficientRangeError):
        wl.fit_exponential(v, (1.5, 1.5), grid)


def fit_exponential_reference(psi, mu, grid, shell_width=diagnostics.SHELL_WIDTH):
    """The per-shell loop `fit_exponential` replaced, with today's floor."""
    psi = np.abs(np.asarray(psi))
    floor = decay_floor(psi.max(), psi.size)
    r = bracket(grid.x - mu[0], grid.y - mu[1])
    reach = max(mu[0], (grid.width - 1) - mu[0])
    if grid.ndim == 2:
        reach = max(reach, mu[1], (grid.width - 1) - mu[1])
    r_cap = max(np.sqrt(1.0 + reach * reach),
                1.0 + (diagnostics.MIN_SHELLS + 1) * shell_width) + 1e-9
    shell = np.floor((r - 1.0) / shell_width).astype(int)
    dist, vals = [], []
    n_usable = n_points = 0
    has_zero_shell = subfloor_noise = False
    for k in range(shell.max() + 1):
        mask = shell == k
        if not mask.any():
            continue
        val = float(np.sqrt(np.mean(psi[mask] ** 2)))
        rep = float(np.mean(r[mask]))
        if val > floor:
            n_usable += 1
            if rep <= r_cap:
                n_points += 1
                dist.append(rep)
                vals.append(val)
        elif val == 0.0:
            has_zero_shell = True
        else:
            subfloor_noise = True
    if n_points < diagnostics.MIN_SHELLS:
        if (has_zero_shell and not subfloor_noise and n_usable == n_points
                and n_points > 0):
            return ("compact-support", max(vals), n_points)
        return InsufficientRangeError
    logs = np.log(vals)
    slope, intercept = np.polyfit(dist, logs, 1)
    return (None, float(np.exp(intercept)), n_points, float(-slope))


def _outcome(fit):
    """The fields `fit_exponential_reference` reports, for a fit or None."""
    if fit is None:
        return InsufficientRangeError
    if fit.flag == "compact-support":
        return (fit.flag, fit.C, fit.samples)
    return (fit.flag, fit.C, fit.samples, fit.gamma)


def _fit_outcome(psi, mu, grid):
    try:
        return _outcome(wl.fit_exponential(psi, mu, grid))
    except InsufficientRangeError:
        return InsufficientRangeError


def _assert_same_fit(got, ref):
    if ref is InsufficientRangeError:
        assert got is ref
        return
    assert got[0] == ref[0] and got[2] == ref[2]
    np.testing.assert_allclose(got[1::2], ref[1::2], rtol=1e-12, atol=0)


def test_fit_exponential_matches_shell_loop(dis12_report):
    final = dis12_report.basis_final
    cases = [(final.psi[:, k], final.centers[k]) for k in range(final.n_functions)]
    grid = final.grid
    outcomes = [_fit_outcome(psi, mu, grid) for psi, mu in cases]
    assert all(o is not InsufficientRangeError and o[0] is None for o in outcomes)
    for (psi, mu), got in zip(cases, outcomes):
        _assert_same_fit(got, fit_exponential_reference(psi, mu, grid))


def edge_case_vectors():
    """(grid, mu, vectors, expected outcome) of vectors about one centre:
    compact, too-few-shell and fitted cases."""
    grid = make_grid(12, 1, ndim=2)
    mu = (5.0, 6.0)
    centre = int(np.flatnonzero((grid.x == 5) & (grid.y == 6))[0])
    delta = delta_vector(grid, centre)
    # compact support: a delta, and a function vanishing past radius 3
    clipped, br = synthetic_profile(grid, mu, lambda r: np.exp(-r))
    clipped = np.where(br <= 3.0, clipped, 0.0)
    clipped /= np.linalg.norm(clipped)
    # sub-floor noise: the same supports, with rounding-size values on the
    # ring 4 < r <= 6 and exact zeros beyond it
    rng = np.random.default_rng(RNG_SEED)
    noise = np.where((br > 4.0) & (br <= 6.0), 1e-18 * rng.random(grid.dimension), 0.0)
    noisy_delta = (delta + noise) / np.linalg.norm(delta + noise)
    noisy_clip = (clipped + noise) / np.linalg.norm(clipped + noise)
    decaying, _ = synthetic_profile(grid, mu, lambda r: np.exp(-0.8 * r))
    noisy_tail = decaying + noise
    noisy_tail /= np.linalg.norm(noisy_tail)
    # zeros between a delta and a corner site past the reach cap: one usable
    # shell beyond the cap, so neither compact nor fitted
    corner = delta.copy()
    corner[int(np.flatnonzero((grid.x == 11) & (grid.y == 0))[0])] = 0.5
    corner /= np.linalg.norm(corner)
    expected = {"delta": "compact-support", "clipped": "compact-support",
                "noisy_delta": InsufficientRangeError,
                "noisy_clip": InsufficientRangeError, "decaying": None,
                "noisy_tail": None, "corner": InsufficientRangeError}
    vectors = {"delta": delta, "clipped": clipped, "noisy_delta": noisy_delta,
               "noisy_clip": noisy_clip, "decaying": decaying,
               "noisy_tail": noisy_tail, "corner": corner}
    return grid, mu, vectors, expected


def test_fit_exponential_matches_shell_loop_on_edge_cases():
    grid, mu, vectors, expected = edge_case_vectors()
    for name, v in vectors.items():
        got = _fit_outcome(v, mu, grid)
        assert (got if got is InsufficientRangeError else got[0]) == expected[name]
        _assert_same_fit(got, fit_exponential_reference(v, mu, grid))


def _assert_block_matches(psi, centers, grid):
    """Each column of one block fit against the shell loop, and against the
    one-column `fit_exponential` field for field; returns the outcomes."""
    fits = diagnostics.fit_exponentials(psi, centers, grid)
    assert len(fits) == psi.shape[1]
    outcomes = []
    for k, fit in enumerate(fits):
        got = _outcome(fit)
        _assert_same_fit(got, fit_exponential_reference(psi[:, k], centers[k],
                                                        grid))
        if fit is None:
            with pytest.raises(InsufficientRangeError):
                wl.fit_exponential(psi[:, k], centers[k], grid)
        else:
            assert fit == wl.fit_exponential(psi[:, k], centers[k], grid)
        outcomes.append(got)
    return outcomes


def test_block_fit_mixes_compact_short_and_fitted_columns():
    """The edge-case vectors as the columns of one block: compact,
    too-short and fitted columns share one bincount and one line fit."""
    grid, mu, vectors, expected = edge_case_vectors()
    psi = np.stack(list(vectors.values()), axis=1)
    outcomes = _assert_block_matches(psi, [mu] * psi.shape[1], grid)
    for got, want in zip(outcomes, expected.values(), strict=True):
        assert (got if got is InsufficientRangeError else got[0]) == want


def test_block_fit_matches_shell_loop_band_by_band(dis12_report):
    final = dis12_report.basis_final
    start = 0
    for V in dis12_report.bands.vectors:
        cols = slice(start, start + V.shape[1])
        outcomes = _assert_block_matches(final.psi[:, cols],
                                         final.centers[cols], final.grid)
        assert all(o is not InsufficientRangeError and o[0] is None
                   for o in outcomes)
        start = cols.stop
    assert start == final.n_functions


# --- Chern marker ----------------------------------------------------------------


def empty_and_full_projectors(L=8):
    model = wl.build_haldane(L, 1.0, 1 / 3, np.pi / 2, 0.2)
    spectrum = np.linalg.eigvalsh(model.H)
    P0 = wl.fermi_projector(model, spectrum[0] - 1.0)
    P1 = wl.fermi_projector(model, spectrum[-1] + 1.0)
    return P0, P1


def test_chern_marker_vanishes_for_trivial_projectors():
    P0, P1 = empty_and_full_projectors()
    for P in (P0, P1):
        rep = wl.chern_marker(P, [2])[0]
        assert abs(rep.value) <= 1e-12
        assert rep.imag_residual <= 1e-12


def test_chern_marker_window_guard():
    model = wl.build_haldane(8, 1.0, 1 / 3, np.pi / 2, 0.2)
    P = wl.fermi_projector(model, 0.0)
    with pytest.raises(WindowTooLargeError):
        wl.chern_marker(P, [3])[0]
    with pytest.raises(WindowTooLargeError):
        wl.chern_marker(P, [1, 3])
    with pytest.raises(UnsupportedGeometryError):
        ssh = wl.build_ssh_chain(8, 1.0, 0.5)
        wl.chern_marker(wl.fermi_projector(ssh, 0.0), [1])[0]


def test_chern_marker_counts_window_sites():
    model = wl.build_haldane(8, 1.0, 1 / 3, np.pi / 2, 0.2)
    P = wl.fermi_projector(model, 0.0)
    rep = wl.chern_marker(P, [2])[0]
    assert rep.trace_terms == (2 * 2) ** 2 * 2   # (2 L_w)^2 sites, 2 orbitals
    assert rep.imag_residual <= 1e-8


def test_chern_marker_matches_full_trace_formula():
    model = wl.build_haldane(8, 1.0, 1 / 3, np.pi / 2, 0.2)
    P = wl.fermi_projector(model, 0.0)
    x = model.grid.x.astype(float)
    y = model.grid.y.astype(float)
    Pm = P.P
    CX = x[:, None] * Pm - Pm * x[None, :]
    CY = y[:, None] * Pm - Pm * y[None, :]
    diag = np.diagonal(Pm @ (CX @ CY - CY @ CX) @ Pm)
    c = 3.5
    reports = wl.chern_marker(P, [1, 2])
    for L_w, rep in zip((1, 2), reports, strict=True):
        win = ((x > c - L_w) & (x <= c + L_w) & (y > c - L_w) & (y <= c + L_w))
        full = (2.0 * np.pi * 1j * np.sum(diag[win]) / (2.0 * L_w) ** 2).real
        assert rep.window == L_w
        assert abs(rep.value - full) <= 1e-12


def test_chern_marker_never_forms_the_projector_matrix(tmp_path, monkeypatch):
    model = wl.build_haldane(8, 1.0, 1 / 3, np.pi / 2, 0.2)
    P = wl.fermi_projector(model, 0.0)
    wl.chern_marker(P, [1, 2])
    assert "P" not in P.__dict__
    # the mirror path keeps the real R and forms neither V nor P
    assert "V" not in P.__dict__
    assert P.factor.dtype == np.float64
    assert np.array_equal(P.mirror, xy_mirror(P.grid))
    made = []

    def recording_projector(*args):
        made.append(eigh_projector(*args))
        return made[-1]

    monkeypatch.setattr(cli, "eigh_projector", recording_projector)
    cfg = PipelineConfig(model_type="haldane", L=8, model_params=TOPO_PARAMS,
                         seed=0, output_dir=str(tmp_path))
    cli.run_chern(cfg)
    (run_P,) = made
    assert run_P.mirror is not None and run_P.factor.dtype == np.float64
    assert "V" not in run_P.__dict__ and "P" not in run_P.__dict__
    # V on demand is bit for bit the U R that fermi_projector once returned
    a = 0.5 + 0.5j
    U_R = a * P.factor + a.conjugate() * P.factor[P.mirror]
    assert P.V.dtype == np.complex128 and P.V.tobytes() == U_R.tobytes()
    # a real H and a complex H without the mirror keep V as the factor
    for other in (gauge_twin(model), wl.build_haldane(8, 1.0, 0.0, 0.0, 3.0)):
        Q = wl.fermi_projector(other, 0.0)
        assert Q.mirror is None and Q.V is Q.factor


def _random_haldane_params(rng, count):
    """(t1, t2, phi, m) with phi away from {0, pi}; every third mass lies
    within 2% of the phase boundary m_c = 3 sqrt(3) t2 |sin phi|."""
    for i in range(count):
        t1, t2 = rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.5)
        phi = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, np.pi - 0.1)
        m_c = 3.0 * np.sqrt(3.0) * t2 * abs(np.sin(phi))
        m = m_c * rng.uniform(0.98, 1.02) if i % 3 == 0 \
            else rng.uniform(0.0, 2.0 * m_c)
        yield t1, t2, phi, m


@pytest.mark.parametrize("L", [8, 12])
def test_real_form_chern_marker_matches_the_complex_formula(L):
    windows = list(range(1, L // 4 + 1))
    rng = np.random.default_rng(L)
    for params in _random_haldane_params(rng, 6):
        P = wl.fermi_projector(wl.build_haldane(L, *params), 0.0)
        assert P.mirror is not None
        got = wl.chern_marker(P, windows)
        # the same projector carried as its complex V: the complex formula
        complex_P = Projector(factor=P.V, fermi_energy=0.0, gap=P.gap,
                              grid=P.grid)
        want = wl.chern_marker(complex_P, windows)
        for g, w in zip(got, want, strict=True):
            assert g.value == pytest.approx(w.value, rel=1e-12, abs=1e-12)
            assert (g.window, g.trace_terms) == (w.window, w.trace_terms)
            assert g.imag_residual == 0.0


def test_chern_marker_imaginary_residual_is_typed(monkeypatch, trivial_projectors):
    _, P = trivial_projectors[8]
    monkeypatch.setattr(diagnostics, "CHERN_IMAG_TOL", -1.0)
    with pytest.raises(ChernResidualError, match="imaginary residual"):
        wl.chern_marker(P, [2])[0]


def test_chern_number_kspace_values():
    assert wl.chern_number_kspace(1.0, 1 / 3, np.pi / 2, 0.0) in (-1, 1)
    assert wl.chern_number_kspace(1.0, 1 / 3, np.pi / 2, 0.0) == 1
    assert wl.chern_number_kspace(1.0, 1 / 3, -np.pi / 2, 0.0) == -1
    assert wl.chern_number_kspace(1.0, 0.0001, 0.0, 1.0) == 0
    # deep trivial regime: m = 10 t2
    assert wl.chern_number_kspace(1.0, 1 / 3, np.pi / 2, 10.0 / 3.0) == 0


def test_haldane_bloch_broadcasts_like_the_scalar_call():
    ks = 2.0 * np.pi * np.arange(12) / 12
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    for params in ((1.0, 1 / 3, np.pi / 2, 0.2), (1.0, 0.0, 0.0, 3.0)):
        batched = diagnostics._haldane_bloch(k1, k2, *params)
        assert batched.shape == (12, 12, 2, 2)
        for i, j in np.ndindex(12, 12):
            scalar = diagnostics._haldane_bloch(ks[i], ks[j], *params)
            assert scalar.shape == (2, 2)
            assert np.array_equal(batched[i, j], scalar)


def test_chern_number_kspace_rejects_gap_closing():
    boundary = 3.0 * np.sqrt(3.0) / 3.0
    with pytest.raises(GaplessModelError):
        wl.chern_number_kspace(1.0, 1 / 3, np.pi / 2, boundary)


# --- kernel-bound inequalities ----------------------------------------------------


def test_decay_lemma_vector_outside_box():
    grid = make_grid(6, 1, ndim=2)
    v = delta_vector(grid, 0)          # at (0, 0)
    lhs, rhs, ok = wl.lemma_decay_check(v, m=(2, 2), k=(5, 5), s1=1.0, s2=1.0,
                                        grid=grid)
    assert lhs == 0.0
    assert ok


def test_decay_lemma_zero_exponents_reduce_to_identity():
    grid = make_grid(6, 1, ndim=2)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(grid.dimension) + 1j * rng.standard_normal(grid.dimension)
    lhs, rhs, ok = wl.lemma_decay_check(v, m=(1, 4), k=(3, 2), s1=0.0, s2=0.0,
                                        grid=grid)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert ok


def test_decay_lemma_randomized_suite():
    grid = make_grid(8, 1, ndim=2)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(1000):
        v = rng.standard_normal(grid.dimension) + 1j * rng.standard_normal(grid.dimension)
        m = rng.integers(-8, 9, size=2)
        k = rng.integers(-8, 9, size=2)
        s1, s2 = rng.choice([0.5, 1.0, 2.5], size=2)
        lhs, rhs, ok = wl.lemma_decay_check(v, m, k, s1, s2, grid)
        assert ok, (m, k, s1, s2, lhs, rhs)


def test_prod_sum_lemma_single_axis_case():
    grid = make_grid(6, 1, ndim=2)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(grid.dimension)
    lhs, rhs, ok = wl.lemma_prod_sum_check(v, m=(2.5, 1.0), s1=0.0, s2=1.5,
                                           grid=grid)
    assert ok
    ay = np.abs(grid.y - 1.0) + 1.0
    assert lhs == pytest.approx(float(np.linalg.norm(ay ** 1.5 * v)), rel=1e-12)


def test_prod_sum_lemma_delta_at_center():
    grid = make_grid(6, 1, ndim=2)
    i = int(np.flatnonzero((grid.x == 2) & (grid.y == 2))[0])
    lhs, rhs, ok = wl.lemma_prod_sum_check(delta_vector(grid, i), m=(2.0, 2.0),
                                           s1=1.0, s2=1.0, grid=grid)
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(2.0)
    assert ok


def test_prod_sum_lemma_randomized_suite():
    grid = make_grid(8, 1, ndim=2)
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(1000):
        v = rng.standard_normal(grid.dimension) + 1j * rng.standard_normal(grid.dimension)
        m = rng.uniform(-8.0, 8.0, size=2)
        s1, s2 = rng.choice([0.0, 0.5, 1.0, 2.5], size=2)
        lhs, rhs, ok = wl.lemma_prod_sum_check(v, m, s1, s2, grid)
        assert ok, (m, s1, s2, lhs, rhs)


# --- Schur sums -------------------------------------------------------------------


def test_schur_sums_atomic_basis_vanish():
    model = wl.build_haldane(4, 0.0, 0.0, 0.0, 1.0)
    P = wl.fermi_projector(model, 0.0)
    basis = wl.relabel_to_lattice(wl.initial_basis(P))
    rep = wl.schur_row_sums(basis.psi, basis.m1, basis.grid)
    assert rep.sup_row <= 1e-12
    assert rep.direct_norm <= 1e-12


def test_schur_direct_norm_below_bound_randomized():
    grid = make_grid(4, 1, ndim=2)
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(300):
        r = int(rng.integers(3, 9))
        A = rng.standard_normal((grid.dimension, r)) \
            + 1j * rng.standard_normal((grid.dimension, r))
        W, _ = np.linalg.qr(A)
        ms = rng.integers(0, 4, size=(r, 2))
        basis = wl.GeneralizedWannierBasis(
            psi=W, centers=ms.astype(float), grid=grid,
            degeneracy=np.ones(r, dtype=int))
        rep = wl.schur_row_sums(basis.psi, basis.m1, basis.grid)
        assert rep.direct_norm <= rep.bound + 1e-9


def test_schur_sums_stable_in_size():
    vals = []
    for L in (8, 16):
        model = wl.build_disordered_insulator(L, 2.0, 0.5, 0)
        P = wl.fermi_projector(model, 0.0)
        basis = wl.relabel_to_lattice(wl.initial_basis(P))
        vals.append(wl.schur_row_sums(basis.psi, basis.m1, basis.grid).sup_row)
    assert vals[1] <= 1.2 * vals[0]


# --- mid-gap surveys ----------------------------------------------------------------


def test_sqrt_bound_survey_atomic_closed_form():
    grid = make_grid(4, 1, ndim=2)
    N = grid.dimension
    V = np.eye(N, 1, dtype=complex)     # occupied site at x = 0
    proj = Projector(factor=V, fermi_energy=0.0, gap=1.0, grid=grid)
    basis = wl.GeneralizedWannierBasis(psi=V.copy(),
                                       centers=np.zeros((1, 2)), grid=grid,
                                       degeneracy=np.ones(1, dtype=int))
    rows = wl.sqrt_bound_survey(build_xtilde(basis, proj), [0.5])
    sqrt_diff = rows[0][5]
    assert sqrt_diff == pytest.approx(abs(0.5 ** 0.5 - 1.25 ** 0.25), abs=1e-10)


def test_sqrt_bound_survey_empty_projector():
    grid = make_grid(4, 1, ndim=2)
    N = grid.dimension
    proj = Projector(factor=np.zeros((N, 0), dtype=complex),
                     fermi_energy=-10.0, gap=1.0, grid=grid)
    basis = wl.GeneralizedWannierBasis(psi=np.zeros((N, 0), dtype=complex),
                                       centers=np.zeros((0, 2)), grid=grid,
                                       degeneracy=np.ones(0, dtype=int))
    rows = wl.sqrt_bound_survey(build_xtilde(basis, proj), [0.5])
    assert all(v <= 1e-12 for v in rows[0][1:])


def test_sqrt_bound_survey_stable_across_midgap_values(dis12_report):
    rep = dis12_report
    lambdas = [0.5, 2.5, 4.5, 6.5, 8.5, 10.5]
    rows = wl.sqrt_bound_survey(rep.xtilde, lambdas)
    for col in range(1, 6):
        vals = [r[col] for r in rows]
        assert max(vals) < 2.0 * min(vals) + 1e-9


@pytest.mark.parametrize("stack", ["dis8_stack", "topo8_stack"])
def test_sqrt_bound_survey_matches_full_definitions(stack, request):
    """The range-coordinate norms equal the N x N definitions built from
    S = sqrt_resolvent(lambda) and P."""
    _, P, basis, xt = request.getfixturevalue(stack)
    x = basis.grid.x.astype(float)
    Pm = P.P
    lambdas = wl.gap_midpoints(0.0, 7.0)
    rows = wl.sqrt_bound_survey(xt, lambdas)
    for lam, row in zip(lambdas, rows, strict=True):
        S = wl.sqrt_resolvent(lam, basis, P)
        bplus = bracket(x - lam) ** 0.5
        bminus = 1.0 / bplus
        full = (wl.operator_norm((S.matrix @ Pm) * bplus[None, :]),
                wl.operator_norm(bplus[:, None] * (Pm @ S.matrix)),
                wl.operator_norm((S.inverse @ Pm) * bminus[None, :]),
                wl.operator_norm(bminus[:, None] * (Pm @ S.inverse)),
                wl.operator_norm(Pm @ S.inverse @ Pm
                                 - Pm @ (bplus[:, None] * Pm)))
        assert row[0] == lam
        assert row[1:] == pytest.approx(full, rel=1e-10)


def test_sqrt_bound_survey_rejects_outside_gap(dis8_stack):
    _, _, _, xt = dis8_stack
    with pytest.raises(OutsideGapSetError):
        wl.sqrt_bound_survey(xt, [0.5, 1.0])


@pytest.mark.parametrize("stack", ["dis8_stack", "topo8_stack"])
def test_tilted_comm_survey_matches_full_sandwich(stack, request):
    """comm_x / comm_y equal the SVD norms of the anti-Hermitian sandwiches."""
    xt = request.getfixturevalue(stack)[3]
    grid = xt.grid
    lambdas = wl.gap_midpoints(0.0, 7.0)
    rows = wl.tilted_comm_survey(xt, lambdas)
    X = np.diag(grid.x.astype(float))
    Y = np.diag(grid.y.astype(float))
    for lam, row in zip(lambdas, rows, strict=True):
        bminus = np.diag(1.0 / bracket(grid.x - lam) ** 0.5)
        for col, A in ((1, X), (2, Y)):
            full = wl.operator_norm(bminus @ commutator(A, xt.matrix) @ bminus)
            assert row[col] == pytest.approx(full, rel=1e-10)


@pytest.mark.parametrize("stack", ["dis8_stack", "topo8_stack"])
def test_tilted_comm_survey_matches_hermitian_route(stack, request):
    """comm_x / comm_y agree with the largest |eigenvalue| of 1j times the
    anti-Hermitian sandwich, for a real and for a complex surrogate."""
    xt = request.getfixturevalue(stack)[3]
    grid = xt.grid
    lambdas = wl.gap_midpoints(0.0, 7.0)
    rows = wl.tilted_comm_survey(xt, lambdas)
    Xt = xt.matrix
    for lam, row in zip(lambdas, rows, strict=True):
        b = 1.0 / bracket(grid.x - lam) ** 0.5
        for col, c in ((1, grid.x.astype(float)), (2, grid.y.astype(float))):
            comm = c[:, None] * Xt - Xt * c[None, :]
            ref = wl.hermitian_norm(1j * (b[:, None] * comm * b[None, :]))
            assert row[col] == pytest.approx(ref, rel=1e-12, abs=0)


def test_tilted_comm_survey_atomic_surrogate_vanishes():
    model = wl.build_haldane(4, 0.0, 0.0, 0.0, 1.0)
    P = wl.fermi_projector(model, 0.0)
    basis = wl.relabel_to_lattice(wl.initial_basis(P))
    xt = build_xtilde(basis, P)
    rows = wl.tilted_comm_survey(xt, [0.5, 1.5])
    for row in rows:
        assert row[1] <= 1e-10      # [X, Xtilde] = 0 when Xtilde = X
        assert row[3] <= 1e-12      # orthogonality kills the weighted sums


def test_tilted_comm_survey_rejects_outside_gap(dis12_report):
    rep = dis12_report
    xt = build_xtilde(rep.basis_initial, rep.projector)
    with pytest.raises(OutsideGapSetError):
        wl.tilted_comm_survey(xt, [1.0])


def test_surveys_bounded_across_sizes(survey_maxima):
    assert survey_maxima[16][0] <= 1.2 * survey_maxima[8][0]
    assert survey_maxima[16][1] <= 1.2 * survey_maxima[8][1]
