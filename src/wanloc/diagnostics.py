"""Localization metrics, the real-space Chern marker with its k-space
oracle, and direct checks of the kernel-bound inequalities."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ChernResidualError, GaplessModelError,
                     InsufficientRangeError, OutsideGapSetError,
                     UnsupportedGeometryError, WindowTooLargeError)
from .lattice import SiteGrid, haldane_bonds
from .spectral import (DecayProfile, Projector, _log_linear_fit, bracket,
                       decay_floor, hermitian_norm, operator_norm)
from .xhat import XtildeOperator, in_gap_set
# unused here; perfbench/tracing.py binds wanloc.diagnostics:sqrt_resolvent
from .xhat import sqrt_resolvent  # noqa: F401

MIN_SHELLS = 10
SHELL_WIDTH = 0.5
CHERN_IMAG_TOL = 1e-8
N_K = 24


def fit_exponential(psi, mu, grid: SiteGrid) -> DecayProfile:
    """Tail fit of the shell-RMS magnitude of psi against <r - mu>.

    Shells of width SHELL_WIDTH partition the bracket distance; each nonempty
    shell contributes the RMS of |psi| over its sites, placed at the shell's
    mean distance.  Shells beyond the axis reach of the sample are excluded
    (past that radius only the fast, diagonally truncated directions remain
    and the envelope artificially collapses), but the cutoff never starves
    the fit below MIN_SHELLS + 1 shells' worth of radius.  A function that
    vanishes identically outside its support shells is reported as compactly
    supported (infinite rate sentinel); one with fewer than MIN_SHELLS
    usable shells raises InsufficientRangeError.  The one-column case of
    `fit_exponentials`.
    """
    fit, = fit_exponentials(np.asarray(psi)[:, None], [mu], grid)
    if fit is None:
        raise InsufficientRangeError(
            f"fewer than {MIN_SHELLS} usable shells")
    return fit


def fit_exponentials(psi, centers, grid: SiteGrid):
    """`fit_exponential` of every column psi[:, k] about centers[k], in one
    array pass: a DecayProfile per column, or None for a column with too
    few usable shells.

    One bincount over shell indices offset by column bins every column's
    shells, and every fitted column's line comes from one closed-form
    `_log_linear_fit` call.
    """
    psi = np.abs(np.asarray(psi))
    if np.any(np.abs(np.linalg.norm(psi, axis=0) - 1.0) > 1e-8):
        raise ValueError("psi must be normalized")
    mu = np.asarray(centers, dtype=float)
    size, cols = psi.shape
    r = bracket(grid.x[:, None] - mu[:, 0], grid.y[:, None] - mu[:, 1])
    # the largest distance to an edge of the box, over both axes
    reach = np.maximum(mu, np.subtract(grid.shape, 1) - mu).max(axis=1)
    r_cap = np.maximum(np.sqrt(1.0 + reach * reach),
                       1.0 + (MIN_SHELLS + 1) * SHELL_WIDTH) + 1e-9
    shell = np.floor((r - 1.0) / SHELL_WIDTH).astype(int)
    n_bins = int(shell.max()) + 1
    # row k of each binned array holds the shells of column k
    flat = (shell + n_bins * np.arange(cols)).ravel()

    def binned(weights=None):
        return np.bincount(flat, None if weights is None else weights.ravel(),
                           minlength=cols * n_bins).reshape(cols, n_bins)

    count = binned()
    nonempty = count > 0
    # an empty shell divides by 1; nonempty masks it out below
    count = np.maximum(count, 1)
    vals = np.sqrt(binned(psi * psi) / count)
    dist = binned(r) / count
    usable = nonempty & (vals > decay_floor(psi.max(axis=0), size)[:, None])
    points = usable & (dist <= r_cap[:, None])
    n_points = points.sum(axis=1)
    fitted = n_points >= MIN_SHELLS
    zero = nonempty & (vals == 0.0)
    # zero shells, no sub-floor noise, and no usable shell past the cap
    compact = (~fitted & zero.any(axis=1) & (n_points > 0)
               & ~(nonempty & ~usable & ~zero).any(axis=1)
               & ~(usable & ~points).any(axis=1))
    peak = np.max(vals, axis=1, where=points, initial=0.0)
    lines = _log_linear_fit(dist[fitted], vals[fitted], points[fitted])
    fits = [None] * cols
    for k, C, gamma, r2 in zip(np.flatnonzero(fitted), *lines):
        fits[k] = DecayProfile(C=float(C), gamma=float(gamma),
                               r_squared=float(r2), samples=int(n_points[k]))
    for k in np.flatnonzero(compact):
        fits[k] = DecayProfile(C=float(peak[k]), gamma=math.inf, r_squared=1.0,
                               samples=int(n_points[k]), flag="compact-support")
    return fits


@dataclass
class ChernReport:
    window: int
    value: float
    imag_residual: float
    trace_terms: int


def chern_marker(P: Projector, windows) -> list[ChernReport]:
    """Window-traced real-space Chern marker, one report per half-width L_w.

    value = Re[ 2 pi i / (2 L_w)^2 * tr(chi P [[X,P],[Y,P]] P chi) ] with chi
    the indicator of the centred half-open window (c - L_w, c + L_w]^2, which
    always contains exactly (2 L_w)^2 sites.  The imaginary residual of the
    trace is reported and must vanish for Hermitian P.  With V^H V = I,
    P [[X,P],[Y,P]] P = -PXQYP + PYQXP = V [Gx, Gy] V^H for Gx = V^H X V and
    Gy = V^H Y V, so one n x n commutator serves every window.  Gx and Gy
    are Hermitian, so Gy Gx = (Gx Gy)^H and the commutator is A - A^H for
    the one product A = Gx Gy.

    A mirror-symmetric H (`P.mirror` is s) is traced in the real form R of
    its projector, V = U R with U = a I + conj(a) S, a = (1 + i)/2.  S X S
    = Y gives U^H X U = (X + Y)/2 + (i/2)(S X - X S), so Gx = Rm + iT/2 and
    Gy = Rm - iT/2 with Rm = R^T ((x + y)/2) R, G = (S R)^T X R and the
    antisymmetric T = G - G^T, and [Gx, Gy] = -i(Rm T + (Rm T)^T).  Each
    centred window is mirror-invariant, so chi commutes with U and its
    trace is taken on the real rows R[win]: the trace is -i times a real
    number and the imaginary residual is exactly 0.
    """
    grid = P.grid
    if grid.ndim != 2:
        raise UnsupportedGeometryError("Chern marker needs a 2-D sample")
    L = grid.width
    if max(windows, default=0) > L / 4.0:
        raise WindowTooLargeError(f"window half-width {max(windows)} leaves "
                                  f"margin < L/4 on an L={L} sample")
    c = (L - 1) / 2.0
    x, y = grid.x, grid.y
    F, s = P.factor, P.mirror
    if s is None:                       # F is V
        Fh = F.conj().T
        A = (Fh @ (x[:, None] * F)) @ (Fh @ (y[:, None] * F))
        C = A - A.conj().T
    else:                               # F is R; C is i [Gx, Gy]
        Rm = F.T @ ((0.5 * (x + y))[:, None] * F)
        G = F[s].T @ (x[:, None] * F)
        A = Rm @ (G - G.T)
        C = A + A.T
    reports = []
    for L_w in windows:
        win = ((x > c - L_w) & (x <= c + L_w)
               & (y > c - L_w) & (y <= c + L_w))
        if s is None:
            tr = complex(np.sum((F[win] @ C) * F[win].conj()))
        else:
            tr = -1j * float(np.sum((F[win] @ C) * F[win]))
        val = 2.0 * math.pi * 1j * tr / (2.0 * L_w) ** 2
        residual = abs(float(val.imag))
        if residual > CHERN_IMAG_TOL:
            raise ChernResidualError(
                f"marker trace has imaginary residual {residual:.3e}")
        reports.append(ChernReport(window=int(L_w), value=float(val.real),
                                   imag_residual=residual,
                                   trace_terms=int(win.sum())))
    return reports


def _haldane_bloch(k1, k2, t1, t2, phi, m):
    """Haldane Bloch Hamiltonian at (k1, k2) arrays, 2 x 2 on the last axes:
    the staggered mass plus the Fourier sum of `haldane_bonds` and conjugates."""
    h = np.zeros(np.broadcast(k1, k2).shape + (2, 2), dtype=complex)
    h[..., 0, 0], h[..., 1, 1] = m, -m
    for a, b, (v1, v2), amp in haldane_bonds(t1, t2, phi):
        term = amp * np.exp(1j * (k1 * v1 + k2 * v2))
        h[..., a, b] += term
        h[..., b, a] += np.conj(term)
    return h


def chern_number_kspace(t1, t2, phi, m):
    """Plaquette (field-strength) Chern number of the occupied Bloch band.

    Berry curvature is accumulated from link variables of the lowest-band
    eigenvector on an N_K x N_K grid of the periodic bulk model; the result
    rounds to an exact integer.  Orientation convention: plaquettes are
    traversed counter-clockwise in (k1, k2), matching the coordinate
    orientation of the real-space embedding.
    """
    ks = 2.0 * math.pi * np.arange(N_K) / N_K
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    evals, evecs = np.linalg.eigh(_haldane_bloch(k1, k2, t1, t2, phi, m))
    gap = float(np.min(evals[..., 1] - evals[..., 0]))
    if gap < 1e-6:
        raise GaplessModelError(f"bulk gap {gap:.3e} too small for an invariant")
    u = evecs[..., 0]

    def link(axis):
        ov = np.sum(np.conj(u) * np.roll(u, -1, axis=axis), axis=-1)
        return ov / np.abs(ov)

    u1, u2 = link(0), link(1)
    w = u1 * np.roll(u2, -1, axis=0) * np.conj(np.roll(u1, -1, axis=1) * u2)
    c = float(np.angle(w).sum()) / (2.0 * math.pi)
    n = round(c)
    if abs(c - n) > 0.01:
        raise GaplessModelError(f"plaquette sum {c:.6f} does not round cleanly")
    return int(n)


def _per_case(*values):
    """A float or bool for a single case, the (cases,) array for a block."""
    return tuple(v if np.ndim(v) else np.asarray(v).item() for v in values)


def lemma_decay_check(v, m, k, s1, s2, grid: SiteGrid):
    """Unit-box norm against the bracket-weighted bound; returns (lhs, rhs, pass).

    One case is v (N,), m and k (2,) and scalar exponents; a block of cases
    stacks them along a leading axis, v (cases, N), m and k (cases, 2) and
    s1, s2 (cases,), and every result is then a (cases,) array.
    """
    v = np.asarray(v)
    m, k = np.asarray(m), np.asarray(k)
    s1, s2 = np.asarray(s1, dtype=float), np.asarray(s2, dtype=float)
    mask = (grid.x == k[..., :1]) & (grid.y == k[..., 1:])
    lhs = np.linalg.norm(np.where(mask, v, 0.0), axis=-1)
    wx = (np.abs(grid.x - m[..., :1]) + 1.0) ** s1[..., None]
    wy = (np.abs(grid.y - m[..., 1:]) + 1.0) ** s2[..., None]
    num = np.linalg.norm(np.where(mask, wx * wy * v, 0.0), axis=-1)
    den = (bracket(m[..., 0] - k[..., 0]) ** s1
           * bracket(m[..., 1] - k[..., 1]) ** s2)
    rhs = 2.0 ** (s1 + s2) * num / den
    return _per_case(lhs, rhs, lhs <= rhs + 1e-12)


def lemma_prod_sum_check(v, m, s1, s2, grid: SiteGrid):
    """Product weight against the sum of single-axis weights (Young).

    Takes one case or a block of cases, shaped as in `lemma_decay_check`.
    """
    v = np.asarray(v)
    m = np.asarray(m)
    s1 = np.asarray(s1, dtype=float)[..., None]
    s2 = np.asarray(s2, dtype=float)[..., None]
    ax = np.abs(grid.x - m[..., :1]) + 1.0
    ay = np.abs(grid.y - m[..., 1:]) + 1.0
    lhs = np.linalg.norm(ax ** s1 * ay ** s2 * v, axis=-1)
    rhs = (np.linalg.norm(ax ** (s1 + s2) * v, axis=-1)
           + np.linalg.norm(ay ** (s1 + s2) * v, axis=-1))
    return _per_case(lhs, rhs, lhs <= rhs + 1e-12)


@dataclass
class SchurReport:
    sup_row: float
    sup_col: float
    bound: float
    direct_norm: float


def _schur_stack(W, m1, x):
    """(sup_row, sup_col, bound, direct_norm) of the kernels of a stack of
    bases W (..., N, r) with centre rows m1 (..., r): one eigvalsh."""
    K = (W.conj().swapaxes(-1, -2) @ (x[:, None] * W)
         - m1[..., None] * np.eye(W.shape[-1]))
    absK = np.abs(K)
    sup_row = absK.sum(axis=-1).max(axis=-1)
    sup_col = absK.sum(axis=-2).max(axis=-1)
    return sup_row, sup_col, np.sqrt(sup_row * sup_col), hermitian_norm(K)


def schur_row_sums(psi, m1, grid: SiteGrid) -> SchurReport:
    """Schur sums of the centred position kernel in the basis coordinates.

    The kernel is K[a,b] = <psi_a, X psi_b> - m1(a) delta_ab, i.e. the
    coefficient matrix of P X P minus the m1-weighted basis projectors; the
    implied bound sqrt(sup_row * sup_col) always dominates the direct
    spectral norm.

    `psi` is one basis (N, r) with its centre rows m1 (r,), giving a report
    of floats, or a list of cases, one (N, r_i) basis and (r_i,) m1 each,
    giving a report of (cases,) arrays.  The cases of a list are stacked by
    rank, so it costs one eigvalsh per distinct r_i.
    """
    x = grid.x.astype(float)
    if isinstance(psi, np.ndarray):
        return SchurReport(*_per_case(*_schur_stack(psi, np.asarray(m1), x)))
    ranks = np.array([W.shape[-1] for W in psi])
    out = np.empty((4, len(psi)))
    for r in np.unique(ranks):
        idx = np.flatnonzero(ranks == r)
        out[:, idx] = _schur_stack(np.stack([psi[i] for i in idx]),
                                   np.stack([m1[i] for i in idx]), x)
    return SchurReport(*out)


def sqrt_bound_survey(xtilde: XtildeOperator, lambdas):
    """Per mid-gap lambda, the four square-root resolvent norms plus the
    sandwiched square-root difference norm.  Rows:
    (lambda, s_p_bplus, bplus_p_s, sinv_p_bminus, bminus_p_sinv, sqrt_diff).

    The surrogate's basis W spans range(P), as `build_xtilde` checked, so
    S P = W R W^H and S^-1 P = W R^-1 W^H for R = diag|lambda - m1|^{-1/2},
    and every norm is that of an n x n Hermitian matrix:
    ||S P b+||^2 = lambda_max(R W^H <x - lambda> W R), and ||b+ P S|| is
    the norm of its adjoint; likewise for S^-1 and b-; and
    ||P S^-1 P - P b+ P|| = ||R^-1 - W^H <x - lambda>^{1/2} W||.
    """
    basis = xtilde.basis
    x = basis.grid.x.astype(float)
    W = basis.psi
    m1 = basis.m1
    rows = []
    for lam in lambdas:
        if not in_gap_set(lam):
            raise OutsideGapSetError(f"lambda={lam} outside the mid-integer gap set")
        wts = np.abs(lam - m1)
        r, r_inv = wts ** -0.5, wts ** 0.5
        br = bracket(x - lam)[:, None]
        G_plus = W.conj().T @ (br * W)
        G_minus = W.conj().T @ (W / br)
        G_half = W.conj().T @ (br ** 0.5 * W)
        n_plus = math.sqrt(hermitian_norm(r[:, None] * G_plus * r[None, :]))
        n_minus = math.sqrt(hermitian_norm(
            r_inv[:, None] * G_minus * r_inv[None, :]))
        diff = hermitian_norm(np.diag(r_inv) - G_half)
        rows.append((float(lam), n_plus, n_plus, n_minus, n_minus, diff))
    return rows


def tilted_comm_survey(xtilde: XtildeOperator, lambdas):
    """Bracket-sandwiched commutators of the surrogate with X and Y, plus the
    discrete-kernel Schur sum of the gap-weighted position coefficients.
    Rows: (lambda, comm_x, comm_y, weighted_sum_sup).

    For each lambda, b- [x, Xtilde] b- and then b- [y, Xtilde] b- are each
    built in place in one N x N array, with the products of
    b-[:, None] * (c[:, None] * Xtilde - Xtilde * c[None, :]) * b-[None, :]
    in that order, and passed to the norm as its only reference, so that
    numpy's temporary elision lets a real sandwich be divided by its max in
    place inside `operator_norm`.  The survey holds one sandwich and its
    Gram matrix at a time; the n x n arrays of the weighted sum are freed
    before the next sandwich is built."""
    basis = xtilde.basis
    grid = basis.grid
    x = grid.x.astype(float)
    y = grid.y.astype(float)
    Xt = xtilde.matrix
    W = basis.psi
    m1 = basis.m1
    coeff = np.abs(W.conj().T @ (x[:, None] * W))
    spread = np.abs(m1[:, None] - m1[None, :])
    columns = [basis.degeneracy == j for j in np.unique(basis.degeneracy)]
    # [c, Xtilde] is anti-Hermitian.  1j times a complex sandwich is
    # Hermitian, and its one eigvalsh beats a complex Gram matrix; a real
    # sandwich keeps the real Gram matrix of operator_norm
    complex_xt = np.iscomplexobj(Xt)
    norm = hermitian_norm if complex_xt else operator_norm

    def sandwich(c, bminus):
        S = c[:, None] * Xt
        S -= Xt * c[None, :]
        S *= bminus[:, None]
        S *= bminus[None, :]
        if complex_xt:
            S *= 1j
        return S

    def weighted_sup(lam):
        weighted = coeff * (spread / np.abs(lam - m1)[None, :])
        sup = 0.0
        for mask in columns:
            sup = max(sup, float(weighted[:, mask].sum(axis=1).max()))
        return sup

    rows = []
    for lam in lambdas:
        if not in_gap_set(lam):
            raise OutsideGapSetError(f"lambda={lam} outside the mid-integer gap set")
        bminus = 1.0 / bracket(x - lam) ** 0.5
        rows.append((float(lam), norm(sandwich(x, bminus)),
                     norm(sandwich(y, bminus)), weighted_sup(lam)))
    return rows
