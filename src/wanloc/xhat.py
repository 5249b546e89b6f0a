"""The basis-diagonal position surrogate, its filter smoothing, and the
resolvent square-root machinery that certifies uniform spectral gaps.

Given a complete lattice-indexed basis of range(P), the surrogate replaces
the occupied-space part of X by the integer centre coordinates, so its
projected spectrum is a subset of the integers.  Filtering the matrix
entries with a compactly supported Fourier profile then makes the operator
banded while moving its projected spectrum only slightly off the integers,
which is certified per mid-gap value lambda.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# projected_spectrum is unused here: it stays for the perfbench/tracing.py
# binding wanloc.xhat:projected_spectrum
from .dichotomy import GeneralizedWannierBasis, projected_spectrum
from .errors import IncompleteBasisError, OutsideGapSetError, SqrtResolventError
from .lattice import row_slabs
from .spectral import (BASIS_TOL, Projector, hermitian_norm, operator_norm,
                       orthonormality_defect, range_defect, tilt_operator)

SQRT_SIGN_TOL = 1e-8
COMMUTE_TOL = 1e-9


def filter_fourier(xi):
    """Even, C^2 filter profile (1 - xi^2)^3 supported on [-1, 1].

    On [-1, 1], 1 - f(xi) = 3 xi^2 - 3 xi^4 + xi^6: no linear term, so
    the smoothing error of width delta starts at order delta^-2.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.where(np.abs(xi) < 1.0, (1.0 - xi * xi) ** 3, 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass
class XtildeOperator:
    matrix: np.ndarray = field(repr=False)
    basis: GeneralizedWannierBasis

    @property
    def grid(self):
        return self.basis.grid


def check_spans_range(W, P: Projector):
    """The Gram defect ||W^H W - I|| and the part ||(I - P) W|| of the
    columns of W outside range(P) (`range_defect`), as (gram, outside).
    Raises `IncompleteBasisError` unless the columns are an orthonormal
    basis of range(P): as many as rank P, with both defects within
    BASIS_TOL.  Both defects are first order in a column's tilt out of
    range(P) or away from orthonormality."""
    n = W.shape[1]
    gram, outside = orthonormality_defect(W), range_defect(W, P)
    if n != P.rank or max(gram, outside) > BASIS_TOL:
        raise IncompleteBasisError(
            f"basis of {n} functions does not span range(P) of rank "
            f"{P.rank}: Gram defect {gram:.3e}, range defect {outside:.3e}")
    return gram, outside


def build_xtilde(basis: GeneralizedWannierBasis, P: Projector) -> XtildeOperator:
    """Sum of m1-weighted basis projectors plus the complement part Q X Q,
    built from the basis W of range(P): no N x N P or Q is formed.

    `check_spans_range` checks that W is an orthonormal basis of range(P),
    so P = W W^H and, with B = W^H diag(x) (n x N) and C = B W,
    Q X Q + W diag(m1) W^H = diag(x) + W Z + (W Z)^H for
    Z = (C + diag(m1)) W^H / 2 - B.  The one N x N array is W Z, turned
    into its Hermitian sum in place a pair of row-slab blocks at a time; a
    real W keeps it float64.  B and W^H (for a complex W a conjugate copy)
    are freed before W Z is formed.  W rather than V carries the sum
    because its columns are localized: far from the diagonal the products
    stay small, and so do their rounding errors (rms 1e-16 against an
    extended-precision X-tilde on the shipped configs, where V gives
    9e-16).

    Its projected spectrum is that of W^H Xt W = diag(m1), the integer set
    {m1}.
    """
    check_spans_range(basis.psi, P)
    x = basis.grid.x.astype(float)
    W = basis.psi
    W_h = W.conj().T
    B = W_h * x
    Z = (0.5 * (B @ W + np.diag(basis.m1))) @ W_h
    Z -= B
    del B, W_h
    M = W @ Z
    del Z
    slabs = row_slabs(len(M))
    for i, a in enumerate(slabs):
        for b in slabs[i:]:
            block = M[a, b] + M[b, a].conj().T
            M[a, b] = block
            M[b, a] = block.conj().T
    M[np.diag_indices_from(M)] += x
    return XtildeOperator(matrix=M, basis=basis)


def _filter_rows(grid, delta):
    """The filter mask F of width `delta` (lattice units) as a function
    r -> F[r] of a row slice, so that no N x N mask is formed.  A width
    below 2 raises ValueError.

    On the integer lattice the filter is exact: entry (i, j) is
    fhat(dx / delta) * fhat(dy / delta), so everything beyond distance
    delta in either coordinate is exactly zero, and F is real and
    symmetric.  A `SiteGrid` fills its box `grid.shape` in row-major
    order, so F is kron(T_x, T_y), repeated over orbital pairs, with the
    Toeplitz T[i, j] = fhat(|i - j| / delta) of the offsets along each
    axis of the box; a chain's one-site axis gives T = [[1.0]].  Row i of
    F is the kron of row x_i of T_x and row y_i of T_y, each entry
    repeated over the orbitals: the same products as the full kron's.
    """
    if delta < 2.0:
        raise ValueError(f"delta must be >= 2, got {delta}")
    T_x, T_y = (filter_fourier(a / delta)[np.abs(a[:, None] - a)]
                for a in map(np.arange, grid.shape))
    x, y, o = grid.x, grid.y, grid.orbitals_per_site

    def rows(r):
        sites = T_x[x[r], :, None] * T_y[y[r], None, :]
        return np.repeat(sites.reshape(len(sites), -1), o, axis=1)
    return rows


def xhat_slabs(xtilde: XtildeOperator, delta):
    """The rows of X-hat = Xtilde o F (`_filter_rows`) as an iterator over
    `row_slabs`: the products Xt[r] * F[r], one slab at a time, so that no
    N x N X-hat is formed.  `wanloc pipeline` writes xhat.wdmx from them,
    and `build_xhat` fills its matrix with them."""
    mask = _filter_rows(xtilde.grid, delta)
    Xt = xtilde.matrix
    return (Xt[r] * mask(r) for r in row_slabs(len(Xt)))


def build_xhat(xtilde: XtildeOperator, delta) -> np.ndarray:
    """Entrywise filter smoothing of the surrogate: the N x N matrix
    X-hat = Xtilde o F, filled a row slab at a time from `xhat_slabs`.  F
    is real and even, so Hermiticity is preserved."""
    xh = np.empty_like(xtilde.matrix)
    for r, slab in zip(row_slabs(len(xh)), xhat_slabs(xtilde, delta)):
        xh[r] = slab
    return xh


def closeness_norm(xhat, x):
    """Spectral norm distance between the smoothed surrogate and diag(x)."""
    D = xhat.copy()
    D[np.diag_indices_from(D)] -= x
    return hermitian_norm(D)


def tilt_lipschitz(xhat, gammas, anchors, grid):
    """Tilted-minus-plain norms of the X-hat matrix per (gamma, anchor) and
    the sup of norm/gamma.  Each difference is taken in place in its tilted
    matrix and passed to the norm as its only reference, so that numpy's
    temporary elision lets `operator_norm` divide it by its max in place,
    and no tilted matrix outlives its norm."""

    def difference(gamma, anchor):
        tilted = tilt_operator(xhat, gamma, anchor, grid)
        return np.subtract(tilted, xhat, out=tilted)

    rows = []
    sup_ratio = 0.0
    for gamma in gammas:
        for anchor in anchors:
            norm = operator_norm(difference(gamma, anchor))
            ratio = norm / gamma if gamma > 0 else 0.0
            sup_ratio = max(sup_ratio, ratio)
            rows.append((float(gamma), float(anchor[0]), float(anchor[1]),
                         norm, ratio))
    return sup_ratio, rows


def in_gap_set(lam):
    """True when lam lies in some open interval (m + 1/4, m + 3/4)."""
    frac = lam - math.floor(lam)
    return 0.25 < frac < 0.75


def gap_weights(lam, m1):
    """The gap weights |lam - m1| of a mid-gap lam; raises
    OutsideGapSetError unless `in_gap_set(lam)`."""
    if not in_gap_set(lam):
        raise OutsideGapSetError(f"lambda={lam} outside the mid-integer gap set")
    return np.abs(lam - m1)


def gap_midpoints(x_min, x_max):
    """Midpoints m + 1/2 of every gap interval intersecting [x_min, x_max]."""
    lo = math.floor(x_min - 0.75) + 1
    hi = math.ceil(x_max - 0.25)
    return [m + 0.5 for m in range(lo, hi)]


@dataclass
class SqrtResolvent:
    lam: float
    matrix: np.ndarray = field(repr=False)
    inverse: np.ndarray = field(repr=False)


def sqrt_resolvent(lam, basis: GeneralizedWannierBasis, P: Projector) -> SqrtResolvent:
    """Square root of the mid-gap resolvent, diagonal in the basis.

    S = |lam|^{-1/2} Q + sum |lam - m1|^{-1/2} |psi><psi|.  By construction
    it commutes with P, and conjugating (lam - P Xtilde P) by S yields an
    operator with spectrum {-1, +1}, which is verified here.  The survey in
    `diagnostics.sqrt_bound_survey` works in basis coordinates instead; this
    N x N form is the reference its tests compare against.  A lam outside
    the gap set raises OutsideGapSetError (`gap_weights`).
    """
    W = basis.psi
    m1 = basis.m1
    wts = gap_weights(lam, m1)
    Pm = P.P
    Q = np.eye(len(Pm)) - Pm
    S = abs(lam) ** -0.5 * Q + (W * wts ** -0.5) @ W.conj().T
    S_inv = abs(lam) ** 0.5 * Q + (W * wts ** 0.5) @ W.conj().T
    S = 0.5 * (S + S.conj().T)
    S_inv = 0.5 * (S_inv + S_inv.conj().T)
    comm = np.linalg.norm(S @ Pm - Pm @ S)
    if comm > COMMUTE_TOL:
        raise SqrtResolventError(f"[S, P] = {comm:.3e} exceeds {COMMUTE_TOL}")
    pxtp = (W * m1[None, :]) @ W.conj().T
    core = lam * np.eye(W.shape[0]) - pxtp
    signs = np.linalg.eigvalsh(S @ core @ S)
    if float(np.max(np.abs(np.abs(signs) - 1.0))) > SQRT_SIGN_TOL:
        raise SqrtResolventError(
            "conjugated mid-gap operator is not a sign operator")
    return SqrtResolvent(lam=float(lam), matrix=S, inverse=S_inv)


@dataclass
class GapCertificate:
    """The certificate of one mid-gap lam at width delta: the norm `snorm`
    and its pass flag, and the distance from lam to the spectrum of
    P Xhat P.  `gap_certificate` leaves that distance nan, because the
    spectrum is solved for only once the pass flags are known;
    `cli._delta_step` then fills it in with `gap_distance`."""

    lam: float
    delta: float
    snorm: float
    min_gap_distance: float
    passed: bool


def certificate_coupling(xtilde: XtildeOperator, delta):
    """K = W^H (Xhat - Xtilde) W, the smoothing error at width `delta` in
    the surrogate's basis W of range(P).  It depends on the filter width
    but not on lambda.

    The difference is taken entrywise before the sandwich, from the filter
    defect: Xhat - Xtilde = Xtilde o (F - 1), so neither X-hat nor the
    difference is needed.  W^H Xhat W - diag(m1) would cancel entries of
    size ~L down to a norm of ~1e-3 and lose about 1e-10 of relative
    accuracy.  DW = (Xhat - Xtilde) W is filled a row slab at a time, and
    K = W^H DW; on a real Xtilde and W both stay float64.  W gets no
    conjugate copy: DW is conjugated in place and K = conj(W^T conj(DW)).
    That is W^H DW bit for bit, because w conj(d) and conj(w) d have the
    same real part and exactly opposite imaginary parts in every rounding
    step of the product and the sum.
    """
    W = xtilde.basis.psi
    Xt = xtilde.matrix
    mask = _filter_rows(xtilde.grid, delta)
    DW = np.empty((len(Xt), W.shape[1]), dtype=np.result_type(Xt, W))
    for r in row_slabs(len(Xt)):
        defect = mask(r)
        defect -= 1.0
        np.matmul(Xt[r] * defect, W, out=DW[r])
    np.conjugate(DW, out=DW)
    K = W.T @ DW
    return np.conjugate(K, out=K)


def gap_certificate(coupling, m1, lam, delta) -> GapCertificate:
    """Certify that lam stays in the resolvent set of P Xhat P.

    Reports the symmetrized difference norm ||S (PXhatP - PXtildeP) S||;
    the certificate passes when that norm is below 1/2, the contraction
    threshold of the mid-gap Neumann series.  In the surrogate's basis W of
    range(P), S P = W diag(|lam - m1|^{-1/2}) W^H, so the norm is that of
    the n x n Hermitian r K r with K the `coupling`
    `certificate_coupling(xtilde, delta)`; one K serves every lam.

    By the expansion in `filter_fourier`, Xhat - Xtilde =
    -(3 / delta^2) Xtilde o (dx^2 + dy^2) + O(delta^-4), so the peak norm
    over lam follows C2 / delta^2 + O(delta^-4) with
    C2 = max_lam ||R W^H (Xtilde o 3 (dx^2 + dy^2)) W R||,
    R = diag(|lam - m1|^{-1/2}); the certified 1/delta rate is only an
    upper bound it must beat.

    The distance to the spectrum is left nan (see `GapCertificate`).  A
    lam outside the gap set raises OutsideGapSetError (`gap_weights`).
    """
    r = gap_weights(lam, m1) ** -0.5
    snorm = hermitian_norm(r[:, None] * coupling * r[None, :])
    return GapCertificate(lam=float(lam), delta=delta, snorm=snorm,
                          min_gap_distance=math.nan, passed=bool(snorm < 0.5))


def gap_distance(spectrum, lam):
    """Distance from lam to the nearest value of `spectrum`, inf if empty."""
    spectrum = np.asarray(spectrum)
    return float(np.min(np.abs(spectrum - lam))) if spectrum.size else math.inf
