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
from .errors import (IncompleteBasisError, OutsideGapSetError,
                     SqrtResolventError, UnsupportedGeometryError)
from .lattice import make_grid
from .spectral import Projector, hermitian_norm, operator_norm, tilt_operator

SQRT_SIGN_TOL = 1e-8
COMMUTE_TOL = 1e-9
COMPLETENESS_TOL = 1e-8


def filter_fourier(xi):
    """Even, C^2 filter profile (1 - xi^2)^3 supported on [-1, 1].

    On [-1, 1], 1 - f(xi) = 3 xi^2 - 3 xi^4 + xi^6: no linear term, so
    the smoothing error of width delta starts at order delta^-2.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.where(np.abs(xi) < 1.0, (1.0 - xi * xi) ** 3, 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FilterSpec:
    """Smoothing width in lattice units."""

    delta: float = 8.0

    def __post_init__(self):
        if self.delta < 2.0:
            raise ValueError(f"delta must be >= 2, got {self.delta}")


@dataclass
class XtildeOperator:
    matrix: np.ndarray = field(repr=False)
    basis: GeneralizedWannierBasis

    @property
    def grid(self):
        return self.basis.grid


def check_spans_range(W, P: Projector):
    """Raise `IncompleteBasisError` unless the columns of W are an
    orthonormal basis of range(P): as many as rank P, with Gram defects
    ||W^H W - I|| and ||C^H C - I||, C = V^H W, within COMPLETENESS_TOL."""
    C = P.V.conj().T @ W
    n = W.shape[1]
    eye = np.eye(n)
    defect = max(np.linalg.norm(W.conj().T @ W - eye),
                 np.linalg.norm(C.conj().T @ C - eye))
    if n != P.rank or defect > COMPLETENESS_TOL:
        raise IncompleteBasisError(
            f"basis of {n} functions does not span range(P) of rank "
            f"{P.rank}: Gram defect {defect:.3e}")


def build_xtilde(basis: GeneralizedWannierBasis, P: Projector) -> XtildeOperator:
    """Sum of m1-weighted basis projectors plus the complement part Q X Q.

    Its projected spectrum is that of V^H Xt V = C diag(m1) C^H, C = V^H W,
    so it is the integer set {m1} exactly when C is unitary and W spans
    range(P); `check_spans_range` checks both with n x n Gram defects.
    """
    check_spans_range(basis.psi, P)
    x = basis.grid.x.astype(float)
    W = basis.psi
    Q = P.Q
    M = Q @ (x[:, None] * Q)
    del Q
    # accumulated in place: once Q is dropped, at most one N x N temporary
    # lives beside M
    M += (W * basis.m1[None, :]) @ W.conj().T
    M += M.conj().T
    M *= 0.5
    return XtildeOperator(matrix=M, basis=basis)


def build_xhat(xtilde: XtildeOperator, spec: FilterSpec) -> np.ndarray:
    """Entrywise filter smoothing of the surrogate: the N x N matrix X-hat.

    On the integer lattice this is exact: entry (i, j) is multiplied by
    fhat(dx / delta) * fhat(dy / delta), so everything beyond distance delta
    in either coordinate is exactly zero and Hermiticity is preserved
    (the profile is real and even).  In the `make_grid` layout that mask is
    kron(T_x, T_y), repeated over orbital pairs, with the Toeplitz
    T[i, j] = fhat(|i - j| / delta) of the offsets along each axis of the
    box `grid.shape`; a chain's one-site axis gives T = [[1.0]].
    """
    grid = xtilde.grid
    layout = make_grid(grid.width, grid.orbitals_per_site, grid.ndim)
    if not (np.array_equal(grid.x, layout.x) and np.array_equal(grid.y, layout.y)):
        raise UnsupportedGeometryError("filter smoothing needs the make_grid layout")
    T_x, T_y = (filter_fourier(a / spec.delta)[np.abs(a[:, None] - a)]
                for a in map(np.arange, grid.shape))
    o = grid.orbitals_per_site
    return xtilde.matrix * np.kron(np.kron(T_x, T_y), np.ones((o, o)))


def closeness_norm(xhat, x):
    """Spectral norm distance between the smoothed surrogate and diag(x)."""
    D = xhat.copy()
    D[np.diag_indices_from(D)] -= x
    return hermitian_norm(D)


def tilt_lipschitz(xhat, gammas, anchors, grid):
    """Tilted-minus-plain norms of the X-hat matrix per (gamma, anchor) and
    the sup of norm/gamma."""
    rows = []
    sup_ratio = 0.0
    for gamma in gammas:
        for anchor in anchors:
            tilted = tilt_operator(xhat, gamma, anchor, grid)
            norm = operator_norm(tilted - xhat)
            ratio = norm / gamma if gamma > 0 else 0.0
            sup_ratio = max(sup_ratio, ratio)
            rows.append((float(gamma), float(anchor[0]), float(anchor[1]),
                         norm, ratio))
    return sup_ratio, rows


def in_gap_set(lam):
    """True when lam lies in some open interval (m + 1/4, m + 3/4)."""
    frac = lam - math.floor(lam)
    return 0.25 < frac < 0.75


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
    N x N form is the reference its tests compare against.
    """
    if not in_gap_set(lam):
        raise OutsideGapSetError(f"lambda={lam} outside the mid-integer gap set")
    W = basis.psi
    m1 = basis.m1
    Q = P.Q
    wts = np.abs(lam - m1)
    S = abs(lam) ** -0.5 * Q + (W * wts ** -0.5) @ W.conj().T
    S_inv = abs(lam) ** 0.5 * Q + (W * wts ** 0.5) @ W.conj().T
    S = 0.5 * (S + S.conj().T)
    S_inv = 0.5 * (S_inv + S_inv.conj().T)
    comm = np.linalg.norm(S @ P.P - P.P @ S)
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
    lam: float
    delta: float
    snorm: float
    min_gap_distance: float
    passed: bool

    def as_csv_row(self):
        return (self.lam, self.delta, self.snorm, self.min_gap_distance,
                self.passed)


def certificate_coupling(xtilde: XtildeOperator, xhat):
    """K = W^H (Xhat - Xtilde) W, the smoothing error in the surrogate's
    basis W of range(P).  It depends on the filter width but not on lambda.

    The difference is taken entrywise before the sandwich: W^H Xhat W -
    diag(m1) would cancel entries of size ~L down to a norm of ~1e-3 and
    lose about 1e-10 of relative accuracy.
    """
    W = xtilde.basis.psi
    return W.conj().T @ (xhat - xtilde.matrix) @ W


def gap_certificate(coupling, m1, spectrum, lam, delta) -> GapCertificate:
    """Certify that lam stays in the resolvent set of P Xhat P.

    Reports the distance from lam to `spectrum`, the spectrum of P Xhat P,
    and the symmetrized difference norm ||S (PXhatP - PXtildeP) S||; the
    certificate passes when that norm is below 1/2, the contraction
    threshold of the mid-gap Neumann series.  In the surrogate's basis W of
    range(P), S P = W diag(|lam - m1|^{-1/2}) W^H, so the norm is that of
    the n x n Hermitian r K r with K the `coupling`
    `certificate_coupling(xtilde, xhat)` at filter width `delta`; one K
    serves every lam.

    By the expansion in `filter_fourier`, Xhat - Xtilde =
    -(3 / delta^2) Xtilde o (dx^2 + dy^2) + O(delta^-4), so the peak norm
    over lam follows C2 / delta^2 + O(delta^-4) with
    C2 = max_lam ||R W^H (Xtilde o 3 (dx^2 + dy^2)) W R||,
    R = diag(|lam - m1|^{-1/2}); the certified 1/delta rate is only an
    upper bound it must beat.

    A `spectrum` of None leaves the distance nan, for a caller that solves
    for the spectrum only once the pass flags are known and then fills the
    distance in with `gap_distance`.
    """
    if not in_gap_set(lam):
        raise OutsideGapSetError(f"lambda={lam} outside the mid-integer gap set")
    r = np.abs(lam - m1) ** -0.5
    snorm = hermitian_norm(r[:, None] * coupling * r[None, :])
    dist = math.nan if spectrum is None else gap_distance(spectrum, lam)
    return GapCertificate(lam=float(lam), delta=delta, snorm=snorm,
                          min_gap_distance=dist, passed=bool(snorm < 0.5))


def gap_distance(spectrum, lam):
    """Distance from lam to the nearest value of `spectrum`, inf if empty."""
    spectrum = np.asarray(spectrum)
    return float(np.min(np.abs(spectrum - lam))) if spectrum.size else math.inf
