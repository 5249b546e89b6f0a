"""Fermi projectors, exponential tilts, and kernel-decay fits."""

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
# unused here; perfbench/tracing.py TRACED binds wanloc.spectral:svdvals
from scipy.linalg import svdvals  # noqa: F401

from .errors import (InsufficientRangeError, NoGapError, NotOrthonormalError,
                     TiltTooLargeError)
from .lattice import SiteGrid, TightBindingModel

IDEMPOTENCY_TOL = 1e-10
DECAY_FLOOR_FACTOR = 2000.0
MIN_DECAY_BINS = 10
TILT_MAX_WEIGHT = 1e12
NO_DECAY_RATE = 1e-2


def bracket(dx, dy=0.0):
    """Japanese bracket sqrt(1 + |v|^2), elementwise."""
    return np.sqrt(1.0 + np.square(dx) + np.square(dy))


def commutator(A, B):
    A, B = np.asarray(A), np.asarray(B)
    if A.shape != B.shape or A.ndim != 2:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    return A @ B - B @ A


def operator_norm(A):
    """Spectral norm (largest singular value) of any matrix.

    Taken as the square root of the top eigenvalue of the smaller Gram
    matrix, A A^H or (for a tall A) A^H A, after dividing A by max|A| so
    that tiny or huge entries neither underflow nor overflow.  A Hermitian
    `eigvalsh` of the Gram matrix, real for a real A, costs about half an
    SVD (`gesdd`) of A.  Squaring loses accuracy only in the small singular
    values: the top one, the only one read, keeps a relative error of about
    k * eps for a k x k Gram matrix.
    """
    A = np.atleast_2d(np.asarray(A))
    if not np.any(A):
        return 0.0
    scale = float(np.max(np.abs(A)))
    A = A / scale
    gram = A @ A.conj().T if A.shape[0] <= A.shape[1] else A.conj().T @ A
    return scale * math.sqrt(float(np.linalg.eigvalsh(gram)[-1]))


def hermitian_norm(A):
    """Spectral norm of a Hermitian matrix: its largest |eigenvalue|.

    Only the lower triangle is read, so pass operands that are Hermitian
    by construction; everything else goes through `operator_norm`.  For a
    Hermitian operand this one `eigvalsh` of A itself is cheaper and more
    accurate than the Gram route, which would first form A A^H.
    """
    A = np.atleast_2d(np.asarray(A))
    if not np.any(A):
        return 0.0
    evals = np.linalg.eigvalsh(A)
    return float(max(-evals[0], evals[-1]))


@dataclass(frozen=True)
class Projector:
    """Fermi projection P = V V^H, carried as its occupied eigenvectors V
    (orthonormal columns), with gap and grid metadata.  The N x N matrix P
    is formed on first use and kept."""

    V: np.ndarray = field(repr=False)
    fermi_energy: float
    gap: float
    grid: SiteGrid

    def __post_init__(self):
        defect = np.linalg.norm(self.V.conj().T @ self.V - np.eye(self.rank))
        if defect > IDEMPOTENCY_TOL:
            raise NotOrthonormalError(
                f"projector basis not orthonormal: {defect:.3e}")

    @property
    def rank(self):
        return self.V.shape[1]

    @cached_property
    def P(self):
        P = self.V @ self.V.conj().T
        return 0.5 * (P + P.conj().T)

    @property
    def Q(self):
        return np.eye(self.V.shape[0]) - self.P


def fermi_projector(model: TightBindingModel, fermi_energy: float) -> Projector:
    """Spectral projector onto eigenstates below the Fermi energy.

    A Hamiltonian with identically zero imaginary part is diagonalized as a
    real symmetric matrix, so V, and everything later built from it, is
    float64; otherwise it is complex128.
    """
    H = model.H
    if not np.any(H.imag):
        H = H.real
    evals, evecs = np.linalg.eigh(H)
    dist = np.abs(evals - fermi_energy)
    nearest = int(np.argmin(dist))
    if dist[nearest] < 1e-6:
        below = evals[evals < fermi_energy]
        above = evals[evals >= fermi_energy]
        lo = below[-1] if below.size else -math.inf
        hi = above[0] if above.size else math.inf
        raise NoGapError(
            f"E_F={fermi_energy} within 1e-6 of spectrum "
            f"(bracketing eigenvalues {lo}, {hi})")
    return Projector(V=evecs[:, evals < fermi_energy],
                     fermi_energy=fermi_energy, gap=2.0 * float(dist[nearest]),
                     grid=model.grid)


def range_basis(P):
    """Orthonormal basis of range(P) as columns, from the eigenvectors of P."""
    P = np.asarray(P)
    evals, evecs = np.linalg.eigh(P)
    keep = evals > 0.5
    return evecs[:, keep]


def tilt_weights(grid: SiteGrid, gamma, anchor):
    """Diagonal of log B: gamma * bracket(r - anchor), with overflow guard."""
    a1, a2 = anchor
    w = bracket(grid.x - a1, grid.y - a2)
    max_exp = abs(gamma) * float(np.max(w))
    if max_exp > 700.0 or math.exp(max_exp) > TILT_MAX_WEIGHT:
        raise TiltTooLargeError(
            f"tilt weight exp({max_exp:.3f}) exceeds {TILT_MAX_WEIGHT:.0e}")
    return gamma * w


def tilt_operator(A, gamma, anchor, grid: SiteGrid):
    """Conjugation B A B^{-1} with the diagonal weight B = exp(gamma<r-a>)
    about the anchor point a.  Estimates use gamma >= 0; a negative rate
    inverts the conjugation.

    Computed entrywise as exp(w_i - w_j) * A_ij, which is exact and avoids
    forming large/small diagonal factors separately.
    """
    if gamma == 0.0:
        return np.asarray(A).copy()
    w = tilt_weights(grid, gamma, anchor)
    return np.asarray(A) * np.exp(w[:, None] - w[None, :])


@dataclass(frozen=True)
class DecayProfile:
    """Exponential kernel envelope |A(x,x')| <= C exp(-gamma |x-x'|)."""

    C: float
    gamma: float
    r_squared: float
    samples: int
    flag: str | None = None

    def as_csv_row(self, model_id):
        return (model_id, self.C, self.gamma, self.r_squared, self.samples)


def _log_linear_fit(dist, vals):
    """Least squares of log(vals) against dist; returns (C, gamma, r2)."""
    logs = np.log(vals)
    slope, intercept = np.polyfit(dist, logs, 1)
    pred = slope * dist + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return float(np.exp(intercept)), float(-slope), r2


def kernel_envelope(matrix, grid: SiteGrid):
    """Per site-pair distance bin, the max kernel magnitude.

    Orbitals are collapsed: the bin value is the max of |A_ij| over all
    orbital pairs of every site pair at that distance.  Bins are the exact
    distances realised on the integer lattice (`SiteGrid.site_pair_bins`).
    Returns (dist, mags) sorted by distance.
    """
    A = np.asarray(matrix)
    o = grid.orbitals_per_site
    mags = reduce(np.maximum, (np.abs(A[a::o, b::o])
                               for a in range(o) for b in range(o)))
    order, starts, dist = grid.site_pair_bins
    return dist, np.maximum.reduceat(mags.ravel()[order], starts)


def decay_floor(scale, size):
    """Smallest magnitude a decay fit reads as signal rather than rounding.

    Entries of an operand built from the eigenvectors of an N x N matrix (a
    projector kernel, a band projector, a function of range(P)) carry
    absolute rounding errors of about eps * scale * sqrt(N), where scale is
    the operand's largest magnitude and N = `size` its dimension; band
    projectors, from a second eigendecomposition, carry more.  With
    DECAY_FLOOR_FACTOR = 2000, fits on a real H and on its complex gauge
    twin agree to 5e-7 (disordered L=32, N=2048); 1000 left 1.3e-6 in the
    band fits, and 5000 leaves some functions with only MIN_SHELLS shells.
    """
    return DECAY_FLOOR_FACTOR * np.finfo(float).eps * float(scale) * math.sqrt(size)


def kernel_decay_fit(P: Projector) -> DecayProfile:
    """Fit the exponential envelope of a projector kernel."""
    return matrix_decay_fit(P.P, P.grid)


def matrix_decay_fit(matrix, grid: SiteGrid) -> DecayProfile:
    dist, mags = kernel_envelope(matrix, grid)
    off = dist > 0
    if off.any() and not np.any(mags[off]):
        # off-diagonal kernel identically zero: compactly supported
        return DecayProfile(C=float(mags[~off].max(initial=1.0)), gamma=math.inf,
                            r_squared=1.0, samples=int(off.sum()),
                            flag="compact-support")
    usable = mags > decay_floor(mags.max(), grid.dimension)
    if int(usable.sum()) < MIN_DECAY_BINS:
        raise InsufficientRangeError(
            f"only {int(usable.sum())} usable distance bins, need {MIN_DECAY_BINS}")
    C, gamma, r2 = _log_linear_fit(dist[usable], mags[usable])
    flag = "no-decay" if gamma < NO_DECAY_RATE else None
    return DecayProfile(C=C, gamma=gamma, r_squared=r2,
                        samples=int(usable.sum()), flag=flag)
