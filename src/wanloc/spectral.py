"""Fermi projectors, exponential tilts, and kernel-decay fits."""

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import (InsufficientRangeError, NoGapError, NotOrthonormalError,
                     TiltTooLargeError)
from .lattice import (ROW_SLAB, SiteGrid, TightBindingModel, row_slabs,
                      xy_mirror)

IDEMPOTENCY_TOL = 1e-10
BASIS_TOL = 1e-8
DECAY_FLOOR_FACTOR = 2000.0
MIN_DECAY_BINS = 10
TILT_MAX_WEIGHT = 1e12
NO_DECAY_RATE = 1e-2


def bracket(dx, dy=0.0):
    """Japanese bracket sqrt(1 + |v|^2), elementwise."""
    return np.sqrt(1.0 + np.square(dx) + np.square(dy))


def orthonormality_defect(A):
    """Frobenius norm of A^H A - I: zero when the columns of A are
    orthonormal."""
    return float(np.linalg.norm(A.conj().T @ A - np.eye(A.shape[1])))


def range_defect(W, P):
    """Frobenius norm of W - V V^H W, the part of the columns of W outside
    range(P) = span(V): first order in the angle between span(W) and
    range(P).  For orthonormal W it is ||(I - P) W||, which is
    ||W W^H - P|| / sqrt(2) when W also has rank P columns.  V (V^H W) is
    formed once and W subtracted from it in place, so no temporary is
    larger than one N x n array."""
    V = P.V
    D = V @ (V.conj().T @ W)
    D -= W
    return float(np.linalg.norm(D))


def operator_norm(A):
    """Spectral norm (largest singular value) of any matrix, or the array of
    norms of a stack of matrices (..., m, k).

    Taken as the square root of the top eigenvalue of the smaller Gram
    matrix, A A^H or (for a tall A) A^H A, after dividing each matrix by its
    own max|A| so that tiny or huge entries neither underflow nor overflow.
    A Hermitian `eigvalsh` of the Gram matrix, real for a real A, costs
    about half an SVD (`gesdd`) of A.  Squaring loses accuracy only in the
    small singular values: the top one, the only one read, keeps a relative
    error of about k * eps for a k x k Gram matrix.
    """
    A = np.atleast_2d(np.asarray(A))
    scale = np.max(np.abs(A), axis=(-2, -1), initial=0.0)
    if not np.any(scale):
        return 0.0 if A.ndim == 2 else scale
    # a zero matrix in a stack is divided by 1 and has norm 0
    A = A / np.where(scale > 0, scale, 1.0)[..., None, None]
    Ah = A.conj().swapaxes(-1, -2)
    gram = A @ Ah if A.shape[-2] <= A.shape[-1] else Ah @ A
    norms = scale * np.sqrt(np.linalg.eigvalsh(gram)[..., -1])
    return float(norms) if A.ndim == 2 else norms


def hermitian_norm(A):
    """Spectral norm of a Hermitian matrix: its largest |eigenvalue|, or the
    array of norms of a stack of Hermitian matrices (..., m, m).

    Only the lower triangle is read, so pass operands that are Hermitian
    by construction; everything else goes through `operator_norm`.  For a
    Hermitian operand this one `eigvalsh` of A itself is cheaper and more
    accurate than the Gram route, which would first form A A^H.
    """
    A = np.atleast_2d(np.asarray(A))
    norms = np.max(np.abs(np.linalg.eigvalsh(A)), axis=-1, initial=0.0)
    return float(norms) if A.ndim == 2 else norms


@dataclass(frozen=True)
class Projector:
    """Fermi projection P = V V^H, carried as the occupied eigenvectors from
    `eigh`, with gap and grid metadata.

    `factor` is what `eigh` returned over the occupied columns.  With
    `mirror` None it is V itself: float64 for a real H, complex128 for a
    complex H.  With `mirror` the permutation s of `xy_mirror`, H obeys
    S H S = conj(H) and `factor` is the float64 R of its real form, so that
    V = U R for the unitary U = a I + conj(a) S, a = (1 + i)/2.  V is
    formed on first use and kept.  U is unitary, so V^H V = R^T R and the
    orthonormality check and the rank read `factor`.

    Every stage reads range(P) through V alone.  The N x N matrix P is
    formed anew on each read and kept by nothing: it serves the tests, the
    test-only `sqrt_resolvent` (which forms Q = I - P from it) and the
    dense reference `GeneralizedWannierBasis.completeness_defect` that
    perfbench gates on, and no stage of `construct`, `verify` or `chern`
    reads it; their span checks use `range_defect`.
    """

    factor: np.ndarray = field(repr=False)
    fermi_energy: float
    gap: float
    grid: SiteGrid
    mirror: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        defect = orthonormality_defect(self.factor)
        if defect > IDEMPOTENCY_TOL:
            raise NotOrthonormalError(
                f"projector basis not orthonormal: {defect:.3e}")

    @property
    def rank(self):
        return self.factor.shape[1]

    @cached_property
    def V(self):
        """Orthonormal basis of range(P) as columns: `factor`, or U R,
        a R + conj(a) S R, on the mirror path."""
        R, s = self.factor, self.mirror
        if s is None:
            return R
        a = 0.5 + 0.5j
        return a * R + a.conjugate() * R[s]

    @property
    def P(self):
        P = self.V @ self.V.conj().T
        return 0.5 * (P + P.conj().T)


def fermi_projector(model: TightBindingModel, fermi_energy: float) -> Projector:
    """Spectral projector onto eigenstates below the Fermi energy: the
    operand step `projector_operand` followed by the eigensolve step
    `eigh_projector`.  A caller that holds nothing else of the model can
    drop it between the two steps, as `wanloc chern` does, so that on the
    mirror path the complex H is freed before `eigh` allocates its buffers.
    """
    A, mirror = projector_operand(model)
    return eigh_projector(A, mirror, model.grid, fermi_energy)


def projector_operand(model: TightBindingModel):
    """The matrix that `eigh_projector` diagonalizes, and the mirror
    permutation s of `xy_mirror` (or None) that maps its eigenvectors back
    to those of H.

    A float64 H is its own operand, so V, and everything later built from
    it, is float64; every builder makes H float64 when all its amplitudes
    are real (`build_haldane` at t2 = 0 or phi = 0 too).  A complex H on a
    sheet that obeys the x <-> y mirror S H S = conj(H) bitwise (S the
    permutation matrix of `xy_mirror`, as for `build_haldane`) is
    diagonalized in real form: U = a I + conj(a) S with a = (1 + i)/2 is
    unitary and U^H H U = M = Re H - S Im H, which is real symmetric, so
    `eigh(M)` at real-arithmetic cost gives the eigenvalues of H, and its
    occupied eigenvectors R give those of H as V = U R.  Any other complex
    H is its own operand, and V is complex128.

    Only on the mirror path is the operand a new array: M holds no
    reference to H, so a caller that drops the model frees H, and the peak
    of the eigensolve is M plus `eigh`'s buffers.  The other operand is H
    itself, and no copy is made to change that.
    """
    H = model.H
    s = _conjugating_mirror(H, model.grid) if np.iscomplexobj(H) else None
    if s is None:
        return H, None
    M = H.imag[s]
    return np.subtract(H.real, M, out=M), s


def eigh_projector(A, mirror, grid: SiteGrid, fermi_energy: float) -> Projector:
    """The Projector of the operand A and mirror from `projector_operand`:
    one `eigh(A)`, whose eigenvectors below the Fermi energy become the
    Projector's `factor`.  The Projector keeps R with the mirror and forms
    V only when a stage asks for it; `chern_marker` works on R itself.
    """
    evals, evecs = np.linalg.eigh(A)
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
    # a gather, not the view evecs[:, :n]: a view would keep all N columns
    # alive for as long as the Projector lives
    return Projector(factor=evecs[:, evals < fermi_energy],
                     fermi_energy=fermi_energy,
                     gap=2.0 * float(dist[nearest]), grid=grid, mirror=mirror)


def _conjugating_mirror(H, grid):
    """The permutation s of the grid's x <-> y mirror if H[s][:, s] ==
    conj(H) holds bitwise (checked a row slab at a time), else None."""
    s = xy_mirror(grid)
    if s is None or not all(np.array_equal(np.take(H[s[r]], s, axis=1),
                                           H[r].conj())
                            for r in row_slabs(len(s))):
        return None
    return s


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
    forming large/small diagonal factors separately; at gamma = 0 every
    factor is exp(0) = 1.0 and the result equals A.
    """
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


def _log_linear_fit(dist, vals, where=True):
    """Least squares of log(vals) against dist along the last axis, over the
    entries `where` selects (at least two distinct distances per line);
    returns the arrays (C, gamma, r2) over the leading axes.

    Every decay fit uses this one closed form: the line through the means
    with slope S_xy / S_xx, and r2 = 1 - SS_res / SS_tot (0 for a flat
    line).
    """
    dist, vals, where = np.broadcast_arrays(dist, vals, where)
    logs = np.log(vals, out=np.zeros(vals.shape), where=where)
    count = np.count_nonzero(where, axis=-1)
    x_mean = np.sum(dist, axis=-1, where=where) / count
    y_mean = np.sum(logs, axis=-1, where=where) / count
    dx = dist - x_mean[..., None]
    dy = logs - y_mean[..., None]
    slope = (np.sum(dx * dy, axis=-1, where=where)
             / np.sum(dx * dx, axis=-1, where=where))
    intercept = y_mean - slope * x_mean
    ss_res = np.sum((dy - slope[..., None] * dx) ** 2, axis=-1, where=where)
    ss_tot = np.sum(dy * dy, axis=-1, where=where)
    flat = ss_tot <= 0
    r2 = np.where(flat, 0.0, 1.0 - ss_res / np.where(flat, 1.0, ss_tot))
    return np.exp(intercept), -slope, r2


def kernel_envelope(matrix, grid: SiteGrid):
    """Per site-pair distance bin, the max kernel magnitude.

    Orbitals are collapsed: the bin value is the max of |A_ij| over all
    orbital pairs of every site pair at that distance.  Bins are the exact
    distances realised on the integer lattice (`SiteGrid.site_pair_bins`).
    Returns (dist, mags) sorted by distance.
    """
    return _binned_envelope(
        _site_maxima(np.asarray(matrix), grid.orbitals_per_site), grid)


def factor_envelope(V, grid: SiteGrid):
    """`kernel_envelope` of V V^H, for an N x r factor V (the basis of
    range(P), or a band block V_j), with no N x N array: V V^H is formed
    for one slab of sites at a time and reduced at once into the site x
    site magnitudes that are binned.  A real V keeps every slab float64.
    """
    o = grid.orbitals_per_site
    n_sites = len(V) // o
    Vh = V.conj().T
    mags = np.empty((n_sites, n_sites))
    for s in row_slabs(n_sites, max(ROW_SLAB // o, 1)):
        mags[s] = _site_maxima(V[s.start * o:s.stop * o] @ Vh, o)
    return _binned_envelope(mags, grid)


def _site_maxima(A, o):
    """Max of |A_ij| over the o x o orbital pairs of each site pair, for
    the rows of A of whole sites."""
    return reduce(np.maximum, (np.abs(A[a::o, b::o])
                               for a in range(o) for b in range(o)))


def _binned_envelope(mags, grid):
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
    An array of scales gives the array of floors.
    """
    return DECAY_FLOOR_FACTOR * np.finfo(float).eps * scale * math.sqrt(size)


def kernel_decay_fit(P: Projector) -> DecayProfile:
    """Fit the exponential envelope of a projector kernel, from V."""
    return envelope_decay_fit(*factor_envelope(P.V, P.grid), P.grid)


def matrix_decay_fit(matrix, grid: SiteGrid) -> DecayProfile:
    """The fit of a dense kernel.  The library fits kernels from their
    factors; this stays for the tests and for the perfbench/tracing.py
    bindings wanloc.spectral:matrix_decay_fit and
    wanloc.dichotomy:matrix_decay_fit."""
    return envelope_decay_fit(*kernel_envelope(matrix, grid), grid)


def envelope_decay_fit(dist, mags, grid: SiteGrid) -> DecayProfile:
    """Fit C exp(-gamma dist) to the binned kernel envelope (dist, mags)
    of an operand on `grid`, over the bins above its `decay_floor`."""
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
    C, gamma, r2 = map(float, _log_linear_fit(dist[usable], mags[usable]))
    flag = "no-decay" if gamma < NO_DECAY_RATE else None
    return DecayProfile(C=C, gamma=gamma, r_squared=r2,
                        samples=int(usable.sum()), flag=flag)


def __getattr__(name):
    # serves only the perfbench/tracing.py binding wanloc.spectral:svdvals,
    # so scipy loads when the tracer asks for it; delete with ROADMAP item 9
    if name == "svdvals":
        from scipy.linalg import svdvals
        return svdvals
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
