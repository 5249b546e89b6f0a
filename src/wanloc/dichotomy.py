"""Projected position spectra, uniform-gap detection, band projectors and
per-band wannierization.

The pipeline here turns an algebraically localized orthonormal basis of
range(P) into per-band position eigenfunctions: cluster the spectrum of a
projected position operator P A P, split its eigenvectors into one block
V_j per cluster (the band projector P_j = V_j V_j^H, read through V_j and
never formed), then diagonalize the transverse position inside each band.
"""

import ctypes
import functools
import math
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (IllConditionedSelectionError, IncompleteBasisError,
                     LapackError, NumericalDegeneracyError)
from .lattice import SiteGrid, row_slabs
from .spectral import (BASIS_TOL, InsufficientRangeError, Projector, bracket,
                       envelope_decay_fit, factor_envelope, operator_norm,
                       orthonormality_defect, tilt_weights)
# unused here; perfbench/tracing.py TRACED binds these names in this module
from .spectral import matrix_decay_fit, range_basis, tilt_operator  # noqa: F401

SELECTION_COND_MAX = 1e8
PIVOT_TILT = 1e-10
DENSITY_BLOCK_PAIRS = 1 << 18


def fix_phases(W):
    """Make the largest-magnitude coefficient of each column real positive.

    The lead's magnitude is hypot(re, im), which equals the scalar abs of a
    complex number bit for bit; np.abs of a complex array need not.  A zero
    column is left as it is.
    """
    W = np.array(W)
    lead = W[np.argmax(np.abs(W), axis=0), np.arange(W.shape[1])]
    mag = np.hypot(lead.real, lead.imag)
    nonzero = mag > 0
    W[:, nonzero] *= np.conj(lead[nonzero]) / mag[nonzero]
    return W


@dataclass
class GeneralizedWannierBasis:
    """Orthonormal functions spanning range(P), with center points.

    psi holds the functions as columns; centers is (n, 2).  A basis labelled
    onto the integer lattice (`relabel_to_lattice`) has its lattice points m
    as centers and carries degeneracy, the int array of each function's
    index j = 1..M among the functions at its point.  moments maps s ->
    per-function 2s-th moment about the centers.
    """

    psi: np.ndarray = field(repr=False)
    centers: np.ndarray
    grid: SiteGrid
    degeneracy: np.ndarray | None = None
    moments: dict | None = None

    @property
    def n_functions(self):
        return self.psi.shape[1]

    @property
    def m1(self):
        if self.degeneracy is None:
            raise IncompleteBasisError("basis has no lattice index yet")
        return self.centers[:, 0]

    @property
    def max_degeneracy(self):
        if self.degeneracy is None:
            raise IncompleteBasisError("basis has no lattice index yet")
        return int(self.degeneracy.max())

    def orthonormality_defect(self):
        return orthonormality_defect(self.psi)

    def completeness_defect(self, P):
        """Frobenius norm of Psi Psi^H - P for a dense N x N P, summed a row
        slab at a time, so that no second N x N matrix is formed.  It is
        the reference formula for the span check `range_defect`, which for
        an orthonormal Psi of rank P columns is this norm over sqrt(2); the
        tests and the completeness gate of perfbench read it."""
        psi = self.psi
        psi_h = psi.conj().T
        return math.sqrt(sum(np.linalg.norm(psi[r] @ psi_h - P[r]) ** 2
                             for r in row_slabs(len(psi))))


def density_centroids(W, grid: SiteGrid):
    """Coefficient-density centroid of each column."""
    dens = np.abs(W) ** 2
    cx = dens.T @ grid.x
    cy = dens.T @ grid.y
    norm = dens.sum(axis=0)
    return np.stack([cx / norm, cy / norm], axis=1)


def hermitian_eigh(M, vectors=True):
    """Eigenpairs of the Hermitian part of M; with vectors=False, its
    eigenvalues and None."""
    H = 0.5 * (M + M.conj().T)
    return np.linalg.eigh(H) if vectors else (np.linalg.eigvalsh(H), None)


def lifted_eigenpairs(B, M):
    """Eigenpairs of the Hermitian part of the n x n M = B^H A B, the
    eigenvectors lifted by B (orthonormal columns) and phase fixed."""
    evals, U = hermitian_eigh(M)
    return evals, fix_phases(B @ U)


def projected_spectrum(P: Projector, A):
    """Eigenpairs of P A P restricted to range(P), taken in the basis P.V;
    the eigenvalues do not depend on the orthonormal basis chosen."""
    return lifted_eigenpairs(P.V, P.V.conj().T @ np.asarray(A) @ P.V)


@dataclass
class GapStructure:
    """Spectrum clustered into well separated sets sigma_j."""

    intervals: list              # (lo, hi) per cluster
    members: list                # eigenvalue index arrays per cluster
    d: float                     # min inter-cluster distance
    D: float                     # max cluster diameter
    xi: np.ndarray               # cluster centroids


@dataclass
class GapDetectionFailure:
    reason: str
    n_clusters: int
    d: float
    D: float


def detect_uniform_gaps(eigenvalues, d_min, d_max=None):
    """Greedy 1-D clustering: split wherever consecutive gaps reach d_min.

    Returns a GapStructure, or a GapDetectionFailure when the clusters do
    not qualify as uniform gaps (one cluster swallowing more than half the
    spectral range, or a diameter above d_max).
    """
    evals = np.sort(np.asarray(eigenvalues, dtype=float))
    if evals.size == 0:
        raise ValueError("need at least one eigenvalue")
    splits = np.nonzero(np.diff(evals) >= d_min)[0]
    bounds = np.concatenate([[0], splits + 1, [evals.size]])
    members = [np.arange(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    intervals = [(float(evals[idx[0]]), float(evals[idx[-1]])) for idx in members]
    diameters = [hi - lo for lo, hi in intervals]
    D = float(max(diameters))
    if len(intervals) > 1:
        d = float(min(intervals[i + 1][0] - intervals[i][1]
                      for i in range(len(intervals) - 1)))
    else:
        d = math.inf
    span = float(evals[-1] - evals[0])
    if len(intervals) == 1 and D > 0.5 * span:
        return GapDetectionFailure(reason="no uniform gaps",
                                   n_clusters=1, d=d, D=D)
    if d_max is not None and D > d_max:
        return GapDetectionFailure(
            reason=f"cluster diameter {D:.6g} exceeds ceiling {d_max:.6g}",
            n_clusters=len(intervals), d=d, D=D)
    xi = np.array([evals[idx].mean() for idx in members])
    return GapStructure(intervals=intervals, members=members, d=d, D=D, xi=xi)


@dataclass
class BandDecomposition:
    """Band vector blocks V_j (P_j = V_j V_j^H) and their decay fits; the
    strip centres are the cluster centroids `GapStructure.xi`."""

    vectors: list = field(repr=False)
    decay_profiles: list


def band_projectors(vecs, gaps: GapStructure, grid: SiteGrid) -> BandDecomposition:
    """Spectral subspaces of P A P: its lifted, orthonormal eigenvectors
    `vecs` split into one block per cluster of `gaps`."""
    n = vecs.shape[1]
    # bounds every ||P_j P_k||, j != k, and the orthonormality inside a band
    gram = orthonormality_defect(vecs)
    if gram > BASIS_TOL:
        raise NumericalDegeneracyError(
            f"band vectors not orthonormal: defect {gram:.3e}")
    # n orthonormal vectors in range(P), rank n: the bands sum to P exactly
    # when every vector belongs to one band
    members = np.sort(np.concatenate(gaps.members)) if gaps.members else []
    if not np.array_equal(members, np.arange(n)):
        raise NumericalDegeneracyError(
            "clusters do not partition the band vectors: band projectors "
            "do not sum to P")
    blocks = [vecs[:, idx] for idx in gaps.members]
    profiles = []
    for V in blocks:
        try:
            profiles.append(envelope_decay_fit(*factor_envelope(V, grid),
                                               grid))
        except InsufficientRangeError:
            profiles.append(None)
    return BandDecomposition(vectors=blocks, decay_profiles=profiles)


def strip_localization_check(V_j, xi_j, grid: SiteGrid, gamma, anchors):
    """max over anchors of ||(X - xi_j) P_tilted|| and ||P_tilted (X - xi_j)||.

    P_tilted = B P_j B^-1 = (e^w V_j)(e^-w V_j)^H with w = log B, so each norm
    is ||R_a R_b^H||, R_a and R_b the r x r QR factors of the two sides.  The
    four tilted blocks of every anchor share one stacked QR, and the norms
    one stacked `operator_norm`."""
    xshift = grid.x.astype(float) - xi_j
    w = np.array([tilt_weights(grid, gamma, anchor) for anchor in anchors])
    up, down = np.exp(w), np.exp(-w)
    sides = np.stack([up, down, xshift * up, xshift * down])
    R = np.linalg.qr(sides[..., None] * V_j, mode="r")
    R_up, R_down, R_xup, R_xdown = R
    norms = operator_norm(np.stack([R_xup @ R_down.conj().swapaxes(-1, -2),
                                    R_up @ R_xdown.conj().swapaxes(-1, -2)]))
    n_left, n_right = norms.max(axis=1)
    return float(n_left), float(n_right)


def wannierize_band(V_j, y, xi_j):
    """Eigenfunctions of P_j Y P_j on span(V_j), centred at (xi_j, eta)."""
    eta, vecs = lifted_eigenpairs(V_j, V_j.conj().T @ (y[:, None] * V_j))
    centers = np.stack([np.full(eta.size, float(xi_j)), eta], axis=1)
    return vecs, centers


def check_bounded_density(centers, grid: SiteGrid | None = None):
    """Largest number of centres in the closed unit ball about any query
    point: the bound M of the bounded-density condition.

    Queries every centre and every integer grid point; the count function's
    maxima occur within distance 1 of some centre, so this grid suffices.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.size == 0:
        raise ValueError("need at least one centre")
    queries = [centers]
    if grid is not None:
        sx, sy = grid.site_coords()
        queries.append(np.stack([sx, sy], axis=1))
    q = np.concatenate(queries, axis=0)
    # query rows in blocks of about DENSITY_BLOCK_PAIRS query-centre pairs
    step = max(1, DENSITY_BLOCK_PAIRS // len(centers))
    best = 0
    for start in range(0, len(q), step):
        diff = q[start:start + step, None, :] - centers[None, :, :]
        d2 = (diff ** 2).sum(axis=2)
        best = max(best, int((d2 <= 1.0 + 1e-12).sum(axis=1).max()))
    return best


def relabel_to_lattice(basis: GeneralizedWannierBasis) -> GeneralizedWannierBasis:
    """Snap centres onto the integer lattice and assign degeneracy indices.

    Each function is assigned the integer point m whose half-open unit square
    [m1-1/2, m1+1/2) x [m2-1/2, m2+1/2) contains its centre; ties inside one
    square are numbered j = 1..M in original order.  Centres are replaced by
    m, dropping moments about the old ones; empty slots are not materialized.
    """
    m = np.floor(basis.centers + 0.5)
    occupancy = {}
    degeneracy = np.empty(len(m), dtype=int)
    for k, key in enumerate(map(tuple, m)):
        occupancy[key] = degeneracy[k] = occupancy.get(key, 0) + 1
    return replace(basis, centers=m, degeneracy=degeneracy, moments=None)


def attach_moments(basis: GeneralizedWannierBasis, s_grid):
    """Per-function 2s-th localization moments about the centres."""
    grid = basis.grid
    br = bracket(grid.x[:, None] - basis.centers[None, :, 0],
                 grid.y[:, None] - basis.centers[None, :, 1])
    dens = np.abs(basis.psi) ** 2
    moments = {float(s): np.sum(br ** (2.0 * s) * dens, axis=0) for s in s_grid}
    return replace(basis, moments=moments)


class _NumpyLapack(NamedTuple):
    """The typed ctypes functions `_qr_pivots` calls."""

    get_threads: object
    set_threads: object
    dgeqp3: object
    zgeqp3: object


@functools.cache
def _numpy_lapack():
    """LAPACKE ?geqp3 and the thread-count calls of the OpenBLAS bundled with
    the numpy wheel (`numpy.libs/libscipy_openblas64_*.so`, ILP64 symbols),
    or None when numpy links another BLAS or the symbols cannot be found.

    Loading the library numpy already holds hands back that same library,
    so its one thread pool serves numpy and these calls alike.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
            geqp3 = (lib.scipy_LAPACKE_dgeqp364_, lib.scipy_LAPACKE_zgeqp364_)
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, ()
        set_.restype, set_.argtypes = None, (ctypes.c_int,)
        for fn in geqp3:
            # (layout, m, n, a, lda, jpvt, tau) -> info
            fn.restype = ctypes.c_int64
            fn.argtypes = (ctypes.c_int, ctypes.c_int64, ctypes.c_int64,
                           ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
                           ctypes.c_void_p)
        return _NumpyLapack(get, set_, *geqp3)
    return None


LAPACK_COL_MAJOR = 102

# the thread count is process-wide: concurrent pins would restore each
# other's counts out of order
_BLAS_LOCK = threading.Lock()


def _qr_pivots(A):
    """Column pivots of the pivoted QR of A (LAPACK ?geqp3: R and pivots
    only, Q is not formed), run in numpy's OpenBLAS with its pool pinned to
    one thread and the previous count restored afterwards.  The pin is
    for speed at small n (README "Threads"); `initial_basis`'s PIVOT_TILT
    is what keeps the pivots independent of the thread count.  Without
    that library the QR falls back to scipy's, on scipy's pool as it is."""
    lapack = _numpy_lapack()
    if lapack is None:
        from scipy.linalg import qr
        return qr(A, mode="r", pivoting=True)[1]
    is_complex = np.iscomplexobj(A)
    a = np.array(A, dtype=complex if is_complex else float, order="F")
    m, n = a.shape
    jpvt = np.zeros(n, dtype=np.int64)   # zero: every column is free
    tau = np.empty(min(m, n), dtype=a.dtype)
    geqp3 = lapack.zgeqp3 if is_complex else lapack.dgeqp3
    with _BLAS_LOCK:
        threads = lapack.get_threads()
        lapack.set_threads(1)
        try:
            info = geqp3(LAPACK_COL_MAJOR, m, n, a.ctypes.data, max(m, 1),
                         jpvt.ctypes.data, tau.ctypes.data)
        finally:
            lapack.set_threads(threads)
    if info != 0:
        raise LapackError(f"LAPACKE ?geqp3 returned info={info}")
    return jpvt - 1


def initial_basis(P: Projector, mode="columns") -> GeneralizedWannierBasis:
    """Construct an orthonormal basis of range(P) with centre points.

    mode "columns": pivoted-QR selection of rank(P) well conditioned columns
    of P, then symmetric orthonormalization.  The selected columns are
    A = V C with the n x n C = V[cols]^H, and A^H A = C^H C, so for
    C = U S Z^H the orthonormalized columns are V U Z^H (the polar factor of
    C carried by V) and cond(A) = cond(C).  The pivots are taken on the
    rows of V scaled by 1 + PIVOT_TILT * i / N: columns of P whose norms tie
    exactly (mirror images under a symmetry of H) then break by index, by a
    margin far above the rounding that the BLAS thread count moves, so the
    selection does not depend on it.  The SVD and W use V unscaled.
    mode "pxp-eigen": eigenfunctions
    of P X P (the 1-D construction; in 2-D it is kept as the deliberately
    failure-prone route).
    """
    if P.rank < 1:
        raise IncompleteBasisError("projector has empty range")
    grid = P.grid
    if mode == "columns":
        V = P.V
        tilt = 1.0 + PIVOT_TILT * np.arange(len(V)) / len(V)
        cols = np.sort(_qr_pivots(V.conj().T * tilt)[:P.rank])
        U, sv, Zh = np.linalg.svd(V[cols].conj().T)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        if cond > SELECTION_COND_MAX:
            raise IllConditionedSelectionError(
                f"selected columns have condition number {cond:.3e}; "
                "re-run with more pivots or a different selection")
        W = fix_phases(V @ (U @ Zh))
    elif mode == "pxp-eigen":
        _, W = lifted_eigenpairs(P.V, P.V.conj().T @ (grid.x[:, None] * P.V))
    else:
        raise ValueError(f"unknown basis mode {mode!r}")
    return GeneralizedWannierBasis(psi=W, centers=density_centroids(W, grid),
                                   grid=grid)


def __getattr__(name):
    # serves only the perfbench/tracing.py binding wanloc.dichotomy:svdvals,
    # so scipy loads when the tracer asks for it; delete with ROADMAP item 9
    if name == "svdvals":
        from scipy.linalg import svdvals
        return svdvals
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
