"""Projected position spectra, uniform-gap detection, band projectors and
per-band wannierization.

The pipeline here turns an algebraically localized orthonormal basis of
range(P) into per-band position eigenfunctions: cluster the spectrum of a
projected position operator, build one band projector per cluster, then
diagonalize the transverse position inside each band.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import qr

from .errors import (IllConditionedSelectionError, IncompleteBasisError,
                     NumericalDegeneracyError)
from .lattice import SiteGrid
from .spectral import (InsufficientRangeError, Projector, TiltSpec, bracket,
                       matrix_decay_fit, operator_norm, tilt_weights)
# unused here; perfbench/tracing.py TRACED binds these names in this module
from scipy.linalg import svdvals  # noqa: F401
from .spectral import range_basis, tilt_operator  # noqa: F401

BAND_TOL = 1e-8
SELECTION_COND_MAX = 1e8
DENSITY_BLOCK_PAIRS = 1 << 18


def fix_phases(W):
    """Make the largest-magnitude coefficient of each column real positive."""
    W = np.array(W)
    for k in range(W.shape[1]):
        col = W[:, k]
        lead = col[int(np.argmax(np.abs(col)))]
        if abs(lead) > 0:
            W[:, k] = col * (np.conj(lead) / abs(lead))
    return W


@dataclass
class GeneralizedWannierBasis:
    """Orthonormal functions spanning range(P), with center points.

    psi holds the functions as columns; centers is (n, 2).  lattice_index,
    when present, lists ((m1, m2), j) per function after relabeling onto the
    integer lattice.  moments maps s -> per-function 2s-th moment about the
    centers.
    """

    psi: np.ndarray = field(repr=False)
    centers: np.ndarray
    grid: SiteGrid
    lattice_index: list | None = None
    moments: dict | None = None

    @property
    def n_functions(self):
        return self.psi.shape[1]

    @property
    def m1(self):
        if self.lattice_index is None:
            raise IncompleteBasisError("basis has no lattice index yet")
        return np.array([m[0] for m, _ in self.lattice_index], dtype=float)

    @property
    def max_degeneracy(self):
        if self.lattice_index is None:
            raise IncompleteBasisError("basis has no lattice index yet")
        return max(j for _, j in self.lattice_index)

    def orthonormality_defect(self):
        G = self.psi.conj().T @ self.psi
        return float(np.linalg.norm(G - np.eye(self.n_functions)))

    def completeness_defect(self, P):
        return float(np.linalg.norm(self.psi @ self.psi.conj().T - np.asarray(P)))


def density_centroids(W, grid: SiteGrid):
    """Coefficient-density centroid of each column."""
    dens = np.abs(W) ** 2
    cx = dens.T @ grid.x
    cy = dens.T @ grid.y
    norm = dens.sum(axis=0)
    return np.stack([cx / norm, cy / norm], axis=1)


def lifted_eigenpairs(B, M):
    """Eigenpairs of the Hermitian part of the n x n M = B^H A B, the
    eigenvectors lifted by B (orthonormal columns) and phase fixed."""
    M = 0.5 * (M + M.conj().T)
    evals, U = np.linalg.eigh(M)
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

    @property
    def n_clusters(self):
        return len(self.intervals)


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
    """Band vector blocks V_j (P_j = V_j V_j^H), strip centres, decay fits."""

    vectors: list = field(repr=False)
    xi: np.ndarray
    decay_profiles: list


def band_projectors(vecs, gaps: GapStructure, grid: SiteGrid) -> BandDecomposition:
    """Spectral subspaces of P A P: its lifted, orthonormal eigenvectors
    `vecs` split into one block per cluster of `gaps`."""
    n = vecs.shape[1]
    # bounds every ||P_j P_k||, j != k, and the orthonormality inside a band
    gram = np.linalg.norm(vecs.conj().T @ vecs - np.eye(n))
    if gram > BAND_TOL:
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
        Pj = V @ V.conj().T
        try:
            profiles.append(matrix_decay_fit(0.5 * (Pj + Pj.conj().T), grid))
        except InsufficientRangeError:
            profiles.append(None)
    return BandDecomposition(vectors=blocks, xi=gaps.xi.copy(),
                             decay_profiles=profiles)


def strip_localization_check(V_j, xi_j, grid: SiteGrid, gamma, anchors):
    """max over anchors of ||(X - xi_j) P_tilted|| and ||P_tilted (X - xi_j)||.

    P_tilted = B P_j B^-1 = (e^w V_j)(e^-w V_j)^H with w = log B, so each norm
    is ||R_a R_b^H||, R_a and R_b the r x r QR factors of the two sides."""
    xshift = grid.x.astype(float) - xi_j
    n_left = n_right = 0.0
    for anchor in anchors:
        w = tilt_weights(grid, TiltSpec(gamma, tuple(anchor)))
        up, down, x_up, x_down = (
            np.linalg.qr(f[:, None] * V_j, mode="r") for f in
            (np.exp(w), np.exp(-w), xshift * np.exp(w), xshift * np.exp(-w)))
        n_left = max(n_left, operator_norm(x_up @ down.conj().T))
        n_right = max(n_right, operator_norm(up @ x_down.conj().T))
    return n_left, n_right


def coordinate_eigenbasis(V, coord):
    """Eigenpairs of diag(coord) compressed to span(V), vectors phase fixed."""
    return lifted_eigenpairs(V, V.conj().T @ (coord[:, None] * V))


def wannierize_band(V_j, y, xi_j):
    """Eigenfunctions of P_j Y P_j on span(V_j), centred at (xi_j, eta)."""
    eta, vecs = coordinate_eigenbasis(V_j, y)
    centers = np.stack([np.full(eta.size, float(xi_j)), eta], axis=1)
    return vecs, centers


def check_bounded_density(centers, grid: SiteGrid | None = None, radius=1.0):
    """Largest number of centres within distance `radius` of any query point.

    Queries every centre and every integer grid point; the count function's
    maxima occur within `radius` of some centre, so this grid suffices.
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
        best = max(best, int((d2 <= radius * radius + 1e-12).sum(axis=1).max()))
    return best


def relabel_to_lattice(basis: GeneralizedWannierBasis) -> GeneralizedWannierBasis:
    """Snap centres onto the integer lattice and assign degeneracy indices.

    Each function is assigned the integer point m whose half-open unit square
    [m1-1/2, m1+1/2) x [m2-1/2, m2+1/2) contains its centre; ties inside one
    square are numbered j = 1..M in original order.  Centres are replaced by
    m, dropping moments about the old ones; empty slots are not materialized.
    """
    m = np.floor(basis.centers + 0.5).astype(int)
    occupancy = {}
    index = []
    for row in m:
        key = (int(row[0]), int(row[1]))
        occupancy[key] = occupancy.get(key, 0) + 1
        index.append((key, occupancy[key]))
    return replace(basis, centers=m.astype(float), lattice_index=index,
                   moments=None)


def attach_moments(basis: GeneralizedWannierBasis, s_grid):
    """Per-function 2s-th localization moments about the centres."""
    grid = basis.grid
    br = bracket(grid.x[:, None] - basis.centers[None, :, 0],
                 grid.y[:, None] - basis.centers[None, :, 1])
    dens = np.abs(basis.psi) ** 2
    moments = {float(s): np.sum(br ** (2.0 * s) * dens, axis=0) for s in s_grid}
    return replace(basis, moments=moments)


def initial_basis(P: Projector, mode="columns") -> GeneralizedWannierBasis:
    """Construct an orthonormal basis of range(P) with centre points.

    mode "columns": pivoted-QR selection of rank(P) well conditioned columns
    of P, then symmetric orthonormalization.  The selected columns are
    A = V C with the n x n C = V[cols]^H, and A^H A = C^H C, so for
    C = U S Z^H the orthonormalized columns are V U Z^H (the polar factor of
    C carried by V) and cond(A) = cond(C).  mode "pxp-eigen": eigenfunctions
    of P X P (the 1-D construction; in 2-D it is kept as the deliberately
    failure-prone route).
    """
    if P.rank < 1:
        raise IncompleteBasisError("projector has empty range")
    grid = P.grid
    if mode == "columns":
        V = P.V
        _, _, pivots = qr(V.conj().T, mode="economic", pivoting=True)
        cols = np.sort(pivots[:P.rank])
        U, sv, Zh = np.linalg.svd(V[cols].conj().T)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
        if cond > SELECTION_COND_MAX:
            raise IllConditionedSelectionError(
                f"selected columns have condition number {cond:.3e}; "
                "re-run with more pivots or a different selection")
        W = fix_phases(V @ (U @ Zh))
    elif mode == "pxp-eigen":
        _, W = coordinate_eigenbasis(P.V, grid.x)
    else:
        raise ValueError(f"unknown basis mode {mode!r}")
    return GeneralizedWannierBasis(psi=W, centers=density_centroids(W, grid),
                                   grid=grid)
