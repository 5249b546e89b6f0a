"""Finite gapped tight-binding models on integer lattices.

All builders use open boundary conditions and lattice spacing 1, so the
standard position operators X, Y are diagonal with integer entries.  The
Haldane honeycomb is embedded on the square cell lattice (both sublattice
orbitals share one integer coordinate), which keeps X, Y integer valued.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (GapClosureRiskError, GaplessModelError, ModelTooSmallError,
                     NotHermitianError)

HERMITICITY_RTOL = 1e-12
ROW_SLAB = 128


@dataclass(frozen=True)
class SiteGrid:
    """Maps matrix indices to integer lattice coordinates.

    The sites fill the box `shape` in row-major order, site s = x * shape[1]
    + y, and matrix index i = s * orbitals_per_site + orbital.
    """

    width: int
    orbitals_per_site: int
    ndim: int
    x: np.ndarray = field(repr=False)   # per matrix index
    y: np.ndarray = field(repr=False)

    @property
    def shape(self):
        return _box(self.width, self.ndim)

    @property
    def dimension(self):
        return self.x.size

    def site_coords(self):
        """Coordinates per site (one row per site, orbitals collapsed)."""
        step = self.orbitals_per_site
        return self.x[::step].astype(float), self.y[::step].astype(float)

    @cached_property
    def site_pair_bins(self):
        """Site pairs grouped by exact distance, sorted once per grid.

        Returns (order, starts, dist): `order` sorts the flattened
        n_sites x n_sites array of site pairs by squared distance (stable),
        `starts` marks where each distance begins in that order, and `dist`
        holds the distinct distances, ascending.
        """
        sx, sy = self.site_coords()
        d2 = ((sx[:, None] - sx[None, :]) ** 2
              + (sy[:, None] - sy[None, :]) ** 2).astype(np.int64).ravel()
        order = np.argsort(d2, kind="stable")
        uniq, starts = np.unique(d2[order], return_index=True)
        return order, starts, np.sqrt(uniq.astype(float))


def _box(width, ndim):
    """The box of sites: width x width for a sheet, and width x 1 for a
    chain, which lies along x at y = 0."""
    return (width, width if ndim == 2 else 1)


def xy_mirror(grid):
    """Index permutation s of the x <-> y mirror of a sheet, which takes
    matrix index (x, y, orbital) to (y, x, orbital); None for a chain, whose
    box the mirror does not map onto itself."""
    if grid.ndim != 2:
        return None
    index = np.arange(grid.dimension).reshape(*grid.shape, grid.orbitals_per_site)
    return index.transpose(1, 0, 2).ravel()


def row_slabs(n, size=ROW_SLAB):
    """Slices of at most `size` consecutive rows that cover range(n), so
    that work on an n x n matrix, taken a slab at a time, makes no n x n
    temporary."""
    return [slice(i, i + size) for i in range(0, n, size)]


def make_grid(width, orbitals_per_site, ndim=2):
    if ndim not in (1, 2):
        raise ValueError(f"ndim must be 1 or 2, got {ndim}")
    cells = np.indices(_box(width, ndim)).reshape(2, -1)
    x, y = np.repeat(cells, orbitals_per_site, axis=1)
    return SiteGrid(width=width, orbitals_per_site=orbitals_per_site,
                    ndim=ndim, x=x, y=y)


@dataclass(frozen=True)
class TightBindingModel:
    """A Hermitian Hamiltonian H on `grid`, with the parameters it was built
    from.  H is float64 when every entry is real (the disordered insulator,
    the SSH chain) and complex128 otherwise (`build_haldane`, also at
    t2 = 0), and the stages follow its dtype (`projector_operand`)."""

    grid: SiteGrid
    H: np.ndarray = field(repr=False)
    params: dict

    def __post_init__(self):
        H = self.H
        scale = max(np.linalg.norm(H), 1.0)
        # ||H - H^H||_F over square slab pairs (a, b), a <= b: the pair
        # (b, a) has the same norm, so each off-diagonal pair counts twice
        slabs = row_slabs(len(H))
        defect = math.sqrt(sum(
            (1 if i == j else 2)
            * np.linalg.norm(H[a, b] - H[b, a].conj().T) ** 2
            for i, a in enumerate(slabs) for j, b in enumerate(slabs[i:], i)))
        if defect > HERMITICITY_RTOL * scale:
            raise NotHermitianError(
                f"Hamiltonian not Hermitian: defect {defect:.3e}")


def _hop(H, grid, amp, a, b, v):
    """H[(c, a), (c + v, b)] += amp and its Hermitian partner += conj(amp),
    for every cell c with c + v inside the sample (1-D cells have v[1] = 0)."""
    cells = np.arange(grid.dimension // grid.orbitals_per_site).reshape(grid.shape)
    src = tuple(slice(max(-d, 0), n - max(d, 0)) for d, n in zip(v, cells.shape))
    dst = tuple(slice(max(d, 0), n - max(-d, 0)) for d, n in zip(v, cells.shape))
    i = cells[src].ravel() * grid.orbitals_per_site + a
    j = cells[dst].ravel() * grid.orbitals_per_site + b
    H[i, j] += amp
    H[j, i] += np.conj(amp)


def haldane_bonds(t1, t2, phi):
    """Haldane hoppings as (a, b, v, amp) rows, orbital a (A = 0, B = 1) of
    cell c to orbital b of cell c + v: t1 from A(c) to B(c), B(c - e_x),
    B(c - e_y); t2*exp(i*phi) on A along +e_x, -e_x+e_y, -e_y and on B along
    the reversed vectors, so no two rows hit one matrix entry."""
    t2c = t2 * np.exp(1j * phi)
    nnn = ((1, 0), (-1, 1), (0, -1))
    return ([(0, 1, v, t1) for v in ((0, 0), (-1, 0), (0, -1))]
            + [(0, 0, v, t2c) for v in nnn]
            + [(1, 1, (-vx, -vy), t2c) for vx, vy in nnn])


def build_haldane(L, t1, t2, phi, m_stagger):
    """Haldane model on an L x L cell grid, A/B orbitals on each cell.

    The cell-index hoppings are `haldane_bonds` (equivalent to the honeycomb
    under an orientation-preserving shear).  Staggered on-site +m on A, -m
    on B.  The gap closes at |m| = 3*sqrt(3)*|t2 sin phi|; smaller |m| is
    the topological regime.

    The x <-> y mirror S of the box (`xy_mirror`) maps the mass and every
    t1 bond onto itself and each t2*exp(i*phi) hop onto its conjugate, so
    S H S = conj(H) holds bitwise: H has the antiunitary symmetry S K (K
    complex conjugation), which `fermi_projector` uses to diagonalize H as
    a real symmetric matrix.
    """
    if L < 4:
        raise ModelTooSmallError(f"Haldane grid needs L >= 4, got {L}")
    grid = make_grid(L, orbitals_per_site=2, ndim=2)
    N = grid.dimension
    H = np.zeros((N, N), dtype=complex)
    # added to zeros, so m = 0 leaves +0.0 on the B diagonal, not -0.0
    H[np.diag_indices(N)] += np.tile((m_stagger, -m_stagger), N // 2)
    for a, b, v, amp in haldane_bonds(t1, t2, phi):
        _hop(H, grid, amp, a, b, v)

    boundary = 3.0 * np.sqrt(3.0) * abs(t2 * np.sin(phi))
    topological = abs(m_stagger) < boundary
    params = {"type": "haldane", "L": L, "t1": t1, "t2": t2, "phi": phi,
              "m": m_stagger, "regime": "topological" if topological else "trivial"}
    return TightBindingModel(grid=grid, H=H, params=params)


def build_disordered_insulator(L, gap, w, seed):
    """Two-level lattice with on-site disorder and weak band-mixing hopping.

    Orbital 0 sits at -gap/2, orbital 1 at +gap/2; independent uniform noise
    in [-w/2, w/2] is added per matrix index.  Nearest-neighbour hopping of
    amplitude gap/32 couples opposite orbitals, so the full hopping block has
    norm at most gap/8 and the spectral gap survives whenever w < gap.
    """
    if L < 4:
        raise ModelTooSmallError(f"disordered grid needs L >= 4, got {L}")
    if w >= gap:
        raise GapClosureRiskError(
            f"disorder w={w} >= gap={gap} risks closing the spectral gap")
    grid = make_grid(L, orbitals_per_site=2, ndim=2)
    N = grid.dimension
    rng = np.random.default_rng(seed)
    onsite = np.where(np.arange(N) % 2 == 0, -gap / 2.0, +gap / 2.0)
    onsite = onsite + rng.uniform(-w / 2.0, w / 2.0, size=N)
    H = np.diag(onsite)
    for v in ((1, 0), (0, 1)):
        _hop(H, grid, gap / 32.0, 0, 1, v)
        _hop(H, grid, gap / 32.0, 1, 0, v)
    params = {"type": "disordered", "L": L, "gap": gap, "w": w, "seed": seed}
    return TightBindingModel(grid=grid, H=H, params=params)


def build_ssh_chain(L, t1, t2):
    """Dimerized chain of L cells (2L sites), both dimer orbitals at one x:
    t1 within a cell, t2 from its orbital 1 to the next cell's orbital 0."""
    if abs(t1) == abs(t2):
        raise GaplessModelError(f"|t1| == |t2| == {abs(t1)} is gapless")
    grid = make_grid(L, orbitals_per_site=2, ndim=1)
    N = grid.dimension
    H = np.zeros((N, N))
    _hop(H, grid, t1, 0, 1, (0, 0))
    _hop(H, grid, t2, 1, 0, (1, 0))
    params = {"type": "ssh", "L": L, "t1": t1, "t2": t2}
    return TightBindingModel(grid=grid, H=H, params=params)


def build_atomic(L, m=1.0):
    """Hopping-free two-level lattice; every projector is diagonal."""
    return build_haldane(L, t1=0.0, t2=0.0, phi=0.0, m_stagger=m)


def position_operators(model):
    """Diagonal X and Y as full matrices (Y is zero for 1-D chains)."""
    grid = model.grid
    X = np.diag(grid.x.astype(float))
    Y = np.diag(grid.y.astype(float))
    return X, Y
