"""The blocked inequality suites of `wanloc verify` against the per-case
loops they replaced, and the calling conventions the blocks rely on."""

import csv
import math

import numpy as np
import pytest

import wanloc as wl
from wanloc import diagnostics
from wanloc.cli import (DECAY_S, INEQUALITY_BLOCK, INEQUALITY_CASES,
                        PROD_SUM_S, PipelineConfig, run_verify)
from wanloc.dichotomy import GeneralizedWannierBasis
from wanloc.io import fmt
from wanloc.lattice import make_grid
from wanloc.spectral import bracket, hermitian_norm

from suite_common import DIS_PARAMS

SUITE_FILES = ("verify_decay_lemma.csv", "verify_prod_sum.csv",
               "verify_schur.csv")


# --- the per-case reference -------------------------------------------------


def decay_reference(v, m, k, s1, s2, grid):
    v = np.asarray(v)
    mask = (grid.x == k[0]) & (grid.y == k[1])
    lhs = float(np.linalg.norm(v[mask]))
    wx = (np.abs(grid.x[mask] - m[0]) + 1.0) ** s1
    wy = (np.abs(grid.y[mask] - m[1]) + 1.0) ** s2
    num = float(np.linalg.norm(wx * wy * v[mask]))
    den = bracket(m[0] - k[0]) ** s1 * bracket(m[1] - k[1]) ** s2
    rhs = 2.0 ** (s1 + s2) * num / den
    return lhs, rhs, bool(lhs <= rhs + 1e-12)


def prod_sum_reference(v, m, s1, s2, grid):
    v = np.asarray(v)
    ax = np.abs(grid.x - m[0]) + 1.0
    ay = np.abs(grid.y - m[1]) + 1.0
    lhs = float(np.linalg.norm(ax ** s1 * ay ** s2 * v))
    rhs = (float(np.linalg.norm(ax ** (s1 + s2) * v))
           + float(np.linalg.norm(ay ** (s1 + s2) * v)))
    return lhs, rhs, bool(lhs <= rhs + 1e-12)


def schur_reference(basis):
    x = basis.grid.x.astype(float)
    W = basis.psi
    K = W.conj().T @ (x[:, None] * W) - np.diag(basis.m1)
    absK = np.abs(K)
    sup_row = float(absK.sum(axis=1).max())
    sup_col = float(absK.sum(axis=0).max())
    return sup_row, sup_col, math.sqrt(sup_row * sup_col), hermitian_norm(K)


def suites_reference(seed, L):
    """The rows of the three suite CSVs from the per-case loops, drawing
    from the same generator in the same block-major order: for each block
    of INEQUALITY_BLOCK cases, one draw per parameter."""
    rng = np.random.default_rng(seed + 1000)
    grid = make_grid(min(L, 8), orbitals_per_site=1, ndim=2)
    n = grid.dimension
    blocks = [range(lo, min(lo + INEQUALITY_BLOCK, INEQUALITY_CASES))
              for lo in range(0, INEQUALITY_CASES, INEQUALITY_BLOCK)]

    def normals(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    decay = []
    for cases in blocks:
        v = normals((len(cases), n))
        mk = rng.integers(-8, 9, size=(len(cases), 4))
        s = DECAY_S[rng.integers(0, len(DECAY_S), size=(len(cases), 2))]
        for b, i in enumerate(cases):
            m, k, (s1, s2) = mk[b, :2], mk[b, 2:], s[b]
            lhs, rhs, ok = decay_reference(v[b], m, k, s1, s2, grid)
            decay.append((i, m[0], m[1], k[0], k[1], s1, s2, lhs, rhs, ok))
    prod_sum = []
    for cases in blocks:
        v = normals((len(cases), n))
        m = rng.uniform(-8.0, 8.0, size=(len(cases), 2))
        s = PROD_SUM_S[rng.integers(0, len(PROD_SUM_S),
                                     size=(len(cases), 2))]
        for b, i in enumerate(cases):
            s1, s2 = s[b]
            lhs, rhs, ok = prod_sum_reference(v[b], m[b], s1, s2, grid)
            prod_sum.append((i, m[b, 0], m[b, 1], s1, s2, lhs, rhs, ok))
    small = make_grid(4, orbitals_per_site=1, ndim=2)
    schur = []
    for cases in blocks:
        ranks = rng.integers(3, 9, size=len(cases))
        A = normals((len(cases), small.dimension, 8))
        m1 = rng.integers(0, 4, size=(len(cases), 8))
        for b, i in enumerate(cases):
            r = int(ranks[b])
            W, _ = np.linalg.qr(A[b, :, :r])
            centers = np.zeros((r, 2))
            centers[:, 0] = m1[b, :r]
            basis = GeneralizedWannierBasis(psi=W, centers=centers, grid=small,
                                            degeneracy=np.ones(r, dtype=int))
            values = schur_reference(basis)
            schur.append((i, r) + values + (values[3] <= values[2] + 1e-9,))
    # per file: the rows and the columns that hold computed values
    return {"verify_decay_lemma.csv": (decay, (7, 8)),
            "verify_prod_sum.csv": (prod_sum, (5, 6)),
            "verify_schur.csv": (schur, (2, 3, 4, 5))}


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))[2:]


# --- agreement ----------------------------------------------------------------


@pytest.mark.parametrize("seed", [7, 301])
def test_blocked_suites_match_per_case_loops(tmp_path, seed):
    cfg = PipelineConfig(model_type="disordered", L=8, model_params=DIS_PARAMS,
                         seed=seed, delta_list=(4.0,), gamma_list=(0.1,),
                         output_dir=str(tmp_path))
    summary, code = run_verify(cfg)
    assert code == 0
    for name, (rows, computed) in suites_reference(seed, cfg.L).items():
        got = read_rows(tmp_path / name)
        assert len(got) == len(rows) == INEQUALITY_CASES
        for g, r in zip(got, rows):
            # case parameters and pass flags: the same cell text
            assert [c for j, c in enumerate(g) if j not in computed] \
                == [fmt(c) for j, c in enumerate(r) if j not in computed]
        np.testing.assert_allclose(
            [[float(g[j]) for j in computed] for g in got],
            [[r[j] for j in computed] for r in rows], rtol=1e-14, atol=0)
    assert summary == {"decay_lemma": 0, "prod_sum_lemma": 0, "schur_bound": 0}


def random_cases(rng, grid, count):
    n = grid.dimension
    v = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    m = rng.integers(-8, 9, size=(count, 2))
    k = rng.integers(0, grid.width, size=(count, 2))
    s = rng.choice((0.0, 0.5, 1.0, 2.5), size=(count, 2))
    return v, m, k, s


def test_block_calls_match_single_case_calls():
    grid = make_grid(6, 2, ndim=2)
    v, m, k, s = random_cases(np.random.default_rng(8), grid, 25)
    for check, args in ((wl.lemma_decay_check, (v, m, k)),
                        (wl.lemma_prod_sum_check, (v, m))):
        lhs, rhs, ok = check(*args, s[:, 0], s[:, 1], grid)
        assert lhs.shape == rhs.shape == ok.shape == (25,)
        for i in range(25):
            one = check(*(a[i] for a in args), s[i, 0], s[i, 1], grid)
            assert one[0] == pytest.approx(lhs[i], rel=1e-14, abs=0)
            assert one[1] == pytest.approx(rhs[i], rel=1e-14, abs=0)
            assert one[2] == ok[i]


def random_bases(rng, grid, ranks):
    psi, m1 = [], []
    for r in ranks:
        A = rng.standard_normal((grid.dimension, r)) \
            + 1j * rng.standard_normal((grid.dimension, r))
        psi.append(np.linalg.qr(A)[0])
        m1.append(rng.integers(0, grid.width, size=r).astype(float))
    return psi, m1


def test_schur_block_stacks_by_rank(monkeypatch):
    grid = make_grid(4, 1, ndim=2)
    ranks = (3, 5, 3, 8, 5, 3)
    psi, m1 = random_bases(np.random.default_rng(9), grid, ranks)
    singles = [wl.schur_row_sums([W], [c], grid) for W, c in zip(psi, m1)]
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    block = wl.schur_row_sums(psi, m1, grid)
    # one stacked eigvalsh per distinct rank, reached through np.linalg
    assert sorted(calls) == [(1, 8, 8), (2, 5, 5), (3, 3, 3)]
    for field in ("sup_row", "sup_col", "bound", "direct_norm"):
        got = getattr(block, field)
        assert got.shape == (len(ranks),)
        np.testing.assert_allclose(got, [getattr(r, field)[0] for r in singles],
                                   rtol=1e-14, atol=0)


def test_qr_prefix_is_the_qr_of_the_leading_columns():
    """`run_verify`'s Schur block takes one QR of its 16 x 8 draws and reads
    the first r columns of Q: Householder QR builds column k of Q from the
    columns <= k of A only, so those are the Q of A[:, :r], bit for bit."""
    rng = np.random.default_rng(12)
    shape = (1000, 16, 8)
    A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    Q = np.linalg.qr(A)[0]
    for r in range(3, 9):
        assert np.array_equal(np.linalg.qr(A[:, :, :r])[0], Q[:, :, :r])


# --- calling conventions ------------------------------------------------------


def test_zero_schur_kernel_gives_exactly_zero():
    """Delta functions at sites whose x is their m1 leave K = 0."""
    grid = make_grid(4, 1, ndim=2)
    sites = [0, 5, 10, 15]
    W = np.eye(grid.dimension, dtype=complex)[:, sites]
    m1 = grid.x[sites].astype(float)
    rep = wl.schur_row_sums([W], [m1], grid)
    assert (rep.sup_row[0], rep.sup_col[0], rep.bound[0],
            rep.direct_norm[0]) == (0.0, 0.0, 0.0, 0.0)
    block = wl.schur_row_sums([W, W[:, :3]], [m1, m1[:3]], grid)
    for field in ("sup_row", "sup_col", "bound", "direct_norm"):
        assert np.array_equal(getattr(block, field), [0.0, 0.0])


def test_verify_calls_each_check_once_per_block(tmp_path, monkeypatch):
    """The checks are reached through the `diagnostics` module attribute,
    one call per block, so a rebinding of that attribute sees each block."""
    blocks = {}

    def counted(name):
        check = getattr(diagnostics, name)

        def wrapper(first, *args):
            blocks.setdefault(name, []).append(len(first))
            return check(first, *args)

        return wrapper

    for name in ("lemma_decay_check", "lemma_prod_sum_check",
                 "schur_row_sums"):
        monkeypatch.setattr(diagnostics, name, counted(name))
    cfg = PipelineConfig(model_type="atomic", L=6, model_params={"m": 1.0},
                         seed=0, output_dir=str(tmp_path))
    summary, code = run_verify(cfg)
    assert code == 0
    n_blocks = -(-INEQUALITY_CASES // INEQUALITY_BLOCK)
    assert set(blocks) == {"lemma_decay_check", "lemma_prod_sum_check",
                           "schur_row_sums"}
    for sizes in blocks.values():
        assert len(sizes) == n_blocks
        assert sum(sizes) == INEQUALITY_CASES
    for name in SUITE_FILES:
        assert len(read_rows(tmp_path / name)) == INEQUALITY_CASES


# --- the drawn cases ----------------------------------------------------------


def _atomic_verify(out_dir, seed):
    cfg = PipelineConfig(model_type="atomic", L=6, model_params={"m": 1.0},
                         seed=seed, output_dir=str(out_dir))
    assert run_verify(cfg)[1] == 0


def test_suite_cases_are_fixed_by_the_seed(tmp_path):
    """One seed writes the same suite files byte for byte; another seed
    draws other cases."""
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        _atomic_verify(tmp_path / name, seed)
    for suite in SUITE_FILES:
        a, b, c = ((tmp_path / d / suite).read_bytes() for d in "abc")
        assert a == b
        # the rows, past the metadata line that names the seed
        assert a.split(b"\n", 1)[1] != c.split(b"\n", 1)[1]


def test_suite_cases_cover_their_documented_ranges(tmp_path, monkeypatch):
    """Every drawn parameter lies in its range, and at 1000 cases every
    value of a discrete range is drawn: decay m, k in [-8, 8] and s in
    DECAY_S; prod-sum m in [-8, 8) and s in PROD_SUM_S; Schur rank in
    [3, 8] with one centre row m1 in {0, ..., 3} per basis function."""
    m1s = []    # the centre rows of every Schur case, as the check gets them
    schur_row_sums = diagnostics.schur_row_sums

    def spy(psi, m1, grid):
        m1s.extend(m1)
        return schur_row_sums(psi, m1, grid)

    monkeypatch.setattr(diagnostics, "schur_row_sums", spy)
    _atomic_verify(tmp_path, 0)

    def columns(name, *cols):
        with open(tmp_path / name) as fh:
            rows = list(csv.DictReader(fh.readlines()[1:]))
        assert len(rows) == INEQUALITY_CASES
        return [np.array([float(r[c]) for r in rows]) for c in cols]

    for col in columns("verify_decay_lemma.csv", "m1", "m2", "k1", "k2"):
        assert set(col) == set(range(-8, 9))
    for col in columns("verify_decay_lemma.csv", "s1", "s2"):
        assert set(col) == set(DECAY_S)
    for col in columns("verify_prod_sum.csv", "m1", "m2"):
        assert np.all((col >= -8.0) & (col < 8.0))
        assert col.min() < -7.5 and col.max() > 7.5
    for col in columns("verify_prod_sum.csv", "s1", "s2"):
        assert set(col) == set(PROD_SUM_S)
    (ranks,) = columns("verify_schur.csv", "rank")
    assert set(ranks) == set(range(3, 9))
    assert [len(m1) for m1 in m1s] == ranks.tolist()
    assert set(np.concatenate(m1s)) == {0, 1, 2, 3}
