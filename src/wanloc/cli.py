"""Config-driven orchestration: the full localization pipeline, the
verification suites, and Chern-marker runs, with deterministic file outputs.

Config files are flat INI text (bracketed section headers, key = value
lines).  All randomness is seeded from the config; outputs are byte
identical across runs with the same config.
"""

import argparse
import configparser
import math
import os
import sys
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from . import diagnostics, io
# projected_spectrum and position_operators are unused here: they stay for
# the perfbench/tracing.py bindings wanloc.cli:projected_spectrum and
# wanloc.cli:position_operators
from .dichotomy import (GapStructure, check_bounded_density, detect_uniform_gaps,
                        GeneralizedWannierBasis, attach_moments, band_projectors,
                        fix_phases, hermitian_eigh, initial_basis,
                        projected_spectrum, relabel_to_lattice,
                        strip_localization_check, wannierize_band)
from .errors import ConfigError, WanlocError, WindowTooLargeError
from .lattice import (build_atomic, build_disordered_insulator, build_haldane,
                      build_ssh_chain, make_grid, position_operators)
from .spectral import (InsufficientRangeError, eigh_projector,
                       fermi_projector, kernel_decay_fit, projector_operand)
from .xhat import (FilterSpec, build_xhat, build_xtilde, certificate_coupling,
                   check_spans_range, closeness_norm, gap_certificate,
                   gap_distance, gap_midpoints, tilt_lipschitz, xhat_slabs)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INEQUALITY = 3
EXIT_VERDICT = 4
EXIT_RUNTIME = 5

VERDICT_OK = "exponential-basis-constructed"
VERDICT_CERT = "certificate-failed"
VERDICT_GAPS = "gap-detection-failed"
VERDICT_FIT = "fit-failed"
VERDICT_ERROR = "stage-error"

FIT_R2_MIN = 0.9

# each inequality suite of `verify` draws and checks INEQUALITY_CASES cases
# INEQUALITY_BLOCK at a time: one generator call per parameter and one
# check call per block, not per case, while the arrays of a block stay
# small (one stack of all the Schur cases raises the peak RSS of a verify
# call by about 6%)
INEQUALITY_CASES = 1000
INEQUALITY_BLOCK = 100
# the exponents s1, s2 each lemma case draws from
DECAY_S = np.array((0.5, 1.0, 2.5))
PROD_SUM_S = np.array((0.0, 0.5, 1.0, 2.5))


# each model type: its [model] parameters with their defaults (every type also
# accepts `seed`), and its builder, looked up at call time for the tracer
MODELS = {
    "haldane": ({"t1": 1.0, "t2": 0.0, "phi": 0.0, "m": 1.0},
                lambda L, seed, p: build_haldane(L, p["t1"], p["t2"], p["phi"],
                                                 p["m"])),
    "disordered": ({"gap": 2.0, "w": 0.5},
                   lambda L, seed, p: build_disordered_insulator(
                       L, p["gap"], p["w"], seed)),
    "ssh": ({"t1": 1.0, "t2": 0.5},
            lambda L, seed, p: build_ssh_chain(L, p["t1"], p["t2"])),
    "atomic": ({"m": 1.0}, lambda L, seed, p: build_atomic(L, p["m"])),
}


@dataclass
class PipelineConfig:
    """The settings of one run, checked when the config is built
    (`dataclasses.replace` included): a bad value raises ConfigError."""

    model_type: str
    L: int
    model_params: dict
    seed: int
    fermi_energy: float = 0.0
    basis_mode: str = "columns"
    s_grid: tuple = (1.0, 2.0, 2.5, 3.0)
    delta_list: tuple = (4.0, 8.0, 16.0)
    gamma_list: tuple = (0.025, 0.05, 0.1, 0.2)
    d_min: float = 0.25
    d_max: float = 0.5
    chern_windows: tuple = ()
    output_dir: str = "out"

    def __post_init__(self):
        if self.model_type not in MODELS:
            raise ConfigError(f"unknown model type {self.model_type!r}")
        unread = sorted(set(self.model_params)
                        - set(MODELS[self.model_type][0]))
        if unread:
            raise ConfigError(f"model {self.model_type!r} does not read "
                              f"{', '.join(unread)}")
        numbers = dict(self.model_params, fermi_energy=self.fermi_energy,
                       s_grid=self.s_grid, delta_list=self.delta_list,
                       gamma_list=self.gamma_list, d_min=self.d_min,
                       d_max=self.d_max)
        bad = [k for k, v in numbers.items() if not np.all(np.isfinite(v))]
        if bad:
            raise ConfigError(f"non-finite value of {', '.join(bad)}")
        if self.model_params.get("w", 0.0) < 0:
            raise ConfigError(f"w must be >= 0, got {self.model_params['w']}")
        if self.d_min <= 0:
            raise ConfigError(f"d_min must be > 0, got {self.d_min}")
        if self.L < 4:
            raise ConfigError(f"L must be >= 4, got {self.L}")
        for name in ("s_grid", "delta_list", "gamma_list"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be nonempty")
        if min(self.delta_list) < 2.0:
            raise ConfigError("every Delta must be >= 2")
        if min(self.gamma_list) < 0.0:
            raise ConfigError("every gamma must be >= 0")
        if self.basis_mode not in ("columns", "pxp-eigen"):
            raise ConfigError(f"unknown basis mode {self.basis_mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if any(w < 1 for w in self.chern_windows):
            raise ConfigError("every Chern window must be >= 1")
        if max(self.chern_windows, default=0) > self.L / 4.0:
            raise WindowTooLargeError(
                f"Chern window {max(self.chern_windows)} leaves margin < L/4 "
                f"on an L={self.L} sample")


def _floats(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _windows(text):
    windows = _floats(text)
    if not all(w.is_integer() for w in windows):
        raise ConfigError(f"Chern windows must be integers, got {windows}")
    return tuple(int(w) for w in windows)


# the parser of each [pipeline] key; an absent key keeps its default
PIPELINE_PARSERS = {"fermi_energy": float, "basis_mode": str, "s_grid": _floats,
                    "delta_list": _floats, "gamma_list": _floats,
                    "d_min": float, "d_max": float, "chern_windows": _windows,
                    "output_dir": str}


def parse_config(path) -> PipelineConfig:
    """The config of an INI file.  Text that does not parse (a
    duplicate option or section, no section header, a line without `=`, a
    bare `%`, bytes that are not UTF-8), a missing key and a bad value are
    all a ConfigError."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        if "model" not in parser or not dict(parser["model"]):
            raise ConfigError("config needs a nonempty [model] section")
        model = dict(parser["model"])
        pipe = dict(parser["pipeline"]) if "pipeline" in parser else {}
        unknown = sorted(set(pipe) - set(PIPELINE_PARSERS))
        if unknown:
            raise ConfigError(f"unknown [pipeline] key {', '.join(unknown)}")
        model_type = model.pop("type")
        L = int(model.pop("l"))
        seed = int(model.pop("seed", "0"))
        params = {k: float(v) for k, v in model.items()}
        options = {k: PIPELINE_PARSERS[k](v) for k, v in pipe.items()}
    # a UnicodeDecodeError is a ValueError
    except (configparser.Error, KeyError, ValueError) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc
    return PipelineConfig(model_type=model_type, L=L, model_params=params,
                          seed=seed, **options)


def build_model(cfg: PipelineConfig):
    defaults, build = MODELS[cfg.model_type]
    return build(cfg.L, cfg.seed, {**defaults, **cfg.model_params})


@dataclass
class RunReport:
    verdict: str = VERDICT_ERROR
    stages: dict = field(default_factory=dict)
    chosen_delta: float | None = None
    model: object = None
    projector: object = None
    decay: object = None
    basis_initial: object = None
    bounded_density: int | None = None
    xtilde: object = None
    certificates: list = field(default_factory=list)
    gaps: object = None
    bands: object = None
    strips: list = field(default_factory=list)
    basis_final: object = None
    final_fits: list = field(default_factory=list)
    chern: list = field(default_factory=list)


# the columns of certificates.csv and verify_certificates.csv, one row per
# `GapCertificate`, its fields in order
CERTIFICATE_COLUMNS = ("lambda", "delta", "snorm", "min_gap_distance", "pass")

# every file `write_run` may write, in the order it writes them
PIPELINE_FILES = ("hamiltonian.wdmx", "decay.csv", "basis_initial.csv",
                  "basis_initial.wdmx", "certificates.csv", "xhat.wdmx",
                  "gaps.csv", "strips.csv", "basis_final.csv",
                  "basis_final.wdmx", "chern.csv", "report.csv")


def _default_anchors(grid):
    """The centre of the box `grid.shape`, and the centre moved by -off and
    +off, off = max(L_a // 4, 1) clipped to the centre of each axis: a
    chain's anchors lie on the chain."""
    shape = np.array(grid.shape)
    c = (shape - 1) / 2.0
    off = np.minimum(np.maximum(shape // 4, 1), c)
    return [c, c - off, c + off]


def _chern_reports(cfg, P):
    """Chern markers at the configured windows, by default at L/8 and L/4."""
    width = P.grid.width
    windows = cfg.chern_windows or (max(width // 8, 1), width // 4)
    return diagnostics.chern_marker(P, sorted(set(windows)))


def _delta_step(xt, delta, lambdas, keep_vectors=True):
    """The spectrum of P X-hat P at one width, with its n x n eigenvectors
    U in W coordinates, and the certificates at `lambdas`, all from one
    K = W^H (X-hat - X-tilde) W.  `build_xtilde` checked that the
    surrogate's basis W spans range(P), so W^H X-tilde W = diag(m1) and
    diag(m1) + K is P X-hat P in W coordinates; the band vectors are
    fix_phases(W U), formed only at the width the run keeps.  The
    certificate norms come first: U is computed only when every certificate
    passes, the one case in which a run can keep the width, and when
    `keep_vectors` asks for it; it is None otherwise.  K is taken from the
    filter defect, so the step forms no N x N array: X-hat itself is left
    to the callers that read it (`write_run` a row slab at a time,
    `run_verify` whole)."""
    K = certificate_coupling(xt, FilterSpec(delta))
    m1 = xt.basis.m1
    certs = [gap_certificate(K, m1, lam, delta) for lam in lambdas]
    spectrum, U = hermitian_eigh(
        np.diag(m1) + K, vectors=keep_vectors and all(c.passed for c in certs))
    certs = [replace(c, min_gap_distance=gap_distance(spectrum, c.lam))
             for c in certs]
    return spectrum, U, certs


def _fit_passes(fit):
    if fit is None:
        return False
    if fit.flag == "compact-support":
        return True
    return fit.gamma > 0 and fit.r_squared >= FIT_R2_MIN


def _surrogate_stages(cfg, report):
    """Model -> P -> decay fit -> labelled basis (density, moments) -> X-tilde,
    each recorded into `report`; a failing stage raises its WanlocError."""
    stages = report.stages
    report.model = model = build_model(cfg)
    stages["model"] = f"ok dim={model.grid.dimension}"
    report.projector = P = fermi_projector(model, cfg.fermi_energy)
    stages["projector"] = f"ok rank={P.rank} gap={P.gap:.6g}"
    try:
        report.decay = decay = kernel_decay_fit(P)
        stages["decay"] = f"ok gamma={decay.gamma:.6g} r2={decay.r_squared:.6g}"
    except InsufficientRangeError as exc:
        stages["decay"] = f"skipped ({exc})"
    basis = initial_basis(P, mode=cfg.basis_mode)
    report.bounded_density = check_bounded_density(basis.centers, model.grid)
    report.basis_initial = basis = attach_moments(relabel_to_lattice(basis),
                                                  cfg.s_grid)
    stages["basis"] = (f"ok n={basis.n_functions} M={report.bounded_density} "
                       f"Msq={basis.max_degeneracy}")
    report.xtilde = build_xtilde(basis, P)
    stages["xtilde"] = "ok integer-spectrum"


def construct(cfg: PipelineConfig) -> RunReport:
    """Model -> P -> basis -> surrogate -> certificates -> bands -> fits, in
    memory: writes nothing.  The final basis is checked by
    `check_spans_range`, whose two defects its `wannierize` stage records.
    A failed check raises a WanlocError, which ends the run as `stage-error`
    with an `error` stage that names it; what the run built stays on the
    report, a rejected final basis included."""
    report = RunReport()
    stages = report.stages
    try:
        _surrogate_stages(cfg, report)
        grid, xt = report.model.grid, report.xtilde
        lambdas = gap_midpoints(0.0, grid.width - 1.0)
        for delta in cfg.delta_list:
            spectrum, U, certs = _delta_step(xt, delta, lambdas)
            report.certificates.extend(certs)
            gaps = detect_uniform_gaps(spectrum, cfg.d_min, cfg.d_max)
            cert_ok = all(c.passed for c in certs)
            gaps_ok = isinstance(gaps, GapStructure)
            stages[f"delta={delta:g}"] = (
                f"certificates={'ok' if cert_ok else 'failed'} "
                f"gaps={'ok' if gaps_ok else 'failed: ' + gaps.reason}")
            if cert_ok and gaps_ok:
                break
        else:
            report.verdict = VERDICT_GAPS if cert_ok else VERDICT_CERT
            return report
        report.chosen_delta, report.gaps = delta, gaps

        report.bands = bands = band_projectors(fix_phases(xt.basis.psi @ U),
                                               gaps, grid)
        stages["bands"] = f"ok n={len(bands.vectors)} d={gaps.d:.6g} D={gaps.D:.6g}"

        anchors = _default_anchors(grid)
        gamma0 = min(cfg.gamma_list)
        vec_blocks, ctr_blocks = [], []
        for j, Vj in enumerate(bands.vectors):
            xi_j = float(gaps.xi[j])
            report.strips.append((j, gamma0) + strip_localization_check(
                Vj, xi_j, grid, gamma0, anchors))
            vecs, ctrs = wannierize_band(Vj, grid.y, xi_j)
            vec_blocks.append(vecs)
            ctr_blocks.append(ctrs)
            # fitted band by band: the fits' temporaries stay N x rank
            report.final_fits.extend(
                diagnostics.fit_exponentials(vecs, ctrs, grid))
        stages["strips"] = "ok"
        report.basis_final = final = GeneralizedWannierBasis(
            psi=np.hstack(vec_blocks), centers=np.vstack(ctr_blocks), grid=grid)
        ortho, complete = check_spans_range(final.psi, report.projector)
        stages["wannierize"] = f"ok ortho={ortho:.3e} complete={complete:.3e}"

        all_fits_ok = all(_fit_passes(f) for f in report.final_fits)
        stages["fits"] = "ok" if all_fits_ok else "failed"

        if grid.ndim == 2:
            report.chern = _chern_reports(cfg, report.projector)
            stages["chern"] = " ".join(f"C(w={r.window})={r.value:.4f}"
                                       for r in report.chern)

        report.verdict = VERDICT_OK if all_fits_ok else VERDICT_FIT
    except WanlocError as exc:
        stages["error"] = f"{type(exc).__name__}: {exc}"
    return report


def _prepare_output(cfg: PipelineConfig, out_dir=None):
    """The directory a run writes into, `out_dir` or the config's, and the
    metadata of its csv files.  An empty path, or one that is or lies under
    an existing non-directory, is a ConfigError.  Nothing is made here: the
    writers in `io` make the directory with its first file, so a run that
    stops before writing leaves nothing behind."""
    out = cfg.output_dir if out_dir is None else out_dir
    if not out:
        raise ConfigError("empty output path")
    existing = os.path.abspath(out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"output path {out}: {existing} is not a directory")
    return out, {"model": cfg.model_type, "seed": cfg.seed, "L": cfg.L,
                 "Delta": 0}


def write_run(report: RunReport, cfg: PipelineConfig, out_dir=None):
    """Write into `out_dir` (default: the config's) the files of the stages
    `report` reached, report.csv last, after removing the PIPELINE_FILES an
    earlier run left there."""
    out, meta = _prepare_output(cfg, out_dir)
    for name in PIPELINE_FILES:
        path = os.path.join(out, name)
        if os.path.isfile(path):
            os.remove(path)

    def csv(name, header, rows):
        io.write_csv(os.path.join(out, name), header, rows, meta)

    if "model" in report.stages:
        io.write_matrix(os.path.join(out, "hamiltonian.wdmx"), report.model.H)
    if "decay" in report.stages:
        d = report.decay
        csv("decay.csv", ("model_id", "C", "gamma", "r_squared", "samples"),
            [(cfg.model_type, d.C, d.gamma, d.r_squared, d.samples)] if d else [])
    if "basis" in report.stages:
        basis = report.basis_initial
        rows = [[k, *m, j] + [basis.moments[float(s)][k] for s in cfg.s_grid]
                for k, (m, j) in enumerate(zip(basis.centers.astype(int).tolist(),
                                               basis.degeneracy.tolist()))]
        csv("basis_initial.csv", ["alpha", "m1", "m2", "j"]
            + [f"moment_s{s:g}" for s in cfg.s_grid], rows)
        io.write_matrix(os.path.join(out, "basis_initial.wdmx"), basis.psi)
    # the Delta loop ran to its end: it chose a width or every width failed
    if report.chosen_delta is not None or report.verdict in (VERDICT_CERT,
                                                             VERDICT_GAPS):
        csv("certificates.csv", CERTIFICATE_COLUMNS,
            [astuple(c) for c in report.certificates])
    # the files from the chosen width on carry its Delta; X-hat at that
    # width is written from X-tilde a row slab at a time, never formed whole
    if report.chosen_delta is not None:
        meta["Delta"] = report.chosen_delta
        xt = report.xtilde
        io.write_rows(os.path.join(out, "xhat.wdmx"), xt.matrix.shape,
                      xhat_slabs(xt, FilterSpec(report.chosen_delta)))
    if "bands" in report.stages:
        gaps, bands = report.gaps, report.bands
        rows = [(j, lo, hi, float(gaps.xi[j]), V.shape[1],
                 prof.gamma if prof else math.nan,
                 prof.r_squared if prof else math.nan)
                for j, ((lo, hi), V, prof) in enumerate(zip(
                    gaps.intervals, bands.vectors, bands.decay_profiles))]
        csv("gaps.csv", ("band_id", "sigma_lo", "sigma_hi", "xi", "rank",
                         "decay_gamma", "r2"), rows)
    if "strips" in report.stages:
        csv("strips.csv", ("band_id", "gamma", "norm_left", "norm_right"),
            report.strips)
    if "fits" in report.stages:
        final = report.basis_final
        band_of = [j for j, V in enumerate(report.bands.vectors)
                   for _ in range(V.shape[1])]
        rows = [(k, j, *final.centers[k], fit.gamma if fit else math.nan,
                 fit.r_squared if fit else math.nan,
                 "unfit" if fit is None else (fit.flag or ""), _fit_passes(fit))
                for k, (j, fit) in enumerate(zip(band_of, report.final_fits))]
        csv("basis_final.csv", ("alpha", "band_id", "xi", "eta", "gamma", "r2",
                                "flag", "pass"), rows)
        io.write_matrix(os.path.join(out, "basis_final.wdmx"), final.psi)
    if "chern" in report.stages:
        csv("chern.csv", ("window", "value", "imag_residual", "trace_terms"),
            [astuple(r) for r in report.chern])
    csv("report.csv", ("stage", "outcome"),
        list(report.stages.items()) + [("verdict", report.verdict)])


def run_pipeline(cfg: PipelineConfig, out_dir=None) -> RunReport:
    """`construct`, then `write_run` into `out_dir` (default: the config's),
    whose path is checked before the construction starts."""
    _prepare_output(cfg, out_dir)
    report = construct(cfg)
    write_run(report, cfg, out_dir)
    return report


def _inequality_suite(path, header, block, meta):
    """Check INEQUALITY_CASES cases INEQUALITY_BLOCK at a time.  `block(size)`
    draws the next `size` cases, checks them and returns the row columns of
    that block, each an array with a leading case axis, the pass flags last;
    a scalar stands for its whole block.  Writes one row per case; returns
    the number of failures."""
    blocks = []
    for lo in range(0, INEQUALITY_CASES, INEQUALITY_BLOCK):
        size = min(INEQUALITY_BLOCK, INEQUALITY_CASES - lo)
        blocks.append([np.broadcast_to(c, size) for c in block(size)])
    *columns, ok = (np.concatenate(c) for c in zip(*blocks))
    rows = zip(range(INEQUALITY_CASES), *(c.tolist() for c in columns),
               ok.tolist())
    io.write_csv(path, ("case",) + header + ("pass",), rows, meta)
    return int(np.count_nonzero(~ok))


def run_verify(cfg: PipelineConfig, out_dir=None):
    """Randomized inequality suites plus tilt/closeness/certificate sweeps.

    Returns (summary dict, exit code); the exit code is nonzero only when a
    proven inequality fails an instance.
    """
    out, meta = _prepare_output(cfg, out_dir)
    summary = {}

    rng = np.random.default_rng(cfg.seed + 1000)
    grid = make_grid(min(cfg.L, 8), orbitals_per_site=1, ndim=2)
    n = grid.dimension

    # each draw is one generator call per parameter for a whole block, so
    # the stream is block-major: all of a block's v, then its m, then its s
    def normals(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def draw_s(choices, size):
        # the exponents (s1, s2) of each case, uniform over `choices`
        return choices[rng.integers(0, len(choices), size=(size, 2))]

    def decay_block(size):
        v = normals((size, n))
        # the columns of the integer draw are m1, m2, k1, k2
        mk = rng.integers(-8, 9, size=(size, 4))
        s = draw_s(DECAY_S, size)
        return (*mk.T, *s.T, *diagnostics.lemma_decay_check(
            v, mk[:, :2], mk[:, 2:], s[:, 0], s[:, 1], grid))

    summary["decay_lemma"] = _inequality_suite(
        os.path.join(out, "verify_decay_lemma.csv"),
        ("m1", "m2", "k1", "k2", "s1", "s2", "lhs", "rhs"), decay_block, meta)

    def prod_sum_block(size):
        v = normals((size, n))
        m = rng.uniform(-8.0, 8.0, size=(size, 2))
        s = draw_s(PROD_SUM_S, size)
        return (*m.T, *s.T, *diagnostics.lemma_prod_sum_check(
            v, m, s[:, 0], s[:, 1], grid))

    summary["prod_sum_lemma"] = _inequality_suite(
        os.path.join(out, "verify_prod_sum.csv"),
        ("m1", "m2", "s1", "s2", "lhs", "rhs"), prod_sum_block, meta)

    small = make_grid(4, orbitals_per_site=1, ndim=2)
    r_max = 8

    def schur_block(size):
        # drawn at rank r_max so that a block is one array; a case of rank
        # r reads the first r columns of Q and entries of m1.  Householder
        # QR builds column k of Q from columns <= k of A, so those are the
        # Q of A[:, :r]
        r = rng.integers(3, r_max + 1, size=size)
        A = normals((size, small.dimension, r_max))
        m1 = rng.integers(0, 4, size=(size, r_max))
        Q = np.linalg.qr(A)[0]
        rep = diagnostics.schur_row_sums(
            [q[:, :k] for q, k in zip(Q, r)], [c[:k] for c, k in zip(m1, r)],
            small)
        return (r, rep.sup_row, rep.sup_col, rep.bound, rep.direct_norm,
                rep.direct_norm <= rep.bound + 1e-9)

    summary["schur_bound"] = _inequality_suite(
        os.path.join(out, "verify_schur.csv"),
        ("rank", "sup_row", "sup_col", "bound", "direct_norm"), schur_block,
        meta)

    core = RunReport()
    _surrogate_stages(cfg, core)
    xt = core.xtilde
    grid_m = xt.grid
    anchors = _default_anchors(grid_m)
    lambdas = gap_midpoints(0.0, grid_m.width - 1.0)

    cert_rows, close_rows, tilt_rows = [], [], []
    for delta in cfg.delta_list:
        _, _, certs = _delta_step(xt, delta, lambdas, keep_vectors=False)
        xh = build_xhat(xt, FilterSpec(delta))
        cert_rows.extend(map(astuple, certs))
        close_rows.append((delta, closeness_norm(xh, grid_m.x)))
        _, rows = tilt_lipschitz(xh, cfg.gamma_list, anchors, grid_m)
        tilt_rows.extend((delta,) + r for r in rows)
    io.write_csv(os.path.join(out, "verify_certificates.csv"),
                 CERTIFICATE_COLUMNS, cert_rows, meta)
    io.write_csv(os.path.join(out, "verify_closeness.csv"),
                 ("delta", "norm"), close_rows, meta)
    io.write_csv(os.path.join(out, "verify_tilt.csv"),
                 ("delta", "gamma", "anchor_x", "anchor_y", "norm", "ratio"),
                 tilt_rows, meta)

    io.write_csv(os.path.join(out, "verify_sqrt_bounds.csv"),
                 ("lambda", "s_p_bplus", "bplus_p_s", "sinv_p_bminus",
                  "bminus_p_sinv", "sqrt_diff"),
                 diagnostics.sqrt_bound_survey(xt, lambdas), meta)
    io.write_csv(os.path.join(out, "verify_comm_bounds.csv"),
                 ("lambda", "comm_x", "comm_y", "weighted_sum_sup"),
                 diagnostics.tilted_comm_survey(xt, lambdas), meta)

    io.write_csv(os.path.join(out, "verify_summary.csv"),
                 ("suite", "failures", "pass"),
                 [(k, v, v == 0) for k, v in summary.items()], meta)
    code = EXIT_OK if all(v == 0 for v in summary.values()) else EXIT_INEQUALITY
    return summary, code


def run_chern(cfg: PipelineConfig, out_dir=None):
    """Chern marker at the requested windows, with the k-space oracle when
    the model has a periodic Bloch bulk (Haldane family)."""
    out, meta = _prepare_output(cfg, out_dir)
    model = build_model(cfg)
    if model.grid.ndim != 2:
        raise ConfigError("chern requires a 2-D model")
    grid, p = model.grid, model.params
    A, mirror = projector_operand(model)
    # nothing reads H from here on: on the mirror path dropping the model
    # frees the complex H before eigh allocates its buffers
    del model
    P = eigh_projector(A, mirror, grid, cfg.fermi_energy)
    oracle = ""
    if cfg.model_type in ("haldane", "atomic"):
        oracle = diagnostics.chern_number_kspace(p["t1"], p["t2"], p["phi"],
                                                 p["m"])
    reports = _chern_reports(cfg, P)
    rows = [astuple(r) + (oracle,) for r in reports]
    io.write_csv(os.path.join(out, "chern.csv"),
                 ("window", "value", "imag_residual", "trace_terms", "oracle"),
                 rows, meta)
    return reports, oracle


def run_model_dump(cfg: PipelineConfig, out_dir=None):
    out, _ = _prepare_output(cfg, out_dir)
    model = build_model(cfg)
    io.write_matrix(os.path.join(out, "hamiltonian.wdmx"), model.H)
    return model


def main(argv=None):
    parser = argparse.ArgumentParser(prog="wanloc")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("pipeline", "verify", "chern", "model"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.command == "pipeline":
            report = run_pipeline(cfg, out_dir=args.out)
            print(f"verdict: {report.verdict}")
            return EXIT_OK if report.verdict == VERDICT_OK else EXIT_VERDICT
        if args.command == "verify":
            summary, code = run_verify(cfg, out_dir=args.out)
            for suite, fails in summary.items():
                print(f"{suite}: {'PASS' if fails == 0 else f'{fails} failures'}")
            return code
        if args.command == "chern":
            reports, oracle = run_chern(cfg, out_dir=args.out)
            for rep in reports:
                print(f"C(window={rep.window}) = {rep.value:.6f}")
            if oracle != "":
                print(f"k-space oracle: {oracle}")
            return EXIT_OK
        if args.command == "model":
            model = run_model_dump(cfg, out_dir=args.out)
            print(f"dumped H: dimension {model.grid.dimension}")
            return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WanlocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
