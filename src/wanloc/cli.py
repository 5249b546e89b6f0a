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
from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics, io
# projected_spectrum and position_operators are unused here: they stay for
# the perfbench/tracing.py bindings wanloc.cli:projected_spectrum and
# wanloc.cli:position_operators
from .dichotomy import (GapStructure, check_bounded_density, detect_uniform_gaps,
                        GeneralizedWannierBasis, attach_moments, band_projectors,
                        initial_basis, lifted_eigenpairs, projected_spectrum,
                        relabel_to_lattice, strip_localization_check,
                        wannierize_band)
from .errors import ConfigError, WanlocError
from .lattice import (build_atomic, build_disordered_insulator, build_haldane,
                      build_ssh_chain, make_grid, position_operators)
from .spectral import InsufficientRangeError, fermi_projector, kernel_decay_fit
from .xhat import (FilterSpec, build_xhat, build_xtilde, certificate_coupling,
                   closeness_norm, gap_certificate, gap_midpoints,
                   tilt_lipschitz)

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


# the [model] parameters each model type reads; every type accepts `seed`
MODEL_PARAMS = {"haldane": ("t1", "t2", "phi", "m"), "disordered": ("gap", "w"),
                "ssh": ("t1", "t2"), "atomic": ("m",)}
PIPELINE_KEYS = ("fermi_energy", "basis_mode", "s_grid", "delta_list",
                 "gamma_list", "d_min", "d_max", "chern_windows", "output_dir")


@dataclass
class PipelineConfig:
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

    def validate(self):
        if self.model_type not in MODEL_PARAMS:
            raise ConfigError(f"unknown model type {self.model_type!r}")
        unread = sorted(set(self.model_params)
                        - set(MODEL_PARAMS[self.model_type]))
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
        if self.d_min <= 0:
            raise ConfigError(f"d_min must be > 0, got {self.d_min}")
        if self.L < 4:
            raise ConfigError(f"L must be >= 4, got {self.L}")
        for name in ("s_grid", "delta_list", "gamma_list"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be nonempty")
        if min(self.delta_list) < 2.0:
            raise ConfigError("every Delta must be >= 2")
        if self.basis_mode not in ("columns", "pxp-eigen"):
            raise ConfigError(f"unknown basis mode {self.basis_mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if any(w < 1 for w in self.chern_windows):
            raise ConfigError("every Chern window must be >= 1")
        return self


def _floats(text):
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def parse_config(path) -> PipelineConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if "model" not in parser or not dict(parser["model"]):
        raise ConfigError("config needs a nonempty [model] section")
    model = dict(parser["model"])
    pipe = dict(parser["pipeline"]) if "pipeline" in parser else {}
    unknown = sorted(set(pipe) - set(PIPELINE_KEYS))
    if unknown:
        raise ConfigError(f"unknown [pipeline] key {', '.join(unknown)}")
    try:
        model_type = model.pop("type")
        L = int(model.pop("l"))
        seed = int(model.pop("seed", "0"))
        params = {k: float(v) for k, v in model.items()}
        windows = _floats(pipe.get("chern_windows", ""))
        if not all(w.is_integer() for w in windows):
            raise ConfigError(f"Chern windows must be integers, got {windows}")
        cfg = PipelineConfig(
            model_type=model_type, L=L, model_params=params, seed=seed,
            fermi_energy=float(pipe.get("fermi_energy", "0.0")),
            basis_mode=pipe.get("basis_mode", "columns"),
            s_grid=_floats(pipe.get("s_grid", "1.0 2.0 2.5 3.0")),
            delta_list=_floats(pipe.get("delta_list", "4 8 16")),
            gamma_list=_floats(pipe.get("gamma_list", "0.025 0.05 0.1 0.2")),
            d_min=float(pipe.get("d_min", "0.25")),
            d_max=float(pipe.get("d_max", "0.5")),
            chern_windows=tuple(int(w) for w in windows),
            output_dir=pipe.get("output_dir", "out"),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc
    return cfg.validate()


def build_model(cfg: PipelineConfig):
    p = cfg.model_params
    if cfg.model_type == "haldane":
        return build_haldane(cfg.L, t1=p.get("t1", 1.0), t2=p.get("t2", 0.0),
                             phi=p.get("phi", 0.0), m_stagger=p.get("m", 1.0))
    if cfg.model_type == "disordered":
        return build_disordered_insulator(cfg.L, gap=p.get("gap", 2.0),
                                          w=p.get("w", 0.5), seed=cfg.seed)
    if cfg.model_type == "ssh":
        return build_ssh_chain(cfg.L, t1=p.get("t1", 1.0), t2=p.get("t2", 0.5))
    if cfg.model_type == "atomic":
        return build_atomic(cfg.L, m=p.get("m", 1.0))
    raise ConfigError(f"unknown model type {cfg.model_type!r}")


@dataclass
class RunReport:
    verdict: str
    stages: dict
    chosen_delta: float | None = None
    projector: object = None
    decay: object = None
    basis_initial: object = None
    bounded_density: int | None = None
    certificates: list = field(default_factory=list)
    gaps: object = None
    bands: object = None
    basis_final: object = None
    final_fits: list = field(default_factory=list)
    chern: list = field(default_factory=list)


def _default_anchors(grid):
    c = (grid.width - 1) / 2.0
    off = max(grid.width // 4, 1)
    return [(c, c), (c - off, c - off), (c + off, c + off)]


def _chern_reports(cfg, P):
    """Chern markers at the configured windows, by default at L/8 and L/4."""
    width = P.grid.width
    windows = cfg.chern_windows or (max(width // 8, 1), width // 4)
    return [diagnostics.chern_marker(P, w) for w in sorted(set(windows))]


def _delta_step(xt, delta, lambdas):
    """X-hat at one width, the spectrum and band vectors of P X-hat P and the
    certificates at `lambdas`, all from one K = W^H (X-hat - X-tilde) W.
    `build_xtilde` checked that the surrogate's basis W spans range(P), so
    W^H X-tilde W = diag(m1) and diag(m1) + K is P X-hat P in W coordinates."""
    xh = build_xhat(xt, FilterSpec(delta))
    K = certificate_coupling(xt, xh)
    m1 = xt.basis.m1
    spectrum, vectors = lifted_eigenpairs(xt.basis.psi, np.diag(m1) + K)
    certs = [gap_certificate(K, m1, spectrum, lam, delta) for lam in lambdas]
    return xh, spectrum, vectors, certs


def _fit_passes(fit):
    if fit is None:
        return False
    if fit.flag == "compact-support":
        return True
    return fit.gamma > 0 and fit.r_squared >= FIT_R2_MIN


def run_pipeline(cfg: PipelineConfig, out_dir=None) -> RunReport:
    """Model -> P -> basis -> surrogate -> certificates -> bands -> fits."""
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    meta = {"model": cfg.model_type, "seed": cfg.seed, "L": cfg.L, "Delta": 0}
    stages = {}
    report = RunReport(verdict=VERDICT_ERROR, stages=stages)

    def finish(verdict):
        report.verdict = verdict
        rows = [(k, v) for k, v in stages.items()] + [("verdict", verdict)]
        io.write_csv(os.path.join(out, "report.csv"), ("stage", "outcome"),
                     rows, meta)
        return report

    try:
        model = build_model(cfg)
        io.write_matrix(os.path.join(out, "hamiltonian.wdmx"), model.H)
        stages["model"] = f"ok dim={model.grid.dimension}"
        grid = model.grid

        P = fermi_projector(model, cfg.fermi_energy)
        report.projector = P
        stages["projector"] = f"ok rank={P.rank} gap={P.gap:.6g}"

        try:
            decay = kernel_decay_fit(P)
            report.decay = decay
            stages["decay"] = f"ok gamma={decay.gamma:.6g} r2={decay.r_squared:.6g}"
        except InsufficientRangeError as exc:
            decay = None
            stages["decay"] = f"skipped ({exc})"
        io.write_csv(os.path.join(out, "decay.csv"),
                     ("model_id", "C", "gamma", "r_squared", "samples"),
                     [decay.as_csv_row(cfg.model_type)] if decay else [], meta)

        basis = initial_basis(P, mode=cfg.basis_mode)
        M = check_bounded_density(basis.centers, grid)
        report.bounded_density = M
        basis = attach_moments(relabel_to_lattice(basis), cfg.s_grid)
        report.basis_initial = basis
        stages["basis"] = (f"ok n={basis.n_functions} M={M} "
                           f"Msq={basis.max_degeneracy}")
        header = (["alpha", "m1", "m2", "j"]
                  + [f"moment_s{s:g}" for s in cfg.s_grid])
        rows = []
        for k in range(basis.n_functions):
            (m1, m2), j = basis.lattice_index[k]
            rows.append([k, m1, m2, j]
                        + [basis.moments[float(s)][k] for s in cfg.s_grid])
        io.write_csv(os.path.join(out, "basis_initial.csv"), header, rows, meta)
        io.write_matrix(os.path.join(out, "basis_initial.wdmx"), basis.psi)

        xt = build_xtilde(basis, P)
        stages["xtilde"] = "ok integer-spectrum"

        lambdas = gap_midpoints(0.0, grid.width - 1.0)
        cert_rows = []
        chosen = None
        for delta in cfg.delta_list:
            xh, spectrum, vectors, certs = _delta_step(xt, delta, lambdas)
            report.certificates.extend(certs)
            cert_rows.extend(c.as_csv_row() for c in certs)
            gaps = detect_uniform_gaps(spectrum, cfg.d_min, cfg.d_max)
            cert_ok = all(c.passed for c in certs)
            gaps_ok = isinstance(gaps, GapStructure)
            stages[f"delta={delta:g}"] = (
                f"certificates={'ok' if cert_ok else 'failed'} "
                f"gaps={'ok' if gaps_ok else 'failed: ' + gaps.reason}")
            if cert_ok and gaps_ok:
                chosen = (delta, xh, gaps, vectors)
                break
        io.write_csv(os.path.join(out, "certificates.csv"),
                     ("lambda", "delta", "snorm", "min_gap_distance", "pass"),
                     cert_rows, meta)
        if chosen is None:
            last = stages[f"delta={cfg.delta_list[-1]:g}"]
            return finish(VERDICT_CERT if "certificates=failed" in last
                          else VERDICT_GAPS)
        delta, xh, gaps, vectors = chosen
        report.chosen_delta = delta
        report.gaps = gaps
        meta["Delta"] = delta
        io.write_matrix(os.path.join(out, "xhat.wdmx"), xh.matrix)

        bands = band_projectors(vectors, gaps, grid)
        report.bands = bands
        stages["bands"] = f"ok n={len(bands.vectors)} d={gaps.d:.6g} D={gaps.D:.6g}"
        rows = []
        for j, (lo, hi) in enumerate(gaps.intervals):
            prof, rank = bands.decay_profiles[j], bands.vectors[j].shape[1]
            rows.append((j, lo, hi, float(gaps.xi[j]), rank,
                         prof.gamma if prof else math.nan,
                         prof.r_squared if prof else math.nan))
        io.write_csv(os.path.join(out, "gaps.csv"),
                     ("band_id", "sigma_lo", "sigma_hi", "xi", "rank",
                      "decay_gamma", "r2"), rows, meta)

        anchors = _default_anchors(grid)
        gamma0 = min(cfg.gamma_list)
        strip_rows, vec_blocks, ctr_blocks, band_ids = [], [], [], []
        for j, Vj in enumerate(bands.vectors):
            xi_j = float(gaps.xi[j])
            strip_rows.append((j, gamma0) + strip_localization_check(
                Vj, xi_j, grid, gamma0, anchors))
            vecs, ctrs = wannierize_band(Vj, grid.y, xi_j)
            vec_blocks.append(vecs)
            ctr_blocks.append(ctrs)
            band_ids.extend([j] * vecs.shape[1])
        io.write_csv(os.path.join(out, "strips.csv"),
                     ("band_id", "gamma", "norm_left", "norm_right"),
                     strip_rows, meta)
        stages["strips"] = "ok"
        final = GeneralizedWannierBasis(psi=np.hstack(vec_blocks),
                                        centers=np.vstack(ctr_blocks), grid=grid)
        report.basis_final = final
        ortho = final.orthonormality_defect()
        complete = final.completeness_defect(P.P)
        stages["wannierize"] = f"ok ortho={ortho:.3e} complete={complete:.3e}"

        fits, fit_rows = [], []
        for k in range(final.n_functions):
            try:
                fit = diagnostics.fit_exponential(final.psi[:, k],
                                                  final.centers[k], grid)
            except InsufficientRangeError:
                fit = None
            fits.append(fit)
            flag = "unfit" if fit is None else (fit.flag or "")
            fit_rows.append((k, band_ids[k], final.centers[k, 0],
                             final.centers[k, 1],
                             fit.gamma if fit else math.nan,
                             fit.r_squared if fit else math.nan,
                             flag, _fit_passes(fit)))
        report.final_fits = fits
        io.write_csv(os.path.join(out, "basis_final.csv"),
                     ("alpha", "band_id", "xi", "eta", "gamma", "r2",
                      "flag", "pass"), fit_rows, meta)
        io.write_matrix(os.path.join(out, "basis_final.wdmx"), final.psi)
        all_fits_ok = all(_fit_passes(f) for f in fits)
        stages["fits"] = "ok" if all_fits_ok else "failed"

        if grid.ndim == 2:
            report.chern = _chern_reports(cfg, P)
            io.write_csv(os.path.join(out, "chern.csv"),
                         ("window", "value", "imag_residual", "trace_terms"),
                         [r.as_csv_row() for r in report.chern], meta)
            stages["chern"] = " ".join(f"C(w={r.window})={r.value:.4f}"
                                       for r in report.chern)

        if not (ortho <= 1e-8 and complete <= 1e-8):
            return finish(VERDICT_ERROR)
        return finish(VERDICT_OK if all_fits_ok else VERDICT_FIT)
    except WanlocError as exc:
        stages["error"] = f"{type(exc).__name__}: {exc}"
        return finish(VERDICT_ERROR)


def run_verify(cfg: PipelineConfig, out_dir=None):
    """Randomized inequality suites plus tilt/closeness/certificate sweeps.

    Returns (summary dict, exit code); the exit code is nonzero only when a
    proven inequality fails an instance.
    """
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    meta = {"model": cfg.model_type, "seed": cfg.seed, "L": cfg.L, "Delta": 0}
    summary = {}

    rng = np.random.default_rng(cfg.seed + 1000)
    grid = make_grid(min(cfg.L, 8), orbitals_per_site=1, ndim=2)
    n = grid.dimension
    s_choices = (0.5, 1.0, 2.5)

    rows, fails = [], 0
    for i in range(1000):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = rng.integers(-8, 9, size=2)
        k = rng.integers(-8, 9, size=2)
        s1, s2 = rng.choice(s_choices, size=2)
        lhs, rhs, ok = diagnostics.lemma_decay_check(v, m, k, s1, s2, grid)
        fails += not ok
        rows.append((i, m[0], m[1], k[0], k[1], s1, s2, lhs, rhs, ok))
    io.write_csv(os.path.join(out, "verify_decay_lemma.csv"),
                 ("case", "m1", "m2", "k1", "k2", "s1", "s2", "lhs", "rhs",
                  "pass"), rows, meta)
    summary["decay_lemma"] = fails

    rows, fails = [], 0
    for i in range(1000):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = rng.uniform(-8.0, 8.0, size=2)
        s1, s2 = rng.choice((0.0, 0.5, 1.0, 2.5), size=2)
        lhs, rhs, ok = diagnostics.lemma_prod_sum_check(v, m, s1, s2, grid)
        fails += not ok
        rows.append((i, m[0], m[1], s1, s2, lhs, rhs, ok))
    io.write_csv(os.path.join(out, "verify_prod_sum.csv"),
                 ("case", "m1", "m2", "s1", "s2", "lhs", "rhs", "pass"),
                 rows, meta)
    summary["prod_sum_lemma"] = fails

    small = make_grid(4, orbitals_per_site=1, ndim=2)
    rows, fails = [], 0
    for i in range(1000):
        r = int(rng.integers(3, 9))
        A = rng.standard_normal((small.dimension, r)) \
            + 1j * rng.standard_normal((small.dimension, r))
        W, _ = np.linalg.qr(A)
        ms = rng.integers(0, 4, size=(r, 2))
        index = [((int(a), int(b)), 1) for a, b in ms]
        basis = GeneralizedWannierBasis(psi=W, centers=ms.astype(float),
                                        grid=small, lattice_index=index)
        rep = diagnostics.schur_row_sums(basis)
        ok = rep.direct_norm <= rep.bound + 1e-9
        fails += not ok
        rows.append((i, r, rep.sup_row, rep.sup_col, rep.bound,
                     rep.direct_norm, ok))
    io.write_csv(os.path.join(out, "verify_schur.csv"),
                 ("case", "rank", "sup_row", "sup_col", "bound",
                  "direct_norm", "pass"), rows, meta)
    summary["schur_bound"] = fails

    model = build_model(cfg)
    P = fermi_projector(model, cfg.fermi_energy)
    basis = relabel_to_lattice(initial_basis(P, mode=cfg.basis_mode))
    xt = build_xtilde(basis, P)
    grid_m = model.grid
    anchors = _default_anchors(grid_m)
    lambdas = gap_midpoints(0.0, grid_m.width - 1.0)

    cert_rows, close_rows, tilt_rows = [], [], []
    for delta in cfg.delta_list:
        xh, _, _, certs = _delta_step(xt, delta, lambdas)
        cert_rows.extend(c.as_csv_row() for c in certs)
        close_rows.append((delta, closeness_norm(xh, grid_m.x)))
        sup, rows = tilt_lipschitz(xh, cfg.gamma_list, anchors, grid_m)
        tilt_rows.extend((delta,) + r for r in rows)
    io.write_csv(os.path.join(out, "verify_certificates.csv"),
                 ("lambda", "delta", "snorm", "min_gap_distance", "pass"),
                 cert_rows, meta)
    io.write_csv(os.path.join(out, "verify_closeness.csv"),
                 ("delta", "norm"), close_rows, meta)
    io.write_csv(os.path.join(out, "verify_tilt.csv"),
                 ("delta", "gamma", "anchor_x", "anchor_y", "norm", "ratio"),
                 tilt_rows, meta)

    io.write_csv(os.path.join(out, "verify_sqrt_bounds.csv"),
                 ("lambda", "s_p_bplus", "bplus_p_s", "sinv_p_bminus",
                  "bminus_p_sinv", "sqrt_diff"),
                 diagnostics.sqrt_bound_survey(P, basis, lambdas), meta)
    io.write_csv(os.path.join(out, "verify_comm_bounds.csv"),
                 ("lambda", "comm_x", "comm_y", "weighted_sum_sup"),
                 diagnostics.tilted_comm_survey(P, xt, lambdas), meta)

    io.write_csv(os.path.join(out, "verify_summary.csv"),
                 ("suite", "failures", "pass"),
                 [(k, v, v == 0) for k, v in summary.items()], meta)
    code = EXIT_OK if all(v == 0 for v in summary.values()) else EXIT_INEQUALITY
    return summary, code


def run_chern(cfg: PipelineConfig, out_dir=None):
    """Chern marker at the requested windows, with the k-space oracle when
    the model has a periodic Bloch bulk (Haldane family)."""
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    model = build_model(cfg)
    if model.grid.ndim != 2:
        raise ConfigError("chern requires a 2-D model")
    meta = {"model": cfg.model_type, "seed": cfg.seed, "L": cfg.L, "Delta": 0}
    P = fermi_projector(model, cfg.fermi_energy)
    oracle = ""
    if cfg.model_type in ("haldane", "atomic"):
        p = model.params
        oracle = diagnostics.chern_number_kspace(p["t1"], p["t2"], p["phi"],
                                                 p["m"])
    reports = _chern_reports(cfg, P)
    rows = [r.as_csv_row() + (oracle,) for r in reports]
    io.write_csv(os.path.join(out, "chern.csv"),
                 ("window", "value", "imag_residual", "trace_terms", "oracle"),
                 rows, meta)
    return reports, oracle


def run_model_dump(cfg: PipelineConfig, out_dir=None):
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
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
            cfg = replace(cfg, seed=args.seed).validate()
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
