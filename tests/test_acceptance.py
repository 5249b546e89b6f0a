"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured values."""

from pathlib import Path

import numpy as np

import wanloc as wl
from wanloc.cli import PipelineConfig, _delta_step, run_pipeline, run_verify
from wanloc.xhat import FilterSpec, build_xhat, build_xtilde, filter_fourier

from suite_common import (DIS_PARAMS, DIS_SEED, MARKER_TRIVIAL_PARAMS,
                          SSH_PARAMS, TOPO_PARAMS, centroid)


def announce(num, ok, detail):
    print(f"ACCEPTANCE-{num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_projector_validity(dis_projectors, trivial_projectors):
    cases = [P for (_, P) in dis_projectors.values()]
    cases += [P for (_, P) in trivial_projectors.values()]
    extra = [
        wl.build_haldane(8, **{k: TOPO_PARAMS[k] for k in ("t1", "t2", "phi")},
                         m_stagger=TOPO_PARAMS["m"]),
        wl.build_disordered_insulator(8, seed=0, **DIS_PARAMS),
        wl.build_ssh_chain(8, **SSH_PARAMS),
        wl.build_atomic(6),
    ]
    cases += [wl.fermi_projector(m, 0.0) for m in extra]
    worst_idem = max(np.linalg.norm(P.P @ P.P - P.P) for P in cases)
    worst_herm = max(np.linalg.norm(P.P - P.P.conj().T) for P in cases)
    ok = worst_idem <= 1e-10 and worst_herm <= 1e-12
    announce(1, ok, f"{len(cases)} projectors, worst ||P^2-P||={worst_idem:.2e},"
                    f" worst ||P-P*||={worst_herm:.2e}")
    assert ok


def test_criterion_02_kernel_decay(dis_projectors, trivial_projectors):
    details = []
    ok = True
    for name, projs in (("disordered", dis_projectors),
                        ("haldane-trivial", trivial_projectors)):
        fits = {L: wl.kernel_decay_fit(P) for L, (_, P) in projs.items()}
        mid = fits[12]
        ok &= mid.gamma > 0 and mid.r_squared >= 0.9
        ok &= fits[16].gamma >= 0.8 * fits[8].gamma
        details.append(f"{name}: gamma12={mid.gamma:.3f} r2={mid.r_squared:.3f}"
                       f" drift16/8={fits[16].gamma / fits[8].gamma:.3f}")
    announce(2, ok, "; ".join(details))
    assert ok


def test_criterion_03_1d_projected_position_eigenfunctions(ssh24):
    model, P, evals, vecs = ssh24
    worst_r2, worst_gamma = 1.0, np.inf
    for k in range(vecs.shape[1]):
        mu = centroid(vecs[:, k], model.grid)
        fit = wl.fit_exponential(vecs[:, k], mu, model.grid)
        worst_r2 = min(worst_r2, fit.r_squared)
        worst_gamma = min(worst_gamma, fit.gamma)
    ok = worst_gamma > 0 and worst_r2 >= 0.9
    announce(3, ok, f"{vecs.shape[1]} eigenfunctions, worst gamma="
                    f"{worst_gamma:.3f}, worst r2={worst_r2:.4f}")
    assert ok


def test_criterion_04_integer_projected_spectrum(dis12_report, trivial12_report,
                                                 topological12_report):
    worst = 0.0
    runs = 0
    for rep in (dis12_report, trivial12_report, topological12_report):
        if rep.basis_initial is None:
            continue
        xt = build_xtilde(rep.basis_initial, rep.projector)
        evals, _ = wl.projected_spectrum(rep.projector, xt.matrix)
        worst = max(worst, float(np.max(np.abs(evals - np.round(evals)))))
        runs += 1
    ok = runs == 3 and worst <= 1e-8
    announce(4, ok, f"{runs} pipeline runs, worst off-integer distance={worst:.2e}")
    assert ok


def test_criterion_05_banded_structure(dis12_report):
    rep = dis12_report
    grid = rep.projector.grid
    xt = build_xtilde(rep.basis_initial, rep.projector)
    xh = build_xhat(xt, FilterSpec(4.0))
    herm = np.linalg.norm(xh - xh.conj().T)
    scale = max(1.0, np.linalg.norm(xh))
    dx = np.abs(grid.x[:, None] - grid.x[None, :])
    dy = np.abs(grid.y[:, None] - grid.y[None, :])
    beyond = np.abs(xh[(dx >= 4.0) | (dy >= 4.0)])
    # atomic case: diagonal surrogate passes through the filter untouched
    atom = wl.build_atomic(6)
    Pa = wl.fermi_projector(atom, 0.0)
    ba = wl.relabel_to_lattice(wl.initial_basis(Pa))
    xta = build_xtilde(ba, Pa)
    xha = build_xhat(xta, FilterSpec(4.0))
    diag_exact = np.array_equal(xha, xta.matrix)
    ok = (herm <= 1e-12 * scale and beyond.max(initial=0.0) == 0.0 and diag_exact)
    announce(5, ok, f"hermiticity={herm:.2e}, max |entry| beyond width="
                    f"{beyond.max(initial=0.0):.1e}, diagonal case exact={diag_exact}")
    assert ok


def test_criterion_06_closeness_bounded_in_size(dis_projectors):
    norms = []
    for L in (8, 12, 16):
        model, P = dis_projectors[L]
        basis = wl.relabel_to_lattice(wl.initial_basis(P))
        xt = build_xtilde(basis, P)
        xh = build_xhat(xt, FilterSpec(8.0))
        norms.append(wl.closeness_norm(xh, model.grid.x))
    spread = max(norms) / min(norms)
    ok = spread < 1.2
    announce(6, ok, "norms L=8,12,16: "
             + ", ".join(f"{n:.4f}" for n in norms) + f"; spread={spread:.3f}")
    assert ok


def test_criterion_07_tilt_response_linear(dis12_report):
    rep = dis12_report
    grid = rep.projector.grid
    xt = build_xtilde(rep.basis_initial, rep.projector)
    xh = build_xhat(xt, FilterSpec(8.0))
    c = (grid.width - 1) / 2.0
    anchors = [(c, c), (c - 3, c - 3), (c + 3, c + 3)]
    gammas = (0.025, 0.05, 0.1, 0.2)
    sup, rows = wl.tilt_lipschitz(xh, gammas, anchors, grid)
    per_gamma = {g: max(r[4] for r in rows if r[0] == g) for g in gammas}
    spread = max(per_gamma.values()) / min(per_gamma.values())
    ok = np.isfinite(sup) and spread < 2.0
    announce(7, ok, f"sup ratio={sup:.4f}, per-gamma spread={spread:.3f}")
    assert ok


def test_criterion_08_certificate_norm_scaling(dis12_report):
    rep = dis12_report
    P = rep.projector
    xt = build_xtilde(rep.basis_initial, P)
    deltas = (4.0, 8.0, 16.0)
    lambdas = wl.gap_midpoints(0.0, P.grid.width - 1.0)
    peak, spectra, all_pass = [], {}, {}
    for delta in deltas:
        _, spectrum, _, certs = _delta_step(xt, delta, lambdas)
        peak.append(max(c.snorm for c in certs))
        spectra[delta] = spectrum
        all_pass[delta] = all(c.passed for c in certs)
    monotone = peak[0] > peak[1] > peak[2]
    slope = float(np.polyfit(np.log(deltas), np.log(peak), 1)[0])
    slope_ok = slope <= -0.5
    # Leading-order law.  X^ = Xt o F with F_ij = f(dx/Delta) f(dy/Delta),
    # and 1 - f(xi) = c xi^2 + O(xi^4) for the even C^2 profile f (for
    # f = (1 - xi^2)^3, 1 - f = 3 xi^2 - 3 xi^4 + xi^6, so c = 3), so
    # X^ - Xt = -(c / Delta^2) Xt o (dx^2 + dy^2) + O(Delta^-4) and the peak
    # certificate norm is C2 / Delta^2 + O(Delta^-4), with
    # C2 = max_lam ||R W^H (Xt o c (dx^2 + dy^2)) W R||, R = |lam - m1|^-1/2.
    # The ratio rho = peak * Delta^2 / C2 must therefore tend to 1.  The
    # 1/Delta rate of the slope edge is only the bound the norm must beat.
    h = 1e-3
    c = (1.0 - filter_fourier(h)) / h ** 2
    x = xt.grid.x.astype(float)
    y = xt.grid.y.astype(float)
    d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
    W, m1 = xt.basis.psi, xt.basis.m1
    K2 = W.conj().T @ (xt.matrix * (c * d2)) @ W
    C2 = max(wl.operator_norm(r[:, None] * K2 * r[None, :])
             for r in (np.abs(lam - m1) ** -0.5 for lam in lambdas))
    rho = [p * d ** 2 / C2 for p, d in zip(peak, deltas)]
    err = [abs(q - 1.0) for q in rho]
    converging = err[0] > err[1] > err[2]
    law_ok = err[-1] <= 0.02
    passing = [d for d in deltas if all_pass[d]]
    margin = np.inf
    if passing:
        spectrum = spectra[passing[0]]
        for lam in lambdas:
            lo, hi = lam - 0.25, lam + 0.25
            dist = np.where(spectrum < lo, lo - spectrum,
                            np.where(spectrum > hi, spectrum - hi, 0.0))
            margin = min(margin, float(dist.min()))
    avoid_ok = bool(passing) and margin >= 0.05
    ok = monotone and slope_ok and converging and law_ok and avoid_ok
    announce(8, ok, f"peak norms={['%.2e' % p for p in peak]}, "
                    f"log-log slope={slope:.3f} (<= -0.5), C2={C2:.4e}, "
                    f"rho={['%.4f' % q for q in rho]}, "
                    f"gap-interval margin={margin:.4f}")
    assert monotone, "certificate norm must decrease over the width doubling"
    assert avoid_ok, "projected spectrum must avoid every sampled gap interval"
    assert slope_ok, f"slope {slope:.3f} slower than the certified -0.5"
    assert converging, f"|rho - 1| must shrink over the sweep: rho={rho}"
    assert law_ok, f"rho(16)={rho[-1]:.4f} off the C2/Delta^2 law by > 0.02"


def test_criterion_09_end_to_end_exponential_basis(dis12_report):
    rep = dis12_report
    ortho = rep.basis_final.orthonormality_defect()
    complete = rep.basis_final.completeness_defect(rep.projector.P)
    fits_ok = all(
        f is not None and (f.flag == "compact-support"
                           or (f.gamma > 0 and f.r_squared >= 0.9))
        for f in rep.final_fits)
    worst_r2 = min(f.r_squared for f in rep.final_fits if f.flag is None)
    ok = (rep.verdict == "exponential-basis-constructed" and ortho <= 1e-8
          and complete <= 1e-8 and fits_ok)
    announce(9, ok, f"verdict={rep.verdict}, ortho={ortho:.2e}, "
                    f"complete={complete:.2e}, worst fit r2={worst_r2:.4f}")
    assert ok


def test_criterion_10_topological_contrast(topological12_report,
                                           trivial12_report):
    topo, triv = topological12_report, trivial12_report
    topo_failed = topo.verdict in ("certificate-failed", "gap-detection-failed")
    tried_all = topo.chosen_delta is None and all(
        f"delta={d:g}" in topo.stages for d in (4, 8, 16))
    triv_ok = triv.verdict == "exponential-basis-constructed"
    ok = topo_failed and tried_all and triv_ok
    announce(10, ok, f"topological verdict={topo.verdict} (all widths tried="
                     f"{tried_all}), trivial verdict={triv.verdict}")
    assert ok


def test_criterion_11_chern_marker_against_oracle():
    t1, t2, phi = (MARKER_TRIVIAL_PARAMS[k] for k in ("t1", "t2", "phi"))
    triv_model = wl.build_haldane(16, t1, t2, phi, MARKER_TRIVIAL_PARAMS["m"])
    topo_model = wl.build_haldane(16, t1, t2, phi, TOPO_PARAMS["m"])
    triv_P = wl.fermi_projector(triv_model, 0.0)
    topo_P = wl.fermi_projector(topo_model, 0.0)
    c_triv = wl.chern_marker(triv_P, [4])[0].value
    c_topo = wl.chern_marker(topo_P, [4])[0].value
    oracle = wl.chern_number_kspace(t1, t2, phi, TOPO_PARAMS["m"])
    spectrum = np.linalg.eigvalsh(topo_model.H)
    P_empty = wl.fermi_projector(topo_model, spectrum[0] - 1.0)
    P_full = wl.fermi_projector(topo_model, spectrum[-1] + 1.0)
    c_empty = wl.chern_marker(P_empty, [4])[0].value
    c_full = wl.chern_marker(P_full, [4])[0].value
    ok = (abs(c_triv) <= 0.05 and abs(c_topo - oracle) <= 0.1
          and abs(c_empty) <= 1e-12 and abs(c_full) <= 1e-12)
    announce(11, ok, f"trivial C={c_triv:.4f}, topological C={c_topo:.4f} "
                     f"(oracle {oracle}), empty/full C={c_empty:.1e}/{c_full:.1e}")
    assert ok


def test_criterion_12_inequality_suites(tmp_path, survey_maxima):
    cfg = PipelineConfig(model_type="disordered", L=8, model_params=DIS_PARAMS,
                         seed=DIS_SEED, output_dir=str(tmp_path / "verify"))
    summary, code = run_verify(cfg)
    suites_ok = code == 0 and all(v == 0 for v in summary.values())
    sq_growth = survey_maxima[16][0] / survey_maxima[8][0]
    cm_growth = survey_maxima[16][1] / survey_maxima[8][1]
    growth_ok = sq_growth < 1.2 and cm_growth < 1.2
    # the written certificate table is monotone in the smoothing width
    lines = Path(cfg.output_dir, "verify_certificates.csv").read_text().splitlines()
    peaks = {}
    for row in lines[2:]:
        _, delta, snorm, _, _ = row.split(",")
        peaks[float(delta)] = max(peaks.get(float(delta), 0.0), float(snorm))
    widths = sorted(peaks)
    table_ok = all(peaks[a] > peaks[b] for a, b in zip(widths, widths[1:]))
    ok = suites_ok and growth_ok and table_ok
    announce(12, ok, f"failures={summary}, survey growth L=8->16: "
                     f"sqrt={sq_growth:.3f}, comm={cm_growth:.3f}, "
                     f"certificate table monotone={table_ok}")
    assert ok


def test_criterion_13_deterministic_outputs(tmp_path):
    import os
    payload = {}
    for tag in ("a", "b"):
        out = tmp_path / f"det_{tag}"
        cfg = PipelineConfig(model_type="disordered", L=8,
                             model_params=DIS_PARAMS, seed=DIS_SEED,
                             output_dir=str(out))
        run_pipeline(cfg)
        run_verify(cfg, out_dir=str(out / "verify"))
        blobs = {}
        for root, _, files in os.walk(out):
            for name in sorted(files):
                path = os.path.join(root, name)
                blobs[os.path.relpath(path, out)] = Path(path).read_bytes()
        payload[tag] = blobs
    same_names = sorted(payload["a"]) == sorted(payload["b"])
    diffs = [k for k in payload["a"] if payload["a"][k] != payload["b"].get(k)]
    ok = same_names and not diffs
    announce(13, ok, f"{len(payload['a'])} files compared, mismatches={diffs}")
    assert ok
