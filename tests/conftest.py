import numpy as np
import pytest

import wanloc as wl
from wanloc.cli import PipelineConfig, run_pipeline

from suite_common import (DIS_PARAMS, DIS_SEED, SSH_PARAMS, TOPO_PARAMS,
                          TRIVIAL_PARAMS)


@pytest.fixture(scope="session")
def dis_projectors():
    """Disordered-insulator models and Fermi projectors at L = 8, 12, 16."""
    out = {}
    for L in (8, 12, 16):
        model = wl.build_disordered_insulator(L, seed=DIS_SEED, **DIS_PARAMS)
        out[L] = (model, wl.fermi_projector(model, 0.0))
    return out


@pytest.fixture(scope="session")
def trivial_projectors():
    out = {}
    for L in (8, 12, 16):
        model = wl.build_haldane(L, TRIVIAL_PARAMS["t1"], TRIVIAL_PARAMS["t2"],
                                 TRIVIAL_PARAMS["phi"], TRIVIAL_PARAMS["m"])
        out[L] = (model, wl.fermi_projector(model, 0.0))
    return out


@pytest.fixture(scope="session")
def dis12_report(tmp_path_factory):
    cfg = PipelineConfig(model_type="disordered", L=12, model_params=DIS_PARAMS,
                         seed=DIS_SEED,
                         output_dir=str(tmp_path_factory.mktemp("dis12")))
    return run_pipeline(cfg)


@pytest.fixture(scope="session")
def trivial12_report(tmp_path_factory):
    cfg = PipelineConfig(model_type="haldane", L=12, model_params=TRIVIAL_PARAMS,
                         seed=0, output_dir=str(tmp_path_factory.mktemp("tri12")))
    return run_pipeline(cfg)


@pytest.fixture(scope="session")
def topological12_report(tmp_path_factory):
    cfg = PipelineConfig(model_type="haldane", L=12, model_params=TOPO_PARAMS,
                         seed=0, output_dir=str(tmp_path_factory.mktemp("top12")))
    return run_pipeline(cfg)


def _surrogate_stack(model):
    from wanloc.dichotomy import attach_moments
    from wanloc.xhat import build_xtilde

    P = wl.fermi_projector(model, 0.0)
    basis = attach_moments(wl.relabel_to_lattice(
        wl.initial_basis(P)), (1.0,))
    return model, P, basis, build_xtilde(basis, P)


@pytest.fixture(scope="session")
def dis8_stack():
    """(model, P, basis, Xtilde) of the L=8 disordered insulator."""
    return _surrogate_stack(wl.build_disordered_insulator(8, 2.0, 0.5, 7))


@pytest.fixture(scope="session")
def topo8_stack():
    """(model, P, basis, Xtilde) of the L=8 Haldane Chern insulator."""
    return _surrogate_stack(wl.build_haldane(
        8, TOPO_PARAMS["t1"], TOPO_PARAMS["t2"], TOPO_PARAMS["phi"],
        TOPO_PARAMS["m"]))


@pytest.fixture(scope="session")
def ssh24():
    """SSH chain with its Fermi projector and projected position spectrum."""
    model = wl.build_ssh_chain(24, **SSH_PARAMS)
    P = wl.fermi_projector(model, 0.0)
    X = np.diag(model.grid.x.astype(float))
    evals, vecs = wl.projected_spectrum(P, X)
    return model, P, evals, vecs


@pytest.fixture(scope="session")
def survey_maxima(dis_projectors):
    """Max square-root-resolvent and commutator survey norms at L = 8, 16."""
    from wanloc.dichotomy import attach_moments
    from wanloc.xhat import build_xtilde

    out = {}
    for L in (8, 16):
        _, P = dis_projectors[L]
        basis = attach_moments(wl.relabel_to_lattice(
            wl.initial_basis(P)), (1.0,))
        xt = build_xtilde(basis, P)
        lambdas = wl.gap_midpoints(0.0, L - 1.0)
        sq = wl.sqrt_bound_survey(xt, lambdas)
        cm = wl.tilted_comm_survey(xt, lambdas)
        out[L] = (max(max(r[1:]) for r in sq), max(max(r[1:]) for r in cm))
    return out
