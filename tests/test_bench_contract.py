"""The package attributes and call shapes that the benchmark under bench/
relies on.  The benchmark files are read, never changed: a refactor that
drops a traced attribute or reshapes the G-BPDN call fails here, not in a
traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import mgcs.estimator
from mgcs.harness import desk_experiment, desk_geometry, run_estimator, simulate_trial
from mgcs.partition import make_block_tiling
from mgcs.recovery import MeasurementEnsemble, g_cosamp, g_omp
from mgcs.waveform import cp_ofdm_pulses
from oracles import uniform_partition

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrap_points():
    return [(span, attr, module) for span, attr, modules, _ in
            load_bench_module("spans").WRAP_POINTS for module in modules]


@pytest.mark.parametrize("span,attr,module", wrap_points())
def test_every_traced_attribute_exists(span, attr, module):
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"span {span} wraps {module}.{attr}, which does not exist")


def test_g_bpdn_binds_the_feasibility_check_arguments():
    # the check binds the call to the signature and reads Phi, y, eps, tol
    bound = inspect.signature(mgcs.estimator.g_bpdn).bind(
        np.eye(2), np.ones(2), None, eps=0.1, tol=1e-3, joint=True)
    bound.apply_defaults()
    assert {"Phi", "y", "eps", "tol"} <= set(bound.arguments)


def test_feasibility_check_sees_every_joint_bpdn_estimate(monkeypatch):
    # mgcs-bpdn through the replaced estimator attribute: one record per
    # estimate, its residual recomputed from the dense stacked matrix
    workloads = load_bench_module("workloads")
    feasibility = workloads.BpdnFeasibility()
    monkeypatch.setattr(mgcs.estimator, "g_bpdn", feasibility.wrap(mgcs.estimator.g_bpdn))
    config = desk_experiment(4)
    cfg = config.system
    pulses = cp_ofdm_pulses(cfg.K, cfg.N)
    scheme = mgcs.estimator.draw_pilots(cfg, np.random.SeedSequence([4, 7919]), q=config.q)
    geometry = desk_geometry(cfg.n_tx, cfg.n_rx, fc=cfg.f0, block_duration=cfg.l_r * cfg.Ts)
    y_grid, _, sigma_z, _ = simulate_trial(cfg, scheme, pulses, config.filters, geometry,
                                           20.0, [4, 0, 0])
    tiling = make_block_tiling(cfg.D, cfg.J, config.dm, config.di)
    run_estimator("mgcs-bpdn", y_grid, scheme, mgcs.estimator.BasisSpec.dft(cfg.J, cfg.D),
                  cfg, tiling, sigma_z, residual_scale=1.0, max_groups=None,
                  cosamp_sparsity=None)
    assert len(feasibility.records) == 1
    assert feasibility.violations() == []


def test_basis_opt_setup_and_in_prior_channel():
    # the basis-opt workload's own calls: desk_prior(cfg) in setup, then
    # paths_from_prior, discrete_ir and the 3-argument assemble_frame
    workload = load_bench_module("workloads").BasisOptWorkload()
    p = workload.setup(3)
    cfg = p.cfg
    assert p.prior.n_channels == cfg.n_channels
    y_grid, truth, sigma2 = workload._in_prior_channel(p, 3, 0, 0)
    assert y_grid.shape == (cfg.L, cfg.K, cfg.n_rx)
    assert truth.shape == (cfg.L, cfg.K, cfg.n_rx, cfg.n_tx)
    assert np.isfinite(y_grid).all() and sigma2 > 0


def test_cosamp_span_counts_read_the_result():
    # the recovery.g_cosamp span reads the fit count and the rank-loss flag
    count = next(c for _, attr, _, c in load_bench_module("spans").WRAP_POINTS
                 if attr == "g_cosamp")
    rng = np.random.default_rng(2)
    Phi = rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16))
    y = rng.normal(size=8) + 1j * rng.normal(size=8)
    args = (Phi, y, uniform_partition(16, 2))
    res = g_cosamp(*args, S=1, residual_tol=0.0, joint=True)
    counts = count(args, res)
    assert counts["recovery.g_cosamp.iters"] == res.iterations
    assert 1 <= res.iterations <= 15
    assert counts["recovery.rank_deficient"] == int(res.diagnostics["rank_deficient"])


def test_omp_span_counts_read_a_per_channel_result():
    # per-channel G-OMP is one g_omp call per estimate: the recovery.g_omp
    # span reads one selection list per channel and the call's rank-loss flag
    count = next(c for _, attr, _, c in load_bench_module("spans").WRAP_POINTS
                 if attr == "g_omp")
    rng = np.random.default_rng(3)
    mats = tuple(rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16)) for _ in range(2))
    ens = MeasurementEnsemble(matrices=mats,
                              observations=rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8)))
    args = (ens.operator(), ens.observations, uniform_partition(16, 2))
    res = g_omp(*args, max_groups=3, residual_tol=0.0, joint=False)
    counts = count(args, res)
    assert counts["recovery.g_omp.groups"] == len(res.selected_groups) == ens.n_channels
    assert [len(g) for g in res.selected_groups] == [3] * ens.n_channels
    assert counts["recovery.ls_calls"] == 1
    assert counts["recovery.rank_deficient"] == int(res.diagnostics["rank_deficient"])
