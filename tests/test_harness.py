"""Tests for the experiment runner, result emission and basis persistence."""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mgcs.estimator
import mgcs.harness
from mgcs import io as mgio
from mgcs.errors import ConfigurationError, DomainError
from mgcs.estimator import BasisSpec
from mgcs.harness import (
    ExperimentConfig,
    ResultTable,
    budget_sparsity,
    cosamp_order,
    desk_experiment,
    desk_geometry,
    desk_prior,
    emit_results,
    parse_solver,
    paths_from_prior,
    point_geometry,
    run_estimator,
    run_sweep,
    simulate_trial,
)
from mgcs.channel import (
    FilterSpec,
    cross_channel_bounds,
    effective_support_widths,
    sample_geometry,
    sparsity_budget,
)
from mgcs.partition import make_block_tiling
from mgcs.recovery import _GrownQR, g_cosamp, g_dcs_somp, g_omp
from mgcs.waveform import FactoredIR, SystemConfig, cp_ofdm_pulses
from mgcs.estimator import collect_measurements, draw_pilots, estimate_mimo, normalized_mse
from oracles import identity_channel


def tiny_system():
    return SystemConfig(K=16, N=20, L=8, D=8, J=8, n_tx=2, n_rx=2, f0=40e9, Ts=2e-7)


def tiny_experiment(**kw):
    defaults = dict(system=tiny_system(), q=16, master_seed=5,
                    points=(20.0,), trials=2)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestParseSolver:
    @pytest.mark.parametrize(
        "name,expect",
        [
            ("conv-omp", (False, False, "omp")),
            ("gcs-omp", (True, False, "omp")),
            ("mcs-somp", (False, True, "somp")),
            ("mgcs-somp", (True, True, "somp")),
            ("mgcs-bpdn", (True, True, "bpdn")),
            ("mgcs-cosamp", (True, True, "cosamp")),
        ],
    )
    def test_known_names(self, name, expect):
        assert parse_solver(name) == expect

    @pytest.mark.parametrize("name", ["xx-omp", "mgcssomp", "mgcs-xxx",
                                      "conv-somp", "gcs-somp"])
    def test_unknown_names(self, name):
        with pytest.raises(ConfigurationError):
            parse_solver(name)


class TestRunSweep:
    def test_zero_trials_empty_table(self):
        table = run_sweep(tiny_experiment(trials=0))
        assert table.trials == 0
        assert np.isnan(table.mean_mse_db).all()

    def test_duplicate_solver_identical_columns(self):
        table = run_sweep(tiny_experiment(solvers=("mgcs-somp", "mgcs-somp")))
        np.testing.assert_array_equal(table.mean_mse_db[:, 0], table.mean_mse_db[:, 1])

    def test_deterministic_output(self, tmp_path):
        paths = []
        for run in range(2):
            table = run_sweep(tiny_experiment(trials=3))
            p = tmp_path / f"run{run}.csv"
            emit_results(table, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_requires_master_seed(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(system=tiny_system(), q=16, master_seed=None)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_experiment(solvers=("nope-omp",))

    def test_antenna_axis(self):
        table = run_sweep(
            tiny_experiment(axis="antennas", points=(1, 2), trials=1,
                            solvers=("mgcs-somp",))
        )
        assert table.mean_mse_db.shape == (2, 1)
        assert np.isfinite(table.mean_mse_db).all()

    def test_blocksize_axis(self):
        table = run_sweep(
            tiny_experiment(axis="blocksize", points=("1x2", "1x4"), trials=1,
                            solvers=("mgcs-somp",))
        )
        assert np.isfinite(table.mean_mse_db).all()

    @pytest.mark.parametrize("axis,points,expect", [
        ("blocksize", ("1x2", "2x4", "1x2"), [(1, 2), (2, 4)]),
        ("snr", (0.0, 10.0, 20.0), [(1, 4)]),
    ])
    def test_basis_optimized_once_per_tiling(self, monkeypatch, axis, points, expect):
        # each point's basis is optimized for its own tiling, once per tiling
        tilings = []

        def recording(samples, tiling, pulses, cfg, **kwargs):
            tilings.append((tiling.dm, tiling.di))
            return BasisSpec.dft(cfg.J, cfg.D), None

        monkeypatch.setattr(mgcs.harness, "optimize_blocks", recording)
        run_sweep(tiny_experiment(axis=axis, points=points, trials=0, basis="optimize",
                                  basis_samples=2, di=4))
        assert tilings == expect

    def test_typed_error_counts_as_a_failed_trial(self, monkeypatch):
        original = mgcs.harness.run_estimator
        calls = []

        def fail_first_trial(*args, **kwargs):
            calls.append(args[0])
            if len(calls) == 1:
                raise DomainError("forced")
            return original(*args, **kwargs)

        monkeypatch.setattr(mgcs.harness, "run_estimator", fail_first_trial)
        table = run_sweep(tiny_experiment(trials=2, solvers=("mgcs-somp",)))
        assert calls == ["mgcs-somp", "mgcs-somp"]
        assert table.failures.tolist() == [1]
        assert table.failure_kinds == {(20.0, "mgcs-somp", "DomainError"): 1}
        assert np.isfinite(table.mean_mse_db).all()

        # the second estimator fails on trial 1 of 3: the first one still
        # runs there, but its mean leaves that trial out as well
        calls.clear()
        nmse = []

        def fail_on_trial_1(name, *args, **kwargs):
            calls.append(name)
            if len(calls) == 4:
                raise DomainError("forced")
            return original(name, *args, **kwargs)

        def record(*args):
            nmse.append(normalized_mse(*args))
            return nmse[-1]

        monkeypatch.setattr(mgcs.harness, "run_estimator", fail_on_trial_1)
        monkeypatch.setattr(mgcs.harness, "normalized_mse", record)
        table = run_sweep(tiny_experiment(trials=3, solvers=("conv-omp", "mcs-somp")))
        assert calls == ["conv-omp", "mcs-somp"] * 3
        assert table.failures.tolist() == [1]
        assert table.failure_kinds == {(20.0, "mcs-somp", "DomainError"): 1}
        # recorded in call order: the failed call has no NMSE
        assert len(nmse) == 5
        conv, mcs = [nmse[0], nmse[2], nmse[3]], [nmse[1], nmse[4]]
        assert table.cell(20.0, "conv-omp") == pytest.approx(
            10 * np.log10((conv[0] + conv[2]) / 2), rel=1e-12)
        assert table.cell(20.0, "mcs-somp") == pytest.approx(
            10 * np.log10(sum(mcs) / 2), rel=1e-12)
        assert table.cell(20.0, "conv-omp") != pytest.approx(
            10 * np.log10(sum(conv) / 3), rel=1e-6)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("forced")

        monkeypatch.setattr(mgcs.harness, "run_estimator", broken)
        with pytest.raises(TypeError, match="forced"):
            run_sweep(tiny_experiment(trials=2, solvers=("mgcs-somp",)))


# committed sweep file -> its estimators: the benchmark's eight, then the rest
GOLDEN_SWEEPS = {
    "sweep_seed5.csv": ("conv-omp", "gcs-omp", "mcs-somp", "mgcs-somp",
                        "mcs-omp", "mgcs-omp", "mgcs-cosamp", "mgcs-bpdn"),
    "sweep_seed5_rest.csv": ("conv-cosamp", "gcs-cosamp", "mcs-cosamp",
                             "conv-bpdn", "gcs-bpdn", "mcs-bpdn"),
}


def test_sweep_csv_matches_the_golden_file(tmp_path):
    # the seeded desk sweep over every estimator name, written byte for byte
    # as the committed files; a refactor that changes a reported digit fails
    for filename, solvers in GOLDEN_SWEEPS.items():
        table = run_sweep(desk_experiment(5, points=(10.0, 20.0), trials=4,
                                          solvers=solvers))
        out = emit_results(table, tmp_path / filename)
        golden = Path(__file__).parent / "data" / filename
        assert out.read_bytes() == golden.read_bytes(), filename


class TestCosampOrder:
    def test_every_desk_fit_is_tall(self, monkeypatch):
        # a seeded desk sweep of the four CoSaMP estimators: every solver call
        # gets 4S |g| <= Q, at S = 3 for groups of 4 and 12 for singletons,
        # and no least-squares problem ever holds more columns than Q rows
        orders, widths, append = [], [], _GrownQR.append

        def recording(Phi, y, part, S, **opts):
            orders.append((S, int(part.sizes[0])))
            return g_cosamp(Phi, y, part, S, **opts)

        def measured_append(fit, idx, cols):
            append(fit, idx, cols)
            widths.append(int(fit.n.max()))

        monkeypatch.setattr(mgcs.estimator, "g_cosamp", recording)
        monkeypatch.setattr(_GrownQR, "append", measured_append)
        config = desk_experiment(5, points=(10.0, 30.0), trials=2,
                                 solvers=("conv-cosamp", "gcs-cosamp", "mcs-cosamp",
                                          "mgcs-cosamp"))
        table = run_sweep(config)
        assert not table.failures.any()
        assert len(orders) == 2 * 2 * (2 * config.system.n_channels + 2)
        assert all(4 * S * size <= config.q for S, size in orders)
        assert set(orders) == {(3, 4), (12, 1)}
        assert widths and max(widths) <= config.q

    def test_rule(self):
        assert cosamp_order(288, 48, 4, 64) == 3
        assert cosamp_order(2, 48, 4, 64) == 2
        assert cosamp_order(288, 48, 1, 256) == 12
        assert cosamp_order(288, 480, 1, 20) == 5  # 4S <= B
        with pytest.raises(ConfigurationError, match="G-CoSaMP order"):
            cosamp_order(6, 15, 4, 64)

    @pytest.mark.parametrize("solver", ["gcs-cosamp", "mgcs-cosamp"])
    def test_too_few_pilots_for_one_group_is_a_configuration_error(self, solver):
        # Q = 15 < 4 |g| = 16: no order S >= 1 keeps 4S groups within Q rows
        with pytest.raises(ConfigurationError, match="G-CoSaMP order"):
            desk_experiment(1, q=15, solvers=(solver,))
        desk_experiment(1, q=15, solvers=("conv-cosamp", "mgcs-somp"))  # 4 |g| = 4

    def test_run_estimator_raises_for_too_few_pilots(self):
        config = desk_experiment(1)
        cfg = config.system
        tiling = make_block_tiling(cfg.D, cfg.J, config.dm, config.di)
        scheme = draw_pilots(cfg, 1, q=15)
        y_grid = np.ones((cfg.L, cfg.K, cfg.n_rx), dtype=complex)
        with pytest.raises(ConfigurationError, match="G-CoSaMP order"):
            run_estimator("mgcs-cosamp", y_grid, scheme, BasisSpec.dft(cfg.J, cfg.D), cfg,
                          tiling, 0.1)

    def test_blocksize_points_are_checked_before_any_trial(self):
        # 2x4 blocks hold 8 columns: 4 x 8 > 30 pilots
        with pytest.raises(ConfigurationError, match="G-CoSaMP order"):
            desk_experiment(1, q=30, axis="blocksize", points=("1x4", "2x4"),
                            solvers=("gcs-cosamp",))


class TestGreedyCap:
    def test_every_desk_fit_is_tall(self, monkeypatch):
        # a seeded desk sweep of the four G-OMP estimators: every g_omp and
        # g_dcs_somp call gets max_groups |g| <= Q/2, at 6 groups of 4 and 24
        # singletons, and no least-squares problem ever holds more columns
        # than Q rows
        caps, widths, append = [], [], _GrownQR.append

        def recording(solve):
            def capped(*args, max_groups, **opts):
                caps.append((max_groups, int(args[-1].sizes[0])))  # args end in part
                return solve(*args, max_groups=max_groups, **opts)
            return capped

        def measured_append(fit, idx, cols):
            append(fit, idx, cols)
            widths.append(int(fit.n.max()))

        monkeypatch.setattr(mgcs.estimator, "g_omp", recording(g_omp))
        monkeypatch.setattr(mgcs.estimator, "g_dcs_somp", recording(g_dcs_somp))
        monkeypatch.setattr(_GrownQR, "append", measured_append)
        config = desk_experiment(5, points=(10.0, 30.0), trials=2,
                                 solvers=("conv-omp", "gcs-omp", "mcs-somp", "mgcs-somp"))
        table = run_sweep(config)
        assert not table.failures.any()
        assert len(caps) == 2 * 2 * 4  # one solver call per estimate
        assert all(2 * groups * size <= config.q for groups, size in caps)
        assert set(caps) == {(6, 4), (24, 1)}
        assert widths and max(widths) <= config.q

    def test_a_call_without_a_cap_is_a_type_error(self):
        # on seed-1 desk trial [1, 0, 3] joint G-OMP without a cap selected all
        # 256 groups on 48 pilot rows, each fit past the 48th column a
        # minimum-norm one
        config = desk_experiment(1)
        cfg = config.system
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        scheme = draw_pilots(cfg, np.random.SeedSequence([1, 7919]), q=config.q)
        y_grid, *_ = simulate_trial(cfg, scheme, pulses, config.filters, point_geometry(cfg),
                                    20.0, [1, 0, 3])
        basis = BasisSpec.dft(cfg.J, cfg.D)
        ens = collect_measurements(y_grid, scheme, basis, cfg)
        part = make_block_tiling(cfg.D, cfg.J, 1, 1).to_partition()
        with pytest.raises(TypeError, match="max_groups"):
            g_omp(ens.operator(), ens.observations, part)
        with pytest.raises(TypeError, match="max_groups"):
            g_dcs_somp(ens, part)
        with pytest.raises(TypeError, match="'solver' and 'tiling'"):
            estimate_mimo(ens, scheme, basis, cfg)
        with pytest.raises(TypeError, match="max_groups"):
            estimate_mimo(ens, scheme, basis, cfg, "g-omp", None)


def test_budget_sparsity_is_capped_at_the_block_count():
    config = desk_experiment(1)
    cfg = config.system
    tiling = make_block_tiling(cfg.D, cfg.J, config.dm, config.di)
    nominal = sample_geometry(np.random.SeedSequence([1, 0]), point_geometry(cfg))
    tau_b, nu_b = cross_channel_bounds(nominal)
    dm_eff, di_eff = effective_support_widths(config.filters, cfg)
    s_joint = sparsity_budget(dm_eff, di_eff, tau_b, nu_b, tiling, nominal.n_scatterers,
                              cfg)[3]
    assert s_joint > tiling.n_blocks == 64
    assert budget_sparsity(tiling, config.filters, cfg, nominal.n_scatterers,
                           tau_b, nu_b) == tiling.n_blocks
    assert budget_sparsity(tiling, config.filters, cfg, 1, 0.0, 0.0) == sparsity_budget(
        dm_eff, di_eff, 0.0, 0.0, tiling, 1, cfg)[3] < 64


class TestSnrCalibration:
    def test_measured_snr_matches_target(self):
        cfg = tiny_system()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        geometry = desk_geometry(2, 2, fc=cfg.f0, block_duration=cfg.l_r * cfg.Ts)
        scheme = draw_pilots(cfg, 0, q=16)
        from mgcs.channel import FilterSpec

        snrs = []
        for trial in range(5):
            *_, measured = simulate_trial(
                cfg, scheme, pulses, FilterSpec(kind="rrc"), geometry, 17.0, [1, 0, trial]
            )
            snrs.append(measured)
        assert abs(np.mean(snrs) - 17.0) <= 0.5


class TestEmitResults:
    def make_table(self):
        return ResultTable(
            axis="snr", points=(20.0,), solvers=("mgcs-somp",),
            mean_mse_db=np.array([[-12.345678]]), stderr_db=np.array([[0.1234567]]),
            trials=7, failures=np.zeros(1, dtype=int), failure_kinds=Counter(),
        )

    def test_single_cell_two_lines(self, tmp_path):
        p = tmp_path / "out.csv"
        emit_results(self.make_table(), p)
        lines = p.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == "axis,solver,mean_mse_db,stderr_db,trials"

    def test_roundtrip_six_digits(self, tmp_path):
        p = tmp_path / "out.csv"
        emit_results(self.make_table(), p)
        fields = p.read_text().strip().split("\n")[1].split(",")
        assert float(fields[2]) == pytest.approx(-12.345678, rel=1e-5)
        assert float(fields[3]) == pytest.approx(0.1234567, rel=1e-5)
        assert int(fields[4]) == 7

    def test_rejects_empty(self, tmp_path):
        table = self.make_table()
        table.points = ()
        with pytest.raises(ConfigurationError):
            emit_results(table, tmp_path / "x.csv")


class TestBasisIo:
    def test_roundtrip_blockwise_exact(self, tmp_path):
        cfg = tiny_system()
        rng = np.random.default_rng(0)
        blocks = np.stack(
            [np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))[0]
             for _ in range(8)]
        )
        basis = BasisSpec(blocks)
        p = tmp_path / "basis.bin"
        mgio.save_basis(p, basis, mgio.config_fingerprint(cfg))
        loaded = mgio.load_basis(p, mgio.config_fingerprint(cfg))
        np.testing.assert_array_equal(loaded.blocks, basis.blocks)

    def test_wrong_system_rejected(self, tmp_path):
        cfg = tiny_system()
        other = SystemConfig(K=16, N=20, L=8, D=8, J=4, n_tx=2, n_rx=2)
        p = tmp_path / "basis.bin"
        mgio.save_basis(p, BasisSpec.dft(cfg.J, cfg.D), mgio.config_fingerprint(cfg))
        with pytest.raises(ConfigurationError):
            mgio.load_basis(p, mgio.config_fingerprint(other))

    def test_dft_tag_header_only(self, tmp_path):
        cfg = tiny_system()
        p = tmp_path / "basis.bin"
        mgio.save_basis(p, BasisSpec.dft(cfg.J, cfg.D), mgio.config_fingerprint(cfg))
        # header + fingerprint, no block payload
        assert p.stat().st_size < 200
        loaded = mgio.load_basis(p, mgio.config_fingerprint(cfg))
        assert loaded.is_dft


class TestPriorPaths:
    def test_in_prior_ranges(self):
        cfg = tiny_system()
        prior = desk_prior(cfg)
        paths = paths_from_prior(prior, 4, 3)
        assert paths.delays.min() >= 0
        assert paths.delays.max() <= prior.tau_max
        assert np.abs(paths.dopplers[:, 0]).max() <= prior.nu_max
        np.testing.assert_allclose(np.abs(paths.gains), 1.0)

    def test_deterministic(self):
        cfg = tiny_system()
        prior = desk_prior(cfg)
        p1 = paths_from_prior(prior, 4, 3)
        p2 = paths_from_prior(prior, 4, 3)
        np.testing.assert_array_equal(p1.delays, p2.delays)
        np.testing.assert_array_equal(p1.gains, p2.gains)


def test_desk_experiment_defaults_fit_grid():
    config = desk_experiment(master_seed=1)
    assert config.system.n_tx * config.q <= config.system.jd


def test_simulate_trial_never_builds_the_dense_channel(monkeypatch):
    # FactoredIR has no __array__; the tripwire catches any np.asarray of one
    def refuse(self, dtype=None, copy=None):
        raise AssertionError("dense impulse response built")

    monkeypatch.setattr(FactoredIR, "__array__", refuse, raising=False)
    cfg = tiny_system()
    with pytest.raises(AssertionError, match="dense"):
        np.asarray(identity_channel(cfg))
    geometry = desk_geometry(cfg.n_tx, cfg.n_rx, fc=cfg.f0, block_duration=cfg.l_r * cfg.Ts)
    y_grid, truth, sigma_z, _ = simulate_trial(
        cfg, draw_pilots(cfg, 1, q=16), cp_ofdm_pulses(cfg.K, cfg.N),
        FilterSpec(kind="rrc"), geometry, 20.0, 3)
    assert y_grid.shape == (cfg.L, cfg.K, cfg.n_rx)
    assert truth.shape == (cfg.L, cfg.K, cfg.n_rx, cfg.n_tx)
    assert np.isfinite(truth).all() and sigma_z > 0
