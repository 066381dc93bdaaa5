"""Tests for the experiment runner, result emission and basis persistence."""

from pathlib import Path

import numpy as np
import pytest

import mgcs.harness
from mgcs.errors import ConfigurationError, DomainError
from mgcs.estimator import BasisSpec
from mgcs.harness import (
    ExperimentConfig,
    ResultTable,
    basis_io,
    desk_experiment,
    desk_geometry,
    desk_prior,
    emit_results,
    parse_solver,
    paths_from_prior,
    run_sweep,
    simulate_trial,
)
from mgcs.waveform import SystemConfig, cp_ofdm_pulses
from mgcs.estimator import draw_pilots


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

    @pytest.mark.parametrize("name", ["xx-omp", "mgcssomp", "mgcs-xxx"])
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
        assert np.isfinite(table.mean_mse_db).all()

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("forced")

        monkeypatch.setattr(mgcs.harness, "run_estimator", broken)
        with pytest.raises(TypeError, match="forced"):
            run_sweep(tiny_experiment(trials=2, solvers=("mgcs-somp",)))


GOLDEN_SWEEP = Path(__file__).parent / "data" / "sweep_seed5.csv"
GOLDEN_SOLVERS = ("conv-omp", "gcs-omp", "mcs-somp", "mgcs-somp",
                  "mcs-omp", "mgcs-omp", "mgcs-cosamp", "mgcs-bpdn")


def test_sweep_csv_matches_the_golden_file(tmp_path):
    # the seeded desk sweep over every benchmark estimator, written byte for
    # byte as the committed file; a refactor that changes a reported digit fails
    table = run_sweep(desk_experiment(5, points=(10.0, 20.0), trials=4,
                                      solvers=GOLDEN_SOLVERS))
    out = emit_results(table, tmp_path / "sweep.csv")
    assert out.read_bytes() == GOLDEN_SWEEP.read_bytes()


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
            trials=7, failures=np.zeros(1, dtype=int),
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
        basis = BasisSpec.from_blocks(blocks)
        p = tmp_path / "basis.bin"
        basis_io("save", p, basis=basis, cfg=cfg)
        loaded = basis_io("load", p, cfg=cfg)
        np.testing.assert_array_equal(loaded.blocks, basis.blocks)

    def test_wrong_system_rejected(self, tmp_path):
        cfg = tiny_system()
        other = SystemConfig(K=16, N=20, L=8, D=8, J=4, n_tx=2, n_rx=2)
        p = tmp_path / "basis.bin"
        basis_io("save", p, basis=BasisSpec.dft(cfg.J, cfg.D), cfg=cfg)
        with pytest.raises(ConfigurationError):
            basis_io("load", p, cfg=other)

    def test_dft_tag_header_only(self, tmp_path):
        cfg = tiny_system()
        p = tmp_path / "basis.bin"
        basis_io("save", p, basis=BasisSpec.dft(cfg.J, cfg.D), cfg=cfg)
        # header + fingerprint, no block payload
        assert p.stat().st_size < 200
        loaded = basis_io("load", p, cfg=cfg)
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
