"""End-to-end tests of the command-line interface."""

import numpy as np
import pytest

import mgcs.cli
from mgcs.cli import filters_from_config, load_config, main, system_from_config
from mgcs.errors import ConfigurationError
from mgcs.estimator import draw_pilots
from mgcs.harness import desk_geometry, simulate_trial
from mgcs.io import load_tensor, save_tensor
from mgcs.waveform import cp_ofdm_pulses

SMALL = [
    "--set", "system.k=16", "--set", "system.n=20", "--set", "system.l=8",
    "--set", "system.d=8", "--set", "system.j=8", "--set", "pilots.q=16",
    "--set", "tiling.di=2",
]


def test_load_config_defaults_and_overrides(tmp_path):
    conf = load_config(None, ("system.k=128", "pilots.q=64"))
    assert conf["system"].getint("k") == 128
    assert conf["pilots"].getint("q") == 64
    assert conf["sweep"].get("axis") == "snr"


def test_load_config_file(tmp_path):
    p = tmp_path / "conf.ini"
    p.write_text("[system]\nk = 32\nn = 40\n")
    conf = load_config(str(p), ())
    assert conf["system"].getint("k") == 32
    assert conf["system"].getint("n_tx") == 2  # default survives


def test_bad_override():
    with pytest.raises(ConfigurationError):
        load_config(None, ("no-equals-sign",))


def test_simulate_then_estimate(tmp_path, capsys):
    tensor = str(tmp_path / "chan.bin")
    rc = main(SMALL + ["simulate", "--seed", "3", "--out", tensor])
    assert rc == 0
    t = load_tensor(tensor)
    assert t.shape == (8, 16, 2, 2)

    est_out = str(tmp_path / "est.bin")
    rc = main(SMALL + ["estimate", "--tensor", tensor, "--seed", "4", "--out", est_out])
    assert rc == 0
    out = capsys.readouterr().out
    assert "normalized mse" in out
    est = load_tensor(est_out)
    assert est.shape == t.shape


def test_simulate_writes_the_harness_trial_channel(tmp_path):
    """``simulate --seed N`` writes, bit for bit, the channel that
    simulate_trial draws for seed N: the first two children of spawn(4)
    equal spawn(2)."""
    seq = np.random.SeedSequence(9)
    assert [c.spawn_key for c in seq.spawn(4)[:2]] == [
        c.spawn_key for c in np.random.SeedSequence(9).spawn(2)]
    tensor = tmp_path / "chan.bin"
    assert main(SMALL + ["simulate", "--seed", "9", "--out", str(tensor)]) == 0
    conf = load_config(None, SMALL[1::2])
    cfg = system_from_config(conf)
    geometry = desk_geometry(cfg.n_tx, cfg.n_rx, fc=cfg.f0, block_duration=cfg.l_r * cfg.Ts)
    scheme = draw_pilots(cfg, 1, q=16)
    _, truth, _, _ = simulate_trial(cfg, scheme, cp_ofdm_pulses(cfg.K, cfg.N),
                                    filters_from_config(conf), geometry, 20.0, 9)
    save_tensor(tmp_path / "trial.bin", truth)
    assert tensor.read_bytes() == (tmp_path / "trial.bin").read_bytes()


def test_estimate_rejects_mismatched_tensor(tmp_path):
    tensor = str(tmp_path / "chan.bin")
    main(SMALL + ["simulate", "--seed", "3", "--out", tensor])
    rc = main(
        SMALL + ["--set", "system.k=32", "--set", "system.d=16",
                 "estimate", "--tensor", tensor, "--seed", "1",
                 "--out", str(tmp_path / "e.bin")]
    )
    assert rc == 2


def test_sweep_writes_results(tmp_path):
    out = str(tmp_path / "results.csv")
    rc = main(
        SMALL
        + ["--set", "sweep.points=20", "--set", "sweep.trials=2",
           "--set", "sweep.solvers=mgcs-somp",
           "sweep", "--seed", "11", "--out", out]
    )
    assert rc == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0].startswith("axis,solver")
    assert len(lines) == 2


def test_sweep_passes_the_basisopt_keys(tmp_path, monkeypatch):
    configs = []

    def capture(config):
        configs.append(config)
        raise ConfigurationError("captured")

    monkeypatch.setattr(mgcs.cli, "run_sweep", capture)
    rc = main(SMALL + ["--set", "basisopt.r=7", "--set", "basisopt.max_iters=3",
                       "--set", "basisopt.seed=5",
                       "sweep", "--seed", "11", "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    (config,) = configs
    assert (config.basis_samples, config.basis_max_iters, config.basis_seed) == (7, 3, 5)


def test_optimize_basis_and_reuse(tmp_path, capsys):
    basis_path = str(tmp_path / "basis.bin")
    args = SMALL + ["--set", "basisopt.r=16", "--set", "basisopt.max_iters=3"]
    rc = main(args + ["optimize-basis", "--out", basis_path])
    assert rc == 0
    assert "objective" in capsys.readouterr().out
    # the stored basis loads back into a sweep through the config
    out = str(tmp_path / "res.csv")
    rc = main(
        SMALL
        + ["--set", f"sweep.basis={basis_path}", "--set", "sweep.points=20",
           "--set", "sweep.trials=1", "--set", "sweep.solvers=mgcs-somp",
           "sweep", "--seed", "1", "--out", out]
    )
    assert rc == 0


def test_certify_ric(capsys):
    rc = main(SMALL + ["--set", "pilots.q=32", "--set", "tiling.di=4",
                       "certify-ric", "--seed", "2", "--order", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta_1|P" in out
    deltas = [float(line.rsplit("=", 1)[1]) for line in out.strip().split("\n")]
    assert all(0 <= d < 2 for d in deltas)


def test_seed_is_mandatory_for_sweep(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--out", str(tmp_path / "x.csv")])
