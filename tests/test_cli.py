"""End-to-end tests of the command-line interface."""

import struct

import numpy as np
import pytest

import mgcs.cli
import mgcs.harness
from mgcs.cli import KEYS, experiment_from_config, load_config, main
from mgcs.errors import ConfigurationError
from mgcs.estimator import draw_pilots
from mgcs.harness import desk_experiment, desk_geometry, resolve_basis, simulate_trial
from mgcs.io import config_fingerprint, load_basis, load_tensor, save_tensor
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


def test_unknown_key_from_set_is_an_error(tmp_path, capsys):
    with pytest.raises(ConfigurationError, match="unknown key sweep.trails"):
        load_config(None, ("sweep.trails=1",))
    rc = main(SMALL + ["--set", "sweep.trails=1",
                       "sweep", "--seed", "1", "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown key sweep.trails\n"
    assert not (tmp_path / "r.csv").exists()


def test_unknown_key_in_file_is_an_error(tmp_path, capsys):
    p = tmp_path / "conf.ini"
    p.write_text("[basisopt]\nr = 16\neps_init = 0.5\n")
    rc = main(["--config", str(p), "optimize-basis", "--out", str(tmp_path / "b.bin")])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown key basisopt.eps_init\n"


def test_defaults_are_the_desk_experiment():
    assert experiment_from_config(load_config(), 3) == desk_experiment(3)


# a valid value other than desk_experiment's for every key of the schema
OTHER_VALUES = {
    "system.k": "32", "system.n": "96", "system.l": "32", "system.d": "8",
    "system.j": "8", "system.n_tx": "1", "system.n_rx": "3", "system.f0": "5e9",
    "system.ts": "1e-7", "tiling.dm": "2", "tiling.di": "2", "pilots.q": "32",
    "channel.filter": "kronecker", "channel.rolloff": "0.5",
    "channel.oversampling": "8", "channel.span": "8", "estimator.solver": "conv-omp",
    "estimator.snr_db": "10", "estimator.residual_scale": "2", "sweep.axis": "antennas",
    "sweep.points": "5,15", "sweep.solvers": "mgcs-omp", "sweep.trials": "3",
    "sweep.basis": "optimize", "basisopt.r": "16", "basisopt.seed": "1",
    "basisopt.max_iters": "2",
}


@pytest.mark.parametrize("key", sorted(KEYS))
def test_every_key_reaches_the_run(key, tmp_path, monkeypatch):
    """Schema check: each key of the table changes the ExperimentConfig that
    experiment_from_config builds, or, for estimator.solver, the estimator
    that ``estimate`` runs.  A key that reaches nothing fails here."""
    assert set(OTHER_VALUES) == set(KEYS)
    override = f"{key}={OTHER_VALUES[key]}"
    assert load_config(None, (override,)).get(*key.split(".")) == OTHER_VALUES[key]
    if key != "estimator.solver":
        assert (experiment_from_config(load_config(None, (override,)), 1)
                != experiment_from_config(load_config(), 1))
        return
    assert experiment_from_config(load_config(None, (override,)), 1) == desk_experiment(1)
    names = []

    def capture(name, *args, **kwargs):
        names.append(name)
        raise ConfigurationError("captured")

    monkeypatch.setattr(mgcs.cli, "run_estimator", capture)
    tensor = str(tmp_path / "chan.bin")
    save_tensor(tensor, np.ones((8, 16, 2, 2)))
    for args in ([], ["--set", override]):
        main(SMALL + args + ["estimate", "--tensor", tensor, "--seed", "1",
                             "--out", str(tmp_path / "e.bin")])
    assert names == [mgcs.cli.ESTIMATE_SOLVER, OTHER_VALUES[key]]


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
    config = experiment_from_config(load_config(None, SMALL[1::2]), 9)
    cfg = config.system
    geometry = desk_geometry(cfg.n_tx, cfg.n_rx, fc=cfg.f0, block_duration=cfg.l_r * cfg.Ts)
    scheme = draw_pilots(cfg, 1, q=16)
    _, truth, _, _ = simulate_trial(cfg, scheme, cp_ofdm_pulses(cfg.K, cfg.N),
                                    config.filters, geometry, 20.0, 9)
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


def test_sweep_passes_the_basisopt_keys(tmp_path, monkeypatch, capsys):
    """The [basisopt] keys reach the sweep's ExperimentConfig; an optimizing
    sweep calls optimize_blocks exactly as ``optimize-basis`` does; the keys
    that only ``optimize-basis`` used to read are rejected."""
    configs, calls = [], []

    def capture(config):
        configs.append(config)
        raise ConfigurationError("captured")

    def record(samples, tiling, pulses, cfg, **kwargs):
        calls.append((samples.taus.tobytes(), samples.C.tobytes(), tiling, cfg, kwargs))
        raise ConfigurationError("captured")

    keys = SMALL + ["--set", "basisopt.r=7", "--set", "basisopt.max_iters=3",
                    "--set", "basisopt.seed=5"]
    sweep = ["sweep", "--seed", "11", "--out", str(tmp_path / "r.csv")]
    monkeypatch.setattr(mgcs.harness, "optimize_blocks", record)
    assert main(keys + ["optimize-basis", "--out", str(tmp_path / "b.bin")]) == 2
    assert main(keys + ["--set", "sweep.basis=optimize"] + sweep) == 2
    assert len(calls) == 2 and calls[0] == calls[1]
    assert calls[0][4] == {"max_iters": 3}

    monkeypatch.setattr(mgcs.cli, "run_sweep", capture)
    assert main(keys + sweep) == 2
    (config,) = configs
    assert (config.basis_samples, config.basis_max_iters, config.basis_seed) == (7, 3, 5)
    capsys.readouterr()
    for key in ("eps_init", "eps_floor"):
        assert main(keys + ["--set", f"basisopt.{key}=0.5"] + sweep) == 2
        assert capsys.readouterr().err == f"error: unknown key basisopt.{key}\n"
    assert len(configs) == 1


OPTIMIZE = ["--set", "sweep.basis=optimize", "--set", "basisopt.r=8",
            "--set", "basisopt.max_iters=2"]


def test_estimate_and_certify_ric_optimize_the_basis(tmp_path, capsys):
    tensor = str(tmp_path / "chan.bin")
    assert main(SMALL + ["simulate", "--seed", "3", "--out", tensor]) == 0
    assert main(SMALL + OPTIMIZE + ["estimate", "--tensor", tensor, "--seed", "4",
                                    "--out", str(tmp_path / "est.bin")]) == 0
    assert "normalized mse" in capsys.readouterr().out
    assert main(SMALL + OPTIMIZE + ["--set", "pilots.q=32", "--set", "tiling.di=4",
                                    "certify-ric", "--seed", "2"]) == 0
    assert "delta_1|P" in capsys.readouterr().out


def test_optimize_basis_writes_the_sweep_basis(tmp_path):
    """``optimize-basis`` and resolve_basis on the same configuration build
    bit-identical blocks."""
    out = tmp_path / "basis.bin"
    assert main(SMALL + OPTIMIZE + ["optimize-basis", "--out", str(out)]) == 0
    config = experiment_from_config(load_config(None, (SMALL + OPTIMIZE)[1::2]), 11)
    cfg = config.system
    basis = resolve_basis(config, cfg, cp_ofdm_pulses(cfg.K, cfg.N))
    assert not basis.is_dft
    assert load_basis(out, config_fingerprint(cfg)).blocks.tobytes() == basis.blocks.tobytes()


def _written(tmp_path, data):
    (tmp_path / "junk.bin").write_bytes(data)
    return str(tmp_path / "junk.bin")


def _tensor_header(dim):
    # a one-dimensional tensor of ``dim`` values (16 dim bytes), without them
    return b"MGCT" + struct.pack("<IIQ", 1, 1, dim)


def _basis_header(side):
    # a non-DFT basis of D = J = side (16 side^3 bytes) with SMALL's
    # fingerprint, without its blocks
    fp = config_fingerprint(experiment_from_config(load_config(None, SMALL[1::2]), 1).system)
    return (b"MGBS" + struct.pack("<IBIII", 1, 1, side, side, 1)
            + struct.pack("<I", len(fp)) + fp.encode())


@pytest.mark.parametrize("kind,args", [
    ("missing tensor", lambda d: ["estimate", "--tensor", str(d / "nothere.bin")]),
    ("not a tensor", lambda d: ["estimate", "--tensor", _written(d, b"junk")]),
    ("tensor of 2^58 values", lambda d: ["estimate", "--tensor",
                                         _written(d, _tensor_header(2**58))]),
    ("tensor of 2^62 values", lambda d: ["estimate", "--tensor",
                                         _written(d, _tensor_header(2**62))]),
    ("basis of 2^16 delays", lambda d: [
        "--set", f"sweep.basis={_written(d, _basis_header(2**16))}",
        "estimate", "--tensor", str(d / "chan.bin")]),
    ("missing config", lambda d: ["--config", str(d / "nothere.ini"), "estimate",
                                  "--tensor", str(d / "chan.bin")]),
    ("missing basis", lambda d: ["--set", f"sweep.basis={d / 'nothere.basis'}",
                                 "estimate", "--tensor", str(d / "chan.bin")]),
    ("not a basis", lambda d: ["--set", f"sweep.basis={d / 'chan.bin'}",
                               "estimate", "--tensor", str(d / "chan.bin")]),
])
def test_bad_input_paths_exit_2_without_traceback(kind, args, tmp_path, capsys):
    assert main(SMALL + ["simulate", "--seed", "3", "--out", str(tmp_path / "chan.bin")]) == 0
    capsys.readouterr()
    rc = main(SMALL + args(tmp_path) + ["--seed", "1", "--out", str(tmp_path / "e.bin")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("point", ["3", "3x2", "1x3", "0x2", "ax2"])
def test_bad_blocksize_point_exits_2_without_traceback(point, tmp_path, capsys):
    overrides = ("sweep.axis=blocksize", f"sweep.points={point}")
    with pytest.raises(ConfigurationError, match="blocksize point|must divide"):
        experiment_from_config(load_config(None, (*SMALL[1::2], *overrides)), 1)
    rc = main(SMALL + ["--set", overrides[0], "--set", overrides[1],
                       "sweep", "--seed", "1", "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


def test_too_few_pilots_for_a_cosamp_order_exits_2_without_traceback(tmp_path, capsys):
    # Q = 12 pilots cannot hold 4S groups of 4 columns for any S >= 1
    rc = main(["--set", "sweep.trials=1", "--set", "sweep.points=20",
               "--set", "sweep.solvers=mgcs-somp,mgcs-cosamp", "--set", "pilots.q=12",
               "sweep", "--seed", "1", "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no G-CoSaMP order") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("value", [
    "pilots.q=0", "pilots.q=-3", "system.n_tx=0", "system.n_rx=0", "system.d=0",
    "system.j=0", "tiling.dm=0", "tiling.di=0", "channel.rolloff=0",
    "channel.oversampling=0", "channel.span=-2", "system.ts=0", "sweep.trials=-1",
    "system.f0=0", "system.f0=-5e9",
])
def test_out_of_range_value_exits_2_without_traceback(value, tmp_path, capsys):
    rc = main(["--set", "sweep.trials=1", "--set", "sweep.points=20", "--set", value,
               "sweep", "--seed", "1", "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


def test_percent_in_a_value_is_taken_literally(tmp_path, capsys):
    conf = load_config(None, ("sweep.basis=50%.bin",))
    assert experiment_from_config(conf, 1).basis == "50%.bin"
    assert main(SMALL + ["simulate", "--seed", "3", "--out", str(tmp_path / "chan.bin")]) == 0
    capsys.readouterr()
    rc = main(SMALL + ["--set", f"sweep.basis={tmp_path / '50%.bin'}", "estimate",
                       "--tensor", str(tmp_path / "chan.bin"), "--seed", "1",
                       "--out", str(tmp_path / "e.bin")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "50%.bin" in err and err.count("\n") == 1


def test_programming_errors_still_propagate(tmp_path, monkeypatch):
    def broken(config):
        raise KeyError("bug")

    monkeypatch.setattr(mgcs.cli, "run_sweep", broken)
    with pytest.raises(KeyError):
        main(SMALL + ["sweep", "--seed", "1", "--out", str(tmp_path / "r.csv")])


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
