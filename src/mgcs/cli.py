"""Command-line interface.

Subcommands: ``simulate`` (one channel realization to disk), ``estimate``
(tensor + config to an estimate and its error), ``optimize-basis`` (prior +
config to a basis file), ``sweep`` (config to a results table) and
``certify-ric`` (brute-force isometry constant of a small scheme).

Configuration lives in an INI file with nested key/value sections; every key
can be overridden on the command line with ``--set section.key=value``.
"""

import argparse
import configparser
import json
import sys
import numpy as np

from . import io as mgio
from .basisopt import attach_kernels, optimize_blocks, sample_prior
from .channel import FilterSpec
from .errors import ConfigurationError
from .estimator import BasisSpec, draw_pilots, normalized_mse, rmse
from .harness import (
    ExperimentConfig,
    desk_geometry,
    desk_prior,
    emit_results,
    parse_solver,
    run_estimator,
    run_sweep,
    simulate_channel,
)
from .partition import make_block_tiling
from .recovery import group_ric
from .waveform import SystemConfig, cp_ofdm_pulses, effective_coeffs

DEFAULT_CONFIG = {
    "system": {
        "k": "64", "n": "80", "l": "16", "d": "16", "j": "16",
        "n_tx": "2", "n_rx": "2", "f0": "40e9", "ts": "2e-7",
    },
    "tiling": {"dm": "1", "di": "4"},
    "pilots": {"q": "48"},
    "channel": {"filter": "rrc", "rolloff": "0.25", "oversampling": "16", "span": "16"},
    "estimator": {"solver": "mgcs-somp", "snr_db": "20.0", "residual_scale": "1.0"},
    "sweep": {
        "axis": "snr",
        "points": "0,10,20,30",
        "solvers": "conv-omp,gcs-omp,mcs-somp,mgcs-somp",
        "trials": "50",
        "basis": "dft",
    },
    "basisopt": {"r": "256", "eps_init": "0.1", "eps_floor": "1e-4", "max_iters": "30",
                 "seed": "12345"},
}


def load_config(path=None, overrides=()):
    parser = configparser.ConfigParser()
    parser.read_dict(DEFAULT_CONFIG)
    if path:
        with open(path) as fh:
            parser.read_file(fh)
    for item in overrides:
        try:
            key, value = item.split("=", 1)
            section, option = key.split(".", 1)
        except ValueError:
            raise ConfigurationError(f"override {item!r} is not section.key=value") from None
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, option, value)
    return parser


def system_from_config(conf):
    s = conf["system"]
    return SystemConfig(
        K=s.getint("k"), N=s.getint("n"), L=s.getint("l"), D=s.getint("d"),
        J=s.getint("j"), n_tx=s.getint("n_tx"), n_rx=s.getint("n_rx"),
        f0=s.getfloat("f0"), Ts=s.getfloat("ts"),
    )


def filters_from_config(conf):
    c = conf["channel"]
    return FilterSpec(
        kind=c.get("filter"), rolloff=c.getfloat("rolloff"),
        oversampling=c.getint("oversampling"), span=c.getint("span"),
    )


def _basis_for(conf, cfg, path_or_tag):
    if path_or_tag == "dft":
        return BasisSpec.dft(cfg.J, cfg.D)
    return mgio.load_basis(path_or_tag, mgio.config_fingerprint(cfg))


def cmd_simulate(args):
    conf = load_config(args.config, args.set or ())
    cfg = system_from_config(conf)
    filters = filters_from_config(conf)
    pulses = cp_ofdm_pulses(cfg.K, cfg.N)
    geometry = desk_geometry(cfg.n_tx, cfg.n_rx, fc=cfg.f0,
                             block_duration=cfg.l_r * cfg.Ts)
    # the same first two seed children as harness.simulate_trial
    s_geo, s_gain = np.random.SeedSequence(args.seed).spawn(2)
    H = simulate_channel(cfg, filters, geometry, s_geo, s_gain)
    truth = effective_coeffs(H, pulses, cfg)
    mgio.save_tensor(args.out, truth)
    meta = {
        "seed": args.seed,
        "system": {k: getattr(cfg, k) for k in ("K", "N", "L", "D", "J", "n_tx", "n_rx", "f0", "Ts")},
        "shape": list(truth.shape),
    }
    with open(args.out + ".json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    print(f"wrote channel coefficient tensor {truth.shape} to {args.out}")


def cmd_estimate(args):
    conf = load_config(args.config, args.set or ())
    cfg = system_from_config(conf)
    pulses = cp_ofdm_pulses(cfg.K, cfg.N)
    truth = mgio.load_tensor(args.tensor)
    if truth.shape != (cfg.L, cfg.K, cfg.n_rx, cfg.n_tx):
        raise ConfigurationError(
            f"tensor shape {truth.shape} does not match the configured system"
        )
    est_conf = conf["estimator"]
    solver = est_conf.get("solver")
    parse_solver(solver)
    snr_db = est_conf.getfloat("snr_db")
    tiling = make_block_tiling(cfg.D, cfg.J, conf["tiling"].getint("dm"),
                               conf["tiling"].getint("di"))
    basis = _basis_for(conf, cfg, conf["sweep"].get("basis"))
    ss = np.random.SeedSequence(args.seed)
    s_pilot, s_data, s_noise = ss.spawn(3)
    scheme = draw_pilots(cfg, s_pilot, q=conf["pilots"].getint("q"))
    # diagonal system model on the provided coefficient grid
    from .estimator import assemble_frame

    a = assemble_frame(scheme, cfg, np.random.default_rng(s_data))
    y_clean = np.einsum("lkrs,lks->lkr", truth, a)
    p_sig = float(np.mean(np.abs(y_clean) ** 2)) / cfg.K  # per received sample
    sigma2 = p_sig / 10 ** (snr_db / 10)
    rng_noise = np.random.default_rng(s_noise)
    z = np.sqrt(cfg.K * sigma2 / 2) * (
        rng_noise.standard_normal(y_clean.shape) + 1j * rng_noise.standard_normal(y_clean.shape)
    )
    y_grid = y_clean + z
    est = run_estimator(solver, y_grid, scheme, basis, cfg, tiling, np.sqrt(sigma2),
                        residual_scale=est_conf.getfloat("residual_scale"))
    mgio.save_tensor(args.out, est.h_full)
    print(f"solver {solver}: rmse {rmse(est.h_full, truth):.6g}, "
          f"normalized mse {normalized_mse(est.h_full, truth):.6g} "
          f"({10 * np.log10(normalized_mse(est.h_full, truth)):.2f} dB)")


def cmd_optimize_basis(args):
    conf = load_config(args.config, args.set or ())
    cfg = system_from_config(conf)
    filters = filters_from_config(conf)
    pulses = cp_ofdm_pulses(cfg.K, cfg.N)
    bo = conf["basisopt"]
    tiling = make_block_tiling(cfg.D, cfg.J, conf["tiling"].getint("dm"),
                               conf["tiling"].getint("di"))
    prior = desk_prior(cfg)
    samples = attach_kernels(
        sample_prior(prior, bo.getint("r"), bo.getint("seed")), pulses, cfg, filters
    )
    basis, diags = optimize_blocks(
        samples, tiling, pulses, cfg,
        eps_init=bo.getfloat("eps_init"), eps_floor=bo.getfloat("eps_floor"),
        max_iters=bo.getint("max_iters"),
    )
    mgio.save_basis(args.out, basis, mgio.config_fingerprint(cfg))
    print(f"objective {diags.initial_objective:.6g} -> {diags.final_objective:.6g}; "
          f"basis written to {args.out}")


def cmd_sweep(args):
    conf = load_config(args.config, args.set or ())
    cfg = system_from_config(conf)
    sw = conf["sweep"]
    points = tuple(
        p if sw.get("axis") == "blocksize" else float(p)
        for p in sw.get("points").split(",")
    )
    config = ExperimentConfig(
        system=cfg,
        q=conf["pilots"].getint("q"),
        master_seed=args.seed,
        dm=conf["tiling"].getint("dm"),
        di=conf["tiling"].getint("di"),
        axis=sw.get("axis"),
        points=points,
        solvers=tuple(s.strip() for s in sw.get("solvers").split(",")),
        trials=sw.getint("trials"),
        snr_db=conf["estimator"].getfloat("snr_db"),
        basis=sw.get("basis"),
        filters=filters_from_config(conf),
        residual_scale=conf["estimator"].getfloat("residual_scale"),
        basis_samples=conf["basisopt"].getint("r"),
        basis_seed=conf["basisopt"].getint("seed"),
        basis_max_iters=conf["basisopt"].getint("max_iters"),
    )
    table = run_sweep(config)
    emit_results(table, args.out)
    print(f"wrote {len(table.points) * len(table.solvers)} cells to {args.out}")
    for pi, point in enumerate(table.points):
        for si, solver in enumerate(table.solvers):
            print(f"  {point} {solver}: {table.mean_mse_db[pi, si]:.2f} dB")


def cmd_certify_ric(args):
    conf = load_config(args.config, args.set or ())
    cfg = system_from_config(conf)
    basis = _basis_for(conf, cfg, conf["sweep"].get("basis"))
    scheme = draw_pilots(cfg, args.seed, q=conf["pilots"].getint("q"))
    from .estimator import build_phi

    tiling = make_block_tiling(cfg.D, cfg.J, conf["tiling"].getint("dm"),
                               conf["tiling"].getint("di"))
    part = tiling.to_partition()
    mats = build_phi(scheme, basis, cfg)
    for s, Phi in enumerate(mats):
        delta = group_ric(Phi, part, args.order)
        print(f"transmit set {s}: delta_{args.order}|P = {delta:.6g}")


def main(argv=None):
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=argparse.SUPPRESS,
                        help="INI configuration file")
    shared.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        default=argparse.SUPPRESS,
                        help="override a configuration key")
    parser = argparse.ArgumentParser(
        prog="mgcs",
        description="Multichannel group-sparse compressive channel estimation",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[shared],
                       help="generate one channel realization")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", parents=[shared],
                       help="estimate a stored channel realization")
    p.add_argument("--tensor", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("optimize-basis", parents=[shared],
                       help="compute and store an optimized basis")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optimize_basis)

    p = sub.add_parser("sweep", parents=[shared], help="run a Monte-Carlo sweep")
    p.add_argument("--seed", type=int, required=True, help="master seed (mandatory)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("certify-ric", parents=[shared],
                       help="brute-force a pilot scheme's G-RIC")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--order", type=int, default=1)
    p.set_defaults(func=cmd_certify_ric)

    args = parser.parse_args(argv)
    args.config = getattr(args, "config", None)
    args.set = getattr(args, "set", None)
    try:
        args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
