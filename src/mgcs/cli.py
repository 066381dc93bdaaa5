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
from functools import reduce
import numpy as np

from . import io as mgio
from .channel import FilterSpec
from .errors import PACKAGE_ERRORS, ConfigurationError
from .estimator import assemble_frame, build_phi, draw_pilots, normalized_mse, rmse
from .harness import (
    ExperimentConfig,
    desk_experiment,
    emit_results,
    optimize_basis,
    parse_solver,
    point_geometry,
    resolve_basis,
    run_estimator,
    run_sweep,
    simulate_channel,
)
from .partition import make_block_tiling
from .recovery import group_ric
from .waveform import SystemConfig, cp_ofdm_pulses, effective_coeffs


def _csv(text):
    return tuple(v.strip() for v in text.split(","))


# The configuration schema: INI section.key -> (ExperimentConfig field, parser).
# "system.*" and "filters.*" are fields of its SystemConfig and FilterSpec.
# Defaults are desk_experiment's; estimator.solver, the estimate subcommand's
# estimator, is the one key the experiment does not hold.
KEYS = {
    "system.k": ("system.K", int),
    "system.n": ("system.N", int),
    "system.l": ("system.L", int),
    "system.d": ("system.D", int),
    "system.j": ("system.J", int),
    "system.n_tx": ("system.n_tx", int),
    "system.n_rx": ("system.n_rx", int),
    "system.f0": ("system.f0", float),
    "system.ts": ("system.Ts", float),
    "tiling.dm": ("dm", int),
    "tiling.di": ("di", int),
    "pilots.q": ("q", int),
    "channel.filter": ("filters.kind", str),
    "channel.rolloff": ("filters.rolloff", float),
    "channel.oversampling": ("filters.oversampling", int),
    "channel.span": ("filters.span", int),
    "estimator.solver": (None, str),
    "estimator.snr_db": ("snr_db", float),
    "estimator.residual_scale": ("residual_scale", float),
    "sweep.axis": ("axis", str),
    "sweep.points": ("points", _csv),  # numbers unless the axis is blocksize
    "sweep.solvers": ("solvers", _csv),
    "sweep.trials": ("trials", int),
    "sweep.basis": ("basis", str),
    "basisopt.r": ("basis_samples", int),
    "basisopt.seed": ("basis_seed", int),
    "basisopt.max_iters": ("basis_max_iters", int),
}
ESTIMATE_SOLVER = "mgcs-somp"


def load_config(path=None, overrides=()):
    """desk_experiment's values, then the INI file, then ``section.key=value``
    overrides; a key outside :data:`KEYS` is a ConfigurationError."""
    desk, defaults = desk_experiment(0), {}
    for key, (field, _) in KEYS.items():
        section, option = key.split(".")
        value = reduce(getattr, field.split("."), desk) if field else ESTIMATE_SOLVER
        defaults.setdefault(section, {})[option] = (
            ",".join(map(str, value)) if isinstance(value, tuple) else str(value))
    parser = configparser.ConfigParser(interpolation=None)  # values are literal: no %
    parser.read_dict(defaults)
    if path:
        with open(path) as fh:
            try:
                parser.read_file(fh)
            except configparser.Error as exc:
                raise ConfigurationError(f"{path}: {exc}") from None
    for item in overrides:
        try:
            key, value = item.split("=", 1)
            section, option = key.split(".", 1)
        except ValueError:
            raise ConfigurationError(f"override {item!r} is not section.key=value") from None
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, option, value)
    for section in parser.sections():
        for option in parser[section]:
            if f"{section}.{option}" not in KEYS:
                raise ConfigurationError(f"unknown key {section}.{option}")
    return parser


def experiment_from_config(conf, seed):
    """The ExperimentConfig that a loaded configuration describes, with master
    seed ``seed``."""
    values = {"": {}, "system": {}, "filters": {}}
    for key, (field, parse) in KEYS.items():
        if field is None:
            continue
        try:
            value = parse(conf.get(*key.split(".")))
            if field == "points" and conf.get("sweep", "axis") != "blocksize":
                value = tuple(float(p) for p in value)
        except ValueError as exc:
            raise ConfigurationError(f"{key}: {exc}") from None
        head, _, name = field.rpartition(".")
        values[head][name] = value
    return ExperimentConfig(system=SystemConfig(**values["system"]),
                            filters=FilterSpec(**values["filters"]),
                            master_seed=seed, **values[""])


def _experiment(args, seed):
    """The loaded configuration and the experiment it describes."""
    conf = load_config(getattr(args, "config", None), getattr(args, "set", ()))
    return conf, experiment_from_config(conf, seed)


def cmd_simulate(args):
    _, config = _experiment(args, args.seed)
    cfg = config.system
    pulses = cp_ofdm_pulses(cfg.K, cfg.N)
    # the same first two seed children as harness.simulate_trial
    s_geo, s_gain = np.random.SeedSequence(args.seed).spawn(2)
    H = simulate_channel(cfg, config.filters, point_geometry(cfg), s_geo, s_gain)
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
    conf, config = _experiment(args, args.seed)
    cfg = config.system
    pulses = cp_ofdm_pulses(cfg.K, cfg.N)
    truth = mgio.load_tensor(args.tensor)
    if truth.shape != (cfg.L, cfg.K, cfg.n_rx, cfg.n_tx):
        raise ConfigurationError(
            f"tensor shape {truth.shape} does not match the configured system"
        )
    solver = conf.get("estimator", "solver")
    parse_solver(solver)
    tiling = make_block_tiling(cfg.D, cfg.J, config.dm, config.di)
    basis = resolve_basis(config, cfg, pulses)
    s_pilot, s_data, s_noise = np.random.SeedSequence(args.seed).spawn(3)
    scheme = draw_pilots(cfg, s_pilot, q=config.q)
    # diagonal system model on the provided coefficient grid
    a = assemble_frame(scheme, cfg, np.random.default_rng(s_data))
    y_clean = np.einsum("lkrs,lks->lkr", truth, a)
    p_sig = float(np.mean(np.abs(y_clean) ** 2)) / cfg.K  # per received sample
    sigma2 = p_sig / 10 ** (config.snr_db / 10)
    rng_noise = np.random.default_rng(s_noise)
    z = np.sqrt(cfg.K * sigma2 / 2) * (
        rng_noise.standard_normal(y_clean.shape) + 1j * rng_noise.standard_normal(y_clean.shape)
    )
    y_grid = y_clean + z
    est = run_estimator(solver, y_grid, scheme, basis, cfg, tiling, np.sqrt(sigma2),
                        residual_scale=config.residual_scale, max_groups=config.max_groups)
    mgio.save_tensor(args.out, est.h_full)
    print(f"solver {solver}: rmse {rmse(est.h_full, truth):.6g}, "
          f"normalized mse {normalized_mse(est.h_full, truth):.6g} "
          f"({10 * np.log10(normalized_mse(est.h_full, truth)):.2f} dB)")


def cmd_optimize_basis(args):
    _, config = _experiment(args, 0)  # the master seed draws nothing here
    cfg = config.system
    basis, diags = optimize_basis(config, cfg, cp_ofdm_pulses(cfg.K, cfg.N))
    mgio.save_basis(args.out, basis, mgio.config_fingerprint(cfg))
    print(f"objective {diags.initial_objective:.6g} -> {diags.final_objective:.6g}; "
          f"basis written to {args.out}")


def cmd_sweep(args):
    _, config = _experiment(args, args.seed)
    table = run_sweep(config)
    emit_results(table, args.out)
    print(f"wrote {len(table.points) * len(table.solvers)} cells to {args.out}")
    for pi, point in enumerate(table.points):
        for si, solver in enumerate(table.solvers):
            print(f"  {point} {solver}: {table.mean_mse_db[pi, si]:.2f} dB")


def cmd_certify_ric(args):
    _, config = _experiment(args, args.seed)
    cfg = config.system
    basis = resolve_basis(config, cfg, cp_ofdm_pulses(cfg.K, cfg.N))
    scheme = draw_pilots(cfg, args.seed, q=config.q)
    part = make_block_tiling(cfg.D, cfg.J, config.dm, config.di).to_partition()
    for s, Phi in enumerate(build_phi(scheme, basis, cfg)):
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
    try:
        args.func(args)
    except (OSError, *PACKAGE_ERRORS) as exc:  # user input: a path or a value
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
