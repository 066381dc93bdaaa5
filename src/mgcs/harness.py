"""Configuration-driven Monte-Carlo experiment runner.

Simulates doubly selective MIMO blocks end to end (geometry, modem, noise),
runs the configured estimator variants, and aggregates normalized MSE per
sweep point.  All randomness derives from a master seed, so two runs of the
same configuration produce identical result files.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import io as mgio
from .basisopt import attach_kernels, optimize_blocks, reference_prior, sample_prior
from .channel import (
    FilterSpec,
    GeometryParams,
    PathSet,
    cross_channel_bounds,
    discrete_ir,
    path_params,
    sample_geometry,
)
from .errors import BudgetExceededError, ConfigurationError, ConvergenceError, DomainError
from .estimator import (
    BasisSpec,
    assemble_frame,
    collect_measurements,
    draw_pilots,
    estimate_mimo,
    normalized_mse,
)
from .partition import make_block_tiling
from .waveform import (
    SystemConfig,
    apply_discrete_channel,
    cp_ofdm_pulses,
    demodulate,
    effective_coeffs,
    modulate,
)

SOLVER_STRUCTURES = {
    "conv": (False, False),  # (use tiling groups, joint across channels)
    "gcs": (True, False),
    "mcs": (False, True),
    "mgcs": (True, True),
}
SOLVER_ALGOS = ("omp", "somp", "cosamp", "bpdn")
# the package's typed errors: a trial that raises one counts as a failure, any
# other exception is a programming error and propagates
_TRIAL_ERRORS = (ConfigurationError, DomainError, BudgetExceededError, ConvergenceError)


def parse_solver(name):
    """Split a '<structure>-<algorithm>' estimator name."""
    try:
        structure, algo = name.split("-", 1)
        grouped, joint = SOLVER_STRUCTURES[structure]
    except (ValueError, KeyError):
        raise ConfigurationError(f"unknown estimator variant {name!r}") from None
    if algo not in SOLVER_ALGOS:
        raise ConfigurationError(f"unknown algorithm {algo!r} in {name!r}")
    return grouped, joint, algo


def desk_geometry(n_tx, n_rx, fc=5e9, block_duration=0.0):
    """Scaled-down scatterer scenario whose delay spread fits a small delay
    rectangle at 5 MHz bandwidth."""
    return GeometryParams(
        n_tx=n_tx,
        n_rx=n_rx,
        fc=fc,
        n_far_clusters=2,
        n_near_clusters=1,
        per_cluster=2,
        area=(400.0, 200.0),
        near_radius=40.0,
        link_distance=300.0,
        cluster_radius=15.0,
        speed_range=(0.0, 50.0),
        accel_range=(0.0, 7.0),
        min_range=5.0,
        block_duration=block_duration,
    )


def desk_prior(cfg, n_channels=None, nu_offset_hz=1.4):
    """In-rectangle delay-Doppler prior for basis optimization at desk scale."""
    prior = reference_prior(cfg, n_channels=n_channels, nu_offset_hz=nu_offset_hz)
    tau_cap = min(cfg.N - cfg.K, cfg.D - 1) * cfg.Ts
    return replace(prior, tau_max=min(prior.tau_max, tau_cap))


def paths_from_prior(prior, n_paths, seed, phase_seed=None):
    """Multi-scatterer in-prior channel: each path's per-channel delay/Doppler
    tuple is an independent prior draw; gains are unit-magnitude with uniform
    phase."""
    draws = sample_prior(prior, n_paths, seed)
    rng = np.random.default_rng(seed if phase_seed is None else phase_seed)
    phases = np.exp(2j * np.pi * rng.uniform(size=(n_paths, 1)))
    gains = np.broadcast_to(phases, draws.taus.shape).astype(complex)
    return PathSet(gains=gains.copy(), delays=draws.taus, dopplers=draws.nus)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep description: system, pilots, axis, estimators, trials, seed."""

    system: SystemConfig
    q: int
    master_seed: int
    dm: int = 1
    di: int = 4
    axis: str = "snr"
    points: tuple = (0.0, 10.0, 20.0, 30.0)
    solvers: tuple = ("conv-omp", "gcs-omp", "mcs-somp", "mgcs-somp")
    trials: int = 50
    snr_db: float = 20.0  # used when the axis is not SNR
    basis: str = "dft"  # "dft" | "optimize" | basis file path
    filters: FilterSpec = FilterSpec(kind="rrc")
    geometry: GeometryParams = None
    residual_scale: float = 1.0
    max_groups: int = None
    basis_samples: int = 256
    basis_seed: int = 12345
    basis_max_iters: int = 30

    def __post_init__(self):
        if self.master_seed is None:
            raise ConfigurationError("a master seed is required")
        for name in self.solvers:
            parse_solver(name)
        if self.axis not in ("snr", "antennas", "blocksize"):
            raise ConfigurationError(f"unknown sweep axis {self.axis!r}")


def desk_experiment(master_seed, **overrides):
    """Default desk-scale 2x2 experiment (minutes, not hours).

    The 40 GHz carrier keeps the Doppler spread at several Doppler bins of the
    short desk block, matching the leakage regime of full-scale scenarios.
    """
    system = SystemConfig(K=64, N=80, L=16, D=16, J=16, n_tx=2, n_rx=2,
                          f0=40e9, Ts=2e-7)
    cfgkw = dict(system=system, q=48, master_seed=master_seed)
    cfgkw.update(overrides)
    return ExperimentConfig(**cfgkw)


@dataclass
class ResultTable:
    axis: str
    points: tuple
    solvers: tuple
    mean_mse_db: np.ndarray  # (n_points, n_solvers)
    stderr_db: np.ndarray
    trials: int
    failures: np.ndarray  # failed trials per point

    def cell(self, point, solver):
        return self.mean_mse_db[self.points.index(point), self.solvers.index(solver)]


def _point_config(config, point):
    """System/tiling/SNR for one sweep point."""
    cfg = config.system
    dm, di, snr_db = config.dm, config.di, config.snr_db
    if config.axis == "snr":
        snr_db = float(point)
    elif config.axis == "antennas":
        n = int(point)
        cfg = replace(cfg, n_tx=n, n_rx=n)
    elif config.axis == "blocksize":
        dm, di = (int(v) for v in str(point).lower().split("x"))
    return cfg, dm, di, snr_db


def resolve_basis(config, cfg, pulses):
    """Basis per the configured source: DFT, a saved file, or optimize now."""
    if config.basis == "dft":
        return BasisSpec.dft(cfg.J, cfg.D)
    tiling = make_block_tiling(cfg.D, cfg.J, config.dm, config.di)
    if config.basis == "optimize":
        prior = desk_prior(cfg)
        samples = attach_kernels(
            sample_prior(prior, config.basis_samples, config.basis_seed),
            pulses, cfg, config.filters,
        )
        basis, _ = optimize_blocks(
            samples, tiling, pulses, cfg, max_iters=config.basis_max_iters
        )
        return basis
    return mgio.load_basis(config.basis, mgio.config_fingerprint(cfg))


def simulate_channel(cfg, filters, geometry, s_geo, s_gain):
    """Discrete impulse response of one scatterer-channel realization.

    ``s_geo`` seeds the geometry and ``s_gain`` the unit-magnitude scatterer
    gains; delays are re-referenced to the earliest arrival.  Returns the
    (L_r, K, n_rx, n_tx) array from :func:`discrete_ir`.
    """
    geo = sample_geometry(s_geo, geometry)
    rng_gain = np.random.default_rng(s_gain)
    base_gains = np.exp(2j * np.pi * rng_gain.uniform(size=geo.n_scatterers))
    paths = path_params(geo, base_gains).shifted()
    return discrete_ir(paths, filters, cfg)


def simulate_trial(cfg, scheme, pulses, filters, geometry, snr_db, seed):
    """One channel realization, transmission and noisy demodulation.

    Returns (y_grid, truth_coeffs, sigma_z, measured_snr_db).  The noise
    variance realizes the target SNR against this block's mean received
    power per sample and receive antenna.
    """
    ss = np.random.SeedSequence(seed)
    s_geo, s_gain, s_data, s_noise = ss.spawn(4)
    H = simulate_channel(cfg, filters, geometry, s_geo, s_gain)
    a = assemble_frame(scheme, cfg, np.random.default_rng(s_data))
    r0 = apply_discrete_channel(H, modulate(a, pulses, cfg))
    p_sig = float(np.mean(np.abs(r0) ** 2))
    sigma2 = p_sig / 10 ** (snr_db / 10)
    rng_noise = np.random.default_rng(s_noise)
    z = np.sqrt(sigma2 / 2) * (
        rng_noise.standard_normal(r0.shape) + 1j * rng_noise.standard_normal(r0.shape)
    )
    y_grid = demodulate(r0 + z, pulses, cfg)
    truth = effective_coeffs(H, pulses, cfg)
    measured_snr_db = 10 * np.log10(p_sig / sigma2)
    return y_grid, truth, float(np.sqrt(sigma2)), measured_snr_db


def budget_sparsity(tiling, filters, cfg, n_paths, tau_b=0.0, nu_b=0.0):
    """Default group-sparsity order for G-CoSaMP: the joint sparsity budget
    P * N of the kernel support widths and cross-channel bounds."""
    from .channel import effective_support_widths, sparsity_budget

    dm_eff, di_eff = effective_support_widths(filters, cfg)
    _, _, _, s_joint = sparsity_budget(dm_eff, di_eff, tau_b, nu_b, tiling, n_paths, cfg)
    return s_joint


def run_estimator(name, y_grid, scheme, basis, cfg, tiling, sigma_z,
                  residual_scale=1.0, max_groups=None, cosamp_sparsity=None):
    """One estimator variant on a demodulated block; returns the estimate."""
    grouped, joint, algo = parse_solver(name)
    ens = collect_measurements(y_grid, scheme, basis, cfg)
    use_tiling = tiling if grouped else None
    group_size = tiling.block_size if grouped else 1
    n_ch = cfg.n_channels
    # demodulated noise has variance K sigma_z^2 per pilot sample
    noise_total = np.sqrt(n_ch * scheme.q * cfg.K) * sigma_z
    noise_per_channel = np.sqrt(scheme.q * cfg.K) * sigma_z
    if max_groups is None:
        max_groups = max(1, scheme.q // (2 * group_size))
    opts = {}
    if algo == "omp":
        solver = "g-omp"
        opts = dict(
            residual_tol=residual_scale * (noise_total if joint else noise_per_channel),
            max_groups=max_groups,
        )
    elif algo == "somp":
        solver = "g-dcs-somp"
        opts = dict(residual_tol=residual_scale * noise_total, max_groups=max_groups)
    elif algo == "cosamp":
        solver = "g-cosamp"
        part_groups = (cfg.jd // group_size)
        S = cosamp_sparsity if cosamp_sparsity is not None else max_groups
        S = min(S, max_groups, part_groups // 4)
        opts = dict(S=max(1, S), n_iters=15,
                    residual_tol=residual_scale * (noise_total if joint else noise_per_channel))
    else:  # bpdn
        solver = "g-bpdn"
        opts = dict(eps=noise_total, tol=1e-3)
    return estimate_mimo(ens, scheme, basis, cfg, solver=solver, tiling=use_tiling,
                         joint=joint, **opts)


def run_sweep(config):
    """Execute the configured sweep; deterministic for a fixed master seed."""
    n_pts, n_sol = len(config.points), len(config.solvers)
    sums = np.zeros((n_pts, n_sol))
    sq_sums = np.zeros((n_pts, n_sol))
    counts = np.zeros((n_pts, n_sol), dtype=int)
    failures = np.zeros(n_pts, dtype=int)
    for pi, point in enumerate(config.points):
        cfg, dm, di, snr_db = _point_config(config, point)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        tiling = make_block_tiling(cfg.D, cfg.J, dm, di)
        basis = resolve_basis(config, cfg, pulses)
        geometry = config.geometry or desk_geometry(
            cfg.n_tx, cfg.n_rx, fc=cfg.f0, block_duration=cfg.l_r * cfg.Ts
        )
        geometry = replace(geometry, n_tx=cfg.n_tx, n_rx=cfg.n_rx)
        pilot_seed = np.random.SeedSequence([config.master_seed, 7919])
        scheme = draw_pilots(cfg, pilot_seed, q=config.q)
        # nominal-geometry sparsity budget for the CoSaMP default
        nominal = sample_geometry(np.random.SeedSequence([config.master_seed, pi]), geometry)
        tau_b, nu_b = cross_channel_bounds(nominal)
        s_joint = budget_sparsity(tiling, config.filters, cfg,
                                  nominal.n_scatterers, tau_b, nu_b)
        for trial in range(config.trials):
            seed = [config.master_seed, pi, trial]
            try:
                y_grid, truth, sigma_z, _ = simulate_trial(
                    cfg, scheme, pulses, config.filters, geometry, snr_db, seed
                )
                for si, name in enumerate(config.solvers):
                    est = run_estimator(
                        name, y_grid, scheme, basis, cfg, tiling, sigma_z,
                        residual_scale=config.residual_scale,
                        max_groups=config.max_groups,
                        cosamp_sparsity=s_joint,
                    )
                    nmse = normalized_mse(est.h_full, truth)
                    sums[pi, si] += nmse
                    sq_sums[pi, si] += nmse**2
                    counts[pi, si] += 1
            except _TRIAL_ERRORS:
                failures[pi] += 1
    mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    var = np.where(
        counts > 1,
        (sq_sums - counts * mean**2) / np.maximum(counts - 1, 1),
        0.0,
    )
    sem = np.sqrt(np.maximum(var, 0.0) / np.maximum(counts, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_db = 10 * np.log10(mean)
        stderr_db = 10 / np.log(10) * np.where(mean > 0, sem / mean, 0.0)
    return ResultTable(
        axis=config.axis,
        points=tuple(config.points),
        solvers=tuple(config.solvers),
        mean_mse_db=mean_db,
        stderr_db=stderr_db,
        trials=config.trials,
        failures=failures,
    )


def emit_results(table, path):
    """Write the sweep table as delimiter-separated text, one cell per row."""
    if len(table.points) == 0 or len(table.solvers) == 0:
        raise ConfigurationError("empty result table")
    lines = ["axis,solver,mean_mse_db,stderr_db,trials"]
    for pi, point in enumerate(table.points):
        for si, solver in enumerate(table.solvers):
            lines.append(
                f"{point},{solver},{table.mean_mse_db[pi, si]:.6g},"
                f"{table.stderr_db[pi, si]:.6g},{table.trials}"
            )
    data = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(data)
    return path


def basis_io(mode, path, basis=None, cfg=None, prior_tag=""):
    """Save or load a basis file tied to the system fingerprint."""
    fingerprint = mgio.config_fingerprint(cfg, prior_tag=prior_tag)
    if mode == "save":
        mgio.save_basis(path, basis, fingerprint)
        return path
    if mode == "load":
        return mgio.load_basis(path, fingerprint)
    raise ConfigurationError(f"unknown basis_io mode {mode!r}")
