"""Configuration-driven Monte-Carlo experiment runner.

Simulates doubly selective MIMO blocks end to end (geometry, modem, noise),
runs the configured estimator variants, and aggregates normalized MSE per
sweep point.  All randomness derives from a master seed, so two runs of the
same configuration produce identical result files.
"""

from collections import Counter
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
    effective_support_widths,
    path_params,
    sample_geometry,
    sparsity_budget,
)
from .errors import PACKAGE_ERRORS, ConfigurationError
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
# algorithm -> solver; joint G-OMP is G-DCS-SOMP, which the estimator decides
SOLVER_ALGOS = {"omp": "g-omp", "somp": "g-omp", "cosamp": "g-cosamp", "bpdn": "g-bpdn"}


def parse_solver(name):
    """Split a '<structure>-<algorithm>' estimator name (somp: joint only)."""
    try:
        structure, algo = name.split("-", 1)
        grouped, joint = SOLVER_STRUCTURES[structure]
    except (ValueError, KeyError):
        raise ConfigurationError(f"unknown estimator variant {name!r}") from None
    if algo not in SOLVER_ALGOS:
        raise ConfigurationError(f"unknown algorithm {algo!r} in {name!r}")
    if algo == "somp" and not joint:
        raise ConfigurationError(f"{name!r}: somp needs a joint structure (mcs or mgcs)")
    return grouped, joint, algo


def desk_geometry(n_tx, n_rx, fc, block_duration):
    """Scaled-down scatterer scenario whose delay spread fits a small delay
    rectangle at 5 MHz bandwidth, on carrier ``fc`` over a block of
    ``block_duration`` seconds."""
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


def desk_prior(cfg):
    """In-rectangle delay-Doppler prior for basis optimization at desk scale:
    :func:`~mgcs.basisopt.reference_prior` over cfg's channels, its delays
    capped inside the delay rectangle and the cyclic prefix."""
    prior = reference_prior(cfg)
    tau_cap = min(cfg.N - cfg.K, cfg.D - 1) * cfg.Ts
    return replace(prior, tau_max=min(prior.tau_max, tau_cap))


def paths_from_prior(prior, n_paths, seed):
    """Multi-scatterer in-prior channel: each path's per-channel delay/Doppler
    tuple is an independent prior draw; gains are unit-magnitude with uniform
    phase."""
    draws = sample_prior(prior, n_paths, seed)
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.uniform(size=(n_paths, 1)))
    gains = np.broadcast_to(phases, draws.taus.shape).astype(complex)
    return PathSet(gains=gains.copy(), delays=draws.taus, dopplers=draws.nus)


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment description, for a sweep and every CLI subcommand: system,
    pilots, axis, estimators, trials, seed, basis."""

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
    residual_scale: float = 1.0
    max_groups: int = None
    basis_samples: int = 256
    basis_seed: int = 12345
    basis_max_iters: int = 30

    def __post_init__(self):
        if self.master_seed is None:
            raise ConfigurationError("a master seed is required")
        if self.trials < 0:
            raise ConfigurationError(f"trials must be nonnegative, got {self.trials}")
        for name in self.solvers:
            parse_solver(name)
        if self.axis not in ("snr", "antennas", "blocksize"):
            raise ConfigurationError(f"unknown sweep axis {self.axis!r}")
        shapes = ([_block_shape(p) for p in self.points] if self.axis == "blocksize"
                  else [(self.dm, self.di)])
        for dm, di in shapes:  # every cap and order must fit before any trial
            size = make_block_tiling(self.system.D, self.system.J, dm, di).block_size
            for name in self.solvers:
                grouped, _, algo = parse_solver(name)
                greedy_regime(algo, self.q, size if grouped else 1,
                              self.system.jd // (size if grouped else 1), self.max_groups, None)


def _block_shape(point):
    """(dm, di) of a blocksize sweep point ``AxB`` with positive A and B."""
    try:
        dm, di = (int(v) for v in str(point).lower().split("x"))
    except ValueError:
        raise ConfigurationError(f"blocksize point {point!r} is not AxB") from None
    if dm < 1 or di < 1:
        raise ConfigurationError(f"blocksize point {point!r} needs positive sides")
    return dm, di


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
    failures: np.ndarray  # failed trials per point, left out of every mean
    failure_kinds: Counter  # (point, stage, error)

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
        dm, di = _block_shape(point)
    return cfg, dm, di, snr_db


def optimize_basis(config, cfg, pulses):
    """Criterion-9 basis for the configured tiling: ``basis_samples`` draws of
    the desk prior seeded by ``basis_seed``, ``basis_max_iters`` outer
    iterations.  Returns (BasisSpec, OptimizeDiagnostics)."""
    samples = attach_kernels(
        sample_prior(desk_prior(cfg), config.basis_samples, config.basis_seed),
        pulses, cfg, config.filters,
    )
    tiling = make_block_tiling(cfg.D, cfg.J, config.dm, config.di)
    return optimize_blocks(samples, tiling, pulses, cfg, max_iters=config.basis_max_iters)


def resolve_basis(config, cfg, pulses):
    """Basis per the configured source: DFT, optimize now, or a saved file."""
    if config.basis == "dft":
        return BasisSpec.dft(cfg.J, cfg.D)
    if config.basis == "optimize":
        return optimize_basis(config, cfg, pulses)[0]
    return mgio.load_basis(config.basis, mgio.config_fingerprint(cfg))


def point_geometry(cfg):
    """The desk geometry over cfg's block, carrier and antenna counts."""
    return desk_geometry(cfg.n_tx, cfg.n_rx, fc=cfg.f0, block_duration=cfg.l_r * cfg.Ts)


def simulate_channel(cfg, filters, geometry, s_geo, s_gain):
    """Discrete impulse response of one scatterer-channel realization.

    ``s_geo`` seeds the geometry and ``s_gain`` the unit-magnitude scatterer
    gains; delays are re-referenced to the earliest arrival.  Returns the
    factored (L_r, K, n_rx, n_tx) impulse response from :func:`discrete_ir`,
    the input of ``apply_discrete_channel`` and ``effective_coeffs``.
    """
    geo = sample_geometry(s_geo, geometry)
    rng_gain = np.random.default_rng(s_gain)
    base_gains = np.exp(2j * np.pi * rng_gain.uniform(size=geo.n_scatterers))
    paths = path_params(geo, base_gains).shifted()
    return discrete_ir(paths, filters, cfg)


def sweep_pilots(cfg, master_seed, q):
    """The pilot scheme of every point of a sweep with this master seed."""
    return draw_pilots(cfg, np.random.SeedSequence([master_seed, 7919]), q=q)


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


def budget_sparsity(tiling, filters, cfg, n_paths, tau_b, nu_b):
    """Default group-sparsity order for G-CoSaMP: the joint sparsity budget
    P * N of the kernel support widths and the cross-channel bounds
    (tau_b, nu_b), at most the tiling's block count."""
    dm_eff, di_eff = effective_support_widths(filters, cfg)
    _, _, _, s_joint = sparsity_budget(dm_eff, di_eff, tau_b, nu_b, tiling, n_paths, cfg)
    return min(s_joint, tiling.n_blocks)


def greedy_regime(algo, q, group_size, n_groups, max_groups, sparsity):
    """G-OMP's cap, G-CoSaMP's order (None for G-BPDN) for Q pilot rows and B
    groups of |g| columns; ``ConfigurationError`` when no value >= 1 fits.
    The cap is ``max_groups`` (None: Q // (2 |g|)); a larger one is refused, as
    its fits would be wide.  The order is S = min(request, B // 4, Q // (4 |g|))
    for the request ``sparsity`` (a model budget, often far above, so clamped)
    at most the cap: 4S <= B is the solver's domain, 4S |g| <= Q the regime of
    Needell & Tropp's CoSaMP analysis (ACHA 26(3), 2009), whose delta_4S <= 0.1
    G-CoSaMP's error bound needs, with every merged set of <= 3S groups tall."""
    limit = q // (2 * group_size)
    cap = limit if max_groups is None else max_groups
    if algo == "cosamp":
        requested = cap if sparsity is None else min(sparsity, cap)
        S = min(requested, n_groups // 4, q // (4 * group_size))
        if S < 1:
            raise ConfigurationError(
                f"no G-CoSaMP order S >= 1 with 4S <= {n_groups} groups and "
                f"4S x {group_size} columns <= {q} pilots (requested {requested})")
        return S
    if algo != "bpdn" and not 1 <= cap <= limit:
        raise ConfigurationError(f"G-OMP cap {cap} outside 1..{limit}: groups of "
                                 f"{group_size} columns on at most half of {q} pilots")
    return None if algo == "bpdn" else cap


def run_estimator(name, y_grid, scheme, basis, cfg, tiling, sigma_z, *,
                  residual_scale, max_groups, cosamp_sparsity):
    """One estimator variant on a demodulated block; returns the estimate.

    The noise radius is the demodulated pilot noise norm (variance K
    sigma_z^2 per sample) over one solve's channels: all when joint, else
    one.  Greedy solvers stop at ``residual_scale`` times it; G-BPDN takes
    it as ``eps``.  The cap and the order are :func:`greedy_regime`'s for
    ``max_groups`` and the request ``cosamp_sparsity`` (None: the cap).
    """
    grouped, joint, algo = parse_solver(name)
    ens = collect_measurements(y_grid, scheme, basis, cfg)
    group_size = tiling.block_size if grouped else 1
    noise = np.sqrt((cfg.n_channels if joint else 1) * scheme.q * cfg.K) * sigma_z
    order = greedy_regime(algo, scheme.q, group_size, cfg.jd // group_size, max_groups,
                          cosamp_sparsity)
    if algo == "cosamp":
        opts = dict(S=order, residual_tol=residual_scale * noise)
    elif algo == "bpdn":
        opts = dict(eps=noise, tol=1e-3)
    else:
        opts = dict(residual_tol=residual_scale * noise, max_groups=order)
    return estimate_mimo(ens, scheme, basis, cfg, solver=SOLVER_ALGOS[algo],
                         tiling=tiling if grouped else None, joint=joint, **opts)


def run_sweep(config):
    """Execute the configured sweep; deterministic for a fixed master seed.
    A trial enters the means only when every estimator succeeds on it."""
    n_pts, n_sol = len(config.points), len(config.solvers)
    sums = np.zeros((n_pts, n_sol))
    sq_sums = np.zeros((n_pts, n_sol))
    counts = np.zeros((n_pts, 1), dtype=int)  # trials in the means, per point
    failures, kinds = np.zeros(n_pts, dtype=int), Counter()
    bases = {}  # one basis per distinct (system, dm, di)
    for pi, point in enumerate(config.points):
        cfg, dm, di, snr_db = _point_config(config, point)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        tiling = make_block_tiling(cfg.D, cfg.J, dm, di)
        if (cfg, dm, di) not in bases:
            bases[cfg, dm, di] = resolve_basis(replace(config, dm=dm, di=di), cfg, pulses)
        basis = bases[cfg, dm, di]
        geometry = point_geometry(cfg)
        scheme = sweep_pilots(cfg, config.master_seed, config.q)
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
            except PACKAGE_ERRORS as exc:  # a failed trial; other errors propagate
                kinds[point, "simulate", type(exc).__name__] += 1
                failures[pi] += 1
                continue
            nmse, failed = np.zeros(n_sol), kinds.total()
            for si, name in enumerate(config.solvers):
                try:
                    est = run_estimator(name, y_grid, scheme, basis, cfg, tiling, sigma_z,
                                        residual_scale=config.residual_scale,
                                        max_groups=config.max_groups, cosamp_sparsity=s_joint)
                    nmse[si] = normalized_mse(est.h_full, truth)
                except PACKAGE_ERRORS as exc:
                    kinds[point, name, type(exc).__name__] += 1
            if kinds.total() > failed:
                failures[pi] += 1
                continue
            sums[pi] += nmse
            sq_sums[pi] += nmse**2
            counts[pi] += 1
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
        failure_kinds=kinds,
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

