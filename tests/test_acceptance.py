"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import time
from dataclasses import replace

import numpy as np

import mgcs.recovery
from mgcs.basisopt import (
    CKernelTable,
    attach_kernels,
    build_C_matrix,
    mc_objective,
    optimize_blocks,
    sample_prior,
)
from mgcs.channel import (
    FilterSpec,
    PathSet,
    cross_channel_bounds,
    discrete_ir,
    path_params,
    sample_geometry,
    sparsity_budget,
)
from mgcs.estimator import (
    BasisSpec,
    assemble_frame,
    build_phi,
    channels_to_grid,
    collect_measurements,
    default_pilot_matrix,
    draw_pilots,
    estimate_mimo,
    expand_coeffs,
    normalized_mse,
    rmse,
)
from mgcs.harness import desk_experiment, desk_geometry, desk_prior, paths_from_prior, run_sweep
from mgcs.partition import make_block_tiling, singleton_partition
from mgcs.recovery import (
    MeasurementEnsemble,
    g_cosamp,
    g_dcs_somp,
    g_omp,
    group_ric,
    mgcs_stack,
)
from mgcs.waveform import (
    SystemConfig,
    apply_discrete_channel,
    cp_ofdm_pulses,
    demodulate,
    effective_coeffs,
    modulate,
)
from oracles import (
    assemble_basis,
    delta_stacked_equals_max,
    dft_coeffs,
    error_bound,
    group_leakage,
    identity_channel,
    spreading_model,
    uniform_partition,
)

KRON = FilterSpec(kind="kronecker")
RRC = FilterSpec(kind="rrc")


def report(number, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"criterion {number:2d}: {status}  ({detail}; {elapsed:.1f}s of {limit:.0f}s budget)")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < limit, f"criterion {number}: exceeded runtime budget"


def random_blocks(D, J, rng):
    return np.stack(
        [np.linalg.qr(rng.normal(size=(J, J)) + 1j * rng.normal(size=(J, J)))[0]
         for _ in range(D)]
    )


def test_criterion_1_norm_chain():
    """Energy and error identities between the full grid and the coefficients."""
    t0 = time.time()
    cfg = SystemConfig(K=16, N=20, L=8, D=8, J=4, n_tx=2, n_rx=2, Ts=2e-7)
    rng = np.random.default_rng(1)
    ratio = np.sqrt(cfg.K * cfg.L / cfg.jd)
    worst = 0.0
    for _ in range(100):
        basis = BasisSpec(random_blocks(cfg.D, cfg.J, rng))
        shape = (cfg.D, cfg.J, cfg.n_channels)
        g1 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        g2 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        h1, _ = expand_coeffs(g1, basis, cfg)
        h2, _ = expand_coeffs(g2, basis, cfg)
        for xi in range(cfg.n_channels):
            a = np.linalg.norm(h1[:, :, xi]) / (ratio * np.linalg.norm(g1[:, :, xi]))
            b = np.linalg.norm(h1[:, :, xi] - h2[:, :, xi]) / (
                ratio * np.linalg.norm(g1[:, :, xi] - g2[:, :, xi])
            )
            worst = max(worst, abs(a - 1), abs(b - 1))
    report(1, worst < 1e-10, f"worst relative deviation {worst:.2e}", time.time() - t0, 10.0)


def test_criterion_2_normalized_difference_inequality():
    """Normalized-difference bound on 10^4 random complex vector pairs."""
    t0 = time.time()
    rng = np.random.default_rng(2)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 65))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs = np.linalg.norm(a / np.linalg.norm(a) - b / np.linalg.norm(b))
        rhs = np.linalg.norm(a - b) / min(np.linalg.norm(a), np.linalg.norm(b))
        if lhs > rhs + 1e-12:
            violations += 1
    report(2, violations == 0, f"{violations} violations in 10000 pairs", time.time() - t0, 5.0)


def test_criterion_3_kernel_identity():
    """Coefficient matrices of single-scatterer channels equal the kernel
    construction under DFT and random unitary block bases."""
    t0 = time.time()
    cfg = SystemConfig(K=8, N=10, L=8, D=4, J=4, n_tx=2, n_rx=1, Ts=2e-7)
    pulses = cp_ofdm_pulses(cfg.K, cfg.N)
    table = CKernelTable(pulses, cfg)
    prior = desk_prior(cfg)
    rng = np.random.default_rng(3)
    m = np.arange(cfg.D)
    i = np.arange(-cfg.J // 2, cfg.J // 2)
    lam = np.arange(cfg.J)
    kap = np.arange(cfg.D)
    phase = np.exp(
        -2j * np.pi * (kap[None, :, None, None] * m[None, None, :, None] / cfg.D
                       - lam[:, None, None, None] * i[None, None, None, :] / cfg.J)
    )
    worst = 0.0
    for trial in range(50):
        tau0 = rng.uniform(0, prior.tau_max)
        nu0 = rng.uniform(-prior.nu_max, prior.nu_max)
        taus = np.array([tau0, tau0])
        nus = np.array([nu0, nu0 + rng.uniform(-1.4, 1.4)])
        paths = PathSet(gains=np.ones((1, 2), dtype=complex),
                        delays=taus[None, :], dopplers=nus[None, :])
        F = dft_coeffs(spreading_model(paths, cfg, RRC), pulses, cfg)
        h_sub = np.einsum("lkmi,mix->lkx", phase, F)
        C = build_C_matrix(taus, nus, cfg, RRC, table)
        for kind in ("dft", "blocks"):
            basis = (BasisSpec.dft(cfg.J, cfg.D) if kind == "dft"
                     else BasisSpec(random_blocks(cfg.D, cfg.J, rng)))
            U = assemble_basis(basis)
            g_proj = np.stack(
                [U.conj().T @ h_sub[:, :, xi].reshape(-1) for xi in range(2)], axis=1
            )
            blocks = basis.blocks
            vc = np.concatenate(
                [blocks[mm] @ C[mm * cfg.J: (mm + 1) * cfg.J] for mm in range(cfg.D)]
            )
            worst = max(worst, np.abs(vc - g_proj).max() / np.abs(g_proj).max())
    report(3, worst < 1e-8, f"worst relative deviation {worst:.2e}", time.time() - t0, 30.0)


def test_criterion_4_group_ric_facts():
    """Brute-force isometry facts: group constant below the plain constant of
    the implied order, and the stacked constant equals the channel maximum."""
    t0 = time.time()
    ok_a, ok_b = True, True
    worst_gap = 0.0
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        m, q = 16, 10
        F = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
        rows = rng.choice(m, size=q, replace=False)
        Phi = np.sqrt(m / q) * F[rows]
        part = uniform_partition(m, 2)
        S = 2
        d_group = group_ric(Phi, part, S)
        d_plain = group_ric(Phi, singleton_partition(m), 2 * S)
        ok_a &= d_group <= d_plain + 1e-12
        mats = (Phi, np.sqrt(m / q) * F[rng.choice(m, size=q, replace=False)])
        ens = MeasurementEnsemble(
            matrices=mats, observations=np.zeros((2, q), dtype=complex)
        )
        d_st, per = delta_stacked_equals_max(ens, part, S)
        gap = abs(d_st - max(per))
        worst_gap = max(worst_gap, gap)
        ok_b &= gap < 1e-12
    report(
        4, ok_a and ok_b,
        f"ordering holds on 6 instances, stacked equality gap {worst_gap:.1e}",
        time.time() - t0, 60.0,
    )


def test_criterion_5_exact_joint_recovery(monkeypatch):
    """Noiseless jointly group-sparse recovery by the three greedy solvers."""
    t0 = time.time()
    M, q, n_ch = 256, 96, 2
    part = uniform_partition(M, 4)
    F = np.exp(-2j * np.pi * np.outer(np.arange(M), np.arange(M)) / M) / np.sqrt(M)
    wins = {"g-omp": 0, "g-cosamp": 0, "g-dcs-somp": 0}
    monkeypatch.setattr(mgcs.recovery, "_MAX_FITS", 20)
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        S = int(rng.integers(1, 3))
        support = sorted(rng.choice(part.n_groups, size=S, replace=False).tolist())
        mats, xs, ys = [], [], []
        for s in range(n_ch):
            rows = rng.choice(M, size=q, replace=False)
            mats.append(np.sqrt(M / q) * F[rows])
        for xi in range(n_ch):
            x = np.zeros(M, dtype=complex)
            for b in support:
                g = part.groups[b]
                x[g] = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
            xs.append(x)
            ys.append(mats[xi] @ x)
        xs = np.array(xs)
        ens = MeasurementEnsemble(matrices=tuple(mats), observations=np.array(ys))
        Phi_s, y_s, part_s = mgcs_stack(ens, part)
        scale = np.linalg.norm(xs)
        r = g_omp(Phi_s, y_s, part_s, max_groups=S, residual_tol=0.0, joint=True)
        if np.linalg.norm(r.x.reshape(n_ch, M) - xs) < 1e-6 * scale:
            wins["g-omp"] += 1
        r = g_cosamp(Phi_s, y_s, part_s, S=S, residual_tol=1e-12 * scale, joint=True)
        if np.linalg.norm(r.x.reshape(n_ch, M) - xs) < 1e-6 * scale:
            wins["g-cosamp"] += 1
        r = g_dcs_somp(ens, part, max_groups=S, residual_tol=0.0)
        if np.linalg.norm(r.estimates - xs) < 1e-6 * scale:
            wins["g-dcs-somp"] += 1
    ok = all(v >= 0.95 * trials for v in wins.values())
    report(
        5, ok,
        "success rates " + ", ".join(f"{k}={v}%" for k, v in wins.items()),
        time.time() - t0, 60.0,
    )


def test_criterion_6_error_bound(monkeypatch):
    """Measured estimation error never exceeds the certified-regime bound."""
    t0 = time.time()
    cfg = SystemConfig(K=8, N=10, L=4, D=4, J=2, n_tx=1, n_rx=2, Ts=2e-7)
    pulses = cp_ofdm_pulses(cfg.K, cfg.N)
    basis = BasisSpec.dft(cfg.J, cfg.D)
    tiling = make_block_tiling(cfg.D, cfg.J, 1, 1)
    part = tiling.to_partition()
    S = 1
    p_matrix = default_pilot_matrix(1)
    counts = {"g-bpdn": 0, "g-cosamp": 0}
    trials = 25  # per variant; 50 bound checks in total
    for variant, q in (("g-bpdn", 7), ("g-cosamp", cfg.jd)):
        order = 2 * S if variant == "g-bpdn" else 4 * S
        threshold = np.sqrt(2) - 1 if variant == "g-bpdn" else 0.1
        for trial in range(trials):
            # certified pilot scheme (falls back to the full grid, delta = 0)
            delta, scheme = None, None
            for seed in range(trial * 37, trial * 37 + 50):
                cand = draw_pilots(cfg, seed, q=q)
                d = group_ric(build_phi(cand, basis, cfg)[0], part, order)
                if d <= threshold:
                    delta, scheme = d, cand
                    break
            if scheme is None:
                scheme = draw_pilots(cfg, 0, q=cfg.jd)
                delta = group_ric(build_phi(scheme, basis, cfg)[0], part, order)
            rng = np.random.default_rng(5000 + trial)
            g_true = np.zeros((cfg.D, cfg.J, 2), dtype=complex)
            strong = rng.choice(part.n_groups, size=S, replace=False)
            flat = g_true.reshape(cfg.jd, 2)
            for b in strong:
                flat[part.groups[b]] = rng.normal(size=(1, 2)) + 1j * rng.normal(size=(1, 2))
            flat += 0.05 * (rng.normal(size=flat.shape) + 1j * rng.normal(size=flat.shape))
            h_true = channels_to_grid(expand_coeffs(g_true, basis, cfg)[0], cfg)
            # measurements y = Phi x + z from the ground truth
            Phi = build_phi(scheme, basis, cfg)[0]
            p = p_matrix[0, 0]
            obs = []
            z_energy = 0.0
            z = 0.02 * (rng.normal(size=(2, scheme.q)) + 1j * rng.normal(size=(2, scheme.q)))
            for xi in range(2):
                x = np.sqrt(scheme.q / cfg.jd) * (g_true[:, :, xi] * p).reshape(-1)
                obs.append(Phi @ x + z[xi])
                z_energy += np.linalg.norm(z[xi]) ** 2
            eps = np.sqrt(z_energy) * 1.05
            ens = MeasurementEnsemble(matrices=(Phi,), observations=np.array(obs))
            c_g, _ = group_leakage(g_true, part, S)
            if variant == "g-bpdn":
                est = estimate_mimo(ens, scheme, basis, cfg, solver="g-bpdn",
                                    tiling=tiling, joint=True, eps=eps, tol=1e-5)
                bound = error_bound("g-bpdn", delta, S, eps, c_g, p_matrix, cfg,
                                      q=scheme.q)
            else:
                n_iters = 8
                monkeypatch.setattr(mgcs.recovery, "_MAX_FITS", n_iters)
                est = estimate_mimo(ens, scheme, basis, cfg, solver="g-cosamp",
                                    tiling=tiling, joint=True, S=S, residual_tol=0.0)
                bound = error_bound("g-cosamp", delta, S, eps, c_g, p_matrix, cfg,
                                      q=scheme.q, n_iters=n_iters, g_tensor=g_true)
            assert bound.applicable
            if rmse(est.h_full, h_true) <= bound.value:
                counts[variant] += 1
    ok = all(v == trials for v in counts.values())
    report(
        6, ok,
        f"bound held in {counts['g-bpdn']}+{counts['g-cosamp']} of {trials}+{trials} trials",
        time.time() - t0, 120.0,
    )


def test_criterion_7_cp_ofdm_consistency():
    """Identity channel gives the flat gain K; on-grid delays recover exactly."""
    t0 = time.time()
    cfg = SystemConfig(K=16, N=20, L=8, D=8, J=4, n_tx=2, n_rx=2, Ts=2e-7)
    pulses = cp_ofdm_pulses(cfg.K, cfg.N)
    Hlk = effective_coeffs(identity_channel(cfg), pulses, cfg)
    expect = cfg.K * np.eye(2)
    ident_ok = all(
        np.array_equal(Hlk[l, k], expect) for l in range(cfg.L) for k in range(cfg.K)
    )
    # on-grid pure-delay channel through the full chain
    rng = np.random.default_rng(7)
    gains = rng.normal(size=4) + 1j * rng.normal(size=4)
    paths = PathSet(gains=gains[None, :], delays=np.full((1, 4), 2 * cfg.Ts),
                    dopplers=np.zeros((1, 4)))
    scheme = draw_pilots(cfg, 5, q=12)
    basis = BasisSpec.dft(cfg.J, cfg.D)
    H = discrete_ir(paths, KRON, cfg)
    a = assemble_frame(scheme, cfg, rng)
    r = apply_discrete_channel(H, modulate(a, pulses, cfg))
    y_grid = demodulate(r, pulses, cfg)
    truth = effective_coeffs(H, pulses, cfg)
    ens = collect_measurements(y_grid, scheme, basis, cfg)
    est = estimate_mimo(ens, scheme, basis, cfg, solver="g-omp",
                        tiling=make_block_tiling(cfg.D, cfg.J, 1, 2),
                        joint=True, max_groups=cfg.jd, residual_tol=1e-10)
    rel = rmse(est.h_full, truth) / np.linalg.norm(truth)
    report(
        7, ident_ok and rel < 1e-6,
        f"identity exact: {ident_ok}, delay-channel relative RMSE {rel:.2e}",
        time.time() - t0, 30.0,
    )


def test_criterion_8_qualitative_ordering():
    """Exploiting group, joint, and joint-group sparsity improves the MSE in
    that order at 20 dB on the desk-scale 2x2 sweep."""
    t0 = time.time()
    config = desk_experiment(master_seed=42, points=(20.0,), trials=200)
    table = run_sweep(config)
    row = {s: table.mean_mse_db[0, i] for i, s in enumerate(table.solvers)}
    conv, gcs = row["conv-omp"], row["gcs-omp"]
    mcs, mgcs = row["mcs-somp"], row["mgcs-somp"]
    gaps = dict(conv_gcs=conv - gcs, gcs_mgcs=gcs - mgcs,
                conv_mcs=conv - mcs, mcs_mgcs=mcs - mgcs)
    ok = all(v >= 0.5 for v in gaps.values()) and table.failures[0] == 0
    report(
        8, ok,
        "gaps dB " + ", ".join(f"{k}={v:+.2f}" for k, v in gaps.items()),
        time.time() - t0, 600.0,
    )


def test_criterion_9_basis_optimization():
    """The optimized basis monotonically improves the sparsity objective and
    does not lose to the DFT basis in estimation.

    The final objective is chaotic at rounding level, so no change to the
    kernel table's rounding can hold it to 1e-9 relative.  With the table
    built as one phase-matrix product it read 870713.0645953133; that table
    times 1 + e z, z standard complex normal, read 869902-870666 over eight
    draws at e = 1e-16 and 869932-870572 over eight at e = 1e-14.  The table
    built by N-point DFTs reads 870642.6953856109.  Compare a change to the
    optimizer's rounding against that spread."""
    t0 = time.time()
    cfg = SystemConfig(K=64, N=80, L=16, D=16, J=16, n_tx=2, n_rx=2, f0=40e9, Ts=2e-7)
    pulses = cp_ofdm_pulses(cfg.K, cfg.N)
    tiling = make_block_tiling(cfg.D, cfg.J, 1, 4)
    prior = desk_prior(cfg)
    samples = attach_kernels(sample_prior(prior, 256, 12345), pulses, cfg, RRC)
    basis, diags = optimize_blocks(samples, tiling, pulses, cfg, max_iters=30)
    mono = all(
        all(b < a for a, b in zip(hist, hist[1:]))
        for hist in diags.objective_history
    )
    fresh = attach_kernels(sample_prior(prior, 50, 999), pulses, cfg, RRC)
    mc_dft = mc_objective(BasisSpec.dft(cfg.J, cfg.D), fresh, tiling)
    mc_opt = mc_objective(basis, fresh, tiling)
    margin = mc_dft - mc_opt
    # estimation comparison on 50 in-prior multi-scatterer channels
    scheme = draw_pilots(cfg, np.random.SeedSequence([5, 7919]), q=48)
    nmse = {"dft": [], "opt": []}
    for trial in range(50):
        paths = paths_from_prior(prior, 3, [17, trial])
        H = discrete_ir(paths, RRC, cfg)
        a = assemble_frame(scheme, cfg, np.random.default_rng([3, trial]))
        r0 = apply_discrete_channel(H, modulate(a, pulses, cfg))
        sigma2 = np.mean(np.abs(r0) ** 2) / 100.0  # 20 dB
        rng_n = np.random.default_rng([4, trial])
        z = np.sqrt(sigma2 / 2) * (
            rng_n.standard_normal(r0.shape) + 1j * rng_n.standard_normal(r0.shape)
        )
        y_grid = demodulate(r0 + z, pulses, cfg)
        truth = effective_coeffs(H, pulses, cfg)
        for tag, b in (("dft", BasisSpec.dft(cfg.J, cfg.D)), ("opt", basis)):
            ens = collect_measurements(y_grid, scheme, b, cfg)
            est = estimate_mimo(
                ens, scheme, b, cfg, solver="g-dcs-somp", tiling=tiling,
                residual_tol=np.sqrt(4 * scheme.q * cfg.K * sigma2), max_groups=6,
            )
            nmse[tag].append(normalized_mse(est.h_full, truth))
    mse_dft = 10 * np.log10(np.mean(nmse["dft"]))
    mse_opt = 10 * np.log10(np.mean(nmse["opt"]))
    # 872989.59: the final objective with 200 plain projected-gradient steps
    # per convex program
    bound_ok = diags.final_objective <= 872989.59 * (1 + 1e-9)
    ok = mono and margin > 0 and mse_opt <= mse_dft and bound_ok
    report(
        9, ok,
        f"monotone={mono}, final objective {diags.final_objective:.2f} "
        f"(bound 872989.59), objective margin {margin:.4g} "
        f"({100 * margin / mc_dft:.1f}%), mse dft {mse_dft:.2f} dB vs opt {mse_opt:.2f} dB",
        time.time() - t0, 900.0,
    )


def test_criterion_10_sparsity_budget():
    """Block-count arithmetic and cross-channel parameter bounds."""
    t0 = time.time()
    tiling = make_block_tiling(D=8, J=16, dm=1, di=2)
    cfg = SystemConfig(K=8, N=8, L=16, D=8, J=16, Ts=2e-7)
    n_tilde, *_ = sparsity_budget(2, 4, 0.0, 0.0, tiling, 1, cfg)
    arith_ok = n_tilde == 9
    # the wide-area scenario: clusters over 2500 x 800 m around a 1500 m link
    params = replace(desk_geometry(2, 2, fc=5e9, block_duration=2.56e-4),
                     area=(2500.0, 800.0), near_radius=100.0, link_distance=1500.0,
                     cluster_radius=30.0)
    violations = 0
    for seed in range(1000):
        geo = sample_geometry(seed, params)
        paths = path_params(geo, np.ones(geo.n_scatterers))
        tau_b, nu_b = cross_channel_bounds(geo)
        dtau = (paths.delays.max(axis=1) - paths.delays.min(axis=1)).max()
        dnu = (paths.dopplers.max(axis=1) - paths.dopplers.min(axis=1)).max()
        if dtau > tau_b * (1 + 1e-12) or dnu > nu_b * (1 + 1e-9):
            violations += 1
    report(
        10, arith_ok and violations == 0,
        f"count example = {n_tilde}, {violations} bound violations in 1000 geometries",
        time.time() - t0, 30.0,
    )
