"""Tests for pilot design, measurement construction and the estimator."""

from dataclasses import replace

import numpy as np
import pytest

import mgcs.estimator
from mgcs.channel import FilterSpec, PathSet, discrete_ir
from mgcs.errors import ConfigurationError, DomainError
from mgcs.estimator import (
    BasisSpec,
    assemble_frame,
    build_phi,
    collect_measurements,
    default_pilot_matrix,
    draw_pilots,
    dft_block,
    estimate_mimo,
    estimate_siso,
    expand_coeffs,
    expand_rectangle_to_grid,
    normalized_mse,
    rmse,
)
from mgcs.harness import desk_experiment, point_geometry, run_estimator, simulate_trial
from mgcs.partition import make_block_tiling
from mgcs.recovery import g_omp
from mgcs.waveform import (
    SystemConfig,
    apply_discrete_channel,
    cp_ofdm_pulses,
    demodulate,
    effective_coeffs,
    modulate,
)
from oracles import (
    ESTIMATE_SETTINGS,
    assemble_basis,
    channel_matrix,
    dft_coeffs,
    error_bound,
    expand_coeffs_loop,
    group_leakage,
    spreading_model,
    uniform_partition,
)

KRON = FilterSpec(kind="kronecker")


def cfg_2x2(**kw):
    defaults = dict(K=16, N=20, L=8, D=8, J=4, n_tx=2, n_rx=2, Ts=2e-7)
    defaults.update(kw)
    return SystemConfig(**defaults)


def subsample_grid(h_full, cfg):
    """Values of a full (L, K, ...) grid on the subsampled lattice, stacked
    row-wise over (lambda, kappa)."""
    lam = np.arange(cfg.J) * cfg.delta_l
    kap = np.arange(cfg.D) * cfg.delta_k
    return h_full[np.ix_(lam, kap)]


def random_unitary_blocks(D, J, rng):
    blocks = np.empty((D, J, J), dtype=complex)
    for m in range(D):
        blocks[m] = np.linalg.qr(rng.normal(size=(J, J)) + 1j * rng.normal(size=(J, J)))[0]
    return blocks


def on_grid_paths(cfg, m0=2, gains=None, rng=None):
    """Time-invariant single-scatterer channel at delay bin m0."""
    n_ch = cfg.n_channels
    if gains is None:
        gains = rng.normal(size=n_ch) + 1j * rng.normal(size=n_ch)
    return PathSet(
        gains=np.asarray(gains, dtype=complex)[None, :],
        delays=np.full((1, n_ch), m0 * cfg.Ts),
        dopplers=np.zeros((1, n_ch)),
    )


def run_full_chain(paths, scheme, cfg, pulses, rng, noise=None):
    """Frame -> modulate -> channel -> demodulate -> pilot measurements."""
    a = assemble_frame(scheme, cfg, rng)
    s = modulate(a, pulses, cfg)
    H = discrete_ir(paths, KRON, cfg)
    r = apply_discrete_channel(H, s)
    if noise is not None:
        r = r + noise
    y_grid = demodulate(r, pulses, cfg)
    return y_grid, effective_coeffs(H, pulses, cfg)


class TestBasis:
    def test_dft_assembly_matches_formula(self):
        J, D = 4, 3
        basis = BasisSpec.dft(J, D)
        U = assemble_basis(basis)
        for m in range(D):
            for a in range(J):
                i = a - J // 2
                col = U[:, m * J + a].reshape(J, D)
                lam = np.arange(J)[:, None]
                kap = np.arange(D)[None, :]
                expect = np.exp(-2j * np.pi * (kap * m / D - lam * i / J)) / np.sqrt(J * D)
                np.testing.assert_allclose(col, expect, atol=1e-12)

    def test_assembled_unitary(self):
        rng = np.random.default_rng(0)
        basis = BasisSpec(random_unitary_blocks(3, 4, rng))
        U = assemble_basis(basis)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(12), atol=1e-12)

    def test_column_matches_direct_evaluation(self):
        rng = np.random.default_rng(1)
        J, D = 4, 2
        basis = BasisSpec(random_unitary_blocks(D, J, rng))
        U = assemble_basis(basis)
        m, i = 1, -1
        col = U[:, m * J + i + J // 2].reshape(J, D)
        for lam in range(J):
            for kap in range(D):
                v = np.conj(basis.blocks[m][i + J // 2, lam])
                expect = v * np.exp(-2j * np.pi * kap * m / D) / np.sqrt(D)
                assert col[lam, kap] == pytest.approx(expect, abs=1e-12)

    def test_dft_valued_blocks_are_the_dft_bit_for_bit(self):
        # a basis built from blocks equal to dft_block(J) is the DFT: the same
        # Phi bits, and the same expansion, through the DFT shortcut
        cfg = cfg_2x2()
        dft = BasisSpec.dft(cfg.J, cfg.D)
        built = BasisSpec(np.stack([dft_block(cfg.J)] * cfg.D))
        assert dft.is_dft and built.is_dft
        assert (built.J, built.D) == (dft.J, dft.D) == (cfg.J, cfg.D)
        assert not dft.blocks.flags.writeable
        assert BasisSpec.dft(cfg.J, cfg.D) is dft  # built once per shape
        scheme = draw_pilots(cfg, 7, q=12)
        assert build_phi(scheme, built, cfg).tobytes() == build_phi(scheme, dft, cfg).tobytes()
        rng = np.random.default_rng(8)
        g = rng.normal(size=(cfg.D, cfg.J, 4)) + 1j * rng.normal(size=(cfg.D, cfg.J, 4))
        (h_b, f_b), (h_d, f_d) = (expand_coeffs(g, b, cfg) for b in (built, dft))
        assert f_d.tobytes() == (g / np.sqrt(cfg.jd)).tobytes()  # the shortcut
        assert h_b.tobytes() == h_d.tobytes() and f_b.tobytes() == f_d.tobytes()

    def test_dft_phi_keeps_the_broadcast_block_bits(self):
        # Phi of the DFT basis through its (D, J, J) blocks, against the
        # single conjugated DFT block broadcast over the delays
        cfg = cfg_2x2()
        scheme = draw_pilots(cfg, 9, q=12)
        lam, kap = np.divmod(scheme.grid_ids, cfg.D)
        phase = np.exp(-2j * np.pi * kap[..., None] * np.arange(cfg.D) / cfg.D) / np.sqrt(cfg.D)
        expect = np.conj(dft_block(cfg.J)).T[:, None, :][lam] * phase[..., None]
        expect *= np.sqrt(cfg.jd / scheme.q)
        got = build_phi(scheme, BasisSpec.dft(cfg.J, cfg.D), cfg)
        assert got.tobytes() == expect.reshape(got.shape).tobytes()

    def test_holds_a_read_only_copy_of_writable_blocks(self):
        # writing to the input afterwards leaves the basis and its flag as built
        blocks = np.stack([dft_block(4)] * 3)
        basis = BasisSpec(blocks)
        blocks[0] = -blocks[0]
        assert basis.is_dft
        assert basis.blocks.tobytes() == BasisSpec.dft(4, 3).blocks.tobytes()
        with pytest.raises(ValueError):
            basis.blocks[0, 0, 0] = 0

    def test_any_other_blocks_are_not_the_dft(self):
        rng = np.random.default_rng(3)
        assert not BasisSpec(random_unitary_blocks(3, 4, rng)).is_dft
        blocks = np.stack([dft_block(4)] * 3)
        blocks[1] = blocks[1][::-1]  # a row permutation: unitary, not the DFT
        assert not BasisSpec(blocks).is_dft

    def test_blocks_must_be_a_stack_of_square_matrices(self):
        for shape in ((4, 4), (2, 4, 3)):
            with pytest.raises(ConfigurationError, match="shape"):
                BasisSpec(np.zeros(shape, dtype=complex))

    def test_non_unitary_block_rejected(self):
        blocks = np.ones((2, 2, 2), dtype=complex)
        with pytest.raises(ConfigurationError):
            BasisSpec(blocks)

    def test_names_the_first_non_unitary_block(self):
        blocks = random_unitary_blocks(5, 4, np.random.default_rng(2))
        blocks[2, 1, 3] += 1e-8
        blocks[4] *= 2
        with pytest.raises(ConfigurationError, match=r"^basis block 2 is not unitary$"):
            BasisSpec(blocks)


class TestDrawPilots:
    def test_deterministic(self):
        cfg = cfg_2x2()
        s1 = draw_pilots(cfg, 5, q=8)
        s2 = draw_pilots(cfg, 5, q=8)
        np.testing.assert_array_equal(s1.grid_ids, s2.grid_ids)

    def test_single_tx_single_set(self):
        cfg = cfg_2x2(n_tx=1)
        s = draw_pilots(cfg, 0, q=8)
        assert s.grid_ids.shape == (1, 8)

    def test_disjoint_sets(self):
        cfg = cfg_2x2()
        s = draw_pilots(cfg, 1, q=12)
        assert len(np.unique(s.grid_ids)) == 24

    def test_overdraw_rejected(self):
        cfg = cfg_2x2()
        with pytest.raises(ConfigurationError):
            draw_pilots(cfg, 0, q=cfg.jd)

    def test_full_scale_pilot_fraction(self):
        # Q = 1024 on the Delta_L = 1, Delta_K = 4 grid of a 512 x 32 system:
        # 6.25 * n_tx percent of all symbols
        cfg = SystemConfig(K=512, N=640, L=32, D=128, J=32, n_tx=2, n_rx=2)
        scheme = draw_pilots(cfg, 3, q=1024)
        fraction = scheme.n_tx * scheme.q / (cfg.K * cfg.L)
        assert fraction == pytest.approx(0.0625 * cfg.n_tx)


class TestBuildPhi:
    def test_full_grid_single_tx_is_unitary(self):
        cfg = cfg_2x2(n_tx=1, n_rx=1)
        scheme = draw_pilots(cfg, 2, q=cfg.jd)
        Phi = build_phi(scheme, BasisSpec.dft(cfg.J, cfg.D), cfg)[0]
        np.testing.assert_allclose(Phi.conj().T @ Phi, np.eye(cfg.jd), atol=1e-10)

    def test_rows_are_scaled_basis_rows(self):
        cfg = cfg_2x2()
        rng = np.random.default_rng(2)
        scheme = draw_pilots(cfg, 7, q=6)
        scale = np.sqrt(cfg.jd / scheme.q)
        for basis in (BasisSpec(random_unitary_blocks(cfg.D, cfg.J, rng)),
                      BasisSpec.dft(cfg.J, cfg.D)):
            U = assemble_basis(basis)
            mats = build_phi(scheme, basis, cfg)
            for s in range(cfg.n_tx):
                np.testing.assert_allclose(
                    mats[s], scale * U[scheme.grid_ids[s]], atol=1e-12
                )

    @pytest.mark.parametrize("desk", [True, False])
    @pytest.mark.parametrize("dft", [True, False])
    def test_every_block_is_a_tight_frame(self, desk, dft):
        # distinct pilot rows of a unitary matrix scaled by sqrt(JD/Q): every
        # block has A A^H = (JD/Q) I, at desk (J = D = 16, Q = 48) and on a
        # non-square grid (J = 4, D = 8, Q = 12), for the DFT and a random
        # per-delay unitary basis; G-BPDN's projection rests on it
        cfg, q = (desk_experiment(1).system, 48) if desk else (cfg_2x2(), 12)
        rng = np.random.default_rng(3)
        basis = (BasisSpec.dft(cfg.J, cfg.D) if dft
                 else BasisSpec(random_unitary_blocks(cfg.D, cfg.J, rng)))
        scheme = draw_pilots(cfg, np.random.SeedSequence([1, 7919]), q=q)
        mats = build_phi(scheme, basis, cfg)
        assert mats.shape == (cfg.n_tx, q, cfg.jd)
        for A in mats:
            np.testing.assert_allclose(A @ A.conj().T, cfg.jd / q * np.eye(q), rtol=0, atol=1e-12)

    def test_dft_entry_magnitude(self):
        cfg = cfg_2x2()
        scheme = draw_pilots(cfg, 11, q=8)
        Phi = build_phi(scheme, BasisSpec.dft(cfg.J, cfg.D), cfg)[0]
        np.testing.assert_allclose(np.abs(Phi), 1 / np.sqrt(scheme.q), atol=1e-12)


class TestCollectMeasurements:
    def test_zero_received(self):
        cfg = cfg_2x2()
        scheme = draw_pilots(cfg, 0, q=6)
        ens = collect_measurements(
            np.zeros((cfg.L, cfg.K, cfg.n_rx)), scheme, BasisSpec.dft(cfg.J, cfg.D), cfg
        )
        assert np.all(ens.observations == 0)
        assert ens.n_channels == 4

    def test_single_pair_shapes(self):
        cfg = cfg_2x2(n_tx=1, n_rx=1)
        scheme = draw_pilots(cfg, 0, q=6)
        ens = collect_measurements(
            np.zeros((cfg.L, cfg.K, 1)), scheme, BasisSpec.dft(cfg.J, cfg.D), cfg
        )
        assert ens.observations.shape == (1, 6)

    @pytest.mark.parametrize("tail", [(1,), (), (3,)], ids=["one-rx", "no-rx-axis", "three-rx"])
    def test_grid_must_cover_every_receive_antenna(self, tail):
        # a 2x2 system needs an (L, K, 2) grid: fewer antennas would index
        # past the grid, more would be read from the first two silently
        cfg = cfg_2x2()
        scheme = draw_pilots(cfg, 0, q=6)
        with pytest.raises(DomainError, match="shape"):
            collect_measurements(np.zeros((cfg.L, cfg.K) + tail), scheme,
                                 BasisSpec.dft(cfg.J, cfg.D), cfg)

    @pytest.mark.parametrize("field,value", [("n_tx", 1), ("D", 8), ("J", 8)])
    def test_scheme_must_match_the_system(self, field, value):
        # on the desk 2x2 system a scheme for one transmit antenna gave a
        # 2-channel ensemble that the estimator could not reshape, and one for
        # another grid was decoded with its own D but measured with the basis's
        cfg = desk_experiment(1).system
        scheme = draw_pilots(replace(cfg, **{field: value}), 0, q=48)
        with pytest.raises(ConfigurationError, match="pilot scheme"):
            collect_measurements(np.zeros((cfg.L, cfg.K, cfg.n_rx)), scheme,
                                 BasisSpec.dft(cfg.J, cfg.D), cfg)

    def test_measurement_equation_consistency(self):
        """y = Phi x exactly for a diagonal-model synthetic on-grid channel,
        with x built from the ground-truth scaled coefficients."""
        cfg = cfg_2x2()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(3)
        basis = BasisSpec.dft(cfg.J, cfg.D)
        scheme = draw_pilots(cfg, 4, q=10)
        paths = on_grid_paths(cfg, m0=1, rng=rng)
        S_h = spreading_model(paths, cfg, KRON)
        F = dft_coeffs(S_h, pulses, cfg)
        g_true = np.sqrt(cfg.jd) * F  # (D, J, n_ch)
        h_full = expand_rectangle_to_grid(F, cfg)  # (L, K, n_ch)
        # diagonal model: y_{l,k} = H_{l,k} a_{l,k}
        a = assemble_frame(scheme, cfg, rng)
        Hlk = h_full.reshape(cfg.L, cfg.K, cfg.n_rx, cfg.n_tx)
        y_grid = np.einsum("lkrs,lks->lkr", Hlk, a)
        ens = collect_measurements(y_grid, scheme, basis, cfg)
        gp = np.einsum("djrt,ts->djrs", g_true.reshape(cfg.D, cfg.J, 2, 2),
                       scheme.p_matrix)
        for r in range(cfg.n_rx):
            for s in range(cfg.n_tx):
                xi = r * cfg.n_tx + s
                # x = sqrt(Q/JD) rvec(G P)[r, s]
                x = np.sqrt(scheme.q / cfg.jd) * gp[:, :, r, s].reshape(-1)
                lhs = ens.observations[xi]
                rhs = channel_matrix(ens, xi) @ x
                np.testing.assert_allclose(lhs, rhs, atol=1e-8 * np.abs(lhs).max())


class TestAssembleFrame:
    @pytest.mark.parametrize("field,value", [("n_tx", 1), ("D", 8), ("J", 8)])
    def test_scheme_must_match_the_system(self, field, value):
        # on the desk 2x2 system a scheme for one transmit antenna broadcast
        # antenna 0's pilot value to both antennas, and one for another grid
        # placed its pilots by its own D and J; both returned a full frame
        cfg = desk_experiment(1).system
        scheme = draw_pilots(replace(cfg, **{field: value}), 0, q=48)
        with pytest.raises(ConfigurationError, match="pilot scheme"):
            assemble_frame(scheme, cfg, np.random.default_rng(0))


class TestEstimateMimo:
    def test_noiseless_on_grid_recovery(self):
        cfg = cfg_2x2()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(4)
        paths = on_grid_paths(cfg, m0=2, rng=rng)
        scheme = draw_pilots(cfg, 5, q=12)
        basis = BasisSpec.dft(cfg.J, cfg.D)
        y_grid, truth = run_full_chain(paths, scheme, cfg, pulses, rng)
        ens = collect_measurements(y_grid, scheme, basis, cfg)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        est = estimate_mimo(ens, scheme, basis, cfg, solver="g-omp", tiling=tiling,
                            joint=True, max_groups=cfg.jd, residual_tol=1e-9)
        assert rmse(est.h_full, truth) <= 1e-6 * np.linalg.norm(truth)

    def test_zero_channel(self):
        cfg = cfg_2x2()
        scheme = draw_pilots(cfg, 6, q=8)
        basis = BasisSpec.dft(cfg.J, cfg.D)
        ens = collect_measurements(np.zeros((cfg.L, cfg.K, cfg.n_rx)), scheme, basis, cfg)
        est = estimate_mimo(ens, scheme, basis, cfg, solver="g-omp", tiling=None,
                            max_groups=cfg.jd, residual_tol=0.0)
        assert np.all(est.h_full == 0)

    def test_dft_tag_equals_explicit_dft_blocks(self):
        cfg = cfg_2x2()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(5)
        paths = on_grid_paths(cfg, m0=1, rng=rng)
        scheme = draw_pilots(cfg, 7, q=12)
        y_grid, _ = run_full_chain(paths, scheme, cfg, pulses, rng)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        # the negated DFT blocks are not the DFT bit for bit, so the expansion
        # takes the general path; the sign cancels in the estimate
        explicit = BasisSpec(-np.broadcast_to(dft_block(cfg.J), (cfg.D, cfg.J, cfg.J)))
        assert not explicit.is_dft
        ests = []
        for basis in (BasisSpec.dft(cfg.J, cfg.D), explicit):
            ens = collect_measurements(y_grid, scheme, basis, cfg)
            ests.append(
                estimate_mimo(ens, scheme, basis, cfg, solver="g-omp", tiling=tiling,
                              joint=True, max_groups=cfg.jd, residual_tol=1e-9)
            )
        scale = np.abs(ests[0].h_full).max()
        np.testing.assert_allclose(ests[0].h_full, ests[1].h_full, atol=1e-10 * scale)

    def test_noiseless_linearity_of_greedy_estimates(self):
        cfg = cfg_2x2()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(6)
        gains = rng.normal(size=4) + 1j * rng.normal(size=4)
        scheme = draw_pilots(cfg, 8, q=12)
        basis = BasisSpec.dft(cfg.J, cfg.D)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        hs = []
        for alpha in (1.0, 2.5):
            paths = on_grid_paths(cfg, m0=2, gains=alpha * gains)
            rng_frame = np.random.default_rng(99)
            y_grid, _ = run_full_chain(paths, scheme, cfg, pulses, rng_frame)
            ens = collect_measurements(y_grid, scheme, basis, cfg)
            est = estimate_mimo(ens, scheme, basis, cfg, solver="g-omp", tiling=tiling,
                                joint=True, max_groups=cfg.jd, residual_tol=1e-9)
            hs.append(est.h_full)
        np.testing.assert_allclose(hs[1], 2.5 * hs[0], atol=1e-8 * np.abs(hs[1]).max())

    def test_per_channel_diagnostics_cover_every_channel(self):
        # conv-omp on a 2x2 system whose four channels sit at four delays:
        # each channel selects its own group, and the diagnostics report all
        cfg = cfg_2x2()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(12)
        n_ch = cfg.n_channels
        paths = PathSet(
            gains=(rng.normal(size=n_ch) + 1j * rng.normal(size=n_ch))[None, :],
            delays=np.arange(1, n_ch + 1)[None, :] * cfg.Ts,
            dopplers=np.zeros((1, n_ch)),
        )
        scheme = draw_pilots(cfg, 13, q=12)
        basis = BasisSpec.dft(cfg.J, cfg.D)
        y_grid, truth = run_full_chain(paths, scheme, cfg, pulses, rng)
        ens = collect_measurements(y_grid, scheme, basis, cfg)
        est = estimate_mimo(ens, scheme, basis, cfg, solver="g-omp", tiling=None, joint=False,
                            max_groups=cfg.jd, residual_tol=1e-9)
        diag = est.diagnostics
        per_channel = [g_omp(channel_matrix(ens, xi), ens.observations[xi],
                             uniform_partition(cfg.jd, 1), max_groups=cfg.jd, residual_tol=1e-9,
                             joint=True)
                       for xi in range(n_ch)]
        assert diag["selected_groups"] == [r.selected_groups for r in per_channel]
        assert len({tuple(g) for g in diag["selected_groups"]}) == n_ch
        assert diag["iterations"] == sum(r.iterations for r in per_channel) >= n_ch
        assert diag["residual_norms"].shape == (n_ch,)
        assert np.all(diag["residual_norms"] <= 1e-9)
        assert rmse(est.h_full, truth) <= 1e-6 * np.linalg.norm(truth)

    def test_per_channel_bpdn_radius_bounds_each_channel(self):
        # joint=False hands eps to every channel's solve unchanged
        cfg = cfg_2x2()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(21)
        scheme = draw_pilots(cfg, 22, q=12)
        basis = BasisSpec.dft(cfg.J, cfg.D)
        noise = 0.05 * (rng.standard_normal((cfg.l_r, cfg.n_rx))
                        + 1j * rng.standard_normal((cfg.l_r, cfg.n_rx)))
        y_grid, _ = run_full_chain(on_grid_paths(cfg, m0=2, rng=rng), scheme, cfg, pulses,
                                   rng, noise=noise)
        ens = collect_measurements(y_grid, scheme, basis, cfg)
        eps, tol = 0.3 * np.linalg.norm(ens.observations, axis=1).min(), 1e-3
        est = estimate_mimo(ens, scheme, basis, cfg, solver="g-bpdn", tiling=None, joint=False,
                            eps=eps, tol=tol)
        norms = est.diagnostics["residual_norms"]
        assert norms.shape == (cfg.n_channels,)
        assert np.all((eps * (1 - tol) <= norms) & (norms <= eps))


def test_estimate_mimo_forwards_the_solver_diagnostics():
    # seed-1 desk trial [1, 0, 3]: mgcs-somp's joint fit loses rank, and the
    # estimate says so; a CoSaMP estimate carries its fixed-point flags
    config = desk_experiment(1)
    cfg = config.system
    pulses = cp_ofdm_pulses(cfg.K, cfg.N)
    scheme = draw_pilots(cfg, np.random.SeedSequence([1, 7919]), q=config.q)
    y_grid, _, sigma_z, _ = simulate_trial(cfg, scheme, pulses, config.filters,
                                           point_geometry(cfg), 20.0, [1, 0, 3])
    basis = BasisSpec.dft(cfg.J, cfg.D)
    tiling = make_block_tiling(cfg.D, cfg.J, config.dm, config.di)
    diag = run_estimator("mgcs-somp", y_grid, scheme, basis, cfg, tiling, sigma_z,
                         **ESTIMATE_SETTINGS).diagnostics
    assert diag["rank_deficient"] is True
    assert len(diag["residual_history"]) == diag["iterations"] + 1
    diag = run_estimator("gcs-cosamp", y_grid, scheme, basis, cfg, tiling, sigma_z,
                         **ESTIMATE_SETTINGS).diagnostics
    assert len(diag["fixed_point"]) == len(diag["channel_iterations"]) == cfg.n_channels
    assert sum(diag["channel_iterations"]) == diag["iterations"]


class TestSolverDispatch:
    def make_2x2(self):
        cfg = cfg_2x2()
        rng = np.random.default_rng(14)
        scheme = draw_pilots(cfg, 15, q=12)
        basis = BasisSpec.dft(cfg.J, cfg.D)
        y_grid, _ = run_full_chain(on_grid_paths(cfg, m0=2, rng=rng), scheme, cfg,
                                   cp_ofdm_pulses(cfg.K, cfg.N), rng)
        return cfg, scheme, basis, collect_measurements(y_grid, scheme, basis, cfg), y_grid

    def test_solvers_resolve_through_module_attributes(self, monkeypatch):
        # a replaced mgcs.estimator attribute serves the joint, the
        # per-channel and the scalar-pilot paths alike: every estimator name
        # is one solver call per estimate
        cfg, scheme, basis, ens, y_grid = self.make_2x2()
        calls = []

        def recording(original):
            def solve(*args, **kwargs):
                calls.append(original.__name__)
                return original(*args, **kwargs)
            return solve

        for name in ("g_omp", "g_cosamp", "g_bpdn", "g_dcs_somp"):
            monkeypatch.setattr(mgcs.estimator, name, recording(getattr(mgcs.estimator, name)))
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        expected = {"omp": "g_omp", "cosamp": "g_cosamp", "bpdn": "g_bpdn"}
        names = [f"{s}-{a}" for s in ("conv", "gcs", "mcs", "mgcs") for a in expected]
        for name in names + ["mcs-somp", "mgcs-somp"]:
            run_estimator(name, y_grid, scheme, basis, cfg, tiling, 0.05, **ESTIMATE_SETTINGS)
            structure, algo = name.split("-")
            joint_omp = structure.startswith("m") and algo in ("omp", "somp")
            assert calls == ["g_dcs_somp" if joint_omp else expected[algo]], name
            del calls[:]
        siso_cfg = cfg_2x2(n_tx=1, n_rx=1)
        siso_scheme = draw_pilots(siso_cfg, 9, q=12)
        y_grid = np.zeros((siso_cfg.L, siso_cfg.K, 1), dtype=complex)
        estimate_siso(np.ones(12), y_grid, siso_scheme, BasisSpec.dft(siso_cfg.J, siso_cfg.D),
                      siso_cfg, solver="g-cosamp", tiling=None, S=1, residual_tol=0.0)
        assert calls == ["g_cosamp"]

    @pytest.mark.parametrize("joint", [True, False])
    def test_unknown_solver_rejected(self, joint):
        cfg, scheme, basis, ens, _ = self.make_2x2()
        with pytest.raises(ConfigurationError, match="unknown solver"):
            estimate_mimo(ens, scheme, basis, cfg, solver="g-lasso", tiling=None, joint=joint)

    def test_dcs_somp_is_joint_only(self):
        cfg, scheme, basis, ens, _ = self.make_2x2()
        with pytest.raises(ConfigurationError, match="joint"):
            estimate_mimo(ens, scheme, basis, cfg, solver="g-dcs-somp", tiling=None,
                          joint=False)

    def test_unknown_solver_rejected_by_siso(self):
        cfg = cfg_2x2(n_tx=1, n_rx=1)
        scheme = draw_pilots(cfg, 9, q=12)
        y_grid = np.zeros((cfg.L, cfg.K, 1), dtype=complex)
        with pytest.raises(ConfigurationError, match="unknown solver"):
            estimate_siso(np.ones(12), y_grid, scheme, BasisSpec.dft(cfg.J, cfg.D), cfg,
                          solver="g-lasso", tiling=None)


class TestEstimateSiso:
    def make_siso(self, rng, q=12):
        cfg = cfg_2x2(n_tx=1, n_rx=1)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        paths = on_grid_paths(cfg, m0=2, rng=rng)
        scheme = draw_pilots(cfg, 9, q=q)
        y_grid, truth = run_full_chain(paths, scheme, cfg, pulses, rng)
        return cfg, scheme, y_grid, truth

    def test_constant_pilots_match_mimo_path(self):
        rng = np.random.default_rng(7)
        cfg, scheme, y_grid, _ = self.make_siso(rng)
        basis = BasisSpec.dft(cfg.J, cfg.D)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        p = scheme.p_matrix[0, 0]
        siso = estimate_siso(np.full(scheme.q, p), y_grid, scheme, basis, cfg,
                             solver="g-omp", tiling=tiling, max_groups=cfg.jd, residual_tol=1e-9)
        ens = collect_measurements(y_grid, scheme, basis, cfg)
        mimo = estimate_mimo(ens, scheme, basis, cfg, solver="g-omp", tiling=tiling,
                             max_groups=cfg.jd, residual_tol=1e-9)
        scale = np.abs(mimo.h_full).max()
        np.testing.assert_allclose(siso.h_full, mimo.h_full, atol=1e-10 * scale)

    def test_noiseless_exact_recovery(self):
        rng = np.random.default_rng(8)
        cfg, scheme, y_grid, truth = self.make_siso(rng)
        basis = BasisSpec.dft(cfg.J, cfg.D)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        p = scheme.p_matrix[0, 0]
        est = estimate_siso(np.full(scheme.q, p), y_grid, scheme, basis, cfg,
                            solver="g-omp", tiling=tiling, max_groups=cfg.jd, residual_tol=1e-9)
        assert rmse(est.h_full, truth) <= 1e-6 * np.linalg.norm(truth)

    def test_zero_pilot_value_rejected(self):
        rng = np.random.default_rng(9)
        cfg, scheme, y_grid, _ = self.make_siso(rng)
        vals = np.full(scheme.q, scheme.p_matrix[0, 0])
        vals[0] = 0.0
        with pytest.raises(DomainError):
            estimate_siso(vals, y_grid, scheme, BasisSpec.dft(cfg.J, cfg.D), cfg,
                          solver="g-omp", tiling=None)

    def test_singleton_groups_reduce_to_plain_omp(self):
        rng = np.random.default_rng(10)
        cfg, scheme, y_grid, _ = self.make_siso(rng)
        basis = BasisSpec.dft(cfg.J, cfg.D)
        p = scheme.p_matrix[0, 0]
        est = estimate_siso(np.full(scheme.q, p), y_grid, scheme, basis, cfg,
                            solver="g-omp", tiling=None, max_groups=cfg.jd, residual_tol=1e-9)
        # inline plain OMP on the same instance
        Phi = build_phi(scheme, basis, cfg)[0]
        ls, ks = scheme.positions(0, cfg)
        y = y_grid[ls, ks, 0] / p
        resid = y.copy()
        picked = []
        for _ in range(len(est.diagnostics["selected_groups"])):
            j = int(np.argmax(np.abs(Phi.conj().T @ resid)))
            picked.append(j)
            cols = np.array(sorted(picked))
            coef, *_ = np.linalg.lstsq(Phi[:, cols], y, rcond=None)
            resid = y - Phi[:, cols] @ coef
        assert sorted(picked) == sorted(est.diagnostics["selected_groups"])


class TestRmse:
    def test_exact_match(self):
        a = np.ones((2, 3, 1, 1))
        assert rmse(a, a) == 0.0

    def test_zero_estimate(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(2, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2))
        assert rmse(np.zeros_like(h), h) == pytest.approx(np.linalg.norm(h))

    def test_scaling(self):
        rng = np.random.default_rng(12)
        h = rng.normal(size=(4, 4, 1, 1)) + 0j
        e = rng.normal(size=(4, 4, 1, 1)) + 0j
        assert rmse(2 * (h + e), 2 * h) == pytest.approx(2 * rmse(h + e, h))

    def test_normalized(self):
        h = np.full((2, 2, 1, 1), 2.0 + 0j)
        assert normalized_mse(np.zeros_like(h), h) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            rmse(np.zeros((2, 2)), np.zeros((3, 2)))


class TestErrorBound:
    def test_delta_zero_constants(self):
        cfg = cfg_2x2()
        res = error_bound("g-bpdn", 0.0, 2, 0.5, 1.0, default_pilot_matrix(2), cfg, q=8)
        assert res.detail["c0"] == pytest.approx(2.0)
        assert res.detail["c1"] == pytest.approx(4.0)
        assert res.applicable

    def test_cosamp_term_halves_per_iteration(self):
        cfg = cfg_2x2()
        g = np.ones((cfg.D, cfg.J, 4), dtype=complex)
        b1 = error_bound("g-cosamp", 0.05, 1, 0.0, 0.0, default_pilot_matrix(2),
                           cfg, q=8, n_iters=3, g_tensor=g)
        b2 = error_bound("g-cosamp", 0.05, 1, 0.0, 0.0, default_pilot_matrix(2),
                           cfg, q=8, n_iters=4, g_tensor=g)
        assert b2.value == pytest.approx(b1.value / 2)

    def test_exactly_sparse_leakage_vanishes(self):
        cfg = cfg_2x2()
        part = uniform_partition(cfg.jd, 4)
        g = np.zeros((cfg.D, cfg.J, 4), dtype=complex)
        g[0, 0, :] = 1.0  # single active group
        c_g, support = group_leakage(g, part, 1)
        assert c_g == 0.0
        res = error_bound("g-bpdn", 0.0, 1, 0.3, c_g, default_pilot_matrix(2), cfg, q=8)
        assert res.value == pytest.approx(res.detail["C1"] * 0.3)

    @pytest.mark.parametrize("n_ch", [None, 4])
    def test_leakage_matches_a_group_loop(self, n_ch):
        # a (D, J) tensor is one channel
        cfg = cfg_2x2()
        part = make_block_tiling(cfg.D, cfg.J, 1, 2).to_partition()
        rng = np.random.default_rng(5)
        shape = (cfg.D, cfg.J) if n_ch is None else (cfg.D, cfg.J, n_ch)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rows = g.reshape(cfg.jd, -1)
        norms = np.array([np.linalg.norm(rows[grp]) for grp in part.groups])
        strongest = set(np.argsort(-norms, kind="stable")[:3].tolist())
        c_g, support = group_leakage(g, part, 3)
        assert support == strongest
        rest = [norms[b] for b in range(part.n_groups) if b not in strongest]
        assert c_g == pytest.approx(sum(rest), rel=1e-12)

    def test_inapplicable_flag(self):
        cfg = cfg_2x2()
        res = error_bound("g-bpdn", 0.9, 1, 0.1, 1.0, default_pilot_matrix(2), cfg, q=8)
        assert not res.applicable


class TestNormChain:
    @pytest.mark.parametrize("seed", range(5))
    def test_energy_and_error_identities(self, seed):
        """||h|| = sqrt(KL/JD) ||g|| and the same identity for differences,
        for random tensors under random unitary bases."""
        rng = np.random.default_rng(seed)
        cfg = cfg_2x2()
        basis = BasisSpec(random_unitary_blocks(cfg.D, cfg.J, rng))
        shape = (cfg.D, cfg.J, cfg.n_channels)
        g1 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        g2 = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        h1, _ = expand_coeffs(g1, basis, cfg)
        h2, _ = expand_coeffs(g2, basis, cfg)
        ratio = np.sqrt(cfg.K * cfg.L / cfg.jd)
        for xi in range(cfg.n_channels):
            assert np.linalg.norm(h1[:, :, xi]) == pytest.approx(
                ratio * np.linalg.norm(g1[:, :, xi]), rel=1e-10
            )
            assert np.linalg.norm(h1[:, :, xi] - h2[:, :, xi]) == pytest.approx(
                ratio * np.linalg.norm(g1[:, :, xi] - g2[:, :, xi]), rel=1e-10
            )

    @pytest.mark.parametrize("n_ch", [1, 4])
    def test_batched_expansion_matches_the_per_channel_loop(self, n_ch):
        rng = np.random.default_rng(41)
        cfg = cfg_2x2()
        basis = BasisSpec(random_unitary_blocks(cfg.D, cfg.J, rng))
        shape = (cfg.D, cfg.J, n_ch)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        _, f_tensor = expand_coeffs(g, basis, cfg)
        f_ref, _ = expand_coeffs_loop(g, basis, cfg.D, cfg.J)
        assert f_tensor.shape == f_ref.shape
        np.testing.assert_allclose(f_tensor, f_ref, rtol=0, atol=1e-13 * np.abs(f_ref).max())

    def test_subsampled_energy_identity(self):
        rng = np.random.default_rng(40)
        cfg = cfg_2x2()
        basis = BasisSpec(random_unitary_blocks(cfg.D, cfg.J, rng))
        g = rng.normal(size=(cfg.D, cfg.J, 4)) + 1j * rng.normal(size=(cfg.D, cfg.J, 4))
        h_full, f_tensor = expand_coeffs(g, basis, cfg)
        _, h_sub = expand_coeffs_loop(g, basis, cfg.D, cfg.J)
        # the basis expansion is unitary on the subsampled grid, and the
        # subsampled 2D DFT is sqrt(JD) times a unitary map
        for xi in range(4):
            norm_g = np.linalg.norm(g[:, :, xi])
            assert np.linalg.norm(h_sub[:, :, xi]) == pytest.approx(norm_g, rel=1e-10)
            assert np.linalg.norm(f_tensor[:, :, xi]) == pytest.approx(
                norm_g / np.sqrt(cfg.jd), rel=1e-10)
        np.testing.assert_allclose(
            subsample_grid(h_full, cfg), h_sub, atol=1e-9 * np.abs(h_sub).max()
        )
