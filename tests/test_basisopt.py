"""Tests for the prior sampling, kernel matrices and basis optimization."""

import numpy as np
import pytest

from mgcs.basisopt import (
    CKernelTable,
    DelayDopplerPrior,
    ObjectiveSamples,
    assemble_2d_basis,
    attach_kernels,
    build_C_matrix,
    c_kernel,
    convex_update_step,
    hermitian_unitary_exp,
    mc_objective,
    optimize_blocks,
    reference_prior,
    sample_prior,
)
from mgcs.channel import FilterSpec, PathSet, dft_coeffs, spreading_model
from mgcs.errors import ConfigurationError, DomainError
from mgcs.estimator import BasisSpec, dft_block
from mgcs.partition import make_block_tiling
from mgcs.waveform import SystemConfig, cp_ofdm_pulses, cross_ambiguity
from oracles import group_frobenius_norm

RRC = FilterSpec(kind="rrc")


def small_cfg(**kw):
    defaults = dict(K=8, N=10, L=8, D=4, J=4, n_tx=2, n_rx=1, Ts=2e-7)
    defaults.update(kw)
    return SystemConfig(**defaults)


def random_blocks(D, J, rng):
    return np.stack(
        [np.linalg.qr(rng.normal(size=(J, J)) + 1j * rng.normal(size=(J, J)))[0] for _ in range(D)]
    )


def projection_oracle_g(taus, nus, basis, cfg, pulses, filters):
    """Independent route to the coefficient matrix of a single-scatterer
    channel: spreading function -> rectangle 2D-DFT coefficients -> subsampled
    grid -> projection onto the assembled basis."""
    n_ch = len(taus)
    paths = PathSet(
        gains=np.ones((1, n_ch), dtype=complex),
        delays=np.asarray(taus)[None, :],
        dopplers=np.asarray(nus)[None, :],
    )
    F = dft_coeffs(spreading_model(paths, cfg, filters), pulses, cfg).values
    m = np.arange(cfg.D)
    i = np.arange(-cfg.J // 2, cfg.J // 2)
    lam = np.arange(cfg.J)
    kap = np.arange(cfg.D)
    phase = np.exp(
        -2j * np.pi * (kap[None, :, None, None] * m[None, None, :, None] / cfg.D
                       - lam[:, None, None, None] * i[None, None, None, :] / cfg.J)
    )
    h_sub = np.einsum("lkmi,mix->lkx", phase, F)
    U = basis.assemble()
    return np.stack([U.conj().T @ h_sub[:, :, xi].reshape(-1) for xi in range(n_ch)], axis=1)


class TestPrior:
    def test_reference_defaults(self):
        cfg = SystemConfig(K=512, N=640, L=32, D=128, J=32, n_tx=2, n_rx=2, Ts=2e-7)
        prior = reference_prior(cfg)
        assert prior.tau_max == pytest.approx(25.6e-6)
        assert prior.nu_max == pytest.approx(292.97, abs=0.1)
        assert prior.offsets == ((0.0, 0.0, -1.4, 1.4),) * 3

    def test_same_seed_identical(self):
        prior = DelayDopplerPrior(1e-6, 100.0, ((0.0, 0.0, -1.0, 1.0),))
        s1 = sample_prior(prior, 16, 3)
        s2 = sample_prior(prior, 16, 3)
        np.testing.assert_array_equal(s1.taus, s2.taus)
        np.testing.assert_array_equal(s1.nus, s2.nus)

    def test_degenerate_rectangles(self):
        prior = DelayDopplerPrior(0.0, 0.0, ((0.0, 0.0, 0.0, 0.0),) * 2)
        s = sample_prior(prior, 5, 0)
        assert np.all(s.taus == 0)
        assert np.all(s.nus == 0)
        assert s.n_channels == 3

    def test_offsets_apply_to_first_draw(self):
        prior = DelayDopplerPrior(1e-6, 50.0, ((0.0, 0.0, -1.4, 1.4),))
        s = sample_prior(prior, 64, 1)
        np.testing.assert_array_equal(s.taus[:, 1], s.taus[:, 0])
        assert np.abs(s.nus[:, 1] - s.nus[:, 0]).max() <= 1.4

    def test_invalid_rectangles(self):
        with pytest.raises(ConfigurationError):
            DelayDopplerPrior(-1.0, 10.0)
        with pytest.raises(ConfigurationError):
            DelayDopplerPrior(1.0, 10.0, ((0.0, -1.0, 0.0, 0.0),))
        with pytest.raises(ConfigurationError):
            DelayDopplerPrior(1.0, 10.0, ((-1e-9, 0.0, 0.0, 0.0),))


class TestCKernel:
    def test_table_matches_scalar_brute_force(self):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        table = CKernelTable(pulses, cfg)
        nu = 0.37 / (cfg.Ts * cfg.l_r)
        cm = table.c_matrix(nu)
        for m in range(cfg.D):
            for lam in range(cfg.J):
                assert cm[m, lam] == pytest.approx(
                    c_kernel(nu, m, lam, pulses, cfg), abs=1e-10 * np.abs(cm).max()
                )

    def test_on_grid_collapse(self):
        # nu on the Doppler grid: a single kernel term survives
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        i0 = 1
        nu0 = i0 / (cfg.Ts * cfg.l_r)
        cm = CKernelTable(pulses, cfg).c_matrix(nu0)
        for m in range(cfg.D):
            for lam in range(cfg.J):
                expect = (
                    np.exp(1j * np.pi * (nu0 * cfg.Ts - i0 / cfg.l_r) * (cfg.l_r - 1))
                    * np.conj(cross_ambiguity(pulses, m, i0 / cfg.l_r))
                    * np.exp(2j * np.pi * lam * i0 / cfg.J)
                )
                assert cm[m, lam] == pytest.approx(expect, abs=1e-10)

    def test_conjugate_symmetry_full_doppler_window(self):
        # with J = L the window is a complete period and mirroring the Doppler
        # sign conjugates the kernel entrywise (real pulses)
        cfg = small_cfg(J=8, D=4)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        table = CKernelTable(pulses, cfg)
        nu = 0.23 / (cfg.Ts * cfg.l_r)
        cm = table.c_matrix(nu)
        cm_neg = table.c_matrix(-nu)
        np.testing.assert_allclose(cm, np.conj(cm_neg), atol=1e-10 * np.abs(cm).max())


class TestBuildCMatrix:
    def test_single_channel_single_column(self):
        cfg = small_cfg(n_tx=1)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        C = build_C_matrix([1e-7], [50.0], pulses, cfg, RRC)
        assert C.shape == (cfg.jd, 1)

    def test_far_off_support_delay_vanishes(self):
        cfg = small_cfg(n_tx=1)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        near = build_C_matrix([1 * cfg.Ts], [0.0], pulses, cfg, RRC)
        far = build_C_matrix([60 * cfg.Ts], [0.0], pulses, cfg, RRC)
        assert np.abs(far).max() < 1e-3 * np.abs(near).max()

    @pytest.mark.parametrize("kind", ["dft", "blocks"])
    def test_kernel_factorization_vs_projection_oracle(self, kind):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(0)
        if kind == "dft":
            basis = BasisSpec.dft(cfg.J, cfg.D)
        else:
            basis = BasisSpec.from_blocks(random_blocks(cfg.D, cfg.J, rng))
        prior = reference_prior(cfg, n_channels=2)
        for trial in range(5):
            tau0 = rng.uniform(0, (cfg.D - 1) * cfg.Ts)
            nu0 = rng.uniform(-prior.nu_max, prior.nu_max)
            taus = [tau0, tau0]
            nus = [nu0, nu0 + rng.uniform(-1.4, 1.4)]
            C = build_C_matrix(taus, nus, pulses, cfg, RRC)
            blocks = np.stack([basis.block(m) for m in range(cfg.D)])
            VC = np.concatenate(
                [blocks[m] @ C[m * cfg.J: (m + 1) * cfg.J] for m in range(cfg.D)]
            )
            g_oracle = projection_oracle_g(taus, nus, basis, cfg, pulses, RRC)
            np.testing.assert_allclose(
                VC, g_oracle, atol=1e-8 * np.abs(g_oracle).max()
            )


class TestMcObjective:
    def setup_samples(self, cfg, R=8, seed=0):
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        prior = reference_prior(cfg, n_channels=cfg.n_channels)
        samples = sample_prior(prior, R, seed)
        return attach_kernels(samples, pulses, cfg, RRC), pulses

    def test_identity_blocks(self):
        cfg = small_cfg()
        samples, _ = self.setup_samples(cfg)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        eye_blocks = np.broadcast_to(np.eye(cfg.J, dtype=complex), (cfg.D, cfg.J, cfg.J)).copy()
        got = mc_objective(eye_blocks, samples, tiling)
        expect = sum(
            group_frobenius_norm(samples.C[r].reshape(cfg.D, cfg.J, -1), tiling)
            for r in range(samples.n_samples)
        )
        assert got == pytest.approx(expect, rel=1e-12)

    def test_dft_blocks_on_grid_sample_matches_f_norm(self):
        # single on-grid sample: the objective equals sqrt(JD) ||F||_{F|P} of
        # that single-scatterer channel, computed through the channel oracle
        cfg = small_cfg(n_tx=1)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        kron = FilterSpec(kind="kronecker")
        m0, i0 = 1, 1
        tau, nu = m0 * cfg.Ts, i0 / (cfg.Ts * cfg.l_r)
        C = build_C_matrix([tau], [nu], pulses, cfg, kron)
        samples = ObjectiveSamples(
            taus=np.array([[tau]]), nus=np.array([[nu]]), C=C[None, :, :]
        )
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        got = mc_objective(BasisSpec.dft(cfg.J, cfg.D), samples, tiling)
        paths = PathSet(gains=np.ones((1, 1), dtype=complex),
                        delays=np.array([[tau]]), dopplers=np.array([[nu]]))
        F = dft_coeffs(spreading_model(paths, cfg, kron), pulses, cfg).values
        expect = np.sqrt(cfg.jd) * group_frobenius_norm(F, tiling)
        assert got == pytest.approx(expect, rel=1e-8)

    def test_invariant_under_channel_permutation(self):
        cfg = small_cfg()
        samples, _ = self.setup_samples(cfg)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        basis = BasisSpec.dft(cfg.J, cfg.D)
        base = mc_objective(basis, samples, tiling)
        from dataclasses import replace

        flipped = replace(samples, C=samples.C[:, :, ::-1])
        assert mc_objective(basis, flipped, tiling) == pytest.approx(base, rel=1e-12)

    def test_rejects_non_unitary_blocks(self):
        cfg = small_cfg()
        samples, _ = self.setup_samples(cfg)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        with pytest.raises(DomainError):
            mc_objective(np.ones((cfg.D, cfg.J, cfg.J)), samples, tiling)

    @pytest.mark.parametrize("dm,di", [(1, 2), (2, 1), (4, 2)])
    def test_matches_per_sample_group_norm_loop(self, dm, di):
        cfg = small_cfg()
        samples, _ = self.setup_samples(cfg)
        tiling = make_block_tiling(cfg.D, cfg.J, dm, di)
        blocks = random_blocks(cfg.D, cfg.J, np.random.default_rng(13))
        Cm = samples.C.reshape(samples.n_samples, cfg.D, cfg.J, -1)
        expect = sum(
            group_frobenius_norm(np.einsum("mab,mbx->max", blocks, Cm[r]), tiling)
            for r in range(samples.n_samples)
        )
        assert mc_objective(blocks, samples, tiling) == pytest.approx(expect, rel=1e-12)

    def test_invariant_under_basis_vector_phase_rotation(self):
        cfg = small_cfg()
        samples, _ = self.setup_samples(cfg)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        blocks = np.broadcast_to(dft_block(cfg.J), (cfg.D, cfg.J, cfg.J)).copy()
        base = mc_objective(blocks, samples, tiling)
        rotated = blocks.copy()
        rotated[1, 2, :] *= np.exp(0.7j)  # rotate one basis vector globally
        assert mc_objective(rotated, samples, tiling) == pytest.approx(base, rel=1e-12)


class TestHermitianExp:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(hermitian_unitary_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal_case(self):
        got = hermitian_unitary_exp(np.diag([np.pi, 0.0]))
        np.testing.assert_allclose(got, np.diag([-1.0 + 0j, 1.0 + 0j]), atol=1e-12)

    def test_output_unitary(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        A = (A + A.conj().T) / 2
        U = hermitian_unitary_exp(A)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(4), atol=1e-12)

    def test_taylor_remainder_second_order(self):
        # || e^{jA} - (I + jA) || = O(||A||^2), against a high-order series
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        A = (A + A.conj().T) / 2
        for t in (1e-1, 1e-2, 1e-3):
            At = t * A
            series = np.eye(3, dtype=complex)
            term = np.eye(3, dtype=complex)
            for k in range(1, 25):
                term = term @ (1j * At) / k
                series = series + term
            got = hermitian_unitary_exp(At)
            np.testing.assert_allclose(got, series, atol=1e-12)
            rem = np.linalg.norm(got - np.eye(3) - 1j * At)
            assert rem <= 0.6 * (t * np.linalg.norm(A)) ** 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            hermitian_unitary_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))


def direct_convex_update_step(v_sub, eps_bound, C_sub, di, smoothing=1e-8, max_iter=200):
    """Reference: the projected-gradient loop on the explicit coefficients
    W_m = (I + jA_m) V_m C_m, flattened to (J, R * Xi)."""
    dm, J = v_sub.shape[0], v_sub.shape[1]
    R, xi = C_sub.shape[0], C_sub.shape[3]
    M = [v_sub[m] @ np.moveaxis(C_sub[:, m], 0, 1).reshape(J, R * xi) for m in range(dm)]
    cap = eps_bound * (1 - 1e-9)

    def clip(A):
        mag = np.abs(A)
        over = mag > cap
        A = np.where(over, A * (cap / np.where(over, mag, 1.0)), A)
        return 0.5 * (A + np.conj(A.transpose(0, 2, 1)))

    def objective(A):
        W = [M[m] + 1j * (A[m] @ M[m]) for m in range(dm)]
        e = np.zeros((R, J))
        for m in range(dm):
            e += (np.abs(W[m]) ** 2).reshape(J, R, xi).sum(axis=2).T
        e = e.reshape(R, J // di, di).sum(axis=2)
        return float(np.sqrt(e + smoothing).sum()), W, e

    def gradient(W, e):
        w = 1.0 / np.sqrt(e + smoothing)
        w_flat = np.repeat(np.repeat(w, di, axis=1).T[:, :, None], xi, axis=2).reshape(J, R * xi)
        out = np.empty((dm, J, J), dtype=complex)
        for m in range(dm):
            gam = 1j * (M[m] @ (np.conj(W[m]) * w_flat).T)
            out[m] = 0.5 * (gam + gam.conj().T)
        return out

    A = np.zeros((dm, J, J), dtype=complex)
    f, W, e = objective(A)
    step = eps_bound
    for _ in range(max_iter):
        g = gradient(W, e)
        g_max = np.abs(g).max()
        if g_max < 1e-15:
            break
        improved = False
        while step * g_max > 1e-12 * eps_bound:
            A_try = clip(A - step * g)
            f_try, W_try, e_try = objective(A_try)
            if f_try < f - 1e-15 * max(1.0, abs(f)):
                A, f, W, e = A_try, f_try, W_try, e_try
                step *= 1.5
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return A


class TestConvexUpdate:
    def make_subproblem(self, cfg, rng, R=4):
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        prior = reference_prior(cfg, n_channels=cfg.n_channels)
        samples = attach_kernels(sample_prior(prior, R, 5), pulses, cfg, RRC)
        C_sub = samples.C.reshape(R, cfg.D, cfg.J, -1)[:, :1]  # first delay column
        v_sub = np.broadcast_to(dft_block(cfg.J), (1, cfg.J, cfg.J)).copy()
        return v_sub, C_sub

    def test_small_box_gives_small_update(self):
        cfg = small_cfg()
        rng = np.random.default_rng(3)
        v_sub, C_sub = self.make_subproblem(cfg, rng)
        A = convex_update_step(v_sub, 1e-9, C_sub, di=2)
        assert np.abs(A).max() <= 1e-9

    def test_hermitian_and_in_box(self):
        cfg = small_cfg()
        rng = np.random.default_rng(4)
        v_sub, C_sub = self.make_subproblem(cfg, rng)
        eps = 0.1
        A = convex_update_step(v_sub, eps, C_sub, di=2)
        np.testing.assert_allclose(A[0], A[0].conj().T, atol=1e-14)
        assert np.abs(A).max() < eps

    def test_linearized_objective_not_worse_than_zero(self):
        from mgcs.basisopt import _subproblem_objective

        cfg = small_cfg()
        rng = np.random.default_rng(5)
        v_sub, C_sub = self.make_subproblem(cfg, rng)
        A = convex_update_step(v_sub, 0.1, C_sub, di=2)
        lin = np.stack([(np.eye(cfg.J) + 1j * A[0]) @ v_sub[0]])
        base = _subproblem_objective(v_sub, C_sub, di=2)
        assert _subproblem_objective(lin, C_sub, di=2) <= base + 1e-10

    @pytest.mark.parametrize("dm,column,scale", [(1, 0, 1.0), (2, 1, 1.0), (1, 2, 1e4)])
    def test_matches_direct_coefficient_loop(self, dm, column, scale):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        prior = reference_prior(cfg, n_channels=cfg.n_channels)
        R = 16
        samples = attach_kernels(sample_prior(prior, R, 8), pulses, cfg, RRC)
        Cm = samples.C.reshape(R, cfg.D, cfg.J, -1)
        C_sub = scale * Cm[:, column * dm:(column + 1) * dm]
        v_sub = random_blocks(dm, cfg.J, np.random.default_rng(14))
        eps = 0.1
        A = convex_update_step(v_sub, eps, C_sub, di=2)
        assert np.isfinite(A).all()
        ref = direct_convex_update_step(v_sub, eps, C_sub, di=2)
        assert np.abs(A - ref).max() <= 1e-9 * eps

    def test_matches_grid_search_oracle_tiny(self):
        # J = 2, one sample, one delay column: exhaustive search over the free
        # Hermitian parameters inside the box
        from mgcs.basisopt import _subproblem_objective

        cfg = small_cfg(K=4, N=6, L=2, D=2, J=2, n_tx=1)
        rng = np.random.default_rng(6)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        prior = reference_prior(cfg, n_channels=1)
        samples = attach_kernels(sample_prior(prior, 1, 7), pulses, cfg, RRC)
        C_sub = samples.C.reshape(1, cfg.D, cfg.J, 1)[:, :1]
        v_sub = np.broadcast_to(dft_block(2), (1, 2, 2)).copy()
        eps = 0.2
        A = convex_update_step(v_sub, eps, C_sub, di=1)
        lin = np.stack([(np.eye(2) + 1j * A[0]) @ v_sub[0]])
        achieved = _subproblem_objective(lin, C_sub, di=1)
        grid = np.linspace(-eps, eps, 9)
        best = np.inf
        for a in grid:
            for b in grid:
                for cr in grid:
                    for ci in grid:
                        if abs(cr + 1j * ci) >= eps:
                            continue
                        H = np.array([[a, cr + 1j * ci], [cr - 1j * ci, b]])
                        cand = np.stack([(np.eye(2) + 1j * H) @ v_sub[0]])
                        best = min(best, _subproblem_objective(cand, C_sub, di=1))
        assert achieved <= best + 1e-3 * max(1.0, abs(best))


class TestOptimizeBlocks:
    def opt_inputs(self, cfg, R=24, seed=9):
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        prior = reference_prior(cfg, n_channels=cfg.n_channels)
        samples = attach_kernels(sample_prior(prior, R, seed), pulses, cfg, RRC)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        return samples, tiling, pulses

    def test_zero_iterations_returns_dft(self):
        cfg = small_cfg()
        samples, tiling, pulses = self.opt_inputs(cfg, R=4)
        basis, diags = optimize_blocks(samples, tiling, pulses, cfg, max_iters=0)
        np.testing.assert_allclose(
            basis.blocks, np.broadcast_to(dft_block(cfg.J), basis.blocks.shape), atol=1e-12
        )
        assert diags.final_objective == pytest.approx(diags.initial_objective)

    def test_objective_history_nonincreasing_and_improves(self):
        cfg = small_cfg()
        samples, tiling, pulses = self.opt_inputs(cfg)
        basis, diags = optimize_blocks(samples, tiling, pulses, cfg, max_iters=12)
        for hist in diags.objective_history:
            assert all(b < a for a, b in zip(hist, hist[1:]))
        assert diags.final_objective < diags.initial_objective
        # every output block stays unitary
        for m in range(cfg.D):
            np.testing.assert_allclose(
                basis.blocks[m].conj().T @ basis.blocks[m], np.eye(cfg.J), atol=1e-10
            )

    def test_two_delay_rows_per_column(self):
        cfg = small_cfg()
        samples, _, pulses = self.opt_inputs(cfg)
        tiling = make_block_tiling(cfg.D, cfg.J, 2, 2)
        basis, diags = optimize_blocks(samples, tiling, pulses, cfg, max_iters=8)
        assert len(diags.objective_history) == cfg.D // 2
        for hist in diags.objective_history:
            assert len(hist) > 1
            assert all(b < a for a, b in zip(hist, hist[1:]))
        assert diags.final_objective < diags.initial_objective
        for m in range(cfg.D):
            np.testing.assert_allclose(
                basis.blocks[m].conj().T @ basis.blocks[m], np.eye(cfg.J), atol=1e-10
            )

    def test_objective_reduction_on_fresh_samples(self):
        cfg = small_cfg()
        samples, tiling, pulses = self.opt_inputs(cfg, R=32, seed=10)
        basis, _ = optimize_blocks(samples, tiling, pulses, cfg, max_iters=12)
        prior = reference_prior(cfg, n_channels=cfg.n_channels)
        fresh = attach_kernels(sample_prior(prior, 32, 11), pulses, cfg, RRC)
        assert mc_objective(basis, fresh, tiling) < mc_objective(
            BasisSpec.dft(cfg.J, cfg.D), fresh, tiling
        )


class TestAssemble2dBasis:
    def test_dft_blocks_give_2d_dft(self):
        J, D = 4, 3
        blocks = np.broadcast_to(dft_block(J), (D, J, J)).copy()
        spec, U = assemble_2d_basis(blocks)
        U_ref = BasisSpec.dft(J, D).assemble()
        np.testing.assert_allclose(U, U_ref, atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(12)
        _, U = assemble_2d_basis(random_blocks(3, 4, rng))
        np.testing.assert_allclose(U.conj().T @ U, np.eye(12), atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ConfigurationError):
            assemble_2d_basis(np.ones((2, 3, 3)))
