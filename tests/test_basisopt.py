"""Tests for the prior sampling, kernel matrices and basis optimization."""

import time
import tracemalloc

import numpy as np
import pytest

from mgcs.basisopt import (
    CKernelTable,
    DelayDopplerPrior,
    ObjectiveSamples,
    _doppler_partition,
    attach_kernels,
    build_C_matrix,
    convex_update_step,
    hermitian_unitary_exp,
    mc_objective,
    optimize_blocks,
    reference_prior,
    sample_prior,
)
from mgcs.channel import FilterSpec, PathSet, psi_kernel
from mgcs.errors import ConfigurationError, DomainError
from mgcs.estimator import BasisSpec, dft_block
from mgcs.harness import desk_experiment, desk_prior
from mgcs.partition import make_block_tiling
from mgcs.waveform import SystemConfig, cp_ofdm_pulses
from oracles import (
    assemble_basis,
    c_kernel,
    c_matrix,
    cross_ambiguity,
    dft_coeffs,
    explicit_convex_subproblem,
    group_frobenius_norm,
    projected_gradient_convex_step,
    spreading_model,
)

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
    F = dft_coeffs(spreading_model(paths, cfg, filters), pulses, cfg)
    m = np.arange(cfg.D)
    i = np.arange(-cfg.J // 2, cfg.J // 2)
    lam = np.arange(cfg.J)
    kap = np.arange(cfg.D)
    phase = np.exp(
        -2j * np.pi * (kap[None, :, None, None] * m[None, None, :, None] / cfg.D
                       - lam[:, None, None, None] * i[None, None, None, :] / cfg.J)
    )
    h_sub = np.einsum("lkmi,mix->lkx", phase, F)
    U = assemble_basis(basis)
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
    @pytest.mark.slow
    def test_full_scale_table_is_fast_small_and_exact(self):
        # full scale (K=512, N=640, L=32, D=128, J=32): the (J, D, N) table
        # holds 2.6M entries, 42 MB.  The direct (J N) x (L_gamma + 1)
        # phase-matrix product it replaces took 2.2-2.9 s with a 400 MB
        # tracemalloc peak on a 2-core x86-64 host with one BLAS thread; the
        # DFT build must be at least 10x faster (best of three) and 4x
        # smaller, and every sampled entry within 1e-12 of the largest
        cfg = SystemConfig(K=512, N=640, L=32, D=128, J=32, n_tx=2, n_rx=2)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            CKernelTable(pulses, cfg)
            times.append(time.perf_counter() - t0)
        tracemalloc.start()
        try:
            table = CKernelTable(pulses, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert min(times) <= 0.22
        assert peak <= 100 * 2**20
        rng = np.random.default_rng(15)
        rows, ms, qs = (rng.integers(0, n, size=200) for n in (cfg.J, cfg.D, cfg.N))
        ref = np.array([cross_ambiguity(pulses, m, (j - cfg.J // 2 + q * cfg.L) / cfg.l_r)
                        for j, m, q in zip(rows, ms, qs)])
        got = np.conj(table.amb_conj[rows, ms, qs])
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(table.amb_conj).max()

    def test_table_matches_scalar_brute_force(self):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        table = CKernelTable(pulses, cfg)
        nu = 0.37 / (cfg.Ts * cfg.l_r)
        cm = c_matrix(table, nu)
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
        cm = c_matrix(CKernelTable(pulses, cfg), nu0)
        for m in range(cfg.D):
            for lam in range(cfg.J):
                expect = (
                    np.exp(1j * np.pi * (nu0 * cfg.Ts - i0 / cfg.l_r) * (cfg.l_r - 1))
                    * np.conj(cross_ambiguity(pulses, m, i0 / cfg.l_r))
                    * np.exp(2j * np.pi * lam * i0 / cfg.J)
                )
                assert cm[m, lam] == pytest.approx(expect, abs=1e-10)

    def test_psi_matches_the_direct_formula(self):
        # Dopplers on and off the grid: a = nu Ts L_r in {0, 1, -3} puts
        # n - a at multiples of L_r, where the kernel's special case applies
        cfg = desk_experiment(0).system
        table = CKernelTable(cp_ofdm_pulses(cfg.K, cfg.N), cfg)
        a = np.concatenate([[0.0, 1.0, -3.0, 0.37], np.random.default_rng(2).uniform(-2, 2, 40)])
        nus = a / (cfg.Ts * cfg.l_r)
        nu_ts = nus[:, None, None] * cfg.Ts
        n = table.freq
        x = n - nu_ts * cfg.l_r
        arg = np.pi * (nu_ts - n / cfg.l_r) * (cfg.l_r - 1)
        direct = np.exp(1j * arg) * psi_kernel(x.ravel(), cfg.l_r).reshape(x.shape)
        # both round the phase argument: a few ulp of the largest
        tol = 8 * np.spacing(np.abs(arg).max())
        np.testing.assert_allclose(table.psi(nus), direct, rtol=0, atol=tol)

    def test_conjugate_symmetry_full_doppler_window(self):
        # with J = L the window is a complete period and mirroring the Doppler
        # sign conjugates the kernel entrywise (real pulses)
        cfg = small_cfg(J=8, D=4)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        table = CKernelTable(pulses, cfg)
        nu = 0.23 / (cfg.Ts * cfg.l_r)
        cm = c_matrix(table, nu)
        cm_neg = c_matrix(table, -nu)
        np.testing.assert_allclose(cm, np.conj(cm_neg), atol=1e-10 * np.abs(cm).max())


class TestBuildCMatrix:
    def test_single_channel_single_column(self):
        cfg = small_cfg(n_tx=1)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        C = build_C_matrix([1e-7], [50.0], cfg, RRC, CKernelTable(pulses, cfg))
        assert C.shape == (cfg.jd, 1)

    def test_far_off_support_delay_vanishes(self):
        cfg = small_cfg(n_tx=1)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        near = build_C_matrix([1 * cfg.Ts], [0.0], cfg, RRC, CKernelTable(pulses, cfg))
        far = build_C_matrix([60 * cfg.Ts], [0.0], cfg, RRC, CKernelTable(pulses, cfg))
        assert np.abs(far).max() < 1e-3 * np.abs(near).max()

    def test_attach_kernels_matches_per_doppler_c_matrix(self):
        # the batched kernel product of attach_kernels against one c_matrix
        # per Doppler value
        from mgcs.channel import phi_profiles

        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        R = 6
        samples = attach_kernels(
            sample_prior(reference_prior(cfg), R, 4), pulses, cfg, RRC)
        table = CKernelTable(pulses, cfg)
        for rho in range(R):
            taus, nus = samples.taus[rho], samples.nus[rho]
            phi = phi_profiles(RRC, taus / cfg.Ts, nus * cfg.Ts, cfg.D)
            for xi, nu in enumerate(nus):
                expect = (np.sqrt(cfg.D) * phi[xi][:, None] * c_matrix(table, nu)).reshape(-1)
                np.testing.assert_allclose(
                    samples.C[rho, :, xi], expect, rtol=0, atol=1e-13 * np.abs(expect).max())

    @pytest.mark.parametrize("R", [1, 5, 6, 9])
    def test_attach_kernels_is_bit_identical_to_per_sample_calls(self, R):
        # R is not always a multiple of the samples per kernel call.  The desk
        # system, which criterion 9 and the benchmark run: on tiny systems the
        # BLAS may pick another kernel for the wider product, equal only up
        # to rounding (test_attach_kernels_matches_per_doppler_c_matrix)
        cfg = desk_experiment(0).system
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        samples = attach_kernels(sample_prior(desk_prior(cfg), R, 17), pulses, cfg, RRC)
        table = CKernelTable(pulses, cfg)
        expect = np.stack([
            build_C_matrix(samples.taus[rho], samples.nus[rho], cfg, RRC, table)
            for rho in range(R)])
        assert samples.C.shape == expect.shape
        assert samples.C.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("kind", ["dft", "blocks"])
    def test_kernel_factorization_vs_projection_oracle(self, kind):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(0)
        if kind == "dft":
            basis = BasisSpec.dft(cfg.J, cfg.D)
        else:
            basis = BasisSpec(random_blocks(cfg.D, cfg.J, rng))
        prior = reference_prior(cfg)
        for trial in range(5):
            tau0 = rng.uniform(0, (cfg.D - 1) * cfg.Ts)
            nu0 = rng.uniform(-prior.nu_max, prior.nu_max)
            taus = [tau0, tau0]
            nus = [nu0, nu0 + rng.uniform(-1.4, 1.4)]
            C = build_C_matrix(taus, nus, cfg, RRC, CKernelTable(pulses, cfg))
            blocks = basis.blocks
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
        prior = reference_prior(cfg)
        samples = sample_prior(prior, R, seed)
        return attach_kernels(samples, pulses, cfg, RRC), pulses

    def test_identity_blocks(self):
        cfg = small_cfg()
        samples, _ = self.setup_samples(cfg)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        eye_blocks = np.broadcast_to(np.eye(cfg.J, dtype=complex), (cfg.D, cfg.J, cfg.J)).copy()
        got = mc_objective(BasisSpec(eye_blocks), samples, tiling)
        expect = sum(
            group_frobenius_norm(samples.C[r].reshape(cfg.D, cfg.J, -1), tiling)
            for r in range(samples.n_samples)
        )
        assert got == pytest.approx(expect, rel=1e-12)

    def test_never_holds_the_whole_coefficient_tensor(self):
        # desk system, R=256: the (R, D, J, n_channels) coefficients V C are
        # 4 MB; one delay column's are 256 kB
        config = desk_experiment(0)
        cfg = config.system
        samples, _ = self.setup_samples(cfg, R=256)
        tiling = make_block_tiling(cfg.D, cfg.J, config.dm, config.di)
        basis = BasisSpec.dft(cfg.J, cfg.D)
        tracemalloc.start()
        try:
            mc_objective(basis, samples, tiling)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_dft_blocks_on_grid_sample_matches_f_norm(self):
        # single on-grid sample: the objective equals sqrt(JD) ||F||_{F|P} of
        # that single-scatterer channel, computed through the channel oracle
        cfg = small_cfg(n_tx=1)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        kron = FilterSpec(kind="kronecker")
        m0, i0 = 1, 1
        tau, nu = m0 * cfg.Ts, i0 / (cfg.Ts * cfg.l_r)
        C = build_C_matrix([tau], [nu], cfg, kron, CKernelTable(pulses, cfg))
        samples = ObjectiveSamples(
            taus=np.array([[tau]]), nus=np.array([[nu]]), C=C[None, :, :]
        )
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        got = mc_objective(BasisSpec.dft(cfg.J, cfg.D), samples, tiling)
        paths = PathSet(gains=np.ones((1, 1), dtype=complex),
                        delays=np.array([[tau]]), dopplers=np.array([[nu]]))
        F = dft_coeffs(spreading_model(paths, cfg, kron), pulses, cfg)
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

    def test_rejects_a_basis_of_other_dimensions(self):
        cfg = small_cfg()
        samples, _ = self.setup_samples(cfg)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        with pytest.raises(ConfigurationError, match="tiling"):
            mc_objective(BasisSpec.dft(cfg.J, 2 * cfg.D), samples, tiling)

    def test_rejects_non_unitary_blocks(self):
        cfg = small_cfg()
        samples, _ = self.setup_samples(cfg)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        # the basis constructor rejects the blocks before any objective is taken
        with pytest.raises(ConfigurationError):
            mc_objective(BasisSpec(np.ones((cfg.D, cfg.J, cfg.J))), samples, tiling)

    def test_names_the_first_non_unitary_block(self):
        cfg = small_cfg()
        samples, _ = self.setup_samples(cfg)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        blocks = random_blocks(cfg.D, cfg.J, np.random.default_rng(15))
        blocks[1, 0, 2] += 1e-8
        blocks[3] *= 2
        with pytest.raises(ConfigurationError, match=r"^basis block 1 is not unitary$"):
            mc_objective(BasisSpec(blocks), samples, tiling)

    @pytest.mark.parametrize("xi", [1, 4])
    @pytest.mark.parametrize("di", [1, 2, 4])
    @pytest.mark.parametrize("dm", [1, 2, 4])
    def test_block_energies_match_the_group_norm_oracle(self, dm, di, xi):
        # every (sample, Doppler block) energy of one delay column through its
        # Doppler-row partition, against the group norm of that block's
        # coefficients
        J, R = 8, 3
        rng = np.random.default_rng(16)
        blocks = random_blocks(dm, J, rng)
        C = rng.normal(size=(R, dm, J, xi)) + 1j * rng.normal(size=(R, dm, J, xi))
        W = blocks @ C
        e = _doppler_partition(dm, J, di, xi).energies(W.reshape(R, -1), rows=True)
        assert e.shape == (R, J // di)
        column = make_block_tiling(dm, J, dm, di)
        for r in range(R):
            for k in range(J // di):
                only_k = np.zeros_like(W[r])
                only_k[:, k * di:(k + 1) * di] = W[r][:, k * di:(k + 1) * di]
                expect = group_frobenius_norm(only_k, column) ** 2
                assert e[r, k] == pytest.approx(expect, rel=1e-12)

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
        assert mc_objective(BasisSpec(blocks), samples, tiling) == pytest.approx(
            expect, rel=1e-12)

    def test_invariant_under_basis_vector_phase_rotation(self):
        cfg = small_cfg()
        samples, _ = self.setup_samples(cfg)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        blocks = np.broadcast_to(dft_block(cfg.J), (cfg.D, cfg.J, cfg.J)).copy()
        base = mc_objective(BasisSpec(blocks), samples, tiling)
        rotated = blocks.copy()
        rotated[1, 2, :] *= np.exp(0.7j)  # rotate one basis vector globally
        assert mc_objective(BasisSpec(rotated), samples, tiling) == pytest.approx(base, rel=1e-12)


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


def direct_convex_update_step(v_sub, eps_bound, C_sub, di, smoothing=1e-8, max_iter=54):
    """Reference: the accelerated projected-gradient iteration on the explicit
    coefficients W_m = (I + jA_m) V_m C_m."""
    clip, objective, gradient = explicit_convex_subproblem(
        v_sub, eps_bound, C_sub, di, smoothing)
    A = np.zeros(v_sub.shape, dtype=complex)
    f, W, e = objective(A)
    best_f, best_A = f, A
    Y, f_y, W_y, e_y = A, f, W, e
    t, step = 1.0, eps_bound
    for _ in range(max_iter):
        g = gradient(W_y, e_y)
        g_max = np.abs(g).max()
        if g_max < 1e-15:
            break
        # backtrack until the quadratic model at Y bounds f at the new point
        fits = False
        while step * g_max > 1e-12 * eps_bound:
            A_new = clip(Y - step * g)
            f_new, W_new, e_new = objective(A_new)
            d = A_new - Y
            model = f_y + np.sum(g.real * d.real + g.imag * d.imag)
            if f_new <= model + np.sum(np.abs(d) ** 2) / (2 * step):
                fits = True
                break
            step *= 0.5
        if not fits:
            break
        if f_new < best_f:
            best_f, best_A = f_new, A_new
        t_new = (1 + np.sqrt(1 + 4 * t * t)) / 2
        if f_new >= f:
            Y, f_y, W_y, e_y, t_new = A_new, f_new, W_new, e_new, 1.0
        else:
            Y = A_new + (t - 1) / t_new * (A_new - A)
            f_y, W_y, e_y = objective(Y)
        A, f, t = A_new, f_new, t_new
        step *= 1.5
    return best_A


class TestConvexUpdate:
    def make_subproblem(self, cfg, rng, R=4):
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        prior = reference_prior(cfg)
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

    def test_never_above_the_zero_update_on_desk_programs(self):
        # the best iterate starts at A = 0 and is replaced only by a lower
        # smoothed objective: first (DFT) and later (random unitary) blocks,
        # boxes from large to small
        cfg = desk_experiment(0).system
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        R = 32
        samples = attach_kernels(sample_prior(desk_prior(cfg), R, 22), pulses, cfg, RRC)
        Cm = samples.C.reshape(R, cfg.D, cfg.J, -1)
        rng = np.random.default_rng(23)
        for dm in (1, 2):
            starts = (np.broadcast_to(dft_block(cfg.J), (dm, cfg.J, cfg.J)).copy(),
                      random_blocks(dm, cfg.J, rng))
            for v_sub in starts:
                for di in (2, 4):
                    for eps in (0.5, 0.1, 0.003):
                        for column in (0, 5):
                            C_sub = Cm[:, column * dm:(column + 1) * dm]
                            A = convex_update_step(v_sub, eps, C_sub, di)
                            _, objective, _ = explicit_convex_subproblem(
                                v_sub, eps, C_sub, di, 1e-8)
                            f0 = objective(np.zeros_like(A))[0]
                            assert objective(A)[0] <= f0 * (1 + 1e-12)

    @pytest.mark.parametrize("dm,column,scale", [(1, 0, 1.0), (2, 1, 1.0), (1, 2, 1e4)])
    def test_matches_direct_coefficient_loop(self, dm, column, scale):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        prior = reference_prior(cfg)
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

    def test_not_worse_than_projected_gradient_on_desk_subproblems(self):
        # first basis updates (DFT blocks) of the desk system over a grid of
        # tilings and boxes: the summed linearized objective of the
        # accelerated step is no higher than that of 200 projected-gradient
        # steps
        from mgcs.basisopt import _subproblem_objective

        cfg = desk_experiment(0).system
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        R = 64
        samples = attach_kernels(sample_prior(desk_prior(cfg), R, 21), pulses, cfg, RRC)
        Cm = samples.C.reshape(R, cfg.D, cfg.J, -1)
        eye = np.eye(cfg.J)
        totals = np.zeros(2)
        for dm in (1, 2):
            v_sub = np.broadcast_to(dft_block(cfg.J), (dm, cfg.J, cfg.J)).copy()
            for di in (2, 4):
                for eps in (0.1, 0.025, 0.003):
                    for column in (0, 3, 6):
                        C_sub = Cm[:, column * dm:(column + 1) * dm]
                        for k, step in enumerate((convex_update_step,
                                                  projected_gradient_convex_step)):
                            A = step(v_sub, eps, C_sub, di)
                            lin = (eye + 1j * A) @ v_sub
                            totals[k] += _subproblem_objective(lin, C_sub, di)
        assert totals[0] <= totals[1]

    def test_matches_grid_search_oracle_tiny(self):
        # J = 2, one sample, one delay column: exhaustive search over the free
        # Hermitian parameters inside the box
        from mgcs.basisopt import _subproblem_objective

        cfg = small_cfg(K=4, N=6, L=2, D=2, J=2, n_tx=1)
        rng = np.random.default_rng(6)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        prior = reference_prior(cfg)
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
        prior = reference_prior(cfg)
        samples = attach_kernels(sample_prior(prior, R, seed), pulses, cfg, RRC)
        tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
        return samples, tiling, pulses

    def test_zero_iterations_returns_dft(self):
        cfg = small_cfg()
        samples, tiling, pulses = self.opt_inputs(cfg, R=4)
        basis, diags = optimize_blocks(samples, tiling, pulses, cfg, max_iters=0)
        assert basis.is_dft
        assert basis.blocks.tobytes() == BasisSpec.dft(cfg.J, cfg.D).blocks.tobytes()
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

    @pytest.mark.parametrize("dm,di", [(1, 4), (2, 2)])
    def test_diagnostics_match_mc_objective(self, dm, di):
        cfg = small_cfg(J=8)
        samples, _, pulses = self.opt_inputs(cfg)
        tiling = make_block_tiling(cfg.D, cfg.J, dm, di)
        basis, diags = optimize_blocks(samples, tiling, pulses, cfg, max_iters=4)
        assert diags.initial_objective == pytest.approx(
            mc_objective(BasisSpec.dft(cfg.J, cfg.D), samples, tiling), rel=1e-12)
        assert diags.final_objective == pytest.approx(
            mc_objective(basis, samples, tiling), rel=1e-12)
        assert diags.final_objective < diags.initial_objective

    def test_objective_reduction_on_fresh_samples(self):
        cfg = small_cfg()
        samples, tiling, pulses = self.opt_inputs(cfg, R=32, seed=10)
        basis, _ = optimize_blocks(samples, tiling, pulses, cfg, max_iters=12)
        prior = reference_prior(cfg)
        fresh = attach_kernels(sample_prior(prior, 32, 11), pulses, cfg, RRC)
        assert mc_objective(basis, fresh, tiling) < mc_objective(
            BasisSpec.dft(cfg.J, cfg.D), fresh, tiling
        )


class TestAssemble2dBasis:
    def test_dft_blocks_give_2d_dft(self):
        J, D = 4, 3
        blocks = np.broadcast_to(dft_block(J), (D, J, J)).copy()
        U = assemble_basis(BasisSpec(blocks))
        U_ref = assemble_basis(BasisSpec.dft(J, D))
        np.testing.assert_allclose(U, U_ref, atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(12)
        U = assemble_basis(BasisSpec(random_blocks(3, 4, rng)))
        np.testing.assert_allclose(U.conj().T @ U, np.eye(12), atol=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ConfigurationError):
            assemble_basis(BasisSpec(np.ones((2, 3, 3))))
