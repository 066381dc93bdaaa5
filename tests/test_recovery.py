"""Tests for the group-sparse recovery solvers and G-RIC certification."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

import mgcs.estimator
import mgcs.recovery
from mgcs.channel import FilterSpec
from mgcs.errors import (
    BudgetExceededError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
)
from mgcs.estimator import BasisSpec, build_phi, collect_measurements, draw_pilots
from mgcs.harness import desk_experiment, desk_geometry, run_estimator, simulate_trial
from mgcs.partition import (
    Partition,
    make_block_tiling,
    singleton_partition,
    stack_partition,
)
from mgcs.recovery import (
    BlockDiagonalOperator,
    MeasurementEnsemble,
    RecoveryResult,
    _GrownQR,
    g_bpdn,
    g_cosamp,
    g_dcs_somp,
    g_omp,
    group_ric,
    mgcs_stack,
)
from mgcs.waveform import cp_ofdm_pulses
from oracles import (
    ESTIMATE_SETTINGS,
    FitFromScratch,
    best_group_approx,
    channel_matrix,
    channel_problems,
    delta_stacked_equals_max,
    g_cosamp_all_iterations,
    g_omp_from_scratch,
    g_omp_per_problem,
    group_norm,
    lipschitz_by_zherk,
    per_channel_loop,
    penalty_search_g_bpdn,
    plain_admm_g_bpdn,
    uniform_partition,
)


def partial_dft(q, m, rng):
    """Random row selection of the unitary M-point DFT, scaled to unit columns
    on average (the standard compressed-sensing construction)."""
    F = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
    rows = rng.choice(m, size=q, replace=False)
    return np.sqrt(m / q) * F[rows]


def conditioned_matrix(q, m, delta, rng):
    """Matrix whose full spectrum lies in [sqrt(1-delta), sqrt(1+delta)]; by
    eigenvalue interlacing every column-subset Gram then deviates from the
    identity by at most delta, so any brute-forced G-RIC is <= delta."""
    a = np.linalg.qr(rng.normal(size=(q, m)) + 1j * rng.normal(size=(q, m)))[0]
    b = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
    sv = np.sqrt(rng.uniform(1 - delta, 1 + delta, size=m))
    return (a * sv) @ b.conj().T


def group_sparse_signal(part, groups, rng):
    x = np.zeros(part.total_length, dtype=complex)
    for b in groups:
        g = part.groups[b]
        x[g] = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
    return x


def exhaustive_single_group_ls(Phi, y, part):
    """Best single-group least-squares fit, by enumeration."""
    best, best_res = None, np.inf
    for b in range(part.n_groups):
        cols = part.groups[b]
        coef, *_ = np.linalg.lstsq(Phi[:, cols], y, rcond=None)
        res = np.linalg.norm(y - Phi[:, cols] @ coef)
        if res < best_res - 1e-12:
            best, best_res = b, res
    return best, best_res


def bisection_g_bpdn(Phi, y, part, eps, tol, max_inner=4000, max_bisect=60):
    """Reference G-BPDN: geometric bisection on the group-lasso penalty, each
    penalty solved by restarted FISTA run to a 1e-12 relative objective
    change from the feasible end.  Returns the feasible-side iterate."""
    groups = part.groups

    def group_sum(v):
        return sum(np.linalg.norm(v[g]) for g in groups)

    def fista(lam, x0, lip):
        x, z, t = x0.copy(), x0.copy(), 1.0
        r = Phi @ x - y
        obj_prev = 0.5 * np.vdot(r, r).real + lam * group_sum(x)
        for _ in range(max_inner):
            v = z - Phi.conj().T @ (Phi @ z - y) / lip
            x_new = np.zeros_like(v)
            for g in groups:
                n = np.linalg.norm(v[g])
                if n > lam / lip:
                    x_new[g] = (1 - lam / lip / n) * v[g]
            t_new = 0.5 * (1 + math.sqrt(1 + 4 * t * t))
            z = x_new + ((t - 1) / t_new) * (x_new - x)
            r = Phi @ x_new - y
            obj = 0.5 * np.vdot(r, r).real + lam * group_sum(x_new)
            if obj > obj_prev:
                z, t_new = x_new.copy(), 1.0
            if abs(obj_prev - obj) <= 1e-12 * max(1.0, abs(obj_prev)):
                return x_new
            x, t, obj_prev = x_new, t_new, obj
        return x

    lip = np.linalg.norm(Phi, 2) ** 2
    corr = Phi.conj().T @ y
    lo = hi = max(np.linalg.norm(corr[g]) for g in groups)
    lo *= 1e-12
    x_lo = fista(lo, np.zeros(Phi.shape[1], dtype=complex), lip)
    r_lo = np.linalg.norm(Phi @ x_lo - y)
    for _ in range(max_bisect):
        if r_lo >= eps * (1 - tol):
            break
        mid = math.sqrt(lo * hi)
        x_mid = fista(mid, x_lo, lip)
        r_mid = np.linalg.norm(Phi @ x_mid - y)
        if r_mid > eps:
            hi = mid
        else:
            lo, x_lo, r_lo = mid, x_mid, r_mid
    return x_lo


class TestGOmp:
    def test_zero_observation(self):
        rng = np.random.default_rng(0)
        part = uniform_partition(8, 2)
        res = g_omp(partial_dft(4, 8, rng), np.zeros(4, dtype=complex), part,
                    max_groups=part.n_groups, residual_tol=0.0, joint=True)
        assert res.selected_groups == []
        np.testing.assert_array_equal(res.x, 0)

    def test_unitary_singletons_one_step(self):
        m = 8
        F = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
        part = singleton_partition(m)
        e3 = np.zeros(m, dtype=complex)
        e3[3] = 1.0
        res = g_omp(F, F @ e3, part, max_groups=m, residual_tol=1e-12, joint=True)
        assert res.selected_groups == [3]
        assert res.iterations == 1
        np.testing.assert_allclose(res.x, e3, atol=1e-12)

    def test_exact_recovery_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        Phi = partial_dft(6, 12, rng)
        part = uniform_partition(12, 2)
        x_true = group_sparse_signal(part, [4], rng)
        y = Phi @ x_true
        res = g_omp(Phi, y, part, max_groups=part.n_groups, residual_tol=1e-12, joint=True)
        # the exhaustive single-group oracle confirms support uniqueness
        b_star, res_star = exhaustive_single_group_ls(Phi, y, part)
        assert b_star == 4 and res_star < 1e-10
        assert res.selected_groups[0] == 4
        np.testing.assert_allclose(res.x, x_true, atol=1e-10)

    def test_residual_orthogonal_to_selected_columns(self):
        rng = np.random.default_rng(1)
        Phi = partial_dft(8, 16, rng)
        part = uniform_partition(16, 2)
        y = rng.normal(size=8) + 1j * rng.normal(size=8)
        res = g_omp(Phi, y, part, max_groups=3, residual_tol=0.0, joint=True)
        cols = np.concatenate([part.groups[b] for b in res.selected_groups])
        resid = y - Phi @ res.x
        assert np.abs(Phi[:, cols].conj().T @ resid).max() < 1e-10

    def test_residual_history_nonincreasing(self):
        rng = np.random.default_rng(2)
        Phi = partial_dft(10, 20, rng)
        part = uniform_partition(20, 2)
        y = rng.normal(size=10) + 1j * rng.normal(size=10)
        res = g_omp(Phi, y, part, max_groups=part.n_groups, residual_tol=0.0, joint=True)
        hist = res.diagnostics["residual_history"]
        assert all(b <= a + 1e-10 for a, b in zip(hist, hist[1:]))


class TestGrownFactor:
    """G-OMP grows one thin QR per transmit matrix; the oracle factors every
    channel's selected columns from scratch at every iteration."""

    def assert_matches_oracle(self, Phi, y, part, **opts):
        res = g_omp(Phi, y, part, joint=True, **opts)
        if isinstance(Phi, np.ndarray):
            Phi = BlockDiagonalOperator(Phi[None], 1)
        groups, x, history, rank_lost = g_omp_from_scratch(Phi.blocks, Phi.n_channels, y,
                                                           part, **opts)
        assert res.selected_groups == groups
        assert res.iterations == len(groups) > 1
        assert res.diagnostics["rank_deficient"] == rank_lost
        np.testing.assert_allclose(res.diagnostics["residual_history"], history,
                                   rtol=0, atol=1e-12 * np.linalg.norm(y))
        x_res = res.estimates.reshape(-1)  # (n_channels, M), stacked as the oracle's
        assert np.linalg.norm(x_res - x) <= 1e-12 * np.linalg.norm(x)
        return res

    # the last case of each test selects a group that makes some fit's
    # columns outnumber its rows while the residual is still well above
    # rounding; a further group would be chosen by rounding noise
    @pytest.mark.parametrize("max_groups", [2, 3])
    def test_plain_matrix(self, max_groups):
        rng = np.random.default_rng(50)
        part = uniform_partition(40, 5)
        Phi = (rng.normal(size=(12, 40)) + 1j * rng.normal(size=(12, 40))) / np.sqrt(24)
        y = Phi @ group_sparse_signal(part, (2, 5), rng) + 0.05 * rng.normal(size=12)
        res = self.assert_matches_oracle(Phi, y, part, max_groups=max_groups, residual_tol=0.0)
        assert res.diagnostics["rank_deficient"] == (max_groups == 3)

    @pytest.mark.parametrize("max_groups", [2, 3])
    @pytest.mark.parametrize("n_tx,n_rx", [(2, 2), (2, 3), (3, 1)])
    def test_operator_per_channel_partition(self, n_tx, n_rx, max_groups):
        rng = np.random.default_rng(51 + 10 * n_tx + n_rx)
        part = uniform_partition(24, 3)
        ens = random_ensemble(rng, 8, 24, n_tx, n_rx, part=part, support=(1, 4, 6),
                              noise=0.05)
        res = self.assert_matches_oracle(ens.operator(), ens.observations.reshape(-1),
                                         part, max_groups=max_groups, residual_tol=0.0)
        assert res.diagnostics["rank_deficient"] == (max_groups == 3)


class TestStackedFactor:
    """Every least-squares problem of a G-OMP call shares one stacked thin
    QR; the oracle grows one factor per problem, appended one after the
    other, and runs per-channel G-OMP as one call per channel."""

    @staticmethod
    def desk_calls(t):
        # the four default estimators' solver calls on bench seed 1, trial t
        cfg, config, scheme, ens, sigma_z = desk_trial(1, t)
        grouped = make_block_tiling(cfg.D, cfg.J, config.dm, config.di).to_partition()
        for name, part, joint in (("conv-omp", singleton_partition(cfg.jd), False),
                                  ("gcs-omp", grouped, False),
                                  ("mcs-somp", singleton_partition(cfg.jd), True),
                                  ("mgcs-somp", grouped, True)):
            n_ch = cfg.n_channels if joint else 1
            opts = dict(max_groups=scheme.q // (2 * part.size),
                        residual_tol=float(np.sqrt(n_ch * scheme.q * cfg.K) * sigma_z))
            yield name, ens, part, joint, opts

    # trials 8, 12, 42, 49 and 53 each have a gcs-omp channel that loses rank
    @pytest.mark.parametrize("t", [0, 1, 2, 8, 12, 42, 49, 53])
    def test_desk_estimators_match_the_per_problem_oracle(self, t):
        for name, ens, part, joint, opts in self.desk_calls(t):
            res = mgcs.estimator._run_solver(ens, part, "g-omp", joint, opts)
            x = res.estimates.reshape(ens.n_channels, -1)
            if joint:
                ref, resid = g_omp_per_problem(ens.operator(), ens.observations, part, **opts)
                refs = [ref]
                x_ref = ref.estimates.reshape(ens.n_channels, -1)
                norms = np.linalg.norm(resid, axis=1)
                assert res.selected_groups == ref.selected_groups, name
            else:
                refs = [g_omp_per_problem(channel_matrix(ens, xi), ens.observations[xi],
                                          part, **opts)[0] for xi in range(ens.n_channels)]
                x_ref = np.array([r.x for r in refs])
                norms = np.concatenate([r.residual_norms for r in refs])
                assert res.selected_groups == [r.selected_groups for r in refs], name
            assert res.iterations == sum(r.iterations for r in refs), name
            flags = [r.diagnostics["rank_deficient"] for r in refs]
            assert res.diagnostics["rank_deficient"] == any(flags), name
            if name == "gcs-omp" and t in (8, 12, 42, 49, 53):
                assert any(flags)
            assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref), name
            np.testing.assert_allclose(res.residual_norms, norms, rtol=1e-12)

    @staticmethod
    def assert_one_call_is_per_channel_calls(ens, part, **opts):
        res = g_omp(ens.operator(), ens.observations, part, joint=False, **opts)
        singles = per_channel_loop(g_omp, ens.operator(), ens.observations, part, **opts)
        assert res.selected_groups == [r.selected_groups for r in singles]
        assert res.iterations == sum(r.iterations for r in singles)
        assert res.diagnostics["rank_deficient"] == any(
            r.diagnostics["rank_deficient"] for r in singles)
        x = np.array([r.x for r in singles])
        assert res.estimates.shape == x.shape
        assert np.linalg.norm(res.estimates - x) <= 1e-12 * np.linalg.norm(x)
        np.testing.assert_allclose(res.residual_norms,
                                   [r.residual_norms[0] for r in singles], rtol=1e-12)
        return res

    @pytest.mark.parametrize("max_groups", [2, 3])
    @pytest.mark.parametrize("n_tx,n_rx", [(2, 2), (2, 3), (3, 1)])
    def test_one_call_equals_single_matrix_calls(self, n_tx, n_rx, max_groups):
        # structural identity: per-channel G-OMP in one call is n_ch separate
        # single-matrix calls; at three groups of 3 some fits outnumber 8 rows
        rng = np.random.default_rng(60 + 10 * n_tx + n_rx)
        part = uniform_partition(24, 3)
        ens = random_ensemble(rng, 8, 24, n_tx, n_rx, part=part, support=(1, 4, 6),
                              noise=0.05)
        res = self.assert_one_call_is_per_channel_calls(ens, part, max_groups=max_groups,
                                                        residual_tol=0.0)
        assert res.diagnostics["rank_deficient"] == (max_groups == 3)

    def test_unequal_groups_are_rejected(self):
        # per-channel selections grow in one batch of one group size; ragged
        # groups fail when the partition is built, so G-OMP never sees them,
        # per channel or joint
        bounds = [0, 1, 3, 6, 7, 9, 12, 13, 16]
        with pytest.raises(ConfigurationError, match="unequal size"):
            Partition(16, tuple(np.arange(a, b) for a, b in zip(bounds, bounds[1:])))
        rng = np.random.default_rng(61)
        part = Partition(16, tuple(np.arange(a, a + 2) for a in range(0, 16, 2)))
        ens = random_ensemble(rng, 10, 16, 2, 2, noise=1.0)
        res = g_omp(ens.operator(), ens.observations, part, max_groups=4, residual_tol=0.0,
                    joint=False)
        assert res.diagnostics["channel_iterations"] == [4] * 4
        assert g_omp(ens.operator(), ens.observations, part, max_groups=4,
                     residual_tol=0.0, joint=True).iterations == 4

    def test_channels_stop_on_their_own(self):
        # channel 0 reaches the tolerance after one group, channel 1 runs to
        # the cap, channel 2 sees zero correlation from the start (its
        # observation lives on rows where its block is zero) and channel 3
        # reaches the tolerance after two groups
        rng = np.random.default_rng(62)
        part = uniform_partition(12, 2)
        mats = [(rng.normal(size=(10, 12)) + 1j * rng.normal(size=(10, 12))) / np.sqrt(20)
                for _ in range(2)]
        mats[0][8:] = 0
        obs = np.zeros((4, 10), dtype=complex)
        obs[0] = mats[0] @ group_sparse_signal(part, (2,), rng)
        obs[1] = rng.normal(size=10) + 1j * rng.normal(size=10)
        obs[2, 9] = 1.0
        obs[3] = mats[1] @ group_sparse_signal(part, (0, 4), rng)
        ens = MeasurementEnsemble(matrices=tuple(mats), observations=obs)
        opts = dict(max_groups=3, residual_tol=1e-9)
        res = self.assert_one_call_is_per_channel_calls(ens, part, **opts)
        assert [len(g) for g in res.selected_groups] == [1, 3, 0, 2]
        assert res.selected_groups[0] == [2] and sorted(res.selected_groups[3]) == [0, 4]
        norms = res.residual_norms
        assert norms[0] <= 1e-9 and norms[3] <= 1e-9 and norms[1] > 1e-9
        assert norms[2] == 1.0
        for xi in range(ens.n_channels):
            ref = g_omp_per_problem(channel_matrix(ens, xi), obs[xi], part, **opts)[0]
            assert res.selected_groups[xi] == ref.selected_groups
            assert np.linalg.norm(res.estimates[xi] - ref.x) <= 1e-12 * max(
                np.linalg.norm(ref.x), 1e-300)

    @staticmethod
    def nearly_dependent(rng, q, m, eps):
        # columns 2.. lie within eps of the span of columns 0 and 1
        base = rng.normal(size=(q, 2)) + 1j * rng.normal(size=(q, 2))
        mix = rng.normal(size=(2, m - 2)) + 1j * rng.normal(size=(2, m - 2))
        noise = rng.normal(size=(q, m - 2)) + 1j * rng.normal(size=(q, m - 2))
        return np.hstack([base, base @ mix + eps * noise])

    def test_reorthogonalization_keeps_ill_conditioned_fits_accurate(self):
        # channel 0's matrix has condition about 1e6, channel 1's is random:
        # with every column selected each fit is the full least squares, which
        # a single Gram-Schmidt pass would miss by about 1e-3
        rng = np.random.default_rng(70)
        mats = (self.nearly_dependent(rng, 12, 6, 1e-6),
                rng.normal(size=(12, 6)) + 1j * rng.normal(size=(12, 6)))
        obs = rng.normal(size=(2, 12)) + 1j * rng.normal(size=(2, 12))
        ens = MeasurementEnsemble(matrices=mats, observations=obs)
        res = g_omp(ens.operator(), obs, singleton_partition(6), max_groups=6,
                    residual_tol=0.0, joint=False)
        assert not res.diagnostics["rank_deficient"]
        for xi in range(2):
            ref = np.linalg.lstsq(mats[xi], obs[xi], rcond=None)[0]
            assert np.linalg.norm(res.estimates[xi] - ref) <= 1e-8 * np.linalg.norm(ref)

    @pytest.mark.parametrize("eps,lost", [(1e-10, False), (1e-15, True)])
    def test_rank_rule_threshold(self, eps, lost):
        # a diagonal of R near eps |column| against the 1e-12 relative rule;
        # past it, the minimum-norm fit on the columns in selection order
        rng = np.random.default_rng(71)
        A = self.nearly_dependent(rng, 12, 3, eps)
        y = rng.normal(size=12) + 1j * rng.normal(size=12)
        res = g_omp(A, y, singleton_partition(3), max_groups=3, residual_tol=0.0, joint=True)
        assert res.iterations == 3 and res.diagnostics["rank_deficient"] == lost
        if lost:
            ref = np.zeros(3, dtype=complex)
            ref[res.selected_groups] = np.linalg.lstsq(A[:, res.selected_groups], y,
                                                       rcond=None)[0]
            assert np.linalg.norm(res.x - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_per_channel_mode_needs_a_one_block_partition(self):
        rng = np.random.default_rng(63)
        ens = random_ensemble(rng, 6, 8, 2, 2)
        with pytest.raises(DomainError):
            g_omp(ens.operator(), ens.observations, uniform_partition(32, 2), max_groups=16,
                  residual_tol=0.0, joint=False)

    def test_ensemble_stores_its_matrices_once(self):
        rng = np.random.default_rng(64)
        ens = random_ensemble(rng, 6, 8, 2, 2)
        assert ens.blocks.shape == (2, 6, 8)
        for s, mat in enumerate(ens.matrices):
            assert np.shares_memory(mat, ens.blocks)
            np.testing.assert_array_equal(mat, ens.blocks[s])
        assert ens.operator().blocks is ens.blocks


class TestGOmpRankLoss:
    def assert_min_norm_fit(self, Phi, y, part, res):
        cols = part.columns(res.selected_groups)
        x = np.zeros(Phi.shape[1], dtype=complex)
        x[cols] = np.linalg.lstsq(Phi[:, cols], y, rcond=None)[0]
        assert res.diagnostics["rank_deficient"]
        assert np.linalg.norm(res.x - x) <= 1e-12 * np.linalg.norm(x)

    def test_duplicated_column(self):
        # column 1 repeats column 0: the first group loses rank, and the
        # minimum-norm fit splits the weight evenly between the two
        rng = np.random.default_rng(53)
        part = uniform_partition(8, 2)
        Phi = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
        Phi[:, 1] = Phi[:, 0]
        y = 3 * Phi[:, 0] + (1 - 1j) * Phi[:, 4]
        res = g_omp(Phi, y, part, max_groups=2, residual_tol=0.0, joint=True)
        assert res.selected_groups == [0, 2]
        self.assert_min_norm_fit(Phi, y, part, res)
        np.testing.assert_allclose(res.x[[0, 1, 4]], [1.5, 1.5, 1 - 1j], atol=1e-12)

    def test_selection_wider_than_q(self):
        rng = np.random.default_rng(54)
        part = uniform_partition(12, 3)
        Phi = rng.normal(size=(4, 12)) + 1j * rng.normal(size=(4, 12))
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        res = g_omp(Phi, y, part, max_groups=2, residual_tol=0.0, joint=True)
        assert res.iterations == 2
        self.assert_min_norm_fit(Phi, y, part, res)


class TestWideFits:
    """Fits with more columns than rows, whatever their row rank, take numpy's
    minimum-norm ``lstsq`` one problem at a time, as the per-problem
    reference does, and report a minimum-norm fit."""

    @pytest.mark.parametrize("seed,n_tx,n_rx,groups,tie", [
        pytest.param(80, 1, 1, [0, 1, 3], None, id="full-row-rank-80"),
        pytest.param(81, 2, 2, [0, 2, 3, 5], None, id="full-row-rank-81"),
        pytest.param(82, 2, 1, [1, 2, 4, 5], None, id="full-row-rank-82"),
        pytest.param(83, 3, 2, [0, 1, 2, 3, 4, 5], None, id="full-row-rank-83"),
        # (transmit, row, row it copies, gap): rows 1e-3 apart keep the row rank
        pytest.param(86, 1, 2, [0, 2, 4], (0, 7, 2, 1e-3), id="nearly-equal-rows"),
        pytest.param(84, 1, 2, [0, 2, 4], (0, 7, 2, 0.0), id="equal-rows"),
        # one append: transmit 0's matrix has full row rank, transmit 1's not
        pytest.param(85, 2, 2, [1, 3, 5], (1, 9, 0, 0.0), id="one-append-mixes-both"),
    ])
    def test_matches_the_per_problem_lstsq(self, seed, n_tx, n_rx, groups, tie):
        rng = np.random.default_rng(seed)
        blocks = rng.normal(size=(n_tx, 10, 24)) + 1j * rng.normal(size=(n_tx, 10, 24))
        if tie:
            s, row, copied, gap = tie
            blocks[s, row] = blocks[s, copied] + (gap * rng.normal(size=24) if gap else 0)
        y = rng.normal(size=n_rx * n_tx * 10) + 1j * rng.normal(size=n_rx * n_tx * 10)
        cols = uniform_partition(24, 4).columns(groups)
        x, deficient = [], []
        for fit in (_GrownQR(blocks, y.reshape(-1, 10), cols.size, True),
                    FitFromScratch(blocks, y.reshape(-1, 10), cols.size, True)):
            fit.append(fit.mats, cols[None])
            x.append(fit.estimates())
            deficient.append(bool(fit.lost))
        assert all(deficient)
        np.testing.assert_array_equal(*x)


class TestGCosamp:
    def test_zero_observation(self):
        rng = np.random.default_rng(3)
        part = uniform_partition(16, 2)
        res = g_cosamp(partial_dft(8, 16, rng), np.zeros(8, dtype=complex), part, S=2,
                       residual_tol=0.0, joint=True)
        np.testing.assert_array_equal(res.x, 0)

    def test_requires_equal_group_sizes(self):
        # the group-sparse prune keeps S groups of one size; ragged groups fail
        # when the partition is built, before G-CoSaMP is reached
        with pytest.raises(ConfigurationError, match="unequal size"):
            Partition(3, (np.array([0, 1]), np.array([2])))
        part = Partition(8, tuple(np.arange(a, a + 2) for a in range(0, 8, 2)))
        res = g_cosamp(np.eye(8, dtype=complex), np.zeros(8, dtype=complex), part, S=1,
                       residual_tol=0.0, joint=True)
        np.testing.assert_array_equal(res.x, 0)

    def test_sparsity_cap(self):
        part = uniform_partition(8, 2)
        with pytest.raises(DomainError):
            g_cosamp(np.eye(8, dtype=complex), np.zeros(8, dtype=complex), part, S=2,
                     residual_tol=0.0, joint=True)

    def test_exact_recovery_on_certified_instance(self, monkeypatch):
        # small instance with brute-forced delta_{4S|P} <= 0.1
        rng = np.random.default_rng(11)
        m, q = 16, 16
        part = uniform_partition(m, 2)
        Phi = conditioned_matrix(q, m, 0.08, rng)
        assert group_ric(Phi, part, 4) <= 0.1
        x_true = group_sparse_signal(part, [1], rng)
        monkeypatch.setattr(mgcs.recovery, "_MAX_FITS", 30)
        res = g_cosamp(Phi, Phi @ x_true, part, S=1, residual_tol=1e-13, joint=True)
        np.testing.assert_allclose(res.x, x_true, atol=1e-8)

    def test_output_always_group_sparse(self, monkeypatch):
        rng = np.random.default_rng(4)
        Phi = partial_dft(6, 16, rng)
        part = uniform_partition(16, 2)
        y = rng.normal(size=6) + 1j * rng.normal(size=6)
        monkeypatch.setattr(mgcs.recovery, "_MAX_FITS", 4)
        res = g_cosamp(Phi, y, part, S=2, residual_tol=0.0, joint=True)
        norms = [np.linalg.norm(res.x[g]) for g in part.groups]
        assert np.count_nonzero(np.array(norms) > 1e-12) <= 2

    def test_iteration_error_bound(self, monkeypatch):
        # guarantee at delta_{4S|P} = 0 (full sampling): after n iterations the
        # error is within 2^-n ||x|| + 20 (1 + 1/sqrt(S)) tail + 20 eps
        rng = np.random.default_rng(5)
        m = 16
        F = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
        part = uniform_partition(m, 2)
        x = group_sparse_signal(part, [0, 5], rng)
        x += 0.01 * (rng.normal(size=m) + 1j * rng.normal(size=m))  # leakage
        z = 1e-3 * (rng.normal(size=m) + 1j * rng.normal(size=m))
        eps = np.linalg.norm(z)
        S = 2
        for n in (1, 2, 4):
            monkeypatch.setattr(mgcs.recovery, "_MAX_FITS", n)
            res = g_cosamp(F, F @ x + z, part, S=S, residual_tol=0.0, joint=True)
            tail = group_norm(x - best_group_approx(x, part, S), part)
            bound = 2.0**-n * np.linalg.norm(x) + 20 * (1 + 1 / math.sqrt(S)) * tail + 20 * eps
            assert np.linalg.norm(res.x - x) <= bound

    def test_fixed_point_ends_the_loop_early(self, monkeypatch):
        # a noisy instance whose merged candidate set repeats: fewer fits than
        # the cap, and every later residual of the full run equals the last
        rng = np.random.default_rng(7)
        part = uniform_partition(32, 2)
        Phi = (rng.normal(size=(16, 32)) + 1j * rng.normal(size=(16, 32))) / np.sqrt(32)
        y = (Phi @ group_sparse_signal(part, [2, 9], rng)
             + 0.05 * (rng.normal(size=16) + 1j * rng.normal(size=16)))
        monkeypatch.setattr(mgcs.recovery, "_MAX_FITS", 15)
        res = g_cosamp(Phi, y, part, S=2, residual_tol=0.0, joint=True)
        ref = g_cosamp_all_iterations(Phi, y, part, S=2, residual_tol=0.0, n_iters=15)
        assert res.diagnostics["fixed_point"]
        assert res.iterations < 15
        history = res.diagnostics["residual_history"]
        assert len(history) == res.iterations + 1
        assert ref.diagnostics["residual_history"][:len(history)] == history
        assert set(ref.diagnostics["residual_history"][len(history):]) == {history[-1]}
        np.testing.assert_array_equal(res.x, ref.x)
        # one iteration cannot see a repeat
        monkeypatch.setattr(mgcs.recovery, "_MAX_FITS", 1)
        once = g_cosamp(Phi, y, part, S=2, residual_tol=0.0, joint=True)
        assert (once.iterations, once.diagnostics["fixed_point"]) == (1, False)

    def test_fixed_point_stop_matches_the_full_run_on_desk_trials(self, monkeypatch):
        # every channel of a per-channel call and every joint call of the
        # four CoSaMP estimators on seeded desk trials: the estimate, support
        # and final residual of the run without the stop, bit for bit
        calls = []

        def both(Phi, y, part, joint, **kwargs):
            res = g_cosamp(Phi, y, part, joint=joint, **kwargs)
            refs = [g_cosamp_all_iterations(A, y_p, part, **kwargs,
                                            n_iters=mgcs.recovery._MAX_FITS)
                    for A, y_p in channel_problems(Phi, y, part, joint)]
            calls.append((res, refs))
            return res

        monkeypatch.setattr(mgcs.estimator, "g_cosamp", both)
        cfg = run_cosamp_estimators_on_desk_trials()
        assert [len(refs) for _, refs in calls] == [cfg.n_channels, cfg.n_channels, 1, 1] * 3
        for res, refs in calls:
            fits = assert_matches_per_problem(res, refs)
            assert res.diagnostics["rank_deficient"] == any(
                ref.diagnostics["rank_deficient"] for ref in refs)
            assert all(n <= min(ref.iterations, mgcs.recovery._MAX_FITS)
                       for n, ref in zip(fits, refs))
        assert any(res.diagnostics["fixed_point"] for res, _ in calls)

    def test_fits_match_the_per_problem_reference_on_desk_trials(self, monkeypatch):
        # every solver call of the four CoSaMP estimators on seeded desk
        # trials, replayed at the order min(Q / (2 |g|), B / 4) that the
        # harness picked before it kept 4S |g| <= Q: merged sets of up to 3S
        # groups then hold more columns than rows, so the minimum-norm
        # fallback runs.  Against the same loop with every transmit matrix's
        # fit solved on its own: a thin QR, or lstsq when wide or rank-lost
        args_seen = []

        def recording(*args, **kwargs):
            args_seen.append((args, kwargs))
            return g_cosamp(*args, **kwargs)

        monkeypatch.setattr(mgcs.estimator, "g_cosamp", recording)
        cfg = run_cosamp_estimators_on_desk_trials()
        assert len(args_seen) == 3 * 4  # one solver call per estimate
        q, calls = desk_experiment(11).q, []
        for args, kwargs in args_seen:
            part = args[2]
            opts = dict(kwargs, S=min(q // (2 * part.size), part.n_groups // 4))
            res = g_cosamp(*args, **opts)
            with monkeypatch.context() as mp:
                mp.setattr(mgcs.recovery, "_GrownQR", FitFromScratch)
                calls.append((res, g_cosamp(*args, **opts)))
        for res, ref in calls:
            assert res.selected_groups == ref.selected_groups
            assert res.iterations == ref.iterations
            for key in ("fixed_point", "rank_deficient"):
                assert res.diagnostics[key] == ref.diagnostics[key]
            assert (np.linalg.norm(res.estimates - ref.estimates)
                    <= 1e-12 * np.linalg.norm(ref.estimates))
        assert any(res.diagnostics["rank_deficient"] for res, _ in calls)


class TestGBpdn:
    def test_large_eps_returns_zero(self):
        rng = np.random.default_rng(6)
        Phi = partial_dft(4, 8, rng)
        part = uniform_partition(8, 2)
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        res = g_bpdn(Phi, y, part, eps=2 * np.linalg.norm(y), tol=1e-4, joint=True)
        np.testing.assert_array_equal(res.x, 0)

    def test_unitary_zero_eps_exact(self):
        m = 8
        F = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
        part = singleton_partition(m)
        rng = np.random.default_rng(7)
        y = rng.normal(size=m) + 1j * rng.normal(size=m)
        res = g_bpdn(F, y, part, eps=0.0, tol=1e-4, joint=True)
        np.testing.assert_allclose(res.x, F.conj().T @ y, atol=1e-7)

    def test_feasibility_and_objective_against_cvxpy(self):
        cvxpy = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(8)
        Phi = partial_dft(12, 24, rng)
        part = uniform_partition(24, 3)
        x_true = group_sparse_signal(part, [2, 6], rng)
        z = 0.05 * (rng.normal(size=12) + 1j * rng.normal(size=12))
        y = Phi @ x_true + z
        eps = float(np.linalg.norm(z)) * 1.1
        res = g_bpdn(Phi, y, part, eps=eps, tol=1e-4, joint=True)
        assert np.linalg.norm(Phi @ res.x - y) <= eps * (1 + 1e-4)
        # independent convex oracle
        xv = cvxpy.Variable(24, complex=True)
        objective = cvxpy.Minimize(
            sum(cvxpy.norm(xv[g.tolist()]) for g in part.groups)
        )
        problem = cvxpy.Problem(objective, [cvxpy.norm(Phi @ xv - y) <= eps])
        problem.solve()
        assert problem.status in ("optimal", "optimal_inaccurate")
        oracle = group_norm(np.asarray(xv.value), part)
        assert group_norm(res.x, part) <= oracle * (1 + 2e-3)

    def test_objective_against_the_weak_duality_bound(self):
        # the instance above: for any u, every feasible x has group norm
        # >= Re<Phi^H u, x> >= Re<u, y> - eps ||u|| when max_b ||(Phi^H u)_b||
        # <= 1, so u = r / max_b ||(Phi^H r)_b|| with r = y - Phi x bounds the
        # optimum from below
        rng = np.random.default_rng(8)
        Phi = partial_dft(12, 24, rng)
        part = uniform_partition(24, 3)
        x_true = group_sparse_signal(part, [2, 6], rng)
        z = 0.05 * (rng.normal(size=12) + 1j * rng.normal(size=12))
        y = Phi @ x_true + z
        eps = float(np.linalg.norm(z)) * 1.1
        x = g_bpdn(Phi, y, part, eps=eps, tol=1e-4, joint=True).x
        r = y - Phi @ x
        corr = Phi.conj().T @ r
        dual = ((np.vdot(r, y).real - eps * np.linalg.norm(r))
                / max(np.linalg.norm(corr[g]) for g in part.groups))
        assert np.linalg.norm(r) <= eps
        assert dual <= group_norm(x, part) <= dual * (1 + 2e-3)

    @pytest.mark.parametrize("seed,q,m,tight", [(41, 24, 64, True), (42, 32, 96, True),
                                                (43, 24, 64, False), (44, 48, 32, False)])
    def test_dual_gap_on_random_instances(self, seed, q, m, tight):
        # partial DFTs are tight frames (closed-form projection); Gaussian
        # matrices, wide and tall, take the eigenbasis path
        rng = np.random.default_rng(seed)
        if tight:
            Phi = partial_dft(q, m, rng)
        else:
            Phi = (rng.normal(size=(q, m)) + 1j * rng.normal(size=(q, m))) / np.sqrt(2 * q)
        part = uniform_partition(m, 4)
        x_true = group_sparse_signal(part, rng.choice(m // 4, size=3, replace=False), rng)
        z = 0.05 * (rng.normal(size=q) + 1j * rng.normal(size=q))
        y = Phi @ x_true + z
        res = g_bpdn(Phi, y, part, eps=float(np.linalg.norm(z)), tol=1e-4, joint=True)
        assert relative_dual_gap(Phi, y, part, res.x) <= 1e-3

    def test_dual_gap_on_desk_calls(self, monkeypatch):
        # every G-BPDN call of mgcs-bpdn (joint, on the block-diagonal
        # operator) and gcs-bpdn (one per channel) on desk trials 0-4 of seed 1
        calls = record_bpdn_problems(monkeypatch)
        for t in range(5):
            config, scheme, y_grid, sigma_z = desk_grid(1, t)
            cfg = config.system
            tiling = make_block_tiling(cfg.D, cfg.J, config.dm, config.di)
            for name in ("mgcs-bpdn", "gcs-bpdn"):
                run_estimator(name, y_grid, scheme, BasisSpec.dft(cfg.J, cfg.D), cfg, tiling,
                              sigma_z, **ESTIMATE_SETTINGS)
        assert len(calls) == 5 * (1 + cfg.n_channels)
        for Phi, y, part, _, _, res in calls:
            assert relative_dual_gap(Phi, y, part, res.x) <= 1e-3

    def test_certified_instance_error_bound(self):
        # noisy group-sparse instance with brute-forced delta_{2S|P} <= sqrt(2)-1
        rng = np.random.default_rng(9)
        m, q, S = 16, 16, 2
        part = uniform_partition(m, 2)
        Phi = conditioned_matrix(q, m, 0.3, rng)
        delta = group_ric(Phi, part, 2 * S)
        assert delta <= math.sqrt(2) - 1
        x = group_sparse_signal(part, [0, 3], rng)
        z = 0.01 * (rng.normal(size=q) + 1j * rng.normal(size=q))
        eps = float(np.linalg.norm(z))
        res = g_bpdn(Phi, Phi @ x + z, part, eps=eps, tol=1e-5, joint=True)
        c0 = 2 * (1 - delta) / (1 - (1 + math.sqrt(2)) * delta)
        c1 = 4 * math.sqrt(1 + delta) / (1 - (1 + math.sqrt(2)) * delta)
        tail = group_norm(x - best_group_approx(x, part, S), part)
        assert np.linalg.norm(res.x - x) <= c0 / math.sqrt(S) * tail + c1 * eps

    def test_scaling_linearity(self):
        rng = np.random.default_rng(10)
        Phi = partial_dft(10, 20, rng)
        part = uniform_partition(20, 2)
        x_true = group_sparse_signal(part, [1, 7], rng)
        z = 0.02 * (rng.normal(size=10) + 1j * rng.normal(size=10))
        y = Phi @ x_true + z
        eps = float(np.linalg.norm(z))
        alpha = 3.7
        r1 = g_bpdn(Phi, y, part, eps=eps, tol=1e-5, joint=True)
        r2 = g_bpdn(Phi, alpha * y, part, eps=alpha * eps, tol=1e-5, joint=True)
        np.testing.assert_allclose(r2.x, alpha * r1.x, atol=1e-4 * np.linalg.norm(r1.x))

    @pytest.mark.parametrize("seed,q,m", [(11, 24, 64), (12, 24, 64), (13, 48, 32)])
    def test_kkt_conditions_at_returned_penalty(self, seed, q, m):
        # the wide partial DFT is a tight frame and takes the closed-form
        # projection; the tall Gaussian matrix takes the eigenbasis path
        rng = np.random.default_rng(seed)
        if q <= m:
            Phi = partial_dft(q, m, rng)
        else:
            Phi = (rng.normal(size=(q, m)) + 1j * rng.normal(size=(q, m))) / np.sqrt(2 * q)
        part = uniform_partition(m, 4)
        x_true = group_sparse_signal(part, rng.choice(m // 4, size=3, replace=False), rng)
        z = 0.05 * (rng.normal(size=q) + 1j * rng.normal(size=q))
        y = Phi @ x_true + z
        res = g_bpdn(Phi, y, part, eps=float(np.linalg.norm(z)), tol=1e-4, joint=True)
        assert_group_lasso_kkt(Phi, y, part, res)

    @pytest.mark.parametrize("seed,group_size", [(21, 2), (22, 3), (23, 4)])
    def test_matches_bisection_oracle(self, seed, group_size):
        rng = np.random.default_rng(seed)
        q, m, tol = 20, 48, 1e-4
        Phi = partial_dft(q, m, rng)
        part = uniform_partition(m, group_size)
        x_true = group_sparse_signal(
            part, rng.choice(part.n_groups, size=2, replace=False), rng)
        z = 0.05 * (rng.normal(size=q) + 1j * rng.normal(size=q))
        y = Phi @ x_true + z
        eps = float(np.linalg.norm(z))
        res = g_bpdn(Phi, y, part, eps=eps, tol=tol, joint=True)
        x_ref = bisection_g_bpdn(Phi, y, part, eps, tol)
        r_new = np.linalg.norm(Phi @ res.x - y)
        assert eps * (1 - tol) <= r_new <= eps
        assert np.linalg.norm(Phi @ x_ref - y) <= eps
        assert group_norm(res.x, part) == pytest.approx(group_norm(x_ref, part), rel=1e-3)

    def test_desk_joint_instance_solves_few_penalties(self):
        # seeded desk 2x2 trial on the operator with the per-channel partition
        # and on the 192 x 1024 dense stack: one constrained solve of at most
        # a few hundred ADMM iterations, the same on both
        config = desk_experiment(3)
        cfg = config.system
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        scheme = draw_pilots(cfg, np.random.SeedSequence([3, 7919]), q=config.q)
        geometry = desk_geometry(cfg.n_tx, cfg.n_rx, fc=cfg.f0,
                                 block_duration=cfg.l_r * cfg.Ts)
        y_grid, _, sigma_z, _ = simulate_trial(cfg, scheme, pulses, FilterSpec(kind="rrc"),
                                               geometry, 20.0, [3, 0, 0])
        ens = collect_measurements(y_grid, scheme, BasisSpec.dft(cfg.J, cfg.D), cfg)
        part = make_block_tiling(cfg.D, cfg.J, config.dm, config.di).to_partition()
        dense, y, part_s = mgcs_stack(ens, part)
        assert dense.shape == (192, 1024)
        eps = float(np.sqrt(cfg.n_channels * scheme.q * cfg.K) * sigma_z)
        res = g_bpdn(ens.operator(), y, part, eps=eps, tol=1e-3, joint=True)
        ref = g_bpdn(dense, y, part_s, eps=eps, tol=1e-3, joint=True)
        assert res.iterations == ref.iterations <= 300
        assert eps * (1 - 1e-3) <= res.residual_norms[0] <= eps
        assert np.linalg.norm(res.x - ref.x) <= 1e-10 * np.linalg.norm(ref.x)

    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0])
    def test_desk_estimators_match_the_penalty_search(self, snr_db, monkeypatch):
        # every G-BPDN problem of the four *-bpdn estimators on a seeded desk
        # trial, per channel and joint: the residual lies in the band, and the
        # group norm is at most that of the penalty search aimed at the same
        # radius eps (1 - tol/2)
        config = desk_experiment(5)
        cfg = config.system
        scheme = draw_pilots(cfg, np.random.SeedSequence([5, 7919]), q=config.q)
        geometry = desk_geometry(cfg.n_tx, cfg.n_rx, fc=cfg.f0,
                                 block_duration=cfg.l_r * cfg.Ts)
        y_grid, _, sigma_z, _ = simulate_trial(cfg, scheme, cp_ofdm_pulses(cfg.K, cfg.N),
                                               FilterSpec(kind="rrc"), geometry, snr_db,
                                               [5, 0, 0])
        tiling = make_block_tiling(cfg.D, cfg.J, config.dm, config.di)
        calls = record_bpdn_problems(monkeypatch)
        for name in ("conv-bpdn", "gcs-bpdn", "mcs-bpdn", "mgcs-bpdn"):
            run_estimator(name, y_grid, scheme, BasisSpec.dft(cfg.J, cfg.D), cfg, tiling,
                          sigma_z, **ESTIMATE_SETTINGS)
        assert len(calls) == 2 * cfg.n_channels + 2
        for Phi, y, part, eps, tol, res in calls:
            x_ref, _ = penalty_search_g_bpdn(Phi, y, part, eps, tol)
            assert eps * (1 - tol) <= np.linalg.norm(np.asarray(Phi) @ res.x - y) <= eps
            norm, norm_ref = (np.sqrt(part.energies(x)).sum() for x in (res.x, x_ref))
            assert norm <= norm_ref * (1 + tol)

    def test_iteration_cap_raises(self, monkeypatch):
        cfg, config, scheme, ens, sigma_z = desk_trial(11, 0)
        part = make_block_tiling(cfg.D, cfg.J, config.dm, config.di).to_partition()
        eps = float(np.sqrt(cfg.n_channels * scheme.q * cfg.K) * sigma_z)
        monkeypatch.setattr(mgcs.recovery, "_MAX_ITER", 3)
        with pytest.raises(ConvergenceError) as info:
            g_bpdn(ens.operator(), ens.observations.reshape(-1), part, eps=eps, tol=1e-3,
                   joint=True)
        assert info.value.best.shape == (ens.n_channels * cfg.jd,)

    @pytest.mark.parametrize("outside", [2.0, 0.5])
    def test_part_of_y_outside_the_range_of_a_tall_matrix(self, outside):
        # a 48 x 32 matrix and y with a component of norm outside * eps
        # orthogonal to its range: unreachable beyond eps, with the
        # least-squares fit as the best iterate; reached in the band below it
        rng = np.random.default_rng(31)
        Phi = (rng.normal(size=(48, 32)) + 1j * rng.normal(size=(48, 32))) / np.sqrt(96)
        part = uniform_partition(32, 4)
        off = rng.normal(size=48) + 1j * rng.normal(size=48)
        off -= Phi @ np.linalg.lstsq(Phi, off, rcond=None)[0]
        eps = 0.1
        off *= outside * eps / np.linalg.norm(off)
        y = Phi @ group_sparse_signal(part, [1, 5], rng) + off
        if outside > 1:
            with pytest.raises(ConvergenceError) as info:
                g_bpdn(Phi, y, part, eps=eps, tol=1e-4, joint=True)
            x_ls = np.linalg.lstsq(Phi, y, rcond=None)[0]
            assert np.linalg.norm(info.value.best - x_ls) <= 1e-10 * np.linalg.norm(x_ls)
        else:
            res = g_bpdn(Phi, y, part, eps=eps, tol=1e-4, joint=True)
            assert eps * (1 - 1e-4) <= np.linalg.norm(Phi @ res.x - y) <= eps

    def test_general_projection_agrees_with_the_tight_frame_path(self, monkeypatch):
        # build_phi blocks are one tight frame, so the projection is closed
        # form; with the tolerance at 0 the same instance takes the
        # eigenbasis and Newton path and lands on the same solution
        cfg, config, scheme, ens, sigma_z = desk_trial(11, 1)
        part = make_block_tiling(cfg.D, cfg.J, config.dm, config.di).to_partition()
        eps = float(np.sqrt(cfg.n_channels * scheme.q * cfg.K) * sigma_z)
        y = ens.observations.reshape(-1)
        eighs = count_eigh_calls(monkeypatch)
        tight = g_bpdn(ens.operator(), y, part, eps=eps, tol=1e-3, joint=True)
        assert not eighs
        monkeypatch.setattr(mgcs.recovery, "_TIGHT", 0.0)
        general = g_bpdn(ens.operator(), y, part, eps=eps, tol=1e-3, joint=True)
        assert len(eighs) == 1
        assert general.selected_groups == tight.selected_groups
        assert np.linalg.norm(general.x - tight.x) <= 1e-9 * np.linalg.norm(tight.x)

    def test_tight_blocks_of_different_scales_take_the_general_path(self, monkeypatch):
        # two partial DFT blocks, each a tight frame, the second scaled by 2:
        # A A^H is c I per block but not one c I, so the projection goes
        # through the eigenbasis; the result is a group-lasso minimizer
        rng = np.random.default_rng(33)
        q, m, n_ch = 24, 64, 4
        blocks = np.stack([partial_dft(q, m, rng), 2 * partial_dft(q, m, rng)])
        op = BlockDiagonalOperator(blocks, n_ch)
        part = uniform_partition(m, 4)
        x_true = np.concatenate([group_sparse_signal(part, [2, 9], rng) for _ in range(n_ch)])
        z = 0.05 * (rng.normal(size=n_ch * q) + 1j * rng.normal(size=n_ch * q))
        y = op @ x_true + z
        eighs = count_eigh_calls(monkeypatch)
        res = g_bpdn(op, y, part, eps=float(np.linalg.norm(z)), tol=1e-4, joint=True)
        assert len(eighs) == 1
        assert_group_lasso_kkt(np.asarray(op), y, stack_partition(part, m, n_ch), res)

    @pytest.mark.parametrize("snr_db", [10.0, 30.0])
    def test_desk_estimators_match_plain_admm(self, snr_db, monkeypatch):
        # every G-BPDN call of the four *-bpdn estimators on desk trials 0-2
        # of seed 11 takes the tight-frame path and fewer iterations than
        # plain ADMM with the eigenbasis projection, with the same groups, x
        # within 1e-3 and the group norm within 1e-4
        calls = record_bpdn_problems(monkeypatch)
        eighs = count_eigh_calls(monkeypatch)
        for t in range(3):
            config, scheme, y_grid, sigma_z = desk_grid(11, t, snr_db)
            cfg = config.system
            tiling = make_block_tiling(cfg.D, cfg.J, config.dm, config.di)
            for name in ("conv-bpdn", "gcs-bpdn", "mcs-bpdn", "mgcs-bpdn"):
                run_estimator(name, y_grid, scheme, BasisSpec.dft(cfg.J, cfg.D), cfg, tiling,
                              sigma_z, **ESTIMATE_SETTINGS)
        assert not eighs
        assert len(calls) == 3 * (2 * cfg.n_channels + 2)
        for Phi, y, part, eps, tol, res in calls:
            x_ref, groups_ref, _, iters_ref = plain_admm_g_bpdn(Phi, y, part, eps, tol)
            assert res.selected_groups == groups_ref
            assert np.linalg.norm(res.x - x_ref) <= 1e-3 * np.linalg.norm(x_ref)
            norm, norm_ref = (np.sqrt(part.energies(x)).sum() for x in (res.x, x_ref))
            assert norm == pytest.approx(norm_ref, rel=1e-4)
            assert eps * (1 - tol) <= res.residual_norms[0] <= eps
            assert res.iterations < iters_ref

    # (seed, SNR dB, trial, estimator, solver call) of the desk G-BPDN calls
    # whose groups above 1e-12 of the largest differ between plain and
    # over-relaxed ADMM: 8 of 900 (seeds 1/42/2718, trials 0-9, 10/20/30 dB),
    # each by one group of norm at most 8.6e-6 ||x||
    FLIPPED_SUPPORTS = [
        (1, 20.0, 9, "conv-bpdn", 1), (42, 20.0, 6, "mcs-bpdn", 0),
        (42, 30.0, 6, "conv-bpdn", 3), (2718, 10.0, 3, "mcs-bpdn", 0),
        (2718, 20.0, 5, "conv-bpdn", 0), (2718, 30.0, 1, "conv-bpdn", 3),
        (2718, 30.0, 1, "gcs-bpdn", 3), (2718, 30.0, 4, "conv-bpdn", 0),
    ]

    def test_supports_within_the_stop_tolerance_are_not_reported(self, monkeypatch):
        # on those calls the groups of norm at most _STOP ||x|| are left out,
        # and plain and over-relaxed ADMM report the same groups
        calls = record_bpdn_problems(monkeypatch)
        for seed, snr_db, t, name, call in self.FLIPPED_SUPPORTS:
            config, scheme, y_grid, sigma_z = desk_grid(seed, t, snr_db)
            cfg = config.system
            tiling = make_block_tiling(cfg.D, cfg.J, config.dm, config.di)
            calls.clear()
            run_estimator(name, y_grid, scheme, BasisSpec.dft(cfg.J, cfg.D), cfg, tiling,
                          sigma_z, **ESTIMATE_SETTINGS)
            Phi, y, part, eps, tol, res = calls[call]
            x_ref, groups_ref, _, _ = plain_admm_g_bpdn(Phi, y, part, eps, tol)
            norms, norms_ref = (np.sqrt(part.energies(x)) for x in (res.x, x_ref))
            assert (np.flatnonzero(norms > 1e-12 * norms.max()).tolist()
                    != np.flatnonzero(norms_ref > 1e-12 * norms_ref.max()).tolist())
            assert res.selected_groups == groups_ref
            assert res.selected_groups == np.flatnonzero(
                norms > mgcs.recovery._STOP * np.linalg.norm(res.x)).tolist()

    def test_tiny_radius_lands_in_the_band(self):
        # noise-free one-group data and eps = 1e-5 ||y||: the band is
        # 1e-9 ||y|| wide, far inside the loop's 1e-5 residuals; z is scaled
        # down onto the radius, within 1e-6 of the penalty search's group
        # norm (scaled up onto it, it would be 2e-5 above)
        rng = np.random.default_rng(32)
        Phi = partial_dft(12, 32, rng)
        part = uniform_partition(32, 2)
        y = Phi @ group_sparse_signal(part, [3], rng)
        eps = 1e-5 * float(np.linalg.norm(y))
        res = g_bpdn(Phi, y, part, eps=eps, tol=1e-4, joint=True)
        assert eps * (1 - 1e-4) <= np.linalg.norm(Phi @ res.x - y) <= eps
        assert res.selected_groups == [3] and res.iterations < 500
        x_ref, _ = penalty_search_g_bpdn(Phi, y, part, eps, 1e-4)
        assert group_norm(res.x, part) <= group_norm(x_ref, part) * (1 + 1e-6)


class TestLipschitz:
    # ||Phi||_2^2 and the Gram spectra behind it, which set G-BPDN's shrink
    # threshold and its projection onto the noise ball
    @staticmethod
    def desk_blocks(seed):
        config = desk_experiment(seed)
        cfg = config.system
        scheme = draw_pilots(cfg, np.random.SeedSequence([seed, 7919]), q=config.q)
        return build_phi(scheme, BasisSpec.dft(cfg.J, cfg.D), cfg)

    @pytest.mark.parametrize("seed", [1, 2, 3, 2718])
    @pytest.mark.parametrize("tall", [False, True])
    def test_matches_the_zherk_gram(self, seed, tall, monkeypatch):
        # desk blocks (Q = 48 < M = 256) and their transposes (Q > M), in one
        # chunk and in chunks of 5 columns with a partial last chunk: the top
        # eigenvalue is the oracle's and U diag(g) U^H is each A A^H
        blocks = self.desk_blocks(seed)
        if tall:
            blocks = blocks.transpose(0, 2, 1).copy()
        Phi = BlockDiagonalOperator(blocks, 2 * blocks.shape[0])
        expect = lipschitz_by_zherk(blocks)
        for chunk in (None, 5 * blocks.shape[1]):
            if chunk:
                monkeypatch.setattr(mgcs.recovery, "_GRAM_BLOCK", chunk)
            g, U = np.linalg.eigh(Phi.gram())
            assert g.max() == pytest.approx(expect, rel=1e-14)
            for A, g_s, U_s in zip(blocks, g, U):
                gram = A @ A.conj().T
                rebuilt = (U_s * g_s) @ U_s.conj().T
                assert np.linalg.norm(rebuilt - gram) <= 1e-13 * np.linalg.norm(gram)

    @pytest.mark.parametrize("two_blocks", [False, True])
    def test_never_copies_the_whole_block(self, two_blocks, monkeypatch):
        # 4 MB blocks in chunks of 2^14 elements (256 kB): the traced peak
        # stays far below one copy of a block
        rng = np.random.default_rng(5)
        blocks = rng.normal(size=(1 + two_blocks, 64, 4096)) + 1j * rng.normal(
            size=(1 + two_blocks, 64, 4096))
        Phi = BlockDiagonalOperator(blocks, len(blocks))
        monkeypatch.setattr(mgcs.recovery, "_GRAM_BLOCK", 1 << 14)
        tracemalloc.start()
        try:
            g = np.linalg.eigh(Phi.gram())[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < blocks[0].nbytes / 4
        assert g.max() == pytest.approx(lipschitz_by_zherk(blocks), rel=1e-14)


class TestGDcsSomp:
    def make_ensemble(self, rng, q=8, m=16, n_tx=2, n_rx=1, support=(3,), part=None):
        part = part or uniform_partition(m, 2)
        mats = [partial_dft(q, m, rng) for _ in range(n_tx)]
        xs, ys = [], []
        for r in range(n_rx):
            for s in range(n_tx):
                x = group_sparse_signal(part, support, rng)
                xs.append(x)
                ys.append(mats[s] @ x)
        ens = MeasurementEnsemble(matrices=tuple(mats), observations=np.array(ys))
        return ens, part, np.array(xs)

    def test_single_channel_singletons_matches_g_omp(self):
        rng = np.random.default_rng(11)
        m = 12
        part = singleton_partition(m)
        Phi = partial_dft(6, m, rng)
        y = rng.normal(size=6) + 1j * rng.normal(size=6)
        ens = MeasurementEnsemble(matrices=(Phi,), observations=y[None, :])
        res_joint = g_dcs_somp(ens, part, max_groups=3, residual_tol=0.0)
        res_single = g_omp(Phi, y, part, max_groups=3, residual_tol=0.0, joint=True)
        assert res_joint.selected_groups == res_single.selected_groups
        np.testing.assert_allclose(res_joint.estimates[0], res_single.x, atol=1e-12)

    def test_jointly_group_sparse_exact(self):
        rng = np.random.default_rng(12)
        ens, part, xs = self.make_ensemble(rng, support=(3,))
        res = g_dcs_somp(ens, part, max_groups=1, residual_tol=0.0)
        assert res.selected_groups == [3]
        np.testing.assert_allclose(res.estimates, xs, atol=1e-10)
        # exhaustive per-channel single-group oracle agrees
        for xi in range(ens.n_channels):
            b, _ = exhaustive_single_group_ls(channel_matrix(ens, xi), ens.observations[xi], part)
            assert b == 3

    def test_all_zero_observations(self):
        rng = np.random.default_rng(13)
        ens, part, _ = self.make_ensemble(rng)
        ens = MeasurementEnsemble(
            matrices=ens.matrices, observations=np.zeros_like(ens.observations)
        )
        res = g_dcs_somp(ens, part, max_groups=part.n_groups, residual_tol=0.0)
        np.testing.assert_array_equal(res.estimates, 0)
        assert res.selected_groups == []

    def test_residual_history_nonincreasing(self):
        rng = np.random.default_rng(22)
        ens, part, _ = self.make_ensemble(rng, n_rx=2)
        noisy = MeasurementEnsemble(
            matrices=ens.matrices,
            observations=ens.observations
            + 0.1 * (rng.normal(size=ens.observations.shape)
                     + 1j * rng.normal(size=ens.observations.shape)),
        )
        res = g_dcs_somp(noisy, part, max_groups=part.n_groups, residual_tol=0.0)
        hist = res.diagnostics["residual_history"]
        assert all(b <= a + 1e-10 for a, b in zip(hist, hist[1:]))

    def test_support_contained_in_selected_groups(self):
        rng = np.random.default_rng(23)
        ens, part, _ = self.make_ensemble(rng, support=(1, 5))
        res = g_dcs_somp(ens, part, max_groups=3, residual_tol=0.0)
        allowed = set(np.concatenate([part.groups[b] for b in res.selected_groups]))
        for xi in range(ens.n_channels):
            assert set(np.nonzero(res.estimates[xi])[0]).issubset(allowed)


class TestPerChannelCall:
    """Per-channel G-CoSaMP and G-BPDN are one call with ``joint=False``; the
    reference is the loop that solved each channel in a call of its own."""

    @pytest.mark.parametrize("seed,snr_db", [(1, 20.0), (5, 10.0), (42, 30.0)])
    def test_desk_estimators_match_the_loop(self, seed, snr_db, monkeypatch):
        # the four per-channel estimators on desk trials 0-1: groups and
        # iterations per channel, estimates and residual norms bit for bit
        calls = []

        def both(solve):
            def call(Phi, y, part, joint, **opts):
                res = solve(Phi, y, part, joint=joint, **opts)
                calls.append((solve, res, per_channel_loop(solve, Phi, y, part, **opts)))
                return res
            return call

        for solve in (g_cosamp, g_bpdn):
            monkeypatch.setattr(mgcs.estimator, solve.__name__, both(solve))
        for t in range(2):
            config, scheme, y_grid, sigma_z = desk_grid(seed, t, snr_db)
            cfg = config.system
            tiling = make_block_tiling(cfg.D, cfg.J, config.dm, config.di)
            for name in ("conv-cosamp", "gcs-cosamp", "conv-bpdn", "gcs-bpdn"):
                run_estimator(name, y_grid, scheme, BasisSpec.dft(cfg.J, cfg.D), cfg, tiling,
                              sigma_z, **ESTIMATE_SETTINGS)
        assert [solve for solve, _, _ in calls] == [g_cosamp, g_cosamp, g_bpdn, g_bpdn] * 2
        for solve, res, loop in calls:
            assert assert_matches_per_problem(res, loop) == [r.iterations for r in loop]
            assert res.iterations == sum(r.iterations for r in loop)
            key = "fixed_point" if solve is g_cosamp else "lambda"
            assert res.diagnostics[key] == [r.diagnostics[key] for r in loop]
            if solve is g_cosamp:
                assert res.diagnostics["rank_deficient"] == any(
                    r.diagnostics["rank_deficient"] for r in loop)

    @staticmethod
    def tight_ensemble(rng, noise):
        # two partial-DFT blocks (tight frames, A A^H = (32/12) I) of
        # different row sets, four channels with a 2-group signal each, the
        # noise of channel xi scaled by noise[xi]
        part = uniform_partition(32, 2)
        mats = tuple(partial_dft(12, 32, rng) for _ in range(2))
        obs = np.array([mats[xi % 2] @ group_sparse_signal(part, (xi, 7 + xi), rng)
                        + noise[xi] * (rng.normal(size=12) + 1j * rng.normal(size=12))
                        for xi in range(4)])
        return MeasurementEnsemble(matrices=mats, observations=obs), part

    def test_bpdn_channels_stop_on_their_own(self):
        # channel 2's observation lies inside the ball: zero estimate, no
        # iterations; the others stop at their own iteration counts
        rng = np.random.default_rng(91)
        ens, part = self.tight_ensemble(rng, [0.05, 0.01, 0.05, 0.1])
        ens.observations[2] *= 0.2 / np.linalg.norm(ens.observations[2])
        args = (ens.operator(), ens.observations.reshape(-1), part)
        res = g_bpdn(*args, eps=0.3, tol=1e-3, joint=False)
        loop = per_channel_loop(g_bpdn, *args, eps=0.3, tol=1e-3)
        iterations = assert_matches_per_problem(res, loop)
        assert iterations == [r.iterations for r in loop]
        assert iterations[2] == 0 and min(iterations[:2] + iterations[3:]) > 0
        assert len(set(iterations)) == 4
        np.testing.assert_array_equal(res.estimates[2], 0)
        assert res.residual_norms[2] == np.linalg.norm(ens.observations[2])
        live = [0, 1, 3]
        assert np.all((0.3 * (1 - 1e-3) <= res.residual_norms[live])
                      & (res.residual_norms[live] <= 0.3))

    def test_cosamp_channels_stop_on_their_own(self):
        # each channel stops its own way: channel 0 at the tolerance after
        # one fit, channel 1 (observing nothing) before any fit, channel 2 at
        # the fit cap and channel 3 at a fixed point
        rng = np.random.default_rng(92)
        ens, part = self.tight_ensemble(rng, [0.0, 0.0, 0.05, 0.05])
        ens.observations[1] = 0
        args = (ens.operator(), ens.observations.reshape(-1), part)
        res = g_cosamp(*args, S=2, residual_tol=1e-9, joint=False)
        loop = per_channel_loop(g_cosamp, *args, S=2, residual_tol=1e-9)
        iterations = assert_matches_per_problem(res, loop)
        assert iterations == [r.iterations for r in loop]
        assert iterations[:3] == [1, 0, mgcs.recovery._MAX_FITS] and res.selected_groups[1] == []
        assert res.residual_norms[0] <= 1e-9
        assert res.diagnostics["fixed_point"] == [r.diagnostics["fixed_point"] for r in loop]
        assert res.diagnostics["fixed_point"] == [False, False, False, True]

    def test_per_channel_bpdn_needs_tight_frames(self):
        # a Gaussian block is no tight frame: the joint call projects through
        # the eigenbasis, the per-channel call refuses
        rng = np.random.default_rng(93)
        ens = random_ensemble(rng, 12, 32, 2, 2, part=uniform_partition(32, 2),
                              support=(1, 6), noise=0.05)
        args = (ens.operator(), ens.observations.reshape(-1), uniform_partition(32, 2))
        assert g_bpdn(*args, eps=0.5, tol=1e-3, joint=True).iterations > 0
        with pytest.raises(DomainError, match="tight frame"):
            g_bpdn(*args, eps=0.5, tol=1e-3, joint=False)


class TestMgcsStack:
    """``mgcs_stack`` is the paper's stacked problem as a dense one-block
    matrix with the stacked partition: the reference for the ensemble's
    block-diagonal operator with the per-channel partition."""

    def test_single_channel_passthrough(self):
        rng = np.random.default_rng(14)
        Phi = partial_dft(4, 8, rng)
        y = rng.normal(size=4) + 0j
        part = uniform_partition(8, 2)
        ens = MeasurementEnsemble(matrices=(Phi,), observations=y[None, :])
        Phi_s, y_s, part_s = mgcs_stack(ens, part)
        np.testing.assert_array_equal(Phi_s, Phi)
        np.testing.assert_array_equal(y_s, y)
        np.testing.assert_array_equal(part_s.groups, part.groups)

    def test_stacked_shapes(self):
        rng = np.random.default_rng(15)
        mats = (partial_dft(2, 3, rng), partial_dft(2, 3, rng))
        obs = rng.normal(size=(2, 2)) + 0j
        ens = MeasurementEnsemble(matrices=mats, observations=obs)
        Phi_s, y_s, part_s = mgcs_stack(ens, singleton_partition(3))
        assert Phi_s.shape == (4, 6)
        assert y_s.shape == (4,)
        assert part_s.total_length == 6

    def test_block_diagonal_action(self):
        rng = np.random.default_rng(16)
        mats = (partial_dft(3, 4, rng), partial_dft(3, 4, rng))
        ens = MeasurementEnsemble(
            matrices=mats, observations=np.zeros((4, 3), dtype=complex)
        )
        Phi_s, _, _ = mgcs_stack(ens, singleton_partition(4))
        xs = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lhs = Phi_s @ xs.reshape(-1)
        rhs = np.concatenate([channel_matrix(ens, xi) @ xs[xi] for xi in range(4)])
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_stacked_gomp_matches_joint_oracle(self):
        # on B <= 5 instances, stacked G-OMP selects the same group set as the
        # exhaustive joint-support oracle
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            m, q = 10, 6
            part = uniform_partition(m, 2)
            mats = (partial_dft(q, m, rng), partial_dft(q, m, rng))
            support = sorted(rng.choice(part.n_groups, size=2, replace=False).tolist())
            ys, xs = [], []
            for s in range(2):
                x = group_sparse_signal(part, support, rng)
                xs.append(x)
                ys.append(mats[s] @ x)
            ens = MeasurementEnsemble(matrices=mats, observations=np.array(ys))
            Phi_s, y_s, part_s = mgcs_stack(ens, part)
            res = g_omp(Phi_s, y_s, part_s, max_groups=part_s.n_groups, residual_tol=1e-10,
                        joint=True)
            # oracle: enumerate all 2-group joint supports, minimize total residual
            best, best_res = None, np.inf
            for combo in itertools.combinations(range(part.n_groups), 2):
                total = 0.0
                for xi in range(2):
                    cols = np.concatenate([part.groups[b] for b in combo])
                    A = channel_matrix(ens, xi)[:, cols]
                    coef, *_ = np.linalg.lstsq(A, ens.observations[xi], rcond=None)
                    total += np.linalg.norm(ens.observations[xi] - A @ coef) ** 2
                if total < best_res - 1e-14:
                    best, best_res = set(combo), total
            assert set(res.selected_groups) == best == set(support)

    @pytest.mark.parametrize("n_tx,n_rx", [(2, 2), (2, 3), (3, 1)])
    def test_dense_view_is_the_block_diagonal_matrix(self, n_tx, n_rx):
        rng = np.random.default_rng(17 + 10 * n_tx + n_rx)
        ens = random_ensemble(rng, 5, 8, n_tx, n_rx)
        op = ens.operator()
        dense = np.asarray(op)
        assert op.shape == dense.shape == (5 * n_tx * n_rx, 8 * n_tx * n_rx)
        assert dense.dtype == complex
        np.testing.assert_array_equal(dense, dense_stack(ens))
        np.testing.assert_array_equal(mgcs_stack(ens, singleton_partition(8))[0], dense)

    @pytest.mark.parametrize("n_tx,n_rx", [(2, 2), (2, 3), (3, 1)])
    def test_products_match_the_dense_matrix(self, n_tx, n_rx):
        rng = np.random.default_rng(27 + 10 * n_tx + n_rx)
        ens = random_ensemble(rng, 5, 8, n_tx, n_rx)
        op = ens.operator()
        dense = dense_stack(ens)
        x = rng.normal(size=dense.shape[1]) + 1j * rng.normal(size=dense.shape[1])
        v = rng.normal(size=dense.shape[0]) + 1j * rng.normal(size=dense.shape[0])
        fwd, adj = dense @ x, dense.conj().T @ v
        assert np.linalg.norm(op @ x - fwd) <= 1e-13 * np.linalg.norm(fwd)
        assert np.linalg.norm(op.rmatvec(v) - adj) <= 1e-13 * np.linalg.norm(adj)
        lip = np.linalg.norm(dense, 2) ** 2
        assert np.linalg.eigh(op.gram())[0].max() == pytest.approx(lip, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_solvers_match_on_the_dense_matrix(self, seed, monkeypatch):
        # each solver on the operator with the per-channel partition and on
        # the dense stacked triple: same selection, iteration counts and
        # rank-deficiency flag; the CoSaMP merged support (up to 12 columns
        # per channel on 6 rows) is rank deficient
        rng = np.random.default_rng(40 + seed)
        q, m = 6, 16
        part = uniform_partition(m, 2)
        ens = random_ensemble(rng, q, m, 2, 2, part=part, support=(1, 5), noise=0.05)
        dense, y_s, part_s = mgcs_stack(ens, part)
        eps = 0.05 * np.sqrt(2 * y_s.size)
        monkeypatch.setattr(mgcs.recovery, "_MAX_FITS", 10)
        runs = [
            (g_omp, dict(max_groups=3, residual_tol=0.0)),
            (g_cosamp, dict(S=2, residual_tol=0.0)),
            (g_bpdn, dict(eps=eps, tol=1e-3)),
        ]
        for solver, opts in runs:
            on_op = solver(ens.operator(), y_s, part, joint=True, **opts)
            on_dense = solver(dense, y_s, part_s, joint=True, **opts)
            assert on_op.selected_groups == on_dense.selected_groups
            assert on_op.iterations == on_dense.iterations
            for key in ("penalty_solves", "rank_deficient"):
                assert on_op.diagnostics.get(key) == on_dense.diagnostics.get(key)
            # G-OMP on the operator estimates per channel, the rest stacked
            x_op, x_dense = on_op.estimates.reshape(-1), on_dense.x
            assert np.linalg.norm(x_op - x_dense) <= 1e-10 * np.linalg.norm(x_dense)
        assert g_cosamp(ens.operator(), y_s, part, S=2,
                        residual_tol=0.0, joint=True).diagnostics["rank_deficient"]

    @pytest.mark.parametrize("solver,opts", [
        (g_omp, dict(max_groups=16, residual_tol=0.0, joint=True)),
        (g_cosamp, dict(S=1, residual_tol=0.0, joint=True)),
        (g_bpdn, dict(eps=0.1, tol=1e-4, joint=True))])
    def test_partition_of_neither_length_is_rejected(self, solver, opts):
        rng = np.random.default_rng(41)
        ens = random_ensemble(rng, 6, 16, 2, 2)
        with pytest.raises(DomainError):
            solver(ens.operator(), ens.observations.reshape(-1), uniform_partition(32, 2),
                   **opts)

    @pytest.mark.parametrize("solver,opts", [
        (g_omp, dict(max_groups=8, residual_tol=0.0, joint=True)),
        (g_omp, dict(max_groups=8, residual_tol=0.0, joint=False)),
        (g_cosamp, dict(S=1, residual_tol=0.0, joint=True)),
        (g_bpdn, dict(eps=0.1, tol=1e-4, joint=True)),
        (g_cosamp, dict(S=1, residual_tol=0.0, joint=False)),
        (g_bpdn, dict(eps=0.1, tol=1e-4, joint=False))])
    def test_partition_of_all_columns_is_rejected(self, solver, opts):
        # the operator takes only the per-channel partition; the stacked one
        # belongs to the dense matrix of mgcs_stack
        rng = np.random.default_rng(42)
        ens = random_ensemble(rng, 6, 16, 2, 2)
        _, y_s, part_s = mgcs_stack(ens, uniform_partition(16, 2))
        with pytest.raises(DomainError, match="one block"):
            solver(ens.operator(), y_s, part_s, **opts)

    @pytest.mark.parametrize("grouped", [False, True])
    def test_joint_gomp_is_dcs_somp_on_desk_trials(self, grouped):
        # joint G-OMP on the dense block-diagonal stack and G-DCS-SOMP are one
        # algorithm: same groups in the same order, same estimates
        for t in range(3):
            cfg, config, scheme, ens, sigma_z = desk_trial(11, t)
            if grouped:
                part = make_block_tiling(cfg.D, cfg.J, config.dm, config.di).to_partition()
            else:
                part = singleton_partition(cfg.jd)
            opts = dict(max_groups=scheme.q // (2 * part.groups[0].size),
                        residual_tol=float(np.sqrt(cfg.n_channels * scheme.q * cfg.K) * sigma_z))
            Phi_s, y_s, part_s = mgcs_stack(ens, part)
            joint = g_omp(Phi_s, y_s, part_s, joint=True, **opts)
            somp = g_dcs_somp(ens, part, **opts)
            assert joint.selected_groups == somp.selected_groups
            assert len(somp.selected_groups) > 1
            x_joint = joint.x.reshape(cfg.n_channels, cfg.jd)
            assert (np.linalg.norm(x_joint - somp.estimates)
                    <= 1e-12 * np.linalg.norm(somp.estimates))


def random_ensemble(rng, q, m, n_tx, n_rx, part=None, support=(), noise=0.0):
    """Ensemble of n_tx complex Gaussian matrices (a partial DFT would give
    groups of exactly equal correlation energy, whose order then rests on
    rounding); with a support, each channel observes its own jointly
    group-sparse vector, plus complex noise of standard deviation ``noise``
    per part."""
    mats = tuple((rng.normal(size=(q, m)) + 1j * rng.normal(size=(q, m))) / np.sqrt(2 * q)
                 for _ in range(n_tx))
    n_ch = n_tx * n_rx
    if support:
        obs = np.array([mats[xi % n_tx] @ group_sparse_signal(part, support, rng)
                        for xi in range(n_ch)])
    else:
        obs = np.zeros((n_ch, q), dtype=complex)
    obs = obs + noise * (rng.normal(size=(n_ch, q)) + 1j * rng.normal(size=(n_ch, q)))
    return MeasurementEnsemble(matrices=mats, observations=obs)


def dense_stack(ensemble):
    """The dense (n_channels Q) x (n_channels M) block-diagonal matrix, block
    xi being the matrix of channel xi."""
    n_ch = ensemble.n_channels
    _, q, m = ensemble.blocks.shape
    Phi = np.zeros((q * n_ch, m * n_ch), dtype=complex)
    for xi in range(n_ch):
        Phi[xi * q: (xi + 1) * q, xi * m: (xi + 1) * m] = channel_matrix(ensemble, xi)
    return Phi


def desk_grid(seed, t, snr_db=20.0):
    """Demodulated grid of seeded desk 2x2 trial t at ``snr_db``."""
    config = desk_experiment(seed)
    cfg = config.system
    pulses = cp_ofdm_pulses(cfg.K, cfg.N)
    scheme = draw_pilots(cfg, np.random.SeedSequence([seed, 7919]), q=config.q)
    geometry = desk_geometry(cfg.n_tx, cfg.n_rx, fc=cfg.f0, block_duration=cfg.l_r * cfg.Ts)
    y_grid, _, sigma_z, _ = simulate_trial(cfg, scheme, pulses, FilterSpec(kind="rrc"),
                                           geometry, snr_db, [seed, 0, t])
    return config, scheme, y_grid, sigma_z


def split_problems(Phi, y, part, joint, res):
    """A solver call's problems as (matrix, observations, result) triples:
    the call itself when joint, else each channel with the one-problem view
    of its row of the result."""
    if joint:
        return [(Phi, y, res)]
    return [(A, y_p, RecoveryResult(
        estimates=res.estimates[xi:xi + 1],
        selected_groups=res.selected_groups[xi],
        residual_norms=res.residual_norms[xi:xi + 1],
        iterations=res.diagnostics["channel_iterations"][xi],
        diagnostics={k: res.diagnostics[k][xi] for k in ("lambda", "fixed_point")
                     if k in res.diagnostics}))
        for xi, (A, y_p) in enumerate(channel_problems(Phi, y, part, False))]


def record_bpdn_problems(monkeypatch):
    """Replace the estimator's ``g_bpdn`` by one that records every problem
    of every call, each channel of a per-channel call on its own, as
    (Phi, y, part, eps, tol, result)."""
    calls = []

    def recording(Phi, y, part, eps, tol, *, joint):
        res = g_bpdn(Phi, y, part, eps, tol, joint=joint)
        calls.extend((A, y_p, part, eps, tol, one)
                     for A, y_p, one in split_problems(Phi, y, part, joint, res))
        return res

    monkeypatch.setattr(mgcs.estimator, "g_bpdn", recording)
    return calls


def assert_matches_per_problem(res, refs):
    """One solver call against its problems solved one call each (one for a
    joint call, one per channel otherwise): groups, estimates and residual
    norms bit for bit.  Returns the call's iteration count per problem."""
    if "channel_iterations" in res.diagnostics:
        groups, iterations = res.selected_groups, res.diagnostics["channel_iterations"]
    else:
        groups, iterations = [res.selected_groups], [res.iterations]
    assert groups == [ref.selected_groups for ref in refs]
    np.testing.assert_array_equal(res.estimates, np.concatenate([r.estimates for r in refs]))
    np.testing.assert_array_equal(res.residual_norms,
                                  np.concatenate([r.residual_norms for r in refs]))
    return iterations


def run_cosamp_estimators_on_desk_trials():
    """The four CoSaMP estimators on seeded desk trials 0-2 of seed 11, one
    solver call each; returns the system config."""
    for t in range(3):
        config, scheme, y_grid, sigma_z = desk_grid(11, t)
        cfg = config.system
        tiling = make_block_tiling(cfg.D, cfg.J, config.dm, config.di)
        for name in ("conv-cosamp", "gcs-cosamp", "mcs-cosamp", "mgcs-cosamp"):
            run_estimator(name, y_grid, scheme, BasisSpec.dft(cfg.J, cfg.D), cfg, tiling,
                          sigma_z, **ESTIMATE_SETTINGS)
    return cfg


def assert_group_lasso_kkt(Phi, y, part, res):
    """Optimality of the group lasso at the penalty lambda that G-BPDN
    reports: on the support Phi_g^H (Phi x - y) = -lambda x_g / ||x_g||, off
    it the group correlation is at most lambda."""
    lam = res.diagnostics["lambda"]
    corr = Phi.conj().T @ (Phi @ res.x - y)
    assert res.selected_groups
    for b, g in enumerate(part.groups):
        norm = np.linalg.norm(res.x[g])
        if b in res.selected_groups:
            assert np.linalg.norm(corr[g] + lam * res.x[g] / norm) <= 1e-3 * lam
        else:
            assert norm == 0
            assert np.linalg.norm(corr[g]) <= lam * (1 + 1e-3)


def relative_dual_gap(Phi, y, part, x):
    """Duality gap of min sum_g ||x_g|| s.t. ||Phi x - y|| <= r at x, taking
    r = ||Phi x - y|| so that x is feasible, relative to the objective.

    The dual is max Re<u, y> - r ||u|| s.t. ||(Phi^H u)_g|| <= 1 for every
    group g; the scaled residual u = (y - Phi x) / max_g ||(Phi^H (y - Phi x))_g||
    is dual-feasible, so the gap bounds how far x is from the optimum.  Groups
    are joint across the channels of a block-diagonal operator."""
    residual = y - Phi @ x
    corr = Phi.rmatvec(residual) if hasattr(Phi, "rmatvec") else Phi.conj().T @ residual
    u = residual / np.sqrt(part.energies(corr)).max()
    primal = np.sqrt(part.energies(x)).sum()
    dual = np.vdot(u, y).real - np.linalg.norm(residual) * np.linalg.norm(u)
    return (primal - dual) / primal


def count_eigh_calls(monkeypatch):
    """The list that every later ``np.linalg.eigh`` call appends to."""
    calls, eigh = [], np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def desk_trial(seed, t):
    """Pilot measurements of seeded desk 2x2 trial t at 20 dB."""
    config, scheme, y_grid, sigma_z = desk_grid(seed, t)
    cfg = config.system
    ens = collect_measurements(y_grid, scheme, BasisSpec.dft(cfg.J, cfg.D), cfg)
    return cfg, config, scheme, ens, sigma_z


class TestGroupRic:
    def test_orthonormal_columns(self):
        m = 8
        F = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
        part = uniform_partition(m, 2)
        assert group_ric(F, part, 2) == pytest.approx(0.0, abs=1e-12)

    def test_duplicated_column(self):
        rng = np.random.default_rng(17)
        Phi = partial_dft(8, 8, rng)
        Phi[:, 1] = Phi[:, 0]
        part = uniform_partition(8, 2)
        assert group_ric(Phi, part, 1) >= 1.0 - 1e-12

    def test_matches_inline_enumeration(self):
        rng = np.random.default_rng(18)
        Phi = partial_dft(8, 16, rng)
        part = uniform_partition(16, 2)
        got = group_ric(Phi, part, 2)
        worst = 0.0
        for combo in itertools.combinations(range(8), 2):
            cols = np.concatenate([part.groups[b] for b in combo])
            sv = np.linalg.svd(Phi[:, cols], compute_uv=False)
            worst = max(worst, abs(sv[0] ** 2 - 1), abs(1 - sv[-1] ** 2))
        assert got == pytest.approx(worst, abs=1e-12)

    def test_budget_refusal(self):
        part = singleton_partition(40)
        with pytest.raises(BudgetExceededError):
            group_ric(np.eye(40, dtype=complex), part, 20)

    def test_group_ric_below_plain_ric(self):
        # group S-sparse implies S'-sparse; delta_{S|P} <= delta_{S'}
        rng = np.random.default_rng(19)
        for seed in range(4):
            Phi = partial_dft(8, 12, np.random.default_rng(30 + seed))
            part = uniform_partition(12, 2)
            S = 2
            s_prime = 4  # sum of the S largest group sizes
            d_group = group_ric(Phi, part, S)
            d_plain = group_ric(Phi, singleton_partition(12), s_prime)
            assert d_group <= d_plain + 1e-12


class TestDeltaStackedEqualsMax:
    def test_identical_matrices(self):
        rng = np.random.default_rng(20)
        Phi = partial_dft(4, 8, rng)
        part = uniform_partition(8, 2)
        ens = MeasurementEnsemble(
            matrices=(Phi,), observations=np.zeros((2, 4), dtype=complex)
        )
        d_st, per = delta_stacked_equals_max(ens, part, 1)
        assert d_st == pytest.approx(group_ric(Phi, part, 1), abs=1e-12)
        assert all(p == pytest.approx(per[0], abs=1e-12) for p in per)

    def test_two_channel_equality(self):
        rng = np.random.default_rng(21)
        mats = (partial_dft(4, 8, rng), partial_dft(4, 8, rng))
        ens = MeasurementEnsemble(
            matrices=mats, observations=np.zeros((2, 4), dtype=complex)
        )
        part = uniform_partition(8, 2)
        d_st, per = delta_stacked_equals_max(ens, part, 2)
        assert d_st == pytest.approx(max(per), abs=1e-12)

    def test_degenerate_channel_dominates(self):
        m = 8
        F = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
        bad = F.copy()
        bad[:, 1] = bad[:, 0]  # duplicated column
        ens = MeasurementEnsemble(
            matrices=(F, bad), observations=np.zeros((2, m), dtype=complex)
        )
        part = uniform_partition(m, 2)
        d_st, per = delta_stacked_equals_max(ens, part, 1)
        assert d_st == pytest.approx(per[1], abs=1e-12)
        assert per[0] == pytest.approx(0.0, abs=1e-12)


def sample_count_bound(S_prime, M, gamma, eta, mu_u):
    """Measurement-count bound for random row subsampling of a unitary matrix.

    ceil(C mu^2 S' max{log^3(S') log(M), log(1/eta)} / gamma^2), natural logs.
    The constant C is not pinned down by theory; C = 1 here is heuristic.
    """
    if not (0 < gamma < 1 and 0 < eta < 1):
        raise DomainError("gamma and eta must lie in (0, 1)")
    term = max(math.log(S_prime) ** 3 * math.log(M), math.log(1.0 / eta))
    return int(math.ceil(mu_u**2 * S_prime * term / gamma**2))


class TestSampleCountBound:
    def test_s_prime_one_branch(self):
        got = sample_count_bound(1, 64, 0.5, 0.1, 1.0)
        assert got == math.ceil(math.log(10.0) / 0.25)

    def test_dft_coherence_is_one(self):
        m = 16
        U = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
        mu = np.sqrt(m) * np.abs(U).max()
        assert mu == pytest.approx(1.0)

    def test_worked_example(self):
        expect = math.ceil(4 * max(math.log(4) ** 3 * math.log(64), math.log(10.0)) / 0.25)
        assert sample_count_bound(4, 64, 0.5, 0.1, 1.0) == expect

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            sample_count_bound(4, 64, 1.5, 0.1, 1.0)
