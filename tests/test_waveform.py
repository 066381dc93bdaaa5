"""Tests for the discrete-time multicarrier modem and ambiguity function."""

import numpy as np
import pytest

import mgcs.waveform
from mgcs.channel import FilterSpec, PathSet, discrete_ir, phi_profiles
from mgcs.errors import ConfigurationError, DomainError
from mgcs.harness import desk_experiment, point_geometry, simulate_channel
from mgcs.waveform import (
    FactoredIR,
    PulsePair,
    SystemConfig,
    ambiguity_table,
    apply_discrete_channel,
    cp_ofdm_pulses,
    demodulate,
    effective_coeffs,
    modulate,
)
from oracles import (
    cross_ambiguity,
    dense_apply_channel,
    dense_effective_coeffs,
    dense_ir,
    identity_channel,
)


def small_cfg(**kw):
    defaults = dict(K=8, N=10, L=4, D=4, J=2, n_tx=1, n_rx=1)
    defaults.update(kw)
    return SystemConfig(**defaults)


def static_channel(cfg, delays, gains):
    """Zero-Doppler single-channel Kronecker channel: gains[p] at delay bin delays[p]."""
    gains = np.asarray(gains, dtype=complex)[:, None]
    paths = PathSet(gains=gains, delays=np.asarray(delays, dtype=float)[:, None] * cfg.Ts,
                    dopplers=np.zeros(gains.shape))
    return discrete_ir(paths, FilterSpec(kind="kronecker"), cfg)


def direct_ambiguity_table(pulses, cfg):
    """(J, D, N) array of cross_ambiguity(pulses, m, (i + q L) / L_r), one
    direct sum per entry, indexed [i + J/2, m, q]."""
    return np.array([[[cross_ambiguity(pulses, m, (i + q * cfg.L) / cfg.l_r)
                       for q in range(cfg.N)] for m in range(cfg.D)]
                     for i in range(-cfg.J // 2, cfg.J // 2)])


def modulate_direct(symbols, pulses, cfg):
    """Literal triple-sum modulator used as the oracle."""
    lg = len(pulses.g)
    n_out = (cfg.L - 1) * cfg.N + lg
    s = np.zeros((n_out, cfg.n_tx), dtype=complex)
    for n in range(n_out):
        for l in range(cfg.L):
            if 0 <= n - l * cfg.N < lg:
                for k in range(cfg.K):
                    s[n] += (
                        symbols[l, k]
                        * pulses.g[n - l * cfg.N]
                        * np.exp(2j * np.pi * k * (n - l * cfg.N) / cfg.K)
                    )
    return s


def demodulate_direct(r, pulses, cfg):
    y = np.zeros((cfg.L, cfg.K, r.shape[1]), dtype=complex)
    for l in range(cfg.L):
        for k in range(cfg.K):
            for n in range(l * cfg.N, l * cfg.N + pulses.l_gamma + 1):
                y[l, k] += (
                    r[n]
                    * np.conj(pulses.gamma[n - l * cfg.N])
                    * np.exp(-2j * np.pi * k * (n - l * cfg.N) / cfg.K)
                )
    return y


class TestCpOfdmPulses:
    def test_full_scale_cp_length(self):
        p = cp_ofdm_pulses(512, 640)
        assert np.count_nonzero(p.gamma) == 512
        assert np.all(p.gamma[:128] == 0)  # CP length N - K = 128

    def test_zero_length_cp(self):
        p = cp_ofdm_pulses(8, 8)
        np.testing.assert_array_equal(p.gamma, p.g)

    def test_small_support(self):
        p = cp_ofdm_pulses(4, 6)
        assert np.flatnonzero(p.gamma).tolist() == [2, 3, 4, 5]

    def test_rejects_short_symbol(self):
        with pytest.raises(ConfigurationError):
            cp_ofdm_pulses(8, 6)


class TestModulate:
    def test_zero_symbols(self):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        s = modulate(np.zeros((cfg.L, cfg.K, 1)), pulses, cfg)
        assert np.all(s == 0)

    def test_dc_symbol_is_rectangular(self):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        a = np.zeros((cfg.L, cfg.K, 1), dtype=complex)
        a[0, 0, 0] = 1.0
        s = modulate(a, pulses, cfg)[:, 0]
        np.testing.assert_allclose(s[: cfg.N], 1.0)
        np.testing.assert_allclose(s[cfg.N:], 0.0)

    def test_single_subcarrier_unimodular(self):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        a = np.zeros((cfg.L, cfg.K, 1), dtype=complex)
        a[0, 3, 0] = 1.0
        s = modulate(a, pulses, cfg)[:, 0]
        np.testing.assert_allclose(np.abs(s[: cfg.N]), 1.0, atol=1e-12)

    def test_matches_direct_sum(self):
        cfg = small_cfg(n_tx=2)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(0)
        a = rng.normal(size=(cfg.L, cfg.K, 2)) + 1j * rng.normal(size=(cfg.L, cfg.K, 2))
        np.testing.assert_allclose(
            modulate(a, pulses, cfg), modulate_direct(a, pulses, cfg), atol=1e-10
        )

    def test_shape_mismatch(self):
        cfg = small_cfg()
        with pytest.raises(DomainError):
            modulate(np.zeros((2, 2, 1)), cp_ofdm_pulses(cfg.K, cfg.N), cfg)


class TestDemodulate:
    def test_zero_signal(self):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        y = demodulate(np.zeros((cfg.l_r, 1)), pulses, cfg)
        assert np.all(y == 0)

    def test_identity_roundtrip_gain_k(self):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(1)
        a = rng.normal(size=(cfg.L, cfg.K, 1)) + 1j * rng.normal(size=(cfg.L, cfg.K, 1))
        y = demodulate(modulate(a, pulses, cfg), pulses, cfg)
        np.testing.assert_allclose(y, cfg.K * a, atol=1e-9)

    def test_matches_direct_sum(self):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(2)
        r = rng.normal(size=(cfg.l_r, 1)) + 1j * rng.normal(size=(cfg.l_r, 1))
        np.testing.assert_allclose(
            demodulate(r, pulses, cfg), demodulate_direct(r, pulses, cfg), atol=1e-10
        )

    def test_linearity(self):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(3)
        r1 = rng.normal(size=(cfg.l_r, 1)) + 0j
        r2 = rng.normal(size=(cfg.l_r, 1)) + 0j
        np.testing.assert_allclose(
            demodulate(r1 + r2, pulses, cfg),
            demodulate(r1, pulses, cfg) + demodulate(r2, pulses, cfg),
            atol=1e-10,
        )

    def test_short_signal_rejected(self):
        cfg = small_cfg()
        with pytest.raises(DomainError):
            demodulate(np.zeros((cfg.l_r - 1, 1)), cp_ofdm_pulses(cfg.K, cfg.N), cfg)


class TestCrossAmbiguity:
    def test_origin_value(self):
        p = cp_ofdm_pulses(8, 10)
        assert cross_ambiguity(p, 0, 0.0) == pytest.approx(8.0)

    def test_cp_absorbs_delay(self):
        p = cp_ofdm_pulses(8, 10)
        for m in range(0, 3):  # 0 <= m <= N - K
            assert cross_ambiguity(p, m, 0.0) == pytest.approx(8.0)

    def test_geometric_sum(self):
        K, N = 8, 10
        p = cp_ofdm_pulses(K, N)
        xi = 0.0371
        expect = sum(np.exp(-2j * np.pi * xi * n) for n in range(N - K, N))
        assert cross_ambiguity(p, 0, xi) == pytest.approx(expect)

    def test_swap_conjugate_relation(self):
        # real pulses: A_{g,gamma}(-m, -xi) = e^{-j2pi xi m} conj(A_{gamma,g}(m, xi))
        p = cp_ofdm_pulses(6, 8)
        swapped = PulsePair(g=p.gamma, gamma=p.g)
        for m in (-2, 0, 1, 3):
            for xi in (0.0, 0.13, -0.4):
                lhs = cross_ambiguity(swapped, -m, -xi)
                rhs = np.exp(-2j * np.pi * xi * m) * np.conj(cross_ambiguity(p, m, xi))
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_table_matches_scalar(self):
        # every entry A(m, (i + q L) / L_r) of the desk table, indexed
        # [i + J/2, m, q], against the direct sum; the table has exact zeros,
        # so the error is relative to its largest entry
        cfg = desk_experiment(0).system
        p = cp_ofdm_pulses(cfg.K, cfg.N)
        table = ambiguity_table(p, cfg)
        assert table.shape == (cfg.J, cfg.D, cfg.N)
        ref = direct_ambiguity_table(p, cfg)
        assert np.abs(table - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("lg1", [7, 10, 23], ids=["shorter", "one-symbol", "folded"])
    def test_table_of_complex_pulses_matches_scalar(self, lg1):
        # receive windows shorter than, equal to and longer than a symbol:
        # the N-point DFTs are zero-padded, direct or folded modulo N
        cfg = small_cfg(L=4, D=4, J=4)
        rng = np.random.default_rng(14)
        p = PulsePair(g=rng.normal(size=cfg.N) + 1j * rng.normal(size=cfg.N),
                      gamma=rng.normal(size=lg1) + 1j * rng.normal(size=lg1))
        ref = direct_ambiguity_table(p, cfg)
        assert np.abs(ambiguity_table(p, cfg) - ref).max() <= 1e-12 * np.abs(ref).max()


class TestApplyDiscreteChannel:
    def test_identity(self):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(4)
        a = rng.normal(size=(cfg.L, cfg.K, 1)) + 0j
        s = modulate(a, pulses, cfg)
        r = apply_discrete_channel(identity_channel(cfg), s)
        np.testing.assert_allclose(r, s[: cfg.l_r], atol=1e-12)

    def test_pure_delay(self):
        cfg = small_cfg()
        m0 = 2
        H = static_channel(cfg, [m0], [1.0])
        rng = np.random.default_rng(5)
        s = rng.normal(size=(cfg.l_r, 1)) + 0j
        r = apply_discrete_channel(H, s)
        np.testing.assert_allclose(r[m0:, 0], s[: cfg.l_r - m0, 0], atol=1e-12)
        np.testing.assert_allclose(r[:m0, 0], 0.0)

    def test_zero_signal_returns_noise(self):
        cfg = small_cfg()
        z = np.ones((cfg.l_r, 1), dtype=complex)
        r = apply_discrete_channel(identity_channel(cfg), np.zeros((1, 1))) + z
        np.testing.assert_allclose(r, z)


class TestEffectiveCoeffs:
    def test_identity_channel_gain(self):
        cfg = small_cfg(n_tx=2, n_rx=2)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        Hlk = effective_coeffs(identity_channel(cfg), pulses, cfg)
        expect = cfg.K * np.eye(2)
        for l in range(cfg.L):
            for k in range(cfg.K):
                np.testing.assert_allclose(Hlk[l, k], expect, atol=1e-9)

    def test_pure_delay_frequency_ramp(self):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        m0 = 2  # within the CP
        H = static_channel(cfg, [m0], [1.0])
        Hlk = effective_coeffs(H, pulses, cfg)[:, :, 0, 0]
        k = np.arange(cfg.K)
        expect = cfg.K * np.exp(-2j * np.pi * k * m0 / cfg.K)
        for l in range(cfg.L):
            np.testing.assert_allclose(Hlk[l], expect, atol=1e-9)

    def test_pure_delay_matches_direct_sum(self):
        cfg = small_cfg(K=4, N=6, L=2, D=2, J=2)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(6)
        H = static_channel(cfg, [0, 1, 2], rng.normal(size=3))  # random LTI taps
        got = effective_coeffs(H, pulses, cfg)[:, :, 0, 0]
        H = dense_ir(H)
        # literal double sum
        expect = np.zeros((cfg.L, cfg.K), dtype=complex)
        for l in range(cfg.L):
            for k in range(cfg.K):
                for n in range(cfg.l_r):
                    for m in range(3):
                        if 0 <= n - m - l * cfg.N < len(pulses.g) and 0 <= n - l * cfg.N <= pulses.l_gamma:
                            glk = pulses.g[n - m - l * cfg.N] * np.exp(
                                2j * np.pi * k * (n - m - l * cfg.N) / cfg.K
                            )
                            expect[l, k] += (
                                H[n, m, 0, 0]
                                * glk
                                * np.conj(
                                    pulses.gamma[n - l * cfg.N]
                                    * np.exp(2j * np.pi * k * (n - l * cfg.N) / cfg.K)
                                )
                            )
        np.testing.assert_allclose(got, expect, atol=1e-9)

    def test_zero_channel(self):
        cfg = small_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        H = static_channel(cfg, [0, 1], [0.0, 0.0])
        assert np.all(effective_coeffs(H, pulses, cfg) == 0)

    def test_desk_channel_matches_the_window_formula_bit_for_bit(self):
        # seeded desk 2x2 channel: per path, eta_p exp(j 2 pi nu_p Ts l N)
        # times the K-point DFT over m, folded modulo K, of
        # phi_p(m) sum_n exp(j 2 pi nu_p Ts n) w[n, m] with the window
        # w[n, m] = g[n - m] conj(gamma[n]) written out entry by entry
        config = desk_experiment(1)
        cfg = config.system
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        s_geo, s_gain, _, _ = np.random.SeedSequence([1, 0, 0]).spawn(4)
        H = simulate_channel(cfg, config.filters, point_geometry(cfg), s_geo, s_gain)
        lg1 = pulses.l_gamma + 1
        w = np.zeros((lg1, H.m_len), dtype=complex)
        for n in range(lg1):
            for m in range(H.m_len):
                if 0 <= n - m < len(pulses.g):
                    w[n, m] = pulses.g[n - m] * np.conj(pulses.gamma[n])
        within = (H.phases(lg1).reshape(lg1, -1).T @ w).reshape(H.profiles.shape)
        taps = H.gains[..., None] * H.profiles * within  # (n_ch, P, m_len)
        folded = np.zeros(taps.shape[:2] + (cfg.K,), dtype=complex)
        for m in range(H.m_len):
            folded[..., m % cfg.K] += taps[..., m]
        out = np.moveaxis(H.phases(cfg.L, cfg.N), 0, 1) @ np.fft.fft(folded, axis=-1)
        expect = np.moveaxis(out, 0, -1).reshape(cfg.L, cfg.K, cfg.n_rx, cfg.n_tx)
        np.testing.assert_array_equal(effective_coeffs(H, pulses, cfg), expect)


class TestFactoredChannel:
    """The factored channel against the dense formulas on ``dense_ir(H)``."""

    @staticmethod
    def random_channel(kind, n_tx, n_rx, m_len, seed):
        """Three random paths per channel on an m_len-tap delay axis, factored
        as ``discrete_ir`` factors them on its K taps."""
        cfg = small_cfg(K=16, N=20, L=4, D=4, J=2, n_tx=n_tx, n_rx=n_rx)
        rng = np.random.default_rng(seed)
        P, n_ch = 3, cfg.n_channels
        offsets = rng.uniform(0, m_len - 2, size=(n_ch, P))
        if kind == "kronecker":
            offsets = np.floor(offsets)
        gains = rng.normal(size=(n_ch, P)) + 1j * rng.normal(size=(n_ch, P))
        nu_ts = rng.uniform(-3, 3, size=(n_ch, P)) / cfg.l_r
        profiles = phi_profiles(FilterSpec(kind=kind, span=8), offsets.ravel(), nu_ts.ravel(), m_len)
        H = FactoredIR(gains=gains, nu_ts=nu_ts, profiles=profiles.reshape(n_ch, P, m_len),
                       l_r=cfg.l_r, n_rx=n_rx, n_tx=n_tx)
        return cfg, H, rng

    @pytest.mark.parametrize("kind", ["rrc", "kronecker"])
    @pytest.mark.parametrize("n_tx,n_rx", [(1, 1), (2, 2), (2, 3)])
    @pytest.mark.parametrize("m_len", [11, 27])  # below K and past it (folded)
    def test_matches_dense_oracle(self, kind, n_tx, n_rx, m_len):
        cfg, H, rng = self.random_channel(kind, n_tx, n_rx, m_len, seed=10 * n_tx + n_rx)
        dense = dense_ir(H)
        assert dense.shape == (cfg.l_r, m_len, n_rx, n_tx)
        for len_s in (cfg.l_r - 7, cfg.l_r + 9):
            s = rng.normal(size=(len_s, n_tx)) + 1j * rng.normal(size=(len_s, n_tx))
            expect = dense_apply_channel(dense, s)
            got = apply_discrete_channel(H, s)
            assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        expect = dense_effective_coeffs(dense, pulses, cfg)
        got = effective_coeffs(H, pulses, cfg)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)

    def test_window_blocks_agree(self, monkeypatch):
        cfg, H, rng = self.random_channel("rrc", 2, 2, 27, seed=4)
        s = rng.normal(size=(cfg.l_r, 2)) + 1j * rng.normal(size=(cfg.l_r, 2))
        whole = apply_discrete_channel(H, s)
        monkeypatch.setattr(mgcs.waveform, "_WINDOW_BLOCK", 5 * 27)  # 5 rows per block
        np.testing.assert_allclose(apply_discrete_channel(H, s), whole, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("count,step", [(0, 1), (1, 1), (16, 80), (36, 1), (37, 1),
                                            (80, 1), (1280, 1), (999, 3)])
    def test_phases_match_direct_exp(self, count, step):
        # short ranges take one exp per index, long ones the coarse x fine tables
        _, H, _ = self.random_channel("rrc", 2, 2, 11, seed=6)
        arg = 2 * np.pi * np.multiply.outer(np.arange(count) * step, H.nu_ts)
        expect = np.exp(1j * arg)
        got = H.phases(count, step)
        assert got.shape == expect.shape
        # both round the phase argument: a few ulps of its largest magnitude
        tol = 8 * np.finfo(float).eps * (1 + np.abs(arg).max(initial=0))
        np.testing.assert_allclose(got, expect, rtol=0, atol=tol)

    def test_identity_channel_is_dense_identity(self):
        cfg = small_cfg(n_tx=2, n_rx=3)
        H = dense_ir(identity_channel(cfg))
        assert H.shape == (cfg.l_r, 1, 3, 2)
        np.testing.assert_array_equal(H, np.broadcast_to(np.eye(3, 2), H.shape))

    def test_short_impulse_response_rejected(self):
        cfg = small_cfg()
        with pytest.raises(DomainError):
            effective_coeffs(identity_channel(small_cfg(L=2)), cp_ofdm_pulses(cfg.K, cfg.N), cfg)


def test_lti_roundtrip_diagonal_model():
    """Demodulated symbols obey y = H_{l,k} a_{l,k} exactly for an LTI channel
    with delays inside the CP."""
    cfg = small_cfg(K=8, N=10, L=4, D=4, J=2)
    pulses = cp_ofdm_pulses(cfg.K, cfg.N)
    rng = np.random.default_rng(7)
    taps = rng.normal(size=2) + 1j * rng.normal(size=2)  # delays 0, 1 <= CP = 2
    H = static_channel(cfg, [0, 1], taps)
    a = rng.normal(size=(cfg.L, cfg.K, 1)) + 1j * rng.normal(size=(cfg.L, cfg.K, 1))
    r = apply_discrete_channel(H, modulate(a, pulses, cfg))
    y = demodulate(r, pulses, cfg)
    Hlk = effective_coeffs(H, pulses, cfg)
    np.testing.assert_allclose(y[:, :, 0], Hlk[:, :, 0, 0] * a[:, :, 0], atol=1e-9)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SystemConfig(K=8, N=6, L=4, D=4, J=2)
    with pytest.raises(ConfigurationError):
        SystemConfig(K=8, N=10, L=3, D=4, J=2)
    with pytest.raises(ConfigurationError):
        SystemConfig(K=8, N=10, L=4, D=3, J=2)
    cfg = SystemConfig(K=8, N=10, L=4, D=4, J=2)
    assert cfg.l_r == 4 * 10  # CP-OFDM default gamma support gives L_r = L N
    assert cfg.delta_k == 2 and cfg.delta_l == 2
