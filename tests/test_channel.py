"""Tests for the geometry simulator, leakage kernels and spreading functions."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import c as C_LIGHT

import mgcs
from mgcs.channel import (
    SPEED_OF_LIGHT,
    FilterSpec,
    GeometryParams,
    PathSet,
    ScattererGeometry,
    cross_channel_bounds,
    discrete_ir,
    effective_support_widths,
    path_params,
    _rrc_impulse,
    phi_kernel,
    phi_profiles,
    psi_kernel,
    sample_geometry,
    sparsity_budget,
)
from mgcs.errors import DomainError
from mgcs.partition import make_block_tiling
from mgcs.waveform import SystemConfig, cp_ofdm_pulses, effective_coeffs
from oracles import dense_ir, dft_coeffs, leakage_kernel, spreading_model

KRON = FilterSpec(kind="kronecker")


# a wide-area scenario: 7 far clusters over 2500 x 800 m around a 1500 m
# link and 3 near the receiver, 10 scatterers each
WIDE_AREA = GeometryParams(
    n_tx=1, n_rx=1, fc=5e9, n_far_clusters=7, n_near_clusters=3, per_cluster=10,
    area=(2500.0, 800.0), near_radius=100.0, link_distance=1500.0, cluster_radius=30.0,
    speed_range=(0.0, 50.0), accel_range=(0.0, 7.0), min_range=5.0, block_duration=0.0,
)


def tiny_cfg(**kw):
    defaults = dict(K=8, N=8, L=4, D=4, J=2, n_tx=1, n_rx=1, Ts=2e-7)
    defaults.update(kw)
    return SystemConfig(**defaults)


def trapezoid_phi(filters, x, nu_ts=0.0):
    """Reference delay kernel: the direct trapezoid quadrature of the RRC pair
    correlation at every point of ``x``, one full grid of RRC values each."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if filters.kind == "kronecker":
        return np.where(np.abs(x) < 1e-9, 1.0, 0.0).astype(complex)
    ovs, span = filters.oversampling, filters.span
    u = np.arange(-span * ovs, span * ovs + 1) / ovs
    h = _rrc_impulse(u, filters.rolloff)
    mod = h * np.exp(-2j * np.pi * nu_ts * u)
    shifted = _rrc_impulse(x[:, None] - u[None, :], filters.rolloff)
    return np.trapezoid(shifted * mod[None, :], dx=1.0 / ovs, axis=1)


def assert_kernel_close(actual, expected, rel=1e-9):
    """Max-norm relative agreement of two kernel vectors."""
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


def single_path(tau, nu, gain=1.0, n_channels=1):
    return PathSet(
        gains=np.full((1, n_channels), gain, dtype=complex),
        delays=np.full((1, n_channels), tau),
        dopplers=np.full((1, n_channels), nu),
    )


class TestKernels:
    def test_psi_at_zero(self):
        assert psi_kernel(np.array([0.0]), 32)[0] == pytest.approx(1.0)

    def test_psi_vanishes_at_offgrid_integers(self):
        l_r = 32
        ks = np.array([1.0, -3.0, 17.0, 31.0])
        np.testing.assert_allclose(psi_kernel(ks, l_r), 0.0, atol=1e-12)

    def test_psi_at_period_multiples(self):
        # limit value (-1)^(q (L_r - 1))
        assert psi_kernel(np.array([32.0]), 32)[0] == pytest.approx(-1.0)
        assert psi_kernel(np.array([64.0]), 32)[0] == pytest.approx(1.0)
        assert psi_kernel(np.array([33.0]), 33)[0] == pytest.approx(1.0)

    def test_kronecker_phi(self):
        x = np.array([-1.0, 0.0, 0.25, 1.0])
        np.testing.assert_allclose(phi_kernel(KRON, x, 0.0), [0, 1, 0, 0])

    def test_rrc_phi_nyquist_zero_crossings(self):
        # ideal-pair kernel at zero Doppler is a raised cosine: 1 at 0 and
        # ~0 at the other integers
        f = FilterSpec(kind="rrc")
        vals = phi_kernel(f, np.arange(-3, 4).astype(float), 0.0)
        assert vals[3] == pytest.approx(1.0, abs=1e-4)
        off = np.abs(np.delete(vals, 3))
        assert off.max() < 1e-4

    def test_leakage_kernel_on_grid_collapse(self):
        cfg = tiny_cfg()
        m0, i0 = 2, 0
        nu0 = i0 / (cfg.Ts * cfg.l_r)
        paths = single_path(m0 * cfg.Ts, nu0)
        for m in range(4):
            for i in range(-cfg.J // 2, cfg.J // 2):
                val = leakage_kernel(paths, 0, 0, m, i, KRON, cfg)
                expect = (1.0 if m == m0 else 0.0) * psi_kernel(
                    np.array([float(i - i0)]), cfg.l_r
                )[0]
                assert val == pytest.approx(expect, abs=1e-12)


# the RRC pole |u| = 1/(4 beta) sits on the quadrature lattice for beta = 1/4
POLE = 1.0 / (4 * FilterSpec().rolloff)
OFFSETS = (0.0, 5e-8, -5e-8, POLE - 3e-8, POLE + 1e-7 - 1e-9, 0.5, 2.37, 11.9)


class TestPhiProfiles:
    @pytest.mark.parametrize("span", [8, 16])
    @pytest.mark.parametrize("m_len", [1, 16, 64])
    @pytest.mark.parametrize("nu_ts", [0.0, 0.0137, -0.21])
    def test_matches_direct_quadrature(self, span, m_len, nu_ts):
        f = FilterSpec(kind="rrc", span=span)
        prof = phi_profiles(f, np.array(OFFSETS), nu_ts, m_len)
        assert prof.shape == (len(OFFSETS), m_len)
        for row, off in zip(prof, OFFSETS):
            assert_kernel_close(row, trapezoid_phi(f, np.arange(m_len) - off, nu_ts))

    def test_per_path_doppler(self):
        f = FilterSpec(kind="rrc", span=8)
        nus = np.array([0.0, 0.05, -0.3])
        prof = phi_profiles(f, np.array([0.0, 1.3, 4.75]), nus, 16)
        for row, off, nu in zip(prof, (0.0, 1.3, 4.75), nus):
            assert_kernel_close(row, trapezoid_phi(f, np.arange(16) - off, nu))

    def test_path_blocks_do_not_change_values(self, monkeypatch):
        f = FilterSpec(kind="rrc", span=8)
        offsets, nus = np.linspace(0.0, 9.0, 7), np.linspace(-0.1, 0.1, 7)
        whole = phi_profiles(f, offsets, nus, 16)
        # a lattice holds 15 * 16 + 257 values: two paths per block
        monkeypatch.setattr("mgcs.channel._LATTICE_BLOCK", 2 * 497)
        np.testing.assert_array_equal(phi_profiles(f, offsets, nus, 16), whole)

    @pytest.mark.parametrize("span", [8, 16])
    def test_phi_kernel_at_arbitrary_points(self, span):
        f = FilterSpec(kind="rrc", span=span)
        x = np.concatenate([[0.0, POLE, -POLE + 2e-8, 1e-7], np.linspace(-7.3, 9.1, 23)])
        for nu_ts in (0.0, 0.08):
            vals = phi_kernel(f, x, nu_ts)
            ref = trapezoid_phi(f, x, nu_ts)
            for v, r in zip(vals, ref):
                assert abs(v - r) <= 1e-9 * np.abs(ref).max()

    def test_kronecker_at_non_unit_spacing(self):
        offsets = np.array([0.0, 0.25, 2.0, 1.5, 3.0])
        prof = phi_profiles(KRON, offsets, 0.1, 4)
        for row, off in zip(prof, offsets):
            np.testing.assert_array_equal(row, trapezoid_phi(KRON, np.arange(4) - off))
        x = np.array([-1.0, 0.0, 0.25, 1.0, -0.5])
        np.testing.assert_array_equal(phi_kernel(KRON, x, 0.0), trapezoid_phi(KRON, x))

    def test_discrete_ir_matches_per_path_oracle(self):
        cfg = tiny_cfg(n_tx=2, n_rx=2)
        f = FilterSpec(kind="rrc", span=8)
        rng = np.random.default_rng(21)
        P, n_ch = 3, cfg.n_channels
        paths = PathSet(
            gains=rng.normal(size=(P, n_ch)) + 1j * rng.normal(size=(P, n_ch)),
            delays=rng.uniform(0, 5, size=(P, n_ch)) * cfg.Ts,
            dopplers=rng.uniform(-2, 2, size=(P, n_ch)) / (cfg.Ts * cfg.l_r),
        )
        H = dense_ir(discrete_ir(paths, f, cfg))
        n, m = np.arange(cfg.l_r), np.arange(cfg.K)
        for r in range(cfg.n_rx):
            for s in range(cfg.n_tx):
                xi = r * cfg.n_tx + s
                ref = np.zeros((cfg.l_r, cfg.K), dtype=complex)
                for p in range(P):
                    nu_ts = paths.dopplers[p, xi] * cfg.Ts
                    phi = trapezoid_phi(f, m - paths.delays[p, xi] / cfg.Ts, nu_ts)
                    ref += paths.gains[p, xi] * np.outer(np.exp(2j * np.pi * nu_ts * n), phi)
                assert_kernel_close(H[:, :, r, s], ref)


_NUMPY_ONLY_RUN = """
import importlib, os, pkgutil, sys
import numpy as np
import mgcs
for module in pkgutil.iter_modules(mgcs.__path__):
    importlib.import_module("mgcs." + module.name)
from mgcs.basisopt import attach_kernels, optimize_blocks, sample_prior
from mgcs.harness import desk_experiment, desk_prior, run_sweep
from mgcs.io import config_fingerprint, load_basis, save_basis
from mgcs.partition import make_block_tiling
from mgcs.waveform import SystemConfig, cp_ofdm_pulses

system = SystemConfig(K=32, N=40, L=8, D=8, J=8, n_tx=2, n_rx=2, f0=40e9, Ts=2e-7)
config = desk_experiment(1, system=system, q=24, points=(20.0,), trials=1, solvers=(
    "conv-omp", "gcs-omp", "mcs-somp", "mgcs-somp",
    "mcs-omp", "mgcs-omp", "mgcs-cosamp", "mgcs-bpdn"))
assert np.isfinite(run_sweep(config).mean_mse_db).all()
pulses = cp_ofdm_pulses(system.K, system.N)
samples = attach_kernels(sample_prior(desk_prior(system), 4, 1), pulses, system,
                         config.filters)
tiling = make_block_tiling(system.D, system.J, config.dm, config.di)
basis, _ = optimize_blocks(samples, tiling, pulses, system, max_iters=1)
path = os.path.join(sys.argv[1], "basis.bin")
save_basis(path, basis, config_fingerprint(system))
assert np.array_equal(load_basis(path, config_fingerprint(system)).blocks, basis.blocks)
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_library_import_loads_no_quadrature_module(tmp_path):
    """Importing every module of the package, a sweep of the eight benchmark
    estimators, a basis optimization and a basis-file round trip load no
    scipy module: the library runs on numpy alone."""
    src = str(Path(mgcs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_RUN, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_speed_of_light_is_the_si_value():
    assert SPEED_OF_LIGHT == C_LIGHT


class TestGeometry:
    def test_same_seed_identical(self):
        p = replace(WIDE_AREA, n_tx=2, n_rx=2)
        g1 = sample_geometry(11, p)
        g2 = sample_geometry(11, p)
        np.testing.assert_array_equal(g1.scat_pos, g2.scat_pos)
        np.testing.assert_array_equal(g1.v_t, g2.v_t)

    def test_default_scatterer_count(self):
        geo = sample_geometry(0, WIDE_AREA)
        assert geo.n_scatterers == 100  # 7 far + 3 near clusters of 10

    def test_zero_speed_gives_zero_doppler(self):
        p = replace(WIDE_AREA, n_tx=2, n_rx=2, speed_range=(0.0, 0.0), accel_range=(0.0, 0.0))
        geo = sample_geometry(3, p)
        paths = path_params(geo, np.ones(geo.n_scatterers))
        np.testing.assert_allclose(paths.dopplers, 0.0, atol=1e-12)

    def test_antenna_spacing_default(self):
        p = replace(WIDE_AREA, n_tx=2, n_rx=1, fc=5e9)
        geo = sample_geometry(5, p)
        spacing = np.linalg.norm(geo.tx_pos[1] - geo.tx_pos[0])
        assert spacing == pytest.approx(C_LIGHT / 1e10)


class TestPathParams:
    def make_geo(self, scat, v_t=None, v_r=None, tx=None, rx=None, fc=5e9):
        scat = np.atleast_2d(scat)
        P = len(scat)
        return ScattererGeometry(
            tx_pos=np.atleast_2d(tx if tx is not None else [0.0, 0.0]),
            rx_pos=np.atleast_2d(rx if rx is not None else [0.0, 0.0]),
            scat_pos=scat,
            v_t=np.zeros((P, 2)) if v_t is None else np.atleast_2d(v_t),
            v_r=np.zeros((P, 2)) if v_r is None else np.atleast_2d(v_r),
            acc=np.zeros((P, 2)),
            fc=fc,
        )

    def test_roundtrip_delay(self):
        geo = self.make_geo([150.0, 0.0])
        paths = path_params(geo, np.ones(1))
        assert paths.delays[0, 0] == pytest.approx(300.0 / C_LIGHT)
        assert paths.delays[0, 0] == pytest.approx(1.0007e-6, rel=1e-4)

    def test_radial_velocity_doppler(self):
        # scatterer closing on the antenna at 50 m/s along the path
        geo = self.make_geo([100.0, 0.0], v_t=[-50.0, 0.0], v_r=[-50.0, 0.0])
        paths = path_params(geo, np.ones(1))
        nu_t = 5e9 * 50.0 / C_LIGHT
        assert nu_t == pytest.approx(833.9, abs=0.05)
        # transmit leg + receive leg at the shifted carrier
        expect = nu_t + (5e9 + nu_t) * 50.0 / C_LIGHT
        assert paths.dopplers[0, 0] == pytest.approx(expect, rel=1e-12)

    def test_transverse_velocity_zero_doppler(self):
        geo = self.make_geo([100.0, 0.0], v_t=[0.0, 30.0], v_r=[0.0, 30.0])
        paths = path_params(geo, np.ones(1))
        assert paths.dopplers[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_path_length_rejected(self):
        geo = self.make_geo([0.0, 0.0])
        from mgcs.errors import DomainError

        with pytest.raises(DomainError):
            path_params(geo, np.ones(1))


class TestCrossChannelBounds:
    def test_half_wavelength_delay_bound(self):
        p = replace(WIDE_AREA, n_tx=2, n_rx=2, fc=5e9, per_cluster=1,
                    n_far_clusters=1, n_near_clusters=0)
        geo = sample_geometry(1, p)
        tau_b, _ = cross_channel_bounds(geo)
        d = C_LIGHT / 1e10
        assert tau_b == pytest.approx(2 * d / C_LIGHT)
        assert tau_b == pytest.approx(2.0e-10, rel=1e-3)

    def test_siso_bounds_vanish(self):
        geo = sample_geometry(2, replace(WIDE_AREA, n_tx=1, n_rx=1, per_cluster=2,
                                         n_far_clusters=1, n_near_clusters=1))
        assert cross_channel_bounds(geo) == (0.0, 0.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_bounds_dominate_actual_differences(self, seed):
        p = replace(WIDE_AREA, n_tx=2, n_rx=2, per_cluster=2, n_far_clusters=2,
                    n_near_clusters=1, block_duration=2.56e-4)
        geo = sample_geometry(seed, p)
        paths = path_params(geo, np.ones(geo.n_scatterers))
        tau_b, nu_b = cross_channel_bounds(geo)
        dtau = paths.delays.max(axis=1) - paths.delays.min(axis=1)
        dnu = paths.dopplers.max(axis=1) - paths.dopplers.min(axis=1)
        assert dtau.max() <= tau_b * (1 + 1e-12)
        assert dnu.max() <= nu_b * (1 + 1e-9)


class TestSpreadingModel:
    def test_no_paths(self):
        cfg = tiny_cfg()
        paths = PathSet(
            gains=np.zeros((0, 1), dtype=complex),
            delays=np.zeros((0, 1)),
            dopplers=np.zeros((0, 1)),
        )
        S = spreading_model(paths, cfg, KRON)
        assert np.all(S == 0)

    def test_single_on_grid_path_magnitude(self):
        cfg = tiny_cfg()
        m0, i0 = 1, 3
        nu = i0 / (cfg.Ts * cfg.l_r)
        paths = single_path(m0 * cfg.Ts, nu, gain=0.7 - 0.2j)
        S = spreading_model(paths, cfg, KRON)[0]
        assert abs(S[m0, i0]) == pytest.approx(abs(0.7 - 0.2j))
        mask = np.ones_like(S, dtype=bool)
        mask[m0, i0] = False
        np.testing.assert_allclose(np.abs(S[mask]), 0.0, atol=1e-10)

    @pytest.mark.parametrize(
        "filters", [KRON, FilterSpec(kind="rrc", span=8), FilterSpec(kind="rrc")]
    )
    def test_matches_dft_of_impulse_response(self, filters):
        cfg = tiny_cfg()
        rng = np.random.default_rng(8)
        if filters.kind == "kronecker":
            taus = rng.integers(0, 4, size=3) * cfg.Ts
        else:
            taus = rng.uniform(0, 3, size=3) * cfg.Ts
        nus = rng.uniform(-1, 1, size=3) / (cfg.Ts * cfg.l_r)  # off-grid Doppler
        gains = rng.normal(size=3) + 1j * rng.normal(size=3)
        paths = PathSet(gains=gains[:, None], delays=taus[:, None], dopplers=nus[:, None])
        H = dense_ir(discrete_ir(paths, filters, cfg))
        S_def = np.fft.fft(H[:, :, 0, 0], axis=0).T / cfg.l_r  # (m, i)
        S_mod = spreading_model(paths, cfg, filters)[0]
        np.testing.assert_allclose(S_mod, S_def, atol=1e-8 * np.abs(S_def).max())

    def test_period_in_doppler(self):
        cfg = tiny_cfg()
        paths = single_path(1 * cfg.Ts, 0.3 / (cfg.Ts * cfg.l_r))
        l_r = cfg.l_r
        nu, tau = paths.dopplers[0, 0], paths.delays[0, 0]

        def model_at(i):
            phi = phi_kernel(KRON, np.array([1 - tau / cfg.Ts]), nu * cfg.Ts)[0]
            psi = psi_kernel(np.array([i - nu * cfg.Ts * l_r]), l_r)[0]
            return np.exp(1j * np.pi * (nu * cfg.Ts - i / l_r) * (l_r - 1)) * phi * psi

        for i in (0, 3, 7):
            assert model_at(i + l_r) == pytest.approx(model_at(i), rel=1e-10)


class TestDiscreteIr:
    def test_static_on_grid_path(self):
        cfg = tiny_cfg()
        paths = single_path(2 * cfg.Ts, 0.0, gain=1.5)
        H = dense_ir(discrete_ir(paths, KRON, cfg))
        np.testing.assert_allclose(H[:, 2, 0, 0], 1.5)
        H_other = np.delete(H[:, :, 0, 0], 2, axis=1)
        np.testing.assert_allclose(H_other, 0.0, atol=1e-12)

    def test_time_invariance_at_zero_doppler(self):
        cfg = tiny_cfg()
        paths = single_path(1 * cfg.Ts, 0.0)
        H = dense_ir(discrete_ir(paths, KRON, cfg))
        np.testing.assert_allclose(H, np.broadcast_to(H[0], H.shape), atol=1e-12)

    def test_path_channels_must_match_the_system(self):
        with pytest.raises(DomainError):
            discrete_ir(single_path(1 * tiny_cfg().Ts, 0.0), KRON, tiny_cfg(n_tx=2))

    def test_delay_clipping_warns(self):
        cfg = tiny_cfg()
        paths = single_path(100 * cfg.Ts, 0.0)
        with pytest.warns(UserWarning):
            discrete_ir(paths, KRON, cfg)  # 100 samples past K - 1 = 7


class TestDftCoeffs:
    def test_zero_spreading(self):
        cfg = tiny_cfg()
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        S = np.zeros((1, cfg.K, cfg.l_r), dtype=complex)
        F = dft_coeffs(S, pulses, cfg)
        assert np.all(F == 0)

    def test_reconstruction_matches_effective_coeffs(self):
        # time-invariant on-grid channel: rebuild H_{l,k} from the rectangle
        # coefficients and compare with the modem-level oracle
        cfg = tiny_cfg(K=8, N=10, L=4, D=4, J=4)
        pulses = cp_ofdm_pulses(cfg.K, cfg.N)
        rng = np.random.default_rng(9)
        taus = np.array([0, 1]) * cfg.Ts
        gains = rng.normal(size=2) + 1j * rng.normal(size=2)
        paths = PathSet(gains=gains[:, None], delays=taus[:, None],
                        dopplers=np.zeros((2, 1)))
        S = spreading_model(paths, cfg, KRON)
        F = dft_coeffs(S, pulses, cfg)[:, :, 0]
        k = np.arange(cfg.K)[:, None]
        l = np.arange(cfg.L)[:, None]
        m = np.arange(cfg.D)[None, :]
        i = np.arange(-cfg.J // 2, cfg.J // 2)[None, :]
        H_rebuilt = np.einsum(
            "km,li,mi->lk",
            np.exp(-2j * np.pi * k * m / cfg.K),
            np.exp(2j * np.pi * l * i / cfg.L),
            F,
        )
        H_truth = effective_coeffs(discrete_ir(paths, KRON, cfg), pulses, cfg)[:, :, 0, 0]
        np.testing.assert_allclose(
            H_rebuilt, H_truth, atol=1e-6 * np.abs(H_truth).max()
        )


class TestSparsityBudget:
    def test_figure_worked_example(self):
        tiling = make_block_tiling(D=8, J=8, dm=1, di=2)
        cfg = tiny_cfg(K=8, D=8, J=8, L=8, N=8)
        n_tilde, _, s_single, _ = sparsity_budget(2, 4, 0.0, 0.0, tiling, 5, cfg)
        assert n_tilde == 9
        assert s_single == 45

    def test_siso_collapse(self):
        tiling = make_block_tiling(D=8, J=8, dm=1, di=2)
        cfg = tiny_cfg(K=8, D=8, J=8, L=8, N=8)
        n_tilde, n_joint, s_single, s_joint = sparsity_budget(2, 4, 0.0, 0.0, tiling, 3, cfg)
        assert n_tilde == n_joint and s_single == s_joint

    def test_unit_widths(self):
        tiling = make_block_tiling(D=8, J=8, dm=1, di=1)
        cfg = tiny_cfg(K=8, D=8, J=8, L=8, N=8)
        n_tilde, _, _, _ = sparsity_budget(1, 1, 0.0, 0.0, tiling, 1, cfg)
        assert n_tilde == 4


def test_normalized_difference_inequality():
    """Normalized-difference inequality on random nonzero complex pairs."""
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = rng.integers(2, 65)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs = np.linalg.norm(a / np.linalg.norm(a) - b / np.linalg.norm(b))
        rhs = np.linalg.norm(a - b) / min(np.linalg.norm(a), np.linalg.norm(b))
        assert lhs <= rhs + 1e-12


def test_effective_support_widths_sane():
    cfg = tiny_cfg(K=16, N=20, L=8, D=8, J=4)
    dm, di = effective_support_widths(FilterSpec(kind="rrc"), cfg)
    assert 1 <= dm <= 8
    assert 1 <= di <= cfg.J
    dm_k, _ = effective_support_widths(KRON, cfg)
    assert dm_k == 1


def test_joint_support_overlap_budget():
    """The 99%-energy block supports of all component channels are jointly
    contained in the sparsity budget's block count, over 50 seeds."""
    from mgcs.waveform import cp_ofdm_pulses

    cfg = SystemConfig(K=16, N=20, L=8, D=8, J=8, n_tx=2, n_rx=2, f0=40e9, Ts=2e-7)
    pulses = cp_ofdm_pulses(cfg.K, cfg.N)
    filters = FilterSpec(kind="rrc", span=8)
    tiling = make_block_tiling(cfg.D, cfg.J, 1, 2)
    dm_eff, di_eff = effective_support_widths(filters, cfg)
    params = GeometryParams(
        n_tx=2, n_rx=2, fc=cfg.f0, n_far_clusters=1, n_near_clusters=1,
        per_cluster=2, area=(400.0, 200.0), near_radius=40.0,
        link_distance=300.0, cluster_radius=15.0, speed_range=(0.0, 50.0),
        accel_range=(0.0, 7.0), min_range=5.0, block_duration=cfg.l_r * cfg.Ts,
    )
    n_paths = 4
    for seed in range(50):
        geo = sample_geometry(seed, params)
        paths = path_params(geo, np.ones(geo.n_scatterers)).shifted()
        tau_b, nu_b = cross_channel_bounds(geo)
        _, n_joint, _, s_joint = sparsity_budget(
            dm_eff, di_eff, tau_b, nu_b, tiling, n_paths, cfg
        )
        F = dft_coeffs(spreading_model(paths, cfg, filters), pulses, cfg)
        union = set()
        for xi in range(cfg.n_channels):
            energies = (
                np.abs(F[:, :, xi]) ** 2
            ).reshape(cfg.D, cfg.J // 2, 2).sum(axis=2).reshape(-1)
            order = np.argsort(-energies)
            total = energies.sum()
            acc, picked = 0.0, []
            for b in order:
                picked.append(int(b))
                acc += energies[b]
                if acc >= 0.99 * total:
                    break
            union.update(picked)
        assert len(union) <= min(s_joint, tiling.n_blocks)
