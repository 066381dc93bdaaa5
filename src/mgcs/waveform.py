"""Pulse-shaping multicarrier modem in discrete time.

Covers the modulator/demodulator pair, CP-OFDM pulse construction, the
cross-ambiguity function of the pulse pair, the factored discrete
time-varying channel of a sum of specular paths and its application, and the
per-symbol channel coefficient matrices of the diagonal (ISI/ICI-free) system
model.  The coefficient matrices and the ambiguity table on the fundamental
rectangle share one pulse window, g[n - m] conj(gamma[n]) and its conjugate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class PulsePair:
    """Transmit pulse g on {0..len(g)-1} and receive pulse gamma on {0..L_gamma}."""

    g: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g", np.asarray(self.g, dtype=complex))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=complex))

    @property
    def l_gamma(self):
        return len(self.gamma) - 1


@dataclass(frozen=True)
class SystemConfig:
    """Multicarrier system dimensions and physical parameters.

    K subcarriers, symbol duration N >= K, L symbols per block (even),
    delay support D | K, Doppler support J | L (even).  The receive-pulse
    support end ``l_gamma`` is derived as N-1, exact for CP-OFDM, which gives
    the block length L_r = L*N.
    """

    K: int
    N: int
    L: int
    D: int
    J: int
    n_tx: int = 1
    n_rx: int = 1
    f0: float = 5e9
    Ts: float = 2e-7

    def __post_init__(self):
        for name in ("K", "N", "L", "D", "J", "n_tx", "n_rx"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1")
        if not self.Ts > 0:
            raise ConfigurationError("sample period Ts must be positive")
        if not self.f0 > 0:
            raise ConfigurationError("carrier frequency f0 must be positive")
        if self.N < self.K:
            raise ConfigurationError("symbol duration N must be >= K")
        if self.L % 2 or self.J % 2:
            raise ConfigurationError("L and J must be even")
        if self.K % self.D:
            raise ConfigurationError("D must divide K")
        if self.L % self.J:
            raise ConfigurationError("J must divide L")

    @property
    def l_gamma(self):
        return self.N - 1

    @property
    def delta_k(self):
        return self.K // self.D

    @property
    def delta_l(self):
        return self.L // self.J

    @property
    def l_r(self):
        return (self.L - 1) * self.N + self.l_gamma + 1

    @property
    def doppler_grid(self):
        """(J, N) frequencies i + q L (over L_r) of the fundamental rectangle."""
        return np.arange(-self.J // 2, self.J // 2)[:, None] + self.L * np.arange(self.N)

    @property
    def jd(self):
        return self.J * self.D

    @property
    def n_channels(self):
        return self.n_rx * self.n_tx


def cp_ofdm_pulses(K, N):
    """Rectangular CP-OFDM pulse pair: g = 1 on {0..N-1}, gamma = 1 on {N-K..N-1}."""
    if N < K:
        raise ConfigurationError("CP-OFDM requires N >= K")
    g = np.ones(N)
    gamma = np.zeros(N)
    gamma[N - K:] = 1.0
    return PulsePair(g=g, gamma=gamma)


def modulate(symbols, pulses, cfg):
    """Synthesize the transmit signal from the (L, K, n_tx) symbol grid.

    s[n] = sum_{l,k} a_{l,k} g[n - l N] exp(j 2 pi (k/K) (n - l N)).
    Returns an ((L-1)*N + len(g), n_tx) array.
    """
    a = np.asarray(symbols, dtype=complex)
    if a.shape != (cfg.L, cfg.K, cfg.n_tx):
        raise DomainError(f"symbol grid must have shape {(cfg.L, cfg.K, cfg.n_tx)}")
    lg = len(pulses.g)
    n_out = (cfg.L - 1) * cfg.N + lg
    s = np.zeros((n_out, cfg.n_tx), dtype=complex)
    # per symbol: K * ifft over k gives the complex exponential sum at n' mod K
    base = cfg.K * np.fft.ifft(a, axis=1)  # (L, K, n_tx)
    npr = np.arange(lg)
    phase_idx = npr % cfg.K
    for l in range(cfg.L):
        s[l * cfg.N: l * cfg.N + lg] += pulses.g[:, None] * base[l, phase_idx]
    return s


def _folded_dft(x, K):
    """K-point DFT over the last axis after folding it modulo K.

    out[..., k] = sum_n x[..., n] exp(-j 2 pi k n / K); the axis is zero-padded
    to a multiple of K and summed over its K-sample segments first.
    """
    if x.shape[-1] > K:
        pad = np.zeros(x.shape[:-1] + (-x.shape[-1] % K,), dtype=x.dtype)
        x = np.concatenate([x, pad], axis=-1).reshape(x.shape[:-1] + (-1, K)).sum(axis=-2)
    return np.fft.fft(x, K, axis=-1)


def demodulate(r, pulses, cfg):
    """Project the received signal onto the receive pulse grid.

    y_{l,k} = sum_n r[n] conj(gamma[n - l N]) exp(-j 2 pi (k/K) (n - l N)):
    one strided (L, n_rx, L_gamma + 1) window of r times conj(gamma), folded
    modulo K and transformed for all symbols at once.  Returns an
    (L, K, n_rx) array.
    """
    r = np.asarray(r, dtype=complex)
    if r.ndim == 1:
        r = r[:, None]
    if r.shape[0] < cfg.l_r:
        raise DomainError(f"received signal must cover {cfg.l_r} samples")
    windows = np.lib.stride_tricks.sliding_window_view(
        r[: cfg.l_r], pulses.l_gamma + 1, axis=0)[:: cfg.N]  # (L, n_rx, L_gamma + 1)
    return np.moveaxis(_folded_dft(windows * np.conj(pulses.gamma), cfg.K), -1, 1)


def cross_ambiguity(pulses, m, xi):
    """Cross-ambiguity A_{gamma,g}(m, xi) = sum_n gamma[n] conj(g[n-m]) e^{-j2pi xi n}."""
    n = np.arange(pulses.l_gamma + 1)
    gm = np.zeros_like(n, dtype=complex)
    idx = n - m
    valid = (idx >= 0) & (idx < len(pulses.g))
    gm[valid] = pulses.g[idx[valid]]
    return complex(np.sum(pulses.gamma * np.conj(gm) * np.exp(-2j * np.pi * xi * n)))


def _pulse_window(pulses, m_len):
    """(L_gamma + 1, m_len) window w[n, m] = g[n - m] conj(gamma[n]), 0 off g's support."""
    lg1 = pulses.l_gamma + 1
    idx = np.arange(lg1)[:, None] - np.arange(m_len)[None, :]
    valid = (idx >= 0) & (idx < len(pulses.g))
    w = np.where(valid, pulses.g[np.clip(idx, 0, len(pulses.g) - 1)], 0)
    w *= np.conj(pulses.gamma)[:, None]
    return w


def ambiguity_table(pulses, cfg):
    """(J, D, N) table of A_{gamma,g}(m, (i + q L) / L_r) for delays m < D,
    indexed [i + J/2, m, q] as the ``doppler_grid``.  As L_r = L N, it is J D
    N-point DFTs (folded modulo N) of the conjugate windows
    gamma[n] conj(g[n - m]), each modulated by exp(-j 2 pi i n / L_r)."""
    n = np.arange(pulses.l_gamma + 1)
    doppler = np.exp(-2j * np.pi * np.outer(np.arange(-cfg.J // 2, cfg.J // 2), n) / cfg.l_r)
    return _folded_dft(doppler[:, None, :] * np.conj(_pulse_window(pulses, cfg.D)).T, cfg.N)


@dataclass(frozen=True)
class FactoredIR:
    """Discrete time-varying impulse response of a sum of specular paths.

    H[n, m, r, s] = sum_p gains[xi, p] exp(j 2 pi nu_ts[xi, p] n)
    profiles[xi, p, m] on n in {0..l_r-1}, m in {0..m_len-1}, for channel
    xi = r n_tx + s; ``nu_ts`` holds the Dopplers normalized by the sample
    rate.  Each channel has rank at most P, so the channel is applied and
    reduced on these factors; ``np.asarray`` builds the dense
    (l_r, m_len, n_rx, n_tx) array, for tests and oracles.
    """

    gains: np.ndarray  # (n_ch, P)
    nu_ts: np.ndarray  # (n_ch, P)
    profiles: np.ndarray  # (n_ch, P, m_len)
    l_r: int
    n_rx: int
    n_tx: int

    @property
    def m_len(self):
        return self.profiles.shape[2]

    def phases(self, count, step=1):
        """Doppler phases exp(j 2 pi nu_ts n) at the sample indices
        n = 0, step, ..., (count - 1) step: (count, n_ch, P).

        A long range is split as n = (a b + c) step with b about sqrt(count),
        and the phases are the outer products of a coarse table over a and a
        fine table over c: about 2 sqrt(count) exps per path instead of count.
        """
        b = math.isqrt(max(count - 1, 0)) + 1
        if count <= 4 * b:
            return np.exp(2j * np.pi * np.multiply.outer(np.arange(count) * step, self.nu_ts))
        n_coarse = -(-count // b)
        coarse = np.exp(2j * np.pi * np.multiply.outer(np.arange(n_coarse) * (b * step), self.nu_ts))
        fine = np.exp(2j * np.pi * np.multiply.outer(np.arange(b) * step, self.nu_ts))
        table = coarse[:, None] * fine[None, :]  # (n_coarse, b, n_ch, P)
        return table.reshape((n_coarse * b,) + self.nu_ts.shape)[:count]

    def __array__(self, dtype=None, copy=None):
        per_channel = np.moveaxis(self.phases(self.l_r), 0, 1) @ (
            self.gains[..., None] * self.profiles)  # (n_ch, l_r, m_len)
        H = np.moveaxis(per_channel, 0, -1).reshape(self.l_r, self.m_len, self.n_rx, self.n_tx)
        return H if dtype is None else H.astype(dtype)


# window elements multiplied at once in apply_discrete_channel; bounds the copy
_WINDOW_BLOCK = 1 << 18


def apply_discrete_channel(H, s):
    """Pass the signal through a factored time-varying channel.

    H is a :class:`FactoredIR`; s has shape (len_s, n_tx).  Returns
    r[n] = sum_m H[n, m] s[n-m] on {0..L_r-1}, with s treated as zero
    outside its support: per transmit antenna, the (L_r, m_len) Toeplitz
    window of s times that antenna's delay profiles, weighted by each path's
    gain and Doppler phase and summed into its receive antenna.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim == 1:
        s = s[:, None]
    l_r, m_len, n_rx = H.l_r, H.m_len, H.n_rx
    # window row n holds s[n - m_len + 1 .. n], so it meets the reversed profiles
    padded = np.zeros((H.n_tx, m_len - 1 + l_r), dtype=complex)
    n_s = min(len(s), l_r)
    padded[:, m_len - 1: m_len - 1 + n_s] = s[:n_s].T
    windows = np.lib.stride_tricks.sliding_window_view(padded, m_len, axis=1)
    taps = H.profiles[..., ::-1].reshape(n_rx, H.n_tx, -1, m_len)
    weights = (H.gains * H.phases(l_r)).reshape(l_r, n_rx, H.n_tx, -1)
    r = np.zeros((l_r, n_rx), dtype=complex)
    rows = max(1, _WINDOW_BLOCK // m_len)
    for t in range(H.n_tx):
        taps_t = taps[:, t].reshape(-1, m_len).T  # (m_len, n_rx P)
        for lo in range(0, l_r, rows):
            n = slice(lo, lo + rows)
            conv = (np.ascontiguousarray(windows[t, n]) @ taps_t).reshape(-1, n_rx, taps.shape[2])
            r[n] += np.einsum("nrp,nrp->nr", conv, weights[n, :, t])
    return r


def identity_channel(cfg):
    """H[n, m] = delta[m] I, the ISI-free unit channel: one static path per
    channel at delay 0 with a Kronecker profile, gain 1 on the diagonal."""
    n_ch = cfg.n_channels
    return FactoredIR(
        gains=np.eye(cfg.n_rx, cfg.n_tx, dtype=complex).reshape(n_ch, 1),
        nu_ts=np.zeros((n_ch, 1)),
        profiles=np.ones((n_ch, 1, 1), dtype=complex),
        l_r=cfg.l_r, n_rx=cfg.n_rx, n_tx=cfg.n_tx,
    )


def effective_coeffs(H, pulses, cfg):
    """Per-symbol channel coefficient matrices of the diagonal model.

    H_{l,k} = sum_n sum_m H[n, m] g_{l,k}[n - m] conj(gamma_{l,k}[n]); an
    identity channel yields conj(A(0,0)) * I for every (l, k).  H is a
    :class:`FactoredIR`.  With the weights w[n', m] = g[n' - m] conj(gamma[n'])
    each path contributes eta_p exp(j 2 pi nu_p Ts l N) times the K-point DFT
    over m (folded modulo K) of phi_p(m) sum_{n'} exp(j 2 pi nu_p Ts n') w[n', m].
    Returns an (L, K, n_rx, n_tx) array.
    """
    if H.l_r < cfg.l_r:
        raise DomainError("impulse response shorter than the receive window")
    lg1 = pulses.l_gamma + 1
    w = _pulse_window(pulses, H.m_len)
    within = H.phases(lg1).reshape(lg1, -1).T @ w  # (n_ch P, m_len)
    spectra = _folded_dft(H.gains[..., None] * H.profiles * within.reshape(H.profiles.shape), cfg.K)
    symbols = np.moveaxis(H.phases(cfg.L, cfg.N), 0, 1)  # (n_ch, L, P)
    out = symbols @ spectra  # (n_ch, L, K)
    return np.moveaxis(out, 0, -1).reshape(cfg.L, cfg.K, cfg.n_rx, cfg.n_tx)
