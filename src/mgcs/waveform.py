"""Pulse-shaping multicarrier modem in discrete time.

Covers the modulator/demodulator pair, CP-OFDM pulse construction, the
cross-ambiguity function of the pulse pair, application of a discrete
time-varying channel, and the per-symbol channel coefficient matrices of the
diagonal (ISI/ICI-free) system model.
"""

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
    delay support D | K, Doppler support J | L (even).  ``l_gamma`` is the
    receive-pulse support end; it defaults to N-1, which is exact for CP-OFDM
    and gives the block length L_r = L*N.
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
    l_gamma: int = None

    def __post_init__(self):
        if self.N < self.K:
            raise ConfigurationError("symbol duration N must be >= K")
        if self.L % 2 or self.J % 2:
            raise ConfigurationError("L and J must be even")
        if self.K % self.D:
            raise ConfigurationError("D must divide K")
        if self.L % self.J:
            raise ConfigurationError("J must divide L")
        if self.l_gamma is None:
            object.__setattr__(self, "l_gamma", self.N - 1)

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


def demodulate(r, pulses, cfg):
    """Project the received signal onto the receive pulse grid.

    y_{l,k} = sum_n r[n] conj(gamma[n - l N]) exp(-j 2 pi (k/K) (n - l N)).
    Returns an (L, K, n_rx) array.
    """
    r = np.asarray(r, dtype=complex)
    if r.ndim == 1:
        r = r[:, None]
    if r.shape[0] < cfg.l_r:
        raise DomainError(f"received signal must cover {cfg.l_r} samples")
    lg1 = pulses.l_gamma + 1
    npr = np.arange(lg1)
    folded_bins = npr % cfg.K
    y = np.zeros((cfg.L, cfg.K, r.shape[1]), dtype=complex)
    for l in range(cfg.L):
        w = r[l * cfg.N: l * cfg.N + lg1] * np.conj(pulses.gamma)[:, None]
        wf = np.zeros((cfg.K, r.shape[1]), dtype=complex)
        np.add.at(wf, folded_bins, w)
        y[l] = np.fft.fft(wf, axis=0)
    return y


def cross_ambiguity(pulses, m, xi):
    """Cross-ambiguity A_{gamma,g}(m, xi) = sum_n gamma[n] conj(g[n-m]) e^{-j2pi xi n}."""
    n = np.arange(pulses.l_gamma + 1)
    gm = np.zeros_like(n, dtype=complex)
    idx = n - m
    valid = (idx >= 0) & (idx < len(pulses.g))
    gm[valid] = pulses.g[idx[valid]]
    return complex(np.sum(pulses.gamma * np.conj(gm) * np.exp(-2j * np.pi * xi * n)))


def ambiguity_table(pulses, m_values, xi_values):
    """Vectorized A_{gamma,g} over delay and normalized-frequency grids."""
    n = np.arange(pulses.l_gamma + 1)
    phases = np.exp(-2j * np.pi * np.outer(np.asarray(xi_values, dtype=float), n))
    out = np.empty((len(m_values), len(xi_values)), dtype=complex)
    for a, m in enumerate(m_values):
        idx = n - m
        valid = (idx >= 0) & (idx < len(pulses.g))
        w = np.zeros_like(n, dtype=complex)
        w[valid] = np.conj(pulses.g[idx[valid]])
        out[a] = phases @ (pulses.gamma * w)
    return out


def apply_discrete_channel(H, s, noise=None):
    """Pass the signal through a discrete time-varying channel.

    H has shape (L_r, m_len, n_rx, n_tx); s has shape (len_s, n_tx).  Returns
    r[n] = sum_m H[n, m] s[n-m] + z[n] on {0..L_r-1}, with s treated as zero
    outside its support.
    """
    H = np.asarray(H)
    s = np.asarray(s, dtype=complex)
    if s.ndim == 1:
        s = s[:, None]
    l_r, m_len = H.shape[0], H.shape[1]
    r = np.zeros((l_r, H.shape[2]), dtype=complex)
    for m in range(m_len):
        hi = min(l_r, len(s) + m)
        if hi <= m:
            continue
        # r[n] += H[n, m] @ s[n - m] for n in [m, hi)
        r[m:hi] += np.einsum("nrt,nt->nr", H[m:hi, m], s[: hi - m])
    if noise is not None:
        r = r + np.asarray(noise, dtype=complex)
    return r


def identity_channel(cfg):
    """H[n, m] = delta[m] I, the ISI-free unit channel."""
    H = np.zeros((cfg.l_r, 1, cfg.n_rx, cfg.n_tx), dtype=complex)
    H[:, 0] = np.eye(cfg.n_rx, cfg.n_tx)
    return H


def effective_coeffs(H, pulses, cfg):
    """Per-symbol channel coefficient matrices of the diagonal model.

    H_{l,k} = sum_n sum_m H[n, m] g_{l,k}[n - m] conj(gamma_{l,k}[n]); an
    identity channel yields conj(A(0,0)) * I for every (l, k).  Returns an
    (L, K, n_rx, n_tx) array.
    """
    H = np.asarray(H)
    l_r, m_len = H.shape[0], H.shape[1]
    if l_r < cfg.l_r:
        raise DomainError("impulse response shorter than the receive window")
    lg1 = pulses.l_gamma + 1
    npr = np.arange(lg1)
    # weights w[n', m] = g[n' - m] conj(gamma[n']); modulation phases reduce to
    # exp(-j 2 pi k m / K), so H_{l,k} is the K-point DFT over m of
    # W_l[m] = sum_{n'} H[lN + n', m] w[n', m].
    w = np.zeros((lg1, m_len), dtype=complex)
    for m in range(m_len):
        idx = npr - m
        valid = (idx >= 0) & (idx < len(pulses.g))
        w[valid, m] = pulses.g[idx[valid]]
    w *= np.conj(pulses.gamma)[:, None]
    out = np.empty((cfg.L, cfg.K, H.shape[2], H.shape[3]), dtype=complex)
    for l in range(cfg.L):
        Wl = np.einsum("nmrt,nm->mrt", H[l * cfg.N: l * cfg.N + lg1], w)
        Wk = np.zeros((cfg.K,) + Wl.shape[1:], dtype=complex)
        np.add.at(Wk, np.arange(m_len) % cfg.K, Wl)
        out[l] = np.fft.fft(Wk, axis=0)
    return out
