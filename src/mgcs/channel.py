"""Geometry-based doubly selective MIMO channel generation.

Specular scatterer geometries, per-channel path parameters (delay, Doppler,
gain), leakage kernels, the discrete time-varying impulse response of the
specular model, and the sparsity-budget arithmetic used to size group-sparse
recovery.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .waveform import FactoredIR

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact in SI


# ---------------------------------------------------------------------------
# leakage kernels


@dataclass(frozen=True)
class FilterSpec:
    """Interpolation/anti-aliasing filter pair defining the delay kernel.

    ``kronecker`` is the idealized on-grid kernel (1 at x = 0, else 0), valid
    only for delays on the sample grid and used for exact tests.  ``rrc`` is a
    root-raised-cosine pair whose correlation is integrated by the trapezoid
    rule on the grid u = k/oversampling, |u| <= span.  The arguments x - u of
    every kernel sample m - offset share the 1/oversampling lattice shifted by
    the offset, so the RRC is evaluated once per lattice point and the
    quadrature is a strided correlation (see :func:`phi_profiles`).
    """

    kind: str = "rrc"
    rolloff: float = 0.25
    oversampling: int = 16
    span: int = 16

    def __post_init__(self):
        if self.kind not in ("kronecker", "rrc"):
            raise DomainError(f"unknown filter kind {self.kind!r}")
        if not 0 < self.rolloff <= 1:
            raise DomainError(f"rolloff must lie in (0, 1], got {self.rolloff}")
        if self.oversampling < 1 or self.span < 1:
            raise DomainError("oversampling and span must be at least 1")


def _rrc_impulse(u, beta):
    """Unit-energy root-raised-cosine impulse response on the normalized axis."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    tiny = 1e-10
    at_zero = np.abs(u) < tiny
    at_pole = np.abs(np.abs(u) - 1.0 / (4 * beta)) < tiny
    regular = ~(at_zero | at_pole)
    ur = u[regular]
    out[regular] = (
        np.sin(np.pi * ur * (1 - beta)) + 4 * beta * ur * np.cos(np.pi * ur * (1 + beta))
    ) / (np.pi * ur * (1 - (4 * beta * ur) ** 2))
    out[at_zero] = 1 - beta + 4 * beta / np.pi
    out[at_pole] = (beta / np.sqrt(2)) * (
        (1 + 2 / np.pi) * np.sin(np.pi / (4 * beta))
        + (1 - 2 / np.pi) * np.cos(np.pi / (4 * beta))
    )
    return out


# lattice values evaluated at once in phi_profiles; bounds its temporaries
_LATTICE_BLOCK = 1 << 18


def phi_profiles(filters, offsets, nu_ts, m_len):
    """Delay leakage kernels phi^(nu_p)(m - offsets[p]) for m = 0..m_len-1.

    ``offsets`` holds one delay per path in samples (tau_p / Ts) and ``nu_ts``
    the Doppler shifts normalized by the sample rate (nu_p * Ts), a scalar or
    one per path.  Returns a (P, m_len) complex array.

    With u_k = k/ovs the trapezoid rule gives
    phi(m - o) = sum_k w_k h(u_k) exp(-j 2 pi nu u_k) h(m - o - u_k); every
    argument m - o - u_k is a point (j/ovs - o) of one shifted lattice, so each
    path needs (m_len - 1 + 2 span) ovs + 1 RRC values and one correlation
    with its (2 span ovs + 1)-tap array, read at stride ovs.
    """
    offsets = np.atleast_1d(np.asarray(offsets, dtype=float))
    nu_ts = np.broadcast_to(np.asarray(nu_ts, dtype=float), offsets.shape)
    if filters.kind == "kronecker":
        hit = np.abs(np.arange(m_len)[None, :] - offsets[:, None]) < 1e-9
        return hit.astype(complex)
    ovs, n_taps = filters.oversampling, 2 * filters.span * filters.oversampling + 1
    u = np.arange(-filters.span * ovs, filters.span * ovs + 1) / ovs
    weights = np.full(n_taps, 1.0 / ovs)
    weights[[0, -1]] *= 0.5
    taps = (weights * _rrc_impulse(u, filters.rolloff))[None, :] * np.exp(
        -2j * np.pi * nu_ts[:, None] * u[None, :]
    )  # (P, n_taps)
    # lattice point j/ovs - o pairs with tap k through j = m ovs - k
    lattice = (np.arange((m_len - 1) * ovs + n_taps) - filters.span * ovs) / ovs
    taps_re = np.ascontiguousarray(taps[:, ::-1].real)
    taps_im = np.ascontiguousarray(taps[:, ::-1].imag)
    out = np.empty((len(offsets), m_len), dtype=complex)
    rows = max(1, _LATTICE_BLOCK // lattice.size)  # paths per block
    for lo in range(0, len(offsets), rows):
        p = slice(lo, lo + rows)
        h = _rrc_impulse(lattice[None, :] - offsets[p, None], filters.rolloff)
        windows = np.lib.stride_tricks.sliding_window_view(h, n_taps, axis=1)[:, ::ovs]
        out.real[p] = np.einsum("pmk,pk->pm", windows, taps_re[p])
        out.imag[p] = np.einsum("pmk,pk->pm", windows, taps_im[p])
    return out


def phi_kernel(filters, x, nu_ts=0.0):
    """Delay leakage kernel phi^(nu) evaluated at offsets ``x`` (in samples).

    ``nu_ts`` is the Doppler shift normalized by the sample rate (nu * Ts).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return phi_profiles(filters, -x, nu_ts, 1)[:, 0]


def psi_kernel(x, l_r, sin_pi_x=None):
    """Doppler leakage kernel sin(pi x) / (L_r sin(pi x / L_r)).

    Continuous Dirichlet-type kernel; equals 1 at x = 0 and vanishes at every
    other integer that is not a multiple of L_r.  ``sin_pi_x`` is sin(pi x)
    when the caller has it in closed form.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    q = np.round(x / l_r)
    at_mult = np.abs(x - q * l_r) < 1e-9
    out = np.empty_like(x)
    xr = x[~at_mult]
    num = np.sin(np.pi * xr) if sin_pi_x is None else sin_pi_x[~at_mult]
    out[~at_mult] = num / (l_r * np.sin(np.pi * xr / l_r))
    out[at_mult] = np.where((q[at_mult] * (l_r - 1)) % 2 == 0, 1.0, -1.0)
    return out


# ---------------------------------------------------------------------------
# geometry and path parameters


@dataclass(frozen=True)
class GeometryParams:
    """Scenario parameters for the specular scatterer simulator; the antenna
    arrays are spaced at half the carrier wavelength, c/(2 fc).
    :func:`~mgcs.harness.desk_geometry` gives the scenario the harness
    simulates."""

    n_tx: int
    n_rx: int
    fc: float
    n_far_clusters: int
    n_near_clusters: int
    per_cluster: int
    area: tuple
    near_radius: float
    link_distance: float
    cluster_radius: float
    speed_range: tuple
    accel_range: tuple
    min_range: float
    block_duration: float  # for the midpoint-velocity rule


@dataclass(frozen=True)
class ScattererGeometry:
    """Sampled antenna/scatterer layout with per-scatterer relative velocities.

    ``v_t``/``v_r`` are the velocities of each scatterer relative to the
    transmitter/receiver, already midpoint-adjusted over the block when the
    scenario carries accelerations.
    """

    tx_pos: np.ndarray
    rx_pos: np.ndarray
    scat_pos: np.ndarray
    v_t: np.ndarray
    v_r: np.ndarray
    acc: np.ndarray
    fc: float

    @property
    def n_scatterers(self):
        return len(self.scat_pos)


def _array_positions(center, n, spacing):
    offsets = (np.arange(n) - (n - 1) / 2.0) * spacing
    pos = np.tile(np.asarray(center, dtype=float), (n, 1))
    pos[:, 1] += offsets
    return pos


def sample_geometry(seed, p):
    """Draw a deterministic scatterer geometry of the scenario ``p``
    (:class:`GeometryParams`) for the given seed.

    Far clusters are placed uniformly in a rectangle centered on the link,
    near clusters within a circle around the receiver; each cluster shares a
    speed, heading and acceleration drawn uniformly from the configured
    ranges, as does the receiver (the transmitter is static).  Both antenna
    arrays lie along the y axis, spaced at half the carrier wavelength
    c/(2 fc).
    """
    rng = np.random.default_rng(seed)
    spacing = SPEED_OF_LIGHT / (2 * p.fc)
    tx_center = np.array([0.0, 0.0])
    rx_center = np.array([p.link_distance, 0.0])
    tx_pos = _array_positions(tx_center, p.n_tx, spacing)
    rx_pos = _array_positions(rx_center, p.n_rx, spacing)

    def draw_motion():
        speed = rng.uniform(*p.speed_range)
        ang = rng.uniform(0.0, 2 * np.pi)
        vel = speed * np.array([np.cos(ang), np.sin(ang)])
        amag = rng.uniform(*p.accel_range)
        aang = rng.uniform(0.0, 2 * np.pi)
        acc = amag * np.array([np.cos(aang), np.sin(aang)])
        return vel, acc

    v_rx, a_rx = draw_motion()

    centers = []
    for _ in range(p.n_far_clusters):
        mid = (tx_center + rx_center) / 2
        cx = rng.uniform(mid[0] - p.area[0] / 2, mid[0] + p.area[0] / 2)
        cy = rng.uniform(mid[1] - p.area[1] / 2, mid[1] + p.area[1] / 2)
        centers.append(np.array([cx, cy]))
    for _ in range(p.n_near_clusters):
        ang = rng.uniform(0.0, 2 * np.pi)
        rad = p.near_radius * np.sqrt(rng.uniform(0.0, 1.0))
        centers.append(rx_center + rad * np.array([np.cos(ang), np.sin(ang)]))

    scat, vels, accs = [], [], []
    for center in centers:
        v_cl, a_cl = draw_motion()
        for _ in range(p.per_cluster):
            ang = rng.uniform(0.0, 2 * np.pi)
            rad = p.cluster_radius * np.sqrt(rng.uniform(0.0, 1.0))
            pos = center + rad * np.array([np.cos(ang), np.sin(ang)])
            for ref in (tx_center, rx_center):
                d = pos - ref
                dist = np.linalg.norm(d)
                if dist < p.min_range:
                    pos = ref + d * (p.min_range / max(dist, 1e-6))
            scat.append(pos)
            vels.append(v_cl)
            accs.append(a_cl)
    scat = np.array(scat)
    vels = np.array(vels)
    accs = np.array(accs)

    # velocity frozen per block at its midpoint value
    half = p.block_duration / 2.0
    v_eff = vels + accs * half
    v_rx_eff = v_rx + a_rx * half
    return ScattererGeometry(
        tx_pos=tx_pos,
        rx_pos=rx_pos,
        scat_pos=scat,
        v_t=v_eff,
        v_r=v_eff - v_rx_eff,
        acc=accs,
        fc=p.fc,
    )


@dataclass(frozen=True)
class PathSet:
    """Per-scatterer, per-channel path parameters.

    Arrays have shape (P, n_channels) with channels ordered row-major over
    (r, s).  Delays in seconds, Dopplers in Hz.
    """

    gains: np.ndarray
    delays: np.ndarray
    dopplers: np.ndarray

    @property
    def n_paths(self):
        return self.gains.shape[0]

    @property
    def n_channels(self):
        return self.gains.shape[1]

    def shifted(self):
        """Delays re-referenced to the earliest arrival across paths and
        channels (receiver synchronization)."""
        tau0 = float(self.delays.min())
        return PathSet(gains=self.gains, delays=self.delays - tau0, dopplers=self.dopplers)


def _leg_vectors(antennas, scatterers):
    """Vectors from each scatterer to each antenna and their lengths."""
    diff = antennas[None, :, :] - scatterers[:, None, :]  # (P, n_ant, 2)
    dist = np.linalg.norm(diff, axis=2)
    if np.any(dist <= 0):
        raise DomainError("scatterer coincides with an antenna")
    return diff, dist


def path_params(geo, gains):
    """Delays, Dopplers and complex gains of every scatterer path per channel.

    tau = (w_T + w_R)/c; the transmit-side Doppler uses the carrier, the
    receive side the transmit-side shifted carrier f1 = fc + nu_T.  ``gains``
    holds one complex base gain per scatterer; the per-channel gain applies a
    two-leg distance decay, relative to the geometric mean of the first
    channel's leg products, and the carrier phase exp(-j2 pi fc tau).
    """
    gains = np.asarray(gains, dtype=complex)
    wt_vec, wt = _leg_vectors(geo.tx_pos, geo.scat_pos)  # (P, n_tx, 2)
    wr_vec, wr = _leg_vectors(geo.rx_pos, geo.scat_pos)  # (P, n_rx, 2)
    fc = geo.fc
    nu_t = (fc / SPEED_OF_LIGHT) * np.einsum("pd,psd->ps", geo.v_t, wt_vec) / wt
    proj_r = np.einsum("pd,prd->pr", geo.v_r, wr_vec) / wr  # (P, n_rx)

    P = geo.n_scatterers
    n_rx, n_tx = len(geo.rx_pos), len(geo.tx_pos)
    delays = np.empty((P, n_rx * n_tx))
    dopplers = np.empty((P, n_rx * n_tx))
    amp = np.empty((P, n_rx * n_tx), dtype=complex)
    ref = np.exp(np.mean(np.log(wt[:, 0] * wr[:, 0])))
    for r in range(n_rx):
        for s in range(n_tx):
            xi = r * n_tx + s
            delays[:, xi] = (wt[:, s] + wr[:, r]) / SPEED_OF_LIGHT
            f1 = fc + nu_t[:, s]
            dopplers[:, xi] = nu_t[:, s] + (f1 / SPEED_OF_LIGHT) * proj_r[:, r]
            a = gains * ref / (wt[:, s] * wr[:, r])
            amp[:, xi] = a * np.exp(-2j * np.pi * fc * delays[:, xi])
    return PathSet(gains=amp, delays=delays, dopplers=dopplers)


def cross_channel_bounds(geo):
    """Worst-case cross-channel delay and Doppler differences (tau_B, nu_B).

    tau_B = (d_T + d_R)/c with d_T, d_R the maximum intra-array antenna
    distances; nu_B maximizes the two-leg Doppler difference bound over
    scatterers, using the largest transmit-shifted carrier.
    """

    def max_pairwise(pos):
        if len(pos) < 2:
            return 0.0
        diff = pos[:, None, :] - pos[None, :, :]
        return float(np.linalg.norm(diff, axis=2).max())

    d_t = max_pairwise(geo.tx_pos)
    d_r = max_pairwise(geo.rx_pos)
    tau_b = (d_t + d_r) / SPEED_OF_LIGHT
    if geo.n_scatterers == 0 or (d_t == 0.0 and d_r == 0.0):
        return tau_b, 0.0
    wt_vec, wt = _leg_vectors(geo.tx_pos, geo.scat_pos)
    _, wr = _leg_vectors(geo.rx_pos, geo.scat_pos)
    fc = geo.fc
    v_t = np.linalg.norm(geo.v_t, axis=1)
    v_r = np.linalg.norm(geo.v_r, axis=1)
    nu_t = (fc / SPEED_OF_LIGHT) * np.einsum("pd,psd->ps", geo.v_t, wt_vec) / wt
    f1 = fc + np.maximum(nu_t.max(axis=1), 0.0)
    nu_b_p = (fc * v_t * d_t / wt.min(axis=1) + f1 * v_r * d_r / wr.min(axis=1)) / SPEED_OF_LIGHT
    return tau_b, float(nu_b_p.max())


# ---------------------------------------------------------------------------
# discrete impulse response


def discrete_ir(paths, filters, cfg):
    """Discrete time-varying impulse response of the specular model.

    H[n, m] = sum_p eta_p phi^(nu_p)(m - tau_p/Ts) exp(j 2 pi nu_p Ts n) per
    channel, returned factored as a :class:`~mgcs.waveform.FactoredIR`: the
    gains, normalized Dopplers and delay profiles of all n_ch P channel-major
    paths, the profiles from one :func:`phi_profiles` call.  The package
    never builds the dense (L_r, K, n_rx, n_tx) array.
    A path whose delay falls outside the K-tap delay axis raises a warning but
    is kept: only the part of its kernel past the last delay tap is dropped.
    """
    if paths.n_channels != cfg.n_channels:
        raise DomainError(
            f"path set has {paths.n_channels} channels, the system {cfg.n_channels}")
    max_x = paths.delays.max() / cfg.Ts
    if max_x > cfg.K - 1:
        warnings.warn(
            f"path delay {max_x:.2f} samples exceeds the delay axis ({cfg.K - 1}); "
            "its kernel past the axis is dropped"
        )
    nu_ts = paths.dopplers.T * cfg.Ts  # (n_ch, P), channel-major
    profiles = phi_profiles(filters, (paths.delays.T / cfg.Ts).ravel(), nu_ts.ravel(), cfg.K)
    return FactoredIR(
        gains=paths.gains.T, nu_ts=nu_ts, profiles=profiles.reshape(nu_ts.shape + (cfg.K,)),
        l_r=cfg.l_r, n_rx=cfg.n_rx, n_tx=cfg.n_tx,
    )


# ---------------------------------------------------------------------------
# sparsity budget


def effective_support_widths(filters, cfg):
    """Delay/Doppler widths capturing 99% of each kernel's energy.

    Evaluated for a worst-case half-sample offset of the kernel center; the
    Doppler width is capped at J (the full fundamental range).
    """
    # delay direction
    reach = max(4 * filters.span, 64)
    # samples at x = -reach - 0.5 .. reach - 0.5
    e_phi = np.abs(phi_profiles(filters, reach + 0.5, 0.0, 2 * reach + 1)[0]) ** 2
    dm = _central_width(e_phi, 0.99)
    # Doppler direction, one full period
    i = np.arange(cfg.l_r)
    e_psi = np.abs(psi_kernel(i - 0.5, cfg.l_r)) ** 2
    e_psi = np.roll(e_psi, cfg.l_r // 2)  # center the peak
    di = _central_width(e_psi, 0.99)
    return int(dm), int(min(di, cfg.J))


def _central_width(energy, fraction):
    total = energy.sum()
    center = int(np.argmax(energy))
    width = 1
    acc = energy[center]
    lo, hi = center, center
    while acc < fraction * total and (lo > 0 or hi < len(energy) - 1):
        left = energy[lo - 1] if lo > 0 else -1.0
        right = energy[hi + 1] if hi < len(energy) - 1 else -1.0
        if left >= right:
            lo -= 1
            acc += energy[lo]
        else:
            hi += 1
            acc += energy[hi]
        width += 1
    return width


def sparsity_budget(dm_eff, di_eff, tau_b, nu_b, tiling, n_paths, cfg):
    """Block-count budget for single-channel and joint group sparsity.

    Returns (N_tilde, N_joint, S_single, S_joint): per-path block counts for
    one channel and jointly across channels, and the corresponding group
    sparsity orders P * N.
    """
    if dm_eff <= 0 or di_eff <= 0:
        raise DomainError("effective widths must be positive")
    n_tilde = (int(np.ceil(dm_eff / tiling.dm)) + 1) * (int(np.ceil(di_eff / tiling.di)) + 1)
    dm_joint = dm_eff + int(np.ceil(tau_b / cfg.Ts))
    di_joint = di_eff + int(np.ceil(nu_b * cfg.Ts * cfg.l_r))
    n_joint = (int(np.ceil(dm_joint / tiling.dm)) + 1) * (int(np.ceil(di_joint / tiling.di)) + 1)
    return n_tilde, n_joint, n_paths * n_tilde, n_paths * n_joint
