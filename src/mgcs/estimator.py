"""Pilot-aided compressive channel estimation.

Pilot schemes on the subsampled time-frequency grid, the selected-row
measurement matrices, the multichannel estimation pipeline (solve, pilot
de-mixing, basis expansion, 2D-DFT inversion, full-grid expansion), its SISO
variant and the block RMSE.
"""

from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .errors import ConfigurationError, DomainError
from .partition import singleton_partition
from .recovery import (
    MeasurementEnsemble,
    g_bpdn,
    g_cosamp,
    g_dcs_somp,
    g_omp,
    mgcs_stack,  # noqa: F401 -- the benchmark's span wraps this attribute
)


@dataclass(frozen=True, eq=False)
class BasisSpec:
    """2D expansion basis: Fourier in the frequency direction, a unitary J x J
    block V_m per delay m in the time direction.

    ``blocks`` is the (D, J, J) stack of the V_m, rows indexed by i + J/2,
    held read-only (a writable input is copied); J and D are read from its
    shape.  ``is_dft`` is derived: it holds when every block equals
    ``dft_block(J)`` bit for bit, which makes the basis the 2D DFT
    (``expand_coeffs`` and ``io.save_basis`` take shortcuts for it).  A basis
    equals only itself.
    """

    blocks: np.ndarray
    is_dft: bool = field(init=False, repr=False)

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=complex)
        if blocks.flags.writeable:  # a read-only copy keeps is_dft true to the blocks
            blocks = blocks.copy()
            blocks.flags.writeable = False
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise ConfigurationError("blocks must have shape (D, J, J)")
        dft = dft_block(blocks.shape[1]).tobytes()
        is_dft = all(block.tobytes() == dft for block in blocks)
        if not is_dft:  # the DFT is unitary by construction
            bad = first_non_unitary(blocks)
            if bad is not None:
                raise ConfigurationError(f"basis block {bad} is not unitary")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "is_dft", is_dft)

    @classmethod
    @cache
    def dft(cls, J, D):
        """The 2D DFT basis: ``dft_block(J)`` at every delay, one read-only
        view; built once per (J, D) and shared, so the flag check over the D
        blocks does not run at every call."""
        return cls(np.broadcast_to(dft_block(J), (D, J, J)))

    @property
    def J(self):
        return self.blocks.shape[1]

    @property
    def D(self):
        return self.blocks.shape[0]


def first_non_unitary(blocks):
    """Index of the first (J, J) block with V^H V off I by over 1e-10, or None."""
    gram = np.conj(blocks.transpose(0, 2, 1)) @ blocks
    bad = np.abs(gram - np.eye(blocks.shape[-1])).max(axis=(1, 2)) > 1e-10
    return int(np.argmax(bad)) if bad.any() else None


def dft_block(J):
    """Time-direction block reproducing the 2D DFT basis."""
    a = np.arange(J)[:, None]  # i + J/2
    lam = np.arange(J)[None, :]
    return np.exp(-2j * np.pi * lam * (a - J // 2) / J) / np.sqrt(J)


@dataclass(frozen=True)
class PilotScheme:
    """Pilot positions on the subsampled grid plus the pilot matrix.

    ``grid_ids[s]`` holds the Q flat grid indices (kappa + lambda * D) used by
    transmit antenna s; the sets are pairwise disjoint.  ``p_matrix`` stacks
    the pilot vectors columnwise.
    """

    grid_ids: np.ndarray
    p_matrix: np.ndarray
    D: int
    J: int

    def __post_init__(self):
        ids = np.asarray(self.grid_ids, dtype=np.intp)
        if ids.ndim == 1:
            ids = ids[None, :]
        if ids.min() < 0 or ids.max() >= self.J * self.D:
            raise ConfigurationError("pilot position off the subsampled grid")
        if len(np.unique(ids)) != ids.size:
            raise ConfigurationError("pilot position sets must be disjoint")
        P = np.asarray(self.p_matrix, dtype=complex)
        if P.shape != (ids.shape[0], ids.shape[0]):
            raise ConfigurationError("pilot matrix shape must be (n_tx, n_tx)")
        cond = np.linalg.cond(P)
        if not np.isfinite(cond) or cond > 1e12:
            raise ConfigurationError("pilot matrix is singular")
        object.__setattr__(self, "grid_ids", ids)
        object.__setattr__(self, "p_matrix", P)

    @property
    def n_tx(self):
        return self.grid_ids.shape[0]

    @property
    def q(self):
        return self.grid_ids.shape[1]

    def positions(self, s, cfg):
        """(l, k) time-frequency positions of transmit antenna s's pilots."""
        lam, kap = divmod(self.grid_ids[s], self.D)
        return lam * cfg.delta_l, kap * cfg.delta_k


def default_pilot_matrix(n_tx):
    """Diagonal pilot matrix with one QPSK value whose power equals the total
    power of n_tx unit-power data symbols."""
    return np.sqrt(n_tx) * np.exp(1j * np.pi / 4) * np.eye(n_tx)


def draw_pilots(cfg, seed, q):
    """Draw disjoint uniform-random sets of ``q`` pilots, with the default pilot matrix."""
    if q < 1:
        raise ConfigurationError(f"pilot count q must be at least 1, got {q}")
    if cfg.n_tx * q > cfg.jd:
        raise ConfigurationError(f"{cfg.n_tx} x {q} pilots exceed the {cfg.jd} grid points")
    rng = np.random.default_rng(seed)
    ids = rng.choice(cfg.jd, size=cfg.n_tx * q, replace=False)
    return PilotScheme(grid_ids=ids.reshape(cfg.n_tx, q),
                       p_matrix=default_pilot_matrix(cfg.n_tx), D=cfg.D, J=cfg.J)


def _check_scheme(scheme, cfg):
    """``ConfigurationError`` unless the scheme was drawn for the system."""
    if (scheme.n_tx, scheme.D, scheme.J) != (cfg.n_tx, cfg.D, cfg.J):
        raise ConfigurationError(
            f"pilot scheme for (n_tx, D, J) = {(scheme.n_tx, scheme.D, scheme.J)}, "
            f"the system has {(cfg.n_tx, cfg.D, cfg.J)}")


def assemble_frame(scheme, cfg, rng):
    """Transmit symbol grid of a scheme drawn for the system: pilot vectors at
    pilot positions, unit-power QPSK data drawn from ``rng`` elsewhere."""
    _check_scheme(scheme, cfg)
    symbols = rng.integers(0, 4, size=(cfg.L, cfg.K, cfg.n_tx))
    a = np.exp(1j * (np.pi / 4 + np.pi / 2 * symbols))
    for s in range(scheme.n_tx):
        ls, ks = scheme.positions(s, cfg)
        a[ls, ks, :] = scheme.p_matrix[:, s]
    return a


def build_phi(scheme, basis, cfg):
    """Measurement matrices sqrt(JD/Q) * (pilot rows of the basis).

    Returns the (n_tx, Q, JD) stack of per-transmit matrices, built from the
    blocks V_m of the :class:`BasisSpec` ``basis`` (the DFT's too) without
    assembling the full unitary matrix: entry (q, m J + a) of matrix s is
    conj(V_m[a, lambda_q]) exp(-j 2 pi kappa_q m / D) / sqrt(D), scaled.
    """
    J, D = basis.J, basis.D
    if (J, D) != (cfg.J, cfg.D):
        raise ConfigurationError("basis dimensions do not match the system")
    scale = np.sqrt(cfg.jd / scheme.q)
    # V_m^H indexed (lambda, m, a), contiguous so that the row gather and the
    # in-place products below run on contiguous memory
    vh = np.ascontiguousarray(np.conj(basis.blocks).transpose(2, 0, 1))
    lam, kap = np.divmod(scheme.grid_ids, D)  # (n_tx, Q)
    phase = np.exp(-2j * np.pi * kap[..., None] * np.arange(D) / D) / np.sqrt(D)
    Phi = vh[lam]  # (n_tx, Q, D, J)
    Phi *= phase[..., None]
    Phi *= scale
    return Phi.reshape(scheme.n_tx, scheme.q, cfg.jd)


def collect_measurements(y_grid, scheme, basis, cfg):
    """Stack demodulated pilot symbols into per-channel observations.

    y^(theta)_q is the receive-antenna-r demodulated symbol at the q-th pilot
    position of transmit antenna s, for theta = (r, s).  The scheme must be
    drawn for the system's transmit antennas and subsampled grid.
    """
    _check_scheme(scheme, cfg)
    y_grid = np.asarray(y_grid)
    if y_grid.shape != (cfg.L, cfg.K, cfg.n_rx):
        raise DomainError(f"demodulated grid must have shape {(cfg.L, cfg.K, cfg.n_rx)}")
    obs = np.empty((cfg.n_rx * scheme.n_tx, scheme.q), dtype=complex)
    for r in range(cfg.n_rx):
        for s in range(scheme.n_tx):
            ls, ks = scheme.positions(s, cfg)
            obs[r * scheme.n_tx + s] = y_grid[ls, ks, r]
    mats = build_phi(scheme, basis, cfg)
    return MeasurementEnsemble(matrices=mats, observations=obs)


@dataclass
class ChannelEstimate:
    """Estimator output: full-grid coefficients plus intermediate tensors."""

    h_full: np.ndarray  # (L, K, n_rx, n_tx)
    g_tensor: np.ndarray  # (D, J, n_channels)
    f_tensor: np.ndarray  # (D, J, n_channels)
    diagnostics: dict


def _run_solver(ensemble, part, solver, joint, opts):
    """The configured solver's result, from one call on the ensemble's
    block-diagonal operator with the per-channel partition, jointly or one
    problem per channel; joint G-OMP there is G-DCS-SOMP, so it runs as such.
    Each solver is called by its name in this module, looked up at call
    time, so a replaced attribute takes effect."""
    if solver == "g-dcs-somp" or (joint and solver == "g-omp"):
        if not joint:
            raise ConfigurationError("g-dcs-somp is a joint solver; it needs joint=True")
        return g_dcs_somp(ensemble, part, **opts)
    solve = {"g-omp": g_omp, "g-cosamp": g_cosamp, "g-bpdn": g_bpdn}.get(solver)
    if solve is None:
        raise ConfigurationError(f"unknown solver {solver!r}")
    return solve(ensemble.operator(), ensemble.observations.reshape(-1), part, joint=joint,
                 **opts)


def expand_coeffs(g_tensor, basis, cfg):
    """Steps 4-6 of the estimator: basis expansion on the subsampled grid,
    inversion to rectangle 2D-DFT coefficients, zero-padded full-grid
    expansion.  Returns (h_full, f_tensor).

    The grid is the DFT over m of T_m = V_m^H g_m, which its inversion undoes
    over kappa: F[m] = fftshift(DFT_lambda(T_m)) / (J sqrt(D)).  Under the DFT
    basis (``basis.is_dft``, however built) this is F = G / sqrt(JD).
    """
    g_tensor = np.asarray(g_tensor, dtype=complex)
    D, J, _ = g_tensor.shape
    if basis.is_dft:
        f_tensor = g_tensor / np.sqrt(J * D)
    else:
        # V_m^H g_m of every delay and channel, indexed (m, lambda, xi)
        T = np.conj(basis.blocks.transpose(0, 2, 1)) @ g_tensor
        f_tensor = np.fft.fftshift(np.fft.fft(T, axis=1), axes=1) / (J * np.sqrt(D))
    return expand_rectangle_to_grid(f_tensor, cfg), f_tensor


def expand_rectangle_to_grid(f_tensor, cfg):
    """Full (L, K, n_channels) coefficient grid from rectangle 2D-DFT
    coefficients, zero outside the rectangle."""
    D, J, n_ch = f_tensor.shape
    pad = np.zeros((cfg.K, cfg.L, n_ch), dtype=complex)
    i_idx = (np.arange(J) - J // 2) % cfg.L
    pad[np.arange(D)[:, None], i_idx[None, :]] = f_tensor
    h = np.fft.fft(pad, axis=0)  # m -> k
    h = np.fft.ifft(h, axis=1) * cfg.L  # i -> l
    return h.transpose(1, 0, 2)  # (L, K, n_channels)


def channels_to_grid(tensor_lkx, cfg):
    """(L, K, n_channels) -> (L, K, n_rx, n_tx) with xi = r * n_tx + s."""
    return tensor_lkx.reshape(cfg.L, cfg.K, cfg.n_rx, cfg.n_tx)


def estimate_mimo(ensemble, scheme, basis, cfg, solver, tiling, joint=True, **solver_opts):
    """Pilot-based multichannel estimation of all component channels.

    Steps: reconstruct the stacked coefficient vectors, rescale by
    sqrt(JD/Q), de-mix the pilot matrix per delay-Doppler position, expand
    through the basis to the subsampled grid, invert to rectangle 2D-DFT
    coefficients, expand to the full grid.  ``solver`` is g-omp, g-dcs-somp,
    g-cosamp or g-bpdn; ``solver_opts`` are all of its stopping arguments.
    ``tiling=None`` uses singleton groups.  ``joint=True`` solves all
    channels as one problem, so ``residual_tol`` or a G-BPDN ``eps`` bounds
    the residual over all of them; joint G-OMP runs as G-DCS-SOMP.
    ``joint=False`` solves each channel as its own problem of the one solver
    call, so they bound each channel's residual, and groups are listed per
    channel.  The diagnostics include the solver's own (``rank_deficient``,
    ``fixed_point``, ``residual_history`` and the like).
    """
    part = tiling.to_partition() if tiling is not None else singleton_partition(cfg.jd)
    res = _run_solver(ensemble, part, solver, joint, solver_opts)
    scale = np.sqrt(cfg.jd / scheme.q)
    n_ch = ensemble.n_channels
    g_tilde = (scale * res.estimates).reshape(n_ch, cfg.D, cfg.J)  # per channel (m, a)
    # channel index xi = r * n_tx + s -> matrix entry [r, s]
    gt = g_tilde.reshape(cfg.n_rx, cfg.n_tx, cfg.D, cfg.J).transpose(2, 3, 0, 1)
    p_inv = np.linalg.inv(scheme.p_matrix)
    g_hat = np.einsum("djrs,st->djrt", gt, p_inv)
    g_tensor = g_hat.reshape(cfg.D, cfg.J, n_ch)  # xi = r * n_tx + t
    h_full, f_tensor = expand_coeffs(g_tensor, basis, cfg)
    diagnostics = {"solver": solver, "joint": joint, "selected_groups": res.selected_groups,
                   "iterations": res.iterations, "residual_norms": res.residual_norms,
                   **res.diagnostics}
    return ChannelEstimate(h_full=channels_to_grid(h_full, cfg), g_tensor=g_tensor,
                           f_tensor=f_tensor, diagnostics=diagnostics)


def estimate_siso(pilot_values, y_grid, scheme, basis, cfg, solver, tiling, **solver_opts):
    """Single-antenna estimator with per-position pilot values.

    Divides each demodulated pilot symbol by its pilot value to form direct
    noisy coefficient observations, then runs :func:`estimate_mimo` on that
    one-channel ensemble with a unit pilot matrix, jointly (so G-OMP runs as
    G-DCS-SOMP).  With constant pilots this coincides with the multichannel
    path for one antenna pair.
    """
    if cfg.n_tx != 1 or cfg.n_rx != 1:
        raise DomainError("the scalar-pilot variant is defined for one antenna pair")
    pilot_values = np.asarray(pilot_values, dtype=complex)
    if pilot_values.shape != (scheme.q,):
        raise DomainError("need one pilot value per pilot position")
    if np.any(pilot_values == 0):
        raise DomainError("pilot values must be nonzero")
    ens = collect_measurements(y_grid, scheme, basis, cfg)
    ens = replace(ens, observations=ens.observations / pilot_values)
    return estimate_mimo(ens, replace(scheme, p_matrix=np.eye(1)), basis, cfg,
                         solver=solver, tiling=tiling, joint=True, **solver_opts)


def rmse(estimate, truth):
    """Block root-sum-square coefficient error over channels and the grid."""
    est = np.asarray(estimate)
    tru = np.asarray(truth)
    if est.shape != tru.shape:
        raise DomainError("estimate and truth shapes differ")
    return float(np.linalg.norm(est - tru))


def normalized_mse(estimate, truth):
    """Squared error normalized by the truth energy."""
    tru = np.asarray(truth)
    return rmse(estimate, truth) ** 2 / float(np.linalg.norm(tru) ** 2)
