"""Pilot-aided compressive channel estimation.

Pilot schemes on the subsampled time-frequency grid, the selected-row
measurement matrices, the multichannel estimation pipeline (solve, pilot
de-mixing, basis expansion, 2D-DFT inversion, full-grid expansion), its SISO
variant, the block RMSE, and the estimation-error bound of the recovery
guarantees.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .partition import singleton_partition
from .recovery import (
    MeasurementEnsemble,
    RecoveryResult,
    g_bpdn,
    g_cosamp,
    g_dcs_somp,
    g_omp,
    mgcs_stack,  # noqa: F401 -- the benchmark's span wraps this attribute
)


@dataclass(frozen=True)
class BasisSpec:
    """2D expansion basis: Fourier in the frequency direction, an arbitrary
    unitary J x J block per delay in the time direction.

    ``kind`` is "dft" (pure 2D DFT, blocks implicit) or "blocks" with an
    explicit (D, J, J) stack of unitary matrices.
    """

    J: int
    D: int
    kind: str = "dft"
    blocks: np.ndarray = None

    def __post_init__(self):
        if self.kind not in ("dft", "blocks"):
            raise ConfigurationError(f"unknown basis kind {self.kind!r}")
        if self.kind == "blocks":
            blocks = np.asarray(self.blocks, dtype=complex)
            if blocks.shape != (self.D, self.J, self.J):
                raise ConfigurationError("blocks must have shape (D, J, J)")
            eye = np.eye(self.J)
            for m in range(self.D):
                if np.abs(blocks[m].conj().T @ blocks[m] - eye).max() > 1e-10:
                    raise ConfigurationError(f"basis block {m} is not unitary")
            object.__setattr__(self, "blocks", blocks)

    @classmethod
    def dft(cls, J, D):
        return cls(J=J, D=D, kind="dft")

    @classmethod
    def from_blocks(cls, blocks):
        blocks = np.asarray(blocks, dtype=complex)
        return cls(J=blocks.shape[1], D=blocks.shape[0], kind="blocks", blocks=blocks)

    @property
    def is_dft(self):
        return self.kind == "dft"

    def block(self, m):
        """Unitary time-direction block V_m (rows indexed by i + J/2)."""
        if self.kind == "blocks":
            return self.blocks[m]
        return dft_block(self.J)

    def assemble(self):
        """Full unitary J D x J D basis matrix.

        Row order is the row-wise (lambda, kappa) stacking; column order is
        the delay-Doppler rank map.  Entry:
        U[kappa + lambda D, m J + i + J/2] = (1/sqrt(D)) v_{m,i}[lambda]
        exp(-j 2 pi kappa m / D) with v_{m,i}[lambda] = conj(V_m[i+J/2, lambda]).
        """
        J, D = self.J, self.D
        U = np.zeros((J * D, J * D), dtype=complex)
        kappa = np.arange(D)
        for m in range(D):
            vm = self.block(m)
            phase = np.exp(-2j * np.pi * kappa * m / D) / np.sqrt(D)  # (D,)
            # rows (lambda, kappa), columns a = i + J/2
            block_rows = np.conj(vm).T[:, None, :] * phase[None, :, None]  # (J, D, J)
            U[:, m * J: (m + 1) * J] = block_rows.reshape(J * D, J)
        if np.abs(U.conj().T @ U - np.eye(J * D)).max() > 1e-10:
            raise ConfigurationError("assembled basis is not unitary")
        return U


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
    the pilot vectors columnwise.  ``pilot_values`` optionally carries
    per-position scalar pilots for the SISO variant.
    """

    grid_ids: np.ndarray
    p_matrix: np.ndarray
    D: int
    J: int
    pilot_values: np.ndarray = None

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


def draw_pilots(cfg, seed, p_matrix=None, q=None):
    """Draw disjoint uniform-random pilot sets on the subsampled grid."""
    if q is None:
        raise ConfigurationError("pilot count q is required")
    if cfg.n_tx * q > cfg.jd:
        raise ConfigurationError(
            f"{cfg.n_tx} x {q} pilots exceed the {cfg.jd} grid points"
        )
    rng = np.random.default_rng(seed)
    ids = rng.choice(cfg.jd, size=cfg.n_tx * q, replace=False)
    if p_matrix is None:
        p_matrix = default_pilot_matrix(cfg.n_tx)
    return PilotScheme(
        grid_ids=ids.reshape(cfg.n_tx, q), p_matrix=p_matrix, D=cfg.D, J=cfg.J
    )


def assemble_frame(scheme, cfg, rng=None):
    """Transmit symbol grid: pilot vectors at pilot positions, unit-power QPSK
    data elsewhere (zeros when no generator is given)."""
    a = np.zeros((cfg.L, cfg.K, cfg.n_tx), dtype=complex)
    if rng is not None:
        qpsk = np.exp(1j * (np.pi / 4 + np.pi / 2 * rng.integers(0, 4, size=a.shape)))
        a[:] = qpsk
    for s in range(scheme.n_tx):
        ls, ks = scheme.positions(s, cfg)
        a[ls, ks, :] = scheme.p_matrix[:, s]
    return a


def build_phi(scheme, basis, cfg):
    """Measurement matrices sqrt(JD/Q) * (pilot rows of the basis).

    Returns one Q x JD matrix per transmit antenna, built blockwise from the
    basis without assembling the full unitary matrix: entry (q, m J + a) is
    conj(V_m[a, lambda_q]) exp(-j 2 pi kappa_q m / D) / sqrt(D), scaled.
    """
    J, D = basis.J, basis.D
    if (J, D) != (cfg.J, cfg.D):
        raise ConfigurationError("basis dimensions do not match the system")
    scale = np.sqrt(cfg.jd / scheme.q)
    # V_m^H indexed (lambda, m, a); the DFT basis has one block for every m
    if basis.is_dft:
        vh = np.conj(dft_block(J)).T[:, None, :]
    else:
        vh = np.conj(basis.blocks).transpose(2, 0, 1)
    m = np.arange(D)
    mats = []
    for s in range(scheme.n_tx):
        lam, kap = np.divmod(scheme.grid_ids[s], D)
        phase = np.exp(-2j * np.pi * kap[:, None] * m / D) / np.sqrt(D)  # (Q, D)
        Phi = vh[lam] * phase[:, :, None]  # (Q, D, J)
        Phi *= scale
        mats.append(Phi.reshape(scheme.q, cfg.jd))
    return mats


def collect_measurements(y_grid, scheme, basis, cfg, noise_radius=0.0):
    """Stack demodulated pilot symbols into per-channel observations.

    y^(theta)_q is the receive-antenna-r demodulated symbol at the q-th pilot
    position of transmit antenna s, for theta = (r, s).
    """
    y_grid = np.asarray(y_grid)
    if y_grid.shape[:2] != (cfg.L, cfg.K):
        raise DomainError("demodulated grid has the wrong shape")
    obs = np.empty((cfg.n_rx * scheme.n_tx, scheme.q), dtype=complex)
    for r in range(cfg.n_rx):
        for s in range(scheme.n_tx):
            ls, ks = scheme.positions(s, cfg)
            obs[r * scheme.n_tx + s] = y_grid[ls, ks, r]
    mats = build_phi(scheme, basis, cfg)
    return MeasurementEnsemble(
        matrices=tuple(mats), observations=obs, noise_radius=noise_radius
    )


@dataclass
class ChannelEstimate:
    """Estimator output: full-grid coefficients plus intermediate tensors."""

    h_full: np.ndarray  # (L, K, n_rx, n_tx)
    g_tensor: np.ndarray  # (D, J, n_channels)
    f_tensor: np.ndarray  # (D, J, n_channels)
    diagnostics: dict = field(default_factory=dict)


# solver name -> recovery function, looked up among this module's attributes
# at call time so that a replaced attribute takes effect on every path
_SOLVER_FUNCTIONS = {
    "g-omp": "g_omp",
    "g-cosamp": "g_cosamp",
    "g-bpdn": "g_bpdn",
    "g-dcs-somp": "g_dcs_somp",
}


def _solver_function(solver):
    try:
        return globals()[_SOLVER_FUNCTIONS[solver]]
    except KeyError:
        raise ConfigurationError(f"unknown solver {solver!r}") from None


def _run_solver(ensemble, part, solver, joint, opts):
    """Dispatch to the configured reconstruction algorithm; returns the
    per-channel estimates (n_channels, M) and the solver result.

    Joint solvers run on the ensemble's block-diagonal operator with the
    per-channel partition; joint G-OMP there is G-DCS-SOMP, so it runs as
    such.  Per-channel results are merged: selected groups per channel, the
    summed iteration count and every channel's residual norm.
    """
    if joint and solver == "g-omp":
        solver = "g-dcs-somp"
    solve = _solver_function(solver)
    n_ch = ensemble.n_channels
    if solver == "g-dcs-somp":
        res = solve(ensemble, part, **opts)
        return res.estimates, res
    if joint:
        res = solve(ensemble.operator(), ensemble.observations.reshape(-1), part, **opts)
        return res.estimates.reshape(n_ch, -1), res
    if solver == "g-bpdn" and "eps" in opts:
        opts = {**opts, "eps": opts["eps"] / np.sqrt(n_ch)}  # split the radius evenly
    results = [solve(ensemble.matrix_for(xi), ensemble.observations[xi], part, **opts)
               for xi in range(n_ch)]
    estimates = np.array([r.x for r in results])
    return estimates, RecoveryResult(
        estimates=estimates,
        selected_groups=[r.selected_groups for r in results],
        residual_norms=np.concatenate([r.residual_norms for r in results]),
        iterations=sum(r.iterations for r in results),
    )


def expand_coeffs(g_tensor, basis, cfg):
    """Steps 4-6 of the estimator: basis expansion on the subsampled grid,
    inversion to rectangle 2D-DFT coefficients, zero-padded full-grid
    expansion.  Returns (h_full, f_tensor, h_sub).

    Under the DFT basis the subsampled detour reduces to F = G / sqrt(JD).
    """
    g_tensor = np.asarray(g_tensor, dtype=complex)
    D, J, n_ch = g_tensor.shape
    if basis.is_dft:
        f_tensor = g_tensor / np.sqrt(J * D)
        h_sub = None
    else:
        f_tensor = np.empty_like(g_tensor)
        h_sub = np.empty((J, D, n_ch), dtype=complex)
        for xi in range(n_ch):
            T = np.stack([np.conj(basis.block(m)).T @ g_tensor[m, :, xi] for m in range(D)])
            # (m, lambda) -> subsampled grid (lambda, kappa)
            hs = np.fft.fft(T, axis=0).T / np.sqrt(D)
            h_sub[:, :, xi] = hs
            # invert the subsampled 2D DFT back to the rectangle
            F = np.fft.fft(np.fft.ifft(hs, axis=1), axis=0) / J  # (i mod J, m)
            f_tensor[:, :, xi] = np.fft.fftshift(F, axes=0).T
    h_full = expand_rectangle_to_grid(f_tensor, cfg)
    return h_full, f_tensor, h_sub


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


def subsample_grid(h_full, cfg):
    """Values of a full (L, K, ...) grid on the subsampled lattice, stacked
    row-wise over (lambda, kappa)."""
    lam = np.arange(cfg.J) * cfg.delta_l
    kap = np.arange(cfg.D) * cfg.delta_k
    return h_full[np.ix_(lam, kap)]


def channels_to_grid(tensor_lkx, cfg):
    """(L, K, n_channels) -> (L, K, n_rx, n_tx) with xi = r * n_tx + s."""
    return tensor_lkx.reshape(cfg.L, cfg.K, cfg.n_rx, cfg.n_tx)


def estimate_mimo(ensemble, scheme, basis, cfg, solver="g-omp", tiling=None,
                  joint=True, **solver_opts):
    """Pilot-based multichannel estimation of all component channels.

    Steps: reconstruct the stacked coefficient vectors, rescale by
    sqrt(JD/Q), de-mix the pilot matrix per delay-Doppler position, expand
    through the basis to the subsampled grid, invert to rectangle 2D-DFT
    coefficients, expand to the full grid.  ``tiling=None`` uses singleton
    groups; ``joint=False`` reconstructs each channel separately (a G-BPDN
    radius ``eps`` is then split evenly across channels), and the diagnostics
    then list the selected groups per channel, the summed iteration count and
    every channel's residual norm.
    """
    part = tiling.to_partition() if tiling is not None else singleton_partition(cfg.jd)
    estimates, res = _run_solver(ensemble, part, solver, joint, solver_opts)
    scale = np.sqrt(cfg.jd / scheme.q)
    n_ch = ensemble.n_channels
    g_tilde = (scale * estimates).reshape(n_ch, cfg.D, cfg.J)  # per channel (m, a)
    # channel index xi = r * n_tx + s -> matrix entry [r, s]
    gt = g_tilde.reshape(cfg.n_rx, cfg.n_tx, cfg.D, cfg.J).transpose(2, 3, 0, 1)
    p_inv = np.linalg.inv(scheme.p_matrix)
    g_hat = np.einsum("djrs,st->djrt", gt, p_inv)
    g_tensor = g_hat.reshape(cfg.D, cfg.J, n_ch)  # xi = r * n_tx + t
    h_full, f_tensor, h_sub = expand_coeffs(g_tensor, basis, cfg)
    diagnostics = {
        "solver": solver,
        "joint": joint,
        "selected_groups": res.selected_groups,
        "iterations": res.iterations,
        "residual_norms": res.residual_norms,
    }
    return ChannelEstimate(
        h_full=channels_to_grid(h_full, cfg),
        g_tensor=g_tensor,
        f_tensor=f_tensor,
        diagnostics=diagnostics,
    )


def estimate_siso(pilot_values, y_grid, scheme, basis, cfg, solver="g-omp",
                  tiling=None, **solver_opts):
    """Single-antenna estimator with per-position pilot values.

    Divides each demodulated pilot symbol by its pilot value to form direct
    noisy coefficient observations, then runs the same reconstruction and
    expansion pipeline.  With constant pilots this coincides with the
    multichannel path for one antenna pair.
    """
    if cfg.n_tx != 1 or cfg.n_rx != 1:
        raise DomainError("the scalar-pilot variant is defined for one antenna pair")
    pilot_values = np.asarray(pilot_values, dtype=complex)
    if pilot_values.shape != (scheme.q,):
        raise DomainError("need one pilot value per pilot position")
    if np.any(pilot_values == 0):
        raise DomainError("pilot values must be nonzero")
    y_grid = np.asarray(y_grid)
    ls, ks = scheme.positions(0, cfg)
    y_tilde = y_grid[ls, ks, 0] / pilot_values
    ensemble = MeasurementEnsemble(matrices=tuple(build_phi(scheme, basis, cfg)),
                                   observations=y_tilde[None, :])
    part = tiling.to_partition() if tiling is not None else singleton_partition(cfg.jd)
    estimates, res = _run_solver(ensemble, part, solver, joint=True, opts=solver_opts)
    g_tensor = (np.sqrt(cfg.jd / scheme.q) * estimates[0]).reshape(cfg.D, cfg.J, 1)
    h_full, f_tensor, _ = expand_coeffs(g_tensor, basis, cfg)
    return ChannelEstimate(
        h_full=channels_to_grid(h_full, cfg),
        g_tensor=g_tensor,
        f_tensor=f_tensor,
        diagnostics={
            "solver": solver,
            "selected_groups": res.selected_groups,
            "iterations": res.iterations,
        },
    )


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


def group_leakage(g_tensor, part, S):
    """Leakage of the coefficient tensor outside its S strongest groups.

    Returns (C, support): the sum over out-of-support groups of the joint
    (cross-channel) l2 norms, and the indices of the S groups of largest
    joint energy.
    """
    g = np.asarray(g_tensor)
    mat = g.reshape(part.total_length, -1)  # (JD, n_channels), rows rank-ordered
    energies = part.energies(mat.T)
    order = np.argsort(-energies, kind="stable")
    return float(np.sqrt(energies[order[S:]]).sum()), set(order[:S].tolist())


@dataclass(frozen=True)
class BoundResult:
    value: float
    applicable: bool
    detail: dict = None


def error_bound(variant, delta, S, eps, c_g, p_matrix, cfg, q, n_iters=None,
                  g_tensor=None):
    """Estimation-error bound for the certified-isometry regimes.

    ``variant`` is "g-bpdn" (requires delta_{2S} <= sqrt(2)-1) or "g-cosamp"
    (requires delta_{4S} <= 0.1 and the iteration count plus the true
    coefficient tensor for the geometric term).  Returns the bound value with
    an applicability flag reflecting the isometry condition.
    """
    P = np.asarray(p_matrix, dtype=complex)
    p_norm = float(np.linalg.norm(P, 2))
    p_inv_norm = float(np.linalg.norm(np.linalg.inv(P), 2))
    c_p = p_norm * p_inv_norm
    kl = cfg.K * cfg.L
    jd = cfg.jd
    if variant == "g-bpdn":
        applicable = delta <= np.sqrt(2) - 1
        denom = 1 - (1 + np.sqrt(2)) * delta
        c0 = 2 * (1 - delta) / denom
        c1 = 4 * np.sqrt(1 + delta) / denom
        c0p = c0 * np.sqrt(kl / jd) * c_p
        c1p = c1 * np.sqrt(kl / q) * p_inv_norm
        value = c0p * c_g / np.sqrt(S) + c1p * eps
        detail = {"c0": c0, "c1": c1, "C0": c0p, "C1": c1p}
    elif variant == "g-cosamp":
        if n_iters is None or g_tensor is None:
            raise DomainError("the g-cosamp variant needs n_iters and the tensor")
        applicable = delta <= 0.1
        c0pp = 20 * np.sqrt(kl / jd) * c_p
        c1pp = 20 * np.sqrt(kl / q) * p_inv_norm
        energy = float(np.sum(np.abs(np.asarray(g_tensor)) ** 2))
        c2pp = (0.5**n_iters) * c_p * np.sqrt(kl / jd * energy)
        value = c0pp * (1 + 1 / np.sqrt(S)) * c_g + c1pp * eps + c2pp
        detail = {"C0": c0pp, "C1": c1pp, "C2": c2pp}
    else:
        raise ConfigurationError(f"unknown bound variant {variant!r}")
    return BoundResult(value=float(value), applicable=bool(applicable), detail=detail)
