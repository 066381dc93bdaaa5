"""Construction of orthonormal bases maximizing average joint group sparsity.

Samples elementary single-scatterer channels from a delay-Doppler prior,
evaluates their expansion coefficients through closed-form kernel matrices,
and minimizes the Monte-Carlo group-sparsity objective over per-delay unitary
blocks by iterated convexified updates with matrix-exponential retraction.
"""

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .channel import phi_kernel  # noqa: F401 (an attribute the bench tracer wraps)
from .channel import phi_profiles, psi_kernel
from .errors import ConfigurationError, DomainError
from .estimator import BasisSpec, dft_block
from .partition import Partition
from .waveform import ambiguity_table


@dataclass(frozen=True)
class DelayDopplerPrior:
    """Factored pdf of per-channel delay/Doppler pairs.

    The first channel's pair is uniform on [0, tau_max] x [-nu_max, nu_max];
    each further channel adds an offset drawn uniformly from its rectangle
    (tau_lo, tau_hi, nu_lo, nu_hi) relative to the first draw.  ``offsets``
    holds one rectangle per further channel, none for a single channel.
    """

    tau_max: float
    nu_max: float
    offsets: tuple

    def __post_init__(self):
        if self.tau_max < 0 or self.nu_max < 0:
            raise ConfigurationError("prior ranges must be nonnegative")
        for off in self.offsets:
            t_lo, t_hi, n_lo, n_hi = off
            if t_hi < t_lo or n_hi < n_lo:
                raise ConfigurationError("offset rectangle has negative area")
            if t_lo < 0:
                raise ConfigurationError("delay offsets must keep delays nonnegative")

    @property
    def n_channels(self):
        return 1 + len(self.offsets)


def reference_prior(cfg):
    """Prior mirroring the reference simulation setup over cfg's n_channels
    component channels: delays uniform over the cyclic prefix, Dopplers within
    3% of the subcarrier spacing, equal delays and +-1.4 Hz Doppler offsets
    across the other component channels."""
    tau_max = (cfg.N - cfg.K) * cfg.Ts
    nu_max = 0.03 / (cfg.K * cfg.Ts)
    offsets = tuple((0.0, 0.0, -1.4, 1.4) for _ in range(cfg.n_channels - 1))
    return DelayDopplerPrior(tau_max=tau_max, nu_max=nu_max, offsets=offsets)


@dataclass(frozen=True)
class ObjectiveSamples:
    """Monte-Carlo draws from the prior, with kernel matrices once attached."""

    taus: np.ndarray  # (R, n_channels)
    nus: np.ndarray  # (R, n_channels)
    C: np.ndarray = None  # (R, J*D, n_channels)

    @property
    def n_samples(self):
        return self.taus.shape[0]

    @property
    def n_channels(self):
        return self.taus.shape[1]


def sample_prior(prior, R, seed):
    """R independent draws of the per-channel delay/Doppler tuples."""
    if R < 1:
        raise DomainError("need at least one sample")
    rng = np.random.default_rng(seed)
    taus = np.empty((R, prior.n_channels))
    nus = np.empty((R, prior.n_channels))
    taus[:, 0] = rng.uniform(0.0, prior.tau_max, size=R)
    nus[:, 0] = rng.uniform(-prior.nu_max, prior.nu_max, size=R)
    for c, (t_lo, t_hi, n_lo, n_hi) in enumerate(prior.offsets, start=1):
        taus[:, c] = taus[:, 0] + rng.uniform(t_lo, t_hi, size=R)
        nus[:, c] = nus[:, 0] + rng.uniform(n_lo, n_hi, size=R)
    return ObjectiveSamples(taus=taus, nus=nus)


class CKernelTable:
    """Precomputed ambiguity table for fast evaluation of the Doppler kernel
    matrix C^(nu)[m, lambda] on a fixed system."""

    def __init__(self, pulses, cfg):
        self.cfg = cfg
        self.freq = cfg.doppler_grid.astype(float)  # (J, N)
        # (J, D, N): one (D, N) matrix per Doppler row i + J/2
        self.amb_conj = np.conj(ambiguity_table(pulses, cfg))
        self.signs = (-1.0) ** np.arange(cfg.J)  # lambda-DFT index shift
        # -(-1)^n and exp(-j pi n (L_r - 1) / L_r) for n = i + q L
        self.neg_parity = np.where(self.freq % 2 == 0, -1.0, 1.0)
        self.phase = np.exp(-1j * np.pi * self.freq * (cfg.l_r - 1) / cfg.l_r)

    def psi(self, nus):
        """(len(nus), J, N) Doppler leakage factors of the kernel sum:
        exp(j pi (nu Ts - n / L_r)(L_r - 1)) psi(n - nu Ts L_r), n = i + q L;
        sin(pi (n - a)) = -(-1)^n sin(pi a) takes one sine per Doppler."""
        cfg = self.cfg
        nu_ts = np.asarray(nus, dtype=float)[:, None, None] * cfg.Ts
        a = nu_ts * cfg.l_r
        x = self.freq - a
        numerator = self.neg_parity * np.sin(np.pi * a)
        psi = psi_kernel(x.ravel(), cfg.l_r, numerator.ravel()).reshape(x.shape)
        return np.exp(1j * np.pi * (cfg.l_r - 1) * nu_ts) * self.phase * psi

    def c_matrices(self, nus):
        """(J, D, len(nus)) kernel matrices C^(nu)[m, lambda], indexed
        [lambda, m, nu]: one batched (J, D, N) @ (J, N, len(nus)) product and
        one inverse DFT over the Doppler rows."""
        X = self.amb_conj @ self.psi(nus).transpose(1, 2, 0)  # (J, D, len(nus))
        return (self.cfg.J * self.signs[:, None, None]) * np.fft.ifft(X, axis=0)


def build_C_matrix(taus, nus, cfg, filters, table):
    """Kernel matrices of delay/Doppler pairs: column xi stacks the per-delay
    blocks sqrt(D) phi^(nu)(m - tau/Ts) C^(nu)[m, :] of pair xi, with C from
    the :class:`CKernelTable` ``table`` of cfg.  All pairs share one
    ``phi_profiles`` call and one batched kernel product."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    nus = np.atleast_1d(np.asarray(nus, dtype=float))
    phi = phi_profiles(filters, taus / cfg.Ts, nus * cfg.Ts, cfg.D)  # (n_ch, D)
    C = table.c_matrices(nus) * (np.sqrt(cfg.D) * phi.T)  # (J, D, n_ch)
    return C.transpose(1, 0, 2).reshape(cfg.jd, len(taus))


# samples per build_C_matrix call: 4 gives the same bits as one call per
# sample in about half the time; larger blocks cost peak memory for little
_SAMPLE_BLOCK = 4


def attach_kernels(samples, pulses, cfg, filters):
    """Kernel matrices of all samples, ``_SAMPLE_BLOCK`` samples per call."""
    table = CKernelTable(pulses, cfg)
    C = np.empty((samples.n_samples, cfg.jd, samples.n_channels), dtype=complex)
    for lo in range(0, samples.n_samples, _SAMPLE_BLOCK):
        rho = slice(lo, lo + _SAMPLE_BLOCK)
        block = build_C_matrix(samples.taus[rho].ravel(), samples.nus[rho].ravel(),
                               cfg, filters, table)
        C[rho] = block.reshape(cfg.jd, -1, samples.n_channels).transpose(1, 0, 2)
    return replace(samples, C=C)


def mc_objective(basis, samples, tiling):
    """Monte-Carlo joint-group-sparsity objective of the :class:`BasisSpec`
    ``basis``: the summed block-Frobenius norm of the coefficient tensors over
    all prior samples, summed one delay column (dm delays) at a time, so only
    that column's coefficients are ever held."""
    if samples.C is None:
        raise DomainError("samples carry no kernel matrices; attach them first")
    if (basis.D, basis.J) != (tiling.D, tiling.J):
        raise ConfigurationError("basis does not match the tiling")
    C = samples.C.reshape(samples.n_samples, tiling.D, tiling.J, samples.n_channels)
    return sum(_subproblem_objective(basis.blocks[m:m + tiling.dm], C[:, m:m + tiling.dm],
                                     tiling.di)
               for m in range(0, tiling.D, tiling.dm))


def hermitian_unitary_exp(A):
    """Unitary matrix exp(jA) of a Hermitian A, via eigendecomposition."""
    A = np.asarray(A, dtype=complex)
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.conj().T).max() > 1e-12 * scale:
        raise DomainError("matrix is not Hermitian")
    w, V = np.linalg.eigh(A)
    return (V * np.exp(1j * w)) @ V.conj().T


@cache
def _doppler_partition(dm, J, di, n_channels):
    """Partition of one delay column's dm x J x n_channels coefficients,
    flattened in (m, lambda, xi) order, whose group k holds the Doppler rows
    lambda with lambda // di = k; built once per shape."""
    rows = np.arange(dm * J * n_channels) // n_channels % J
    return Partition(rows.size, tuple(np.flatnonzero(rows // di == k) for k in range(J // di)))


def _subproblem_objective(v_sub, C_sub, di):
    """Objective restricted to one delay column: sum over samples and Doppler
    blocks of the joint Frobenius norms of the coefficients V_m C_m.
    v_sub: (dm, J, J), C_sub: (R, dm, J, Xi)."""
    W = v_sub @ C_sub
    R, dm, J, n_ch = W.shape
    energies = _doppler_partition(dm, J, di, n_ch).energies(W.reshape(R, -1), rows=True)
    return float(np.sqrt(energies).sum())


# convex_update_step's smoothing of each block norm, sqrt(E + _SMOOTHING), and
# the gradients it takes at most, a safety bound on its FISTA loop
_SMOOTHING = 1e-8
_MAX_GRADIENTS = 54


def convex_update_step(v_sub, eps_bound, C_sub, di):
    """Approximately solve the convexified subproblem: Hermitian updates A_m
    with entrywise magnitude below ``eps_bound`` minimizing the linearized
    objective at (I + jA_m) V_m.

    Accelerated projected gradient (FISTA) on the smoothed objective, at
    most ``_MAX_GRADIENTS`` gradients: each takes the gradient at the
    extrapolated point Y, projects Y - step * gradient onto the box, and
    halves the step until the quadratic model of f at Y bounds f at the
    projected point; the step then grows by 1.5 for the next iteration.  When
    f does not decrease the momentum restarts (t = 1, Y at the new iterate).
    The iterates need not decrease, so the best one, no worse than A = 0, is
    returned; it is exactly Hermitian and inside the box.  A cap of 54
    gradients is the smallest with which the criterion-9 optimization (R=256,
    30 outer iterations) ends below the objective that 200 plain
    projected-gradient steps reach, by more than rounding-level perturbations
    of the kernels move it.

    The loop never forms the coefficients W_m = B_m M_m, with B_m = I + jA_m
    and M_m = V_m C_m.  Each sample's Gram matrix G = M_m M_m^H is packed once
    into J^2 real features: the diagonal, then 2 Re and -2 Im of the strict
    upper triangle.  The energy of Doppler block k is then sum_{p,q} G_pq Q_pq
    with Q = B_k^T conj(B_k) over the block's rows B_k of B_m, so all energies
    are one real product of the packed Grams with the packed (diagonal, Re
    and Im of the upper triangle) Q.  The gradient needs only the weighted
    Grams H_k = sum_rho w[rho, k] G_rho, one more real product.  A block
    energy that rounds below zero (an almost empty block) is clamped to zero.
    Packing and unpacking are each one ``take`` on the float view.
    """
    if eps_bound <= 0:
        raise DomainError("eps_bound must be positive")
    dm, J = v_sub.shape[0], v_sub.shape[1]
    R, nb = C_sub.shape[0], J // di
    # float-view positions (Re, Im interleaved) of the features
    upper = 2 * np.flatnonzero(np.triu(np.ones((J, J)), 1))
    pack = np.concatenate([2 * (J + 1) * np.arange(J), upper, upper + 1])
    weights = np.repeat([1.0, 2.0, -2.0], [J, upper.size, upper.size])
    # and back: each float of a Hermitian matrix is the feature of its own or
    # its mirrored entry over the weight, Im negated below the diagonal
    feature = np.zeros((J, J, 2), dtype=int)
    feature.flat[pack] = np.arange(J * J)
    unpack = np.maximum(feature, feature.transpose(1, 0, 2)).ravel()
    row, col = np.indices((J, J))
    scale = np.stack([np.ones((J, J)), np.sign(col - row)], axis=-1).ravel() / weights[unpack]

    M = v_sub @ C_sub  # (R, dm, J, Xi)
    gram = M @ np.conj(M.transpose(0, 1, 3, 2))
    # the features of a sample's dm Grams side by side: (R, dm * J^2)
    F = (gram.view(float).reshape(R, dm, 2 * J * J).take(pack, axis=2) * weights).reshape(R, -1)
    Ft = np.ascontiguousarray(F.T)
    eye = np.eye(J)
    cap = eps_bound * (1 - 1e-9)

    def clip(A):
        # Y - step * g is exactly Hermitian, and the scaling keeps conjugate pairs
        mag = np.abs(A)
        over = mag > cap
        return np.where(over, A * (cap / np.where(over, mag, 1.0)), A)

    def objective(A):
        B = eye + 1j * A
        rows = B.reshape(dm, nb, di, J).transpose(1, 0, 2, 3)  # (nb, dm, di, J)
        Q = rows.transpose(0, 1, 3, 2) @ np.conj(rows)  # (nb, dm, J, J)
        K = Q.view(float).reshape(nb, dm, 2 * J * J).take(pack, axis=2)
        e = np.maximum(F @ K.reshape(nb, dm * J * J).T, 0.0)  # (R, nb)
        return float(np.sqrt(e + _SMOOTHING).sum()), B, e

    def gradient(B, e):
        # differential Re tr(dA Gamma) with Gamma[:, c] = j H_k conj(B[c, :]),
        # k = c // di, H_k = sum_rho w[rho, k] G_rho, w = 1/sqrt(E + mu)
        w = 1.0 / np.sqrt(e + _SMOOTHING)
        P = (Ft @ w).T.reshape(nb, dm, J * J)
        H = (P.take(unpack, axis=2) * scale).view(complex).reshape(nb, dm, J, J)
        rows = np.conj(B).reshape(dm, nb, di, J).transpose(1, 0, 3, 2)  # (nb, dm, J, di)
        gam = 1j * (H @ rows).transpose(1, 2, 0, 3).reshape(dm, J, J)
        return 0.5 * (gam + np.conj(gam.transpose(0, 2, 1)))

    A = np.zeros((dm, J, J), dtype=complex)
    f, B, e = objective(A)
    best_f, best_A = f, A
    Y, f_y, B_y, e_y = A, f, B, e
    t, step = 1.0, eps_bound
    for _ in range(_MAX_GRADIENTS):
        g = gradient(B_y, e_y)
        g_max = np.abs(g).max()
        if g_max < 1e-15:
            break
        fits = False
        while step * g_max > 1e-12 * eps_bound:
            A_new = clip(Y - step * g)
            f_new, B_new, e_new = objective(A_new)
            d = A_new - Y
            if f_new <= f_y + np.vdot(g, d).real + np.vdot(d, d).real / (2 * step):
                fits = True
                break
            step *= 0.5
        if not fits:
            break
        if f_new < best_f:
            best_f, best_A = f_new, A_new
        t_new = 0.5 * (1 + math.sqrt(1 + 4 * t * t))
        if f_new >= f:  # function restart
            Y, f_y, B_y, e_y, t_new = A_new, f_new, B_new, e_new, 1.0
        else:
            Y = A_new + ((t - 1) / t_new) * (A_new - A)
            f_y, B_y, e_y = objective(Y)
        A, f, t = A_new, f_new, t_new
        step *= 1.5
    return best_A


@dataclass
class OptimizeDiagnostics:
    objective_history: list  # per subproblem: accepted objective values
    initial_objective: float
    final_objective: float


def optimize_blocks(samples, tiling, pulses, cfg, max_iters):
    """Iterative unitary basis optimization.

    The objective separates over delay columns of width dm; per column it
    alternates a convexified Hermitian-update solve (``convex_update_step``,
    accelerated projected gradient) with an exact matrix-exponential
    retraction, accepting an update only if the true objective strictly
    decreases and halving the update box otherwise.  The box starts at 0.1
    and a column stops once it falls below 1e-4 or after ``max_iters``
    outer iterations.  Blocks start from the DFT basis, so a run that accepts
    no update returns a basis with ``is_dft`` set.  Returns
    (BasisSpec, diagnostics).
    """
    if samples.C is None:
        raise DomainError("samples carry no kernel matrices; attach them first")
    if (tiling.D, tiling.J) != (cfg.D, cfg.J):
        raise ConfigurationError("tiling does not match the system dimensions")
    D, J, dm, di = cfg.D, cfg.J, tiling.dm, tiling.di
    blocks = np.broadcast_to(dft_block(J), (D, J, J)).copy()
    Cm = samples.C.reshape(samples.n_samples, D, J, samples.n_channels)
    histories = []
    for bp in range(D // dm):
        sel = slice(bp * dm, (bp + 1) * dm)
        v_sub = blocks[sel].copy()
        C_sub = Cm[:, sel]
        eps = 0.1
        y = _subproblem_objective(v_sub, C_sub, di)
        history = [y]
        for _ in range(max_iters):
            if eps < 1e-4:
                break
            A = convex_update_step(v_sub, eps, C_sub, di)
            v_try = np.stack([hermitian_unitary_exp(A[m]) @ v_sub[m] for m in range(dm)])
            y_try = _subproblem_objective(v_try, C_sub, di)
            if y_try < y:
                v_sub, y = v_try, y_try
                history.append(y)
            else:
                eps *= 0.5
        blocks[sel] = v_sub
        histories.append(history)
    # summed over the columns, the first and last values are mc_objective of
    # the DFT and of the returned blocks
    first, last = (sum(h[k] for h in histories) for k in (0, -1))
    return BasisSpec(blocks), OptimizeDiagnostics(histories, first, last)
