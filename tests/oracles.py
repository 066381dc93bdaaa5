"""Independent reference computations shared by the tests."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, solve_triangular
from scipy.linalg.blas import zgemm, zherk
from scipy.linalg.lapack import zgeqrf, zungqr

from mgcs.channel import phi_kernel, phi_profiles, psi_kernel
from mgcs.errors import ConfigurationError, DomainError
from mgcs.partition import Partition
from mgcs.recovery import RecoveryResult, _as_operator, _top_groups, group_ric, mgcs_stack
from mgcs.waveform import FactoredIR, ambiguity_table


def group_frobenius_norm(tensor, tiling):
    """Joint group-sparsity measure of a (D, J, n_channels) coefficient tensor:
    sum over blocks of the Frobenius norm of the block's entries across all
    channels.  Equals ``group_norm`` of the channel-stacked vector under
    ``stack_partition`` of the tiling's partition.
    """
    t = np.asarray(tensor)
    if t.ndim == 2:
        t = t[:, :, None]
    if t.shape[0] != tiling.D or t.shape[1] != tiling.J:
        raise DomainError("tensor shape does not match tiling rectangle")
    energy = np.abs(t) ** 2
    per_cell = energy.sum(axis=2)
    blocks = per_cell.reshape(
        tiling.D // tiling.dm, tiling.dm, tiling.J // tiling.di, tiling.di
    ).sum(axis=(1, 3))
    return float(np.sqrt(blocks).sum())


def uniform_partition(M, size):
    """Partition of {0..M-1} into contiguous groups of equal ``size``."""
    if M % size != 0:
        raise ConfigurationError("group size must divide M")
    return Partition(M, tuple(np.arange(M).reshape(-1, size)))


def group_norm(x, part):
    """Sum of the l2 norms of the group subvectors of ``x``."""
    x = np.asarray(x)
    if x.shape[-1] != part.total_length:
        raise DomainError("vector length does not match partition")
    return float(np.sqrt(part.energies(x)).sum())


def best_group_approx(x, part, S):
    """Keep the S groups of largest subvector l2 norm, zero the rest.

    Ties are broken toward the lowest group index for determinism.
    """
    if not (0 <= S <= part.n_groups):
        raise DomainError(f"S={S} outside 0..{part.n_groups}")
    x = np.asarray(x)
    out = np.zeros_like(x)
    cols = part.columns(np.argsort(-part.energies(x), kind="stable")[:S])
    out[..., cols] = x[..., cols]
    return out


def delta_stacked_equals_max(ensemble, part, S):
    """G-RIC of the stacked matrix and of each channel matrix, computed
    independently; the two sides agree by the block-diagonal structure."""
    Phi, _, part_stacked = mgcs_stack(ensemble, part)
    delta_stacked = group_ric(Phi, part_stacked, S)
    per_channel = [
        group_ric(ensemble.matrix_for(xi), part, S)
        for xi in range(ensemble.n_channels)
    ]
    return delta_stacked, per_channel


def _solve_ls_from_scratch(A, y):
    """Least squares by a full thin QR of ``A``, with the minimum-norm
    ``lstsq`` when the columns outnumber the rows or a diagonal of R is at or
    below 1e-12 max(max |diag R|, 1).  Returns (coefficients, rank lost)."""
    if A.shape[0] < A.shape[1]:
        return np.linalg.lstsq(A, y, rcond=None)[0], True
    q, r = np.linalg.qr(A)
    diag = np.abs(np.diag(r))
    if diag.size and diag.min() <= 1e-12 * max(diag.max(), 1.0):
        return np.linalg.lstsq(A, y, rcond=None)[0], True
    return solve_triangular(r, q.conj().T @ y), False


def g_omp_from_scratch(blocks, n_channels, y, part, max_groups, residual_tol):
    """Group OMP that factors every channel's selected columns from scratch
    at every iteration: the reference for the solver's grown factorization.

    ``blocks`` (n_tx, Q, M) measures channel xi = r n_tx + s with
    ``blocks[s]``, and ``y`` stacks the channels' observations.  ``part``
    covers one block's M columns, so group b is group b at every channel
    offset.  Returns (selected groups, stacked estimate, residual history,
    rank lost).
    """
    blocks = np.asarray(blocks, dtype=complex)
    n_tx, q, m = blocks.shape
    n_cols = n_channels * m
    dense = block_diag(*(blocks[xi % n_tx] for xi in range(n_channels)))
    length = part.total_length
    offsets = np.arange(0, n_cols, length)[:, None]
    cap = min(max_groups, part.n_groups)
    x = np.zeros(n_cols, dtype=complex)
    resid = y.copy()
    selected = []
    history = [float(np.linalg.norm(resid))]
    rank_lost = False
    while len(selected) < cap and history[-1] > residual_tol:
        per_entry = (np.abs((dense.conj().T @ resid).reshape(-1, length)) ** 2).sum(axis=0)
        energies = np.array([per_entry[g].sum() for g in part.groups])
        energies[selected] = -1.0
        b = int(np.argmax(energies))
        if energies[b] <= 0:
            break
        selected.append(b)
        cols = (offsets + np.concatenate([part.groups[g] for g in selected])).ravel()
        x = np.zeros(n_cols, dtype=complex)
        fit = np.zeros(n_channels * q, dtype=complex)
        for xi in range(n_channels):
            share = cols[cols // m == xi]
            if share.size == 0:
                continue
            A = blocks[xi % n_tx][:, share - xi * m]
            coef, lost = _solve_ls_from_scratch(A, y[xi * q: (xi + 1) * q])
            x[share] = coef
            fit[xi * q: (xi + 1) * q] = A @ coef
            rank_lost |= lost
        resid = y - fit
        history.append(float(np.linalg.norm(resid)))
    return selected, x, history, rank_lost


class GrownQRPerProblem:
    """Least squares of the right-hand sides ``Y`` (Q x n) on a growing list
    of columns of one matrix ``A``: a thin QR in its own buffers, grown by
    block Gram-Schmidt with one re-orthogonalization pass and LAPACK's QR of
    the new columns, and the minimum-norm ``lstsq`` on all selected columns
    once a diagonal of R is at or below 1e-12 max(max |diag R|, 1) or the
    columns outnumber the rows.  The reference for the stacked factor."""

    def __init__(self, A, Y, width):
        self.A, self.Y = A, Y
        width = min(A.shape[0], width)
        self.cols = np.zeros(0, dtype=np.intp)
        self.Q = np.empty((A.shape[0], width), dtype=complex, order="F")
        self.R = np.zeros((width, width), dtype=complex)
        self.QhY = np.empty((width, Y.shape[1]), dtype=complex)
        self.k = 0
        self.diag = (np.inf, 0.0)
        self.coef = None
        self.resid = Y.copy()

    @property
    def deficient(self):
        return self.coef is not None

    def append(self, new):
        if new.size == 0:
            return
        self.cols = np.concatenate([self.cols, new])
        k, g = self.k, new.size
        if not self.deficient and self.cols.size <= self.A.shape[0]:
            Qk = self.Q[:, :k]
            W = self.A[:, new]
            C = zgemm(1.0, Qk, W, trans_a=2)
            W -= Qk @ C
            C2 = zgemm(1.0, Qk, W, trans_a=2)
            W -= Qk @ C2
            qr, tau, _, _ = zgeqrf(W, overwrite_a=True)
            d = np.abs(qr.diagonal())
            diag = min(self.diag[0], d.min()), max(self.diag[1], d.max())
            if diag[0] > 1e-12 * max(diag[1], 1.0):
                self.diag = diag
                self.R[:k, k:k + g] = C + C2
                self.R[k:k + g, k:k + g] = qr[:g]
                q_new = self.Q[:, k:k + g]
                q_new[...] = zungqr(qr, tau, overwrite_a=True)[0]
                self.QhY[k:k + g] = q_new.conj().T @ self.Y
                self.k = k + g
                self.resid = self.Y - self.Q[:, :self.k] @ self.QhY[:self.k]
                return
        A = self.A[:, self.cols]
        self.coef = np.linalg.lstsq(A, self.Y, rcond=None)[0]
        self.resid = self.Y - A @ self.coef

    def coefficients(self):
        if self.deficient:
            return self.coef
        return solve_triangular(self.R[:self.k, :self.k], self.QhY[:self.k])


def g_omp_per_problem(Phi, y, part, max_groups, residual_tol):
    """Joint G-OMP with one :class:`GrownQRPerProblem` per least-squares
    problem, appended one after the other: per transmit matrix, with its
    channels as right-hand sides.  Returns the result with the
    (n_channels, M) estimates and per-channel residual norms, as ``g_omp``,
    and the final (n_channels, Q) residual."""
    Phi = _as_operator(Phi, part)
    n_tx, q, m = Phi.blocks.shape
    n_ch = Phi.n_channels
    Y = np.asarray(y, dtype=complex).reshape(n_ch, q)
    chans = np.arange(n_ch).reshape(-1, n_tx).T
    shares = [(s, chans[s], part.columns) for s in range(n_tx)]
    cap = min(max_groups, part.n_groups)
    width = cap * int(part.sizes.max())
    factors = [GrownQRPerProblem(Phi.blocks[s], Y[channels].T, width)
               for s, channels, _ in shares]
    resid = Y.copy()
    selected = []
    history = [float(np.linalg.norm(resid))]
    while len(selected) < cap and history[-1] > residual_tol:
        energies = part.energies(Phi.rmatvec(resid))
        energies[selected] = -1.0
        b = int(np.argmax(energies))
        if energies[b] <= 0:
            break
        selected.append(b)
        for (_, channels, columns), factor in zip(shares, factors):
            factor.append(columns([b]))
            resid[channels] = factor.resid.T
        history.append(float(np.linalg.norm(resid)))
    x = np.zeros((n_ch, m), dtype=complex)
    for (_, channels, _), factor in zip(shares, factors):
        x[np.ix_(channels, factor.cols)] = factor.coefficients().T
    result = RecoveryResult(
        estimates=x,
        selected_groups=selected,
        residual_norms=np.linalg.norm(resid, axis=1),
        iterations=len(selected),
        diagnostics={"residual_history": history,
                     "rank_deficient": any(f.deficient for f in factors)},
    )
    return result, resid


def g_cosamp_all_iterations(Phi, y, part, S, residual_tol, n_iters):
    """Group CoSaMP that runs every one of its ``n_iters`` iterations unless
    the residual reaches ``residual_tol``, also after the merged candidate set
    has stopped changing: the reference for the solver's fixed-point stop.
    ``iterations`` is the index of the last iteration entered."""
    Phi = _as_operator(Phi, part)
    y = np.asarray(y, dtype=complex)
    x = np.zeros(Phi.shape[1], dtype=complex)
    support = np.zeros(0, dtype=np.intp)
    resid = y.copy()
    history = [float(np.linalg.norm(resid))]
    rank_deficient = False
    it = 0
    for it in range(1, n_iters + 1):
        if history[-1] <= residual_tol:
            break
        proxy = part.energies(Phi.rmatvec(resid))
        candidates = np.union1d(_top_groups(proxy, 2 * S), support)
        b_full, deficient = Phi.lstsq(part, candidates, y)
        rank_deficient |= deficient
        support = np.sort(_top_groups(part.energies(b_full), S))
        keep = np.zeros(part.n_groups, dtype=bool)
        keep[support] = True
        x = np.where(part.expand(keep), b_full.reshape(-1, part.total_length), 0).reshape(-1)
        resid = y - Phi @ x
        history.append(float(np.linalg.norm(resid)))
    return RecoveryResult(
        estimates=x[None, :],
        selected_groups=support.tolist(),
        residual_norms=np.array([history[-1]]),
        iterations=it,
        diagnostics={"residual_history": history, "rank_deficient": rank_deficient},
    )


def lstsq_per_problem(op, part, groups, y):
    """``BlockDiagonalOperator.lstsq`` with each transmit matrix's problem
    solved on its own by :func:`_solve_ls_from_scratch`: the reference for
    the stacked factor's tall and wide fits."""
    cols = part.columns(groups)
    n_tx, q, m = op.blocks.shape
    Y = np.asarray(y).reshape(-1, n_tx, q)
    x = np.zeros((len(Y), n_tx, m), dtype=complex)
    rank_lost = False
    for s in range(n_tx):
        coef, lost = _solve_ls_from_scratch(op.blocks[s][:, cols], Y[:, s].T)
        x[:, s, cols] = coef.T
        rank_lost |= lost
    return x.reshape(-1), rank_lost


def group_prox_by_scatter(v, part, thresh):
    """Groupwise soft threshold: shrink each group's l2 norm by ``thresh``,
    the per-group factors spread over the columns by repeat and scatter."""
    norms = np.sqrt(part.energies(v))
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = np.maximum(0.0, 1.0 - thresh / norms[nz])
    per_column = np.empty(part.total_length)
    per_column[part.perm] = np.repeat(scale, part.sizes)
    return (v.reshape(-1, part.total_length) * per_column).reshape(v.shape)


def fista_two_norm_passes(Phi, y, lam, part, lip, x0, max_iter):
    """Accelerated proximal gradient for the penalized group-lasso form that
    computes the group norms twice per step, once for the shrink and once
    more for the penalty of the shrunk iterate: the reference for the
    solver's one-pass step in the penalty-search G-BPDN.  Returns
    (x, ||Phi x - y||, iterations, converged)."""
    x, px = x0, Phi @ x0
    z, pz = x, px
    t = 1.0
    resid = px - y
    obj_prev = 0.5 * np.vdot(resid, resid).real + lam * np.sqrt(part.energies(x)).sum()
    n_done, converged = 0, False
    for n_done in range(1, max_iter + 1):
        grad = Phi.rmatvec(pz - y)
        x_new = group_prox_by_scatter(z - grad / lip, part, lam / lip)
        px_new = Phi @ x_new
        resid = px_new - y
        obj = 0.5 * np.vdot(resid, resid).real + lam * np.sqrt(part.energies(x_new)).sum()
        t_new = 0.5 * (1 + math.sqrt(1 + 4 * t * t))
        if obj > obj_prev:  # function restart
            z, pz, t_new = x_new, px_new, 1.0
        else:
            beta = (t - 1) / t_new
            z = x_new + beta * (x_new - x)
            pz = px_new + beta * (px_new - px)
        done = abs(obj_prev - obj) <= 1e-12 * max(1.0, abs(obj_prev))
        x, px, t, obj_prev = x_new, px_new, t_new, obj
        if done:
            converged = True
            break
    return x, float(np.linalg.norm(px - y)), n_done, converged


def penalty_search_g_bpdn(Phi, y, part, eps, tol=1e-4, max_inner=4000, max_bisect=60):
    """G-BPDN through the group-lasso form, as the solver computed it before
    its ADMM: the residual of the penalized minimizer increases with the
    penalty, so the penalty with residual eps is a root of r(lam) - eps,
    bracketed by a vanishing-penalty probe and lam_max and found by regula
    falsi with the Illinois modification, aimed at eps (1 - tol/2).  Each
    penalty is solved by FISTA to a 1e-12 relative objective change,
    warm-started from the feasible end, whose iterate is returned with its
    penalty."""
    Phi = _as_operator(Phi, part)
    y = np.asarray(y, dtype=complex)
    lip = lipschitz_by_zherk(Phi.blocks)
    lam_max = float(np.sqrt(part.energies(Phi.rmatvec(y))).max())

    def solve(lam, x0):
        return fista_two_norm_passes(Phi, y, lam, part, lip, x0, max_inner)[:2]

    lo, hi = lam_max * 1e-12, lam_max
    x_lo, r_lo = solve(lo, np.zeros(Phi.shape[1], dtype=complex))
    target = eps * (1 - tol / 2)
    f_lo, f_hi = r_lo - target, float(np.linalg.norm(y)) - target
    kept = None  # bracket end that the previous step kept
    for _ in range(max_bisect):
        if r_lo >= eps * (1 - tol):
            break
        lam = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        margin = 1e-6 * (hi - lo)
        if not lo + margin < lam < hi - margin:
            lam = 0.5 * (lo + hi)
        x_new, r_new = solve(lam, x_lo)
        if r_new > eps:
            hi, f_hi = lam, r_new - target
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
        else:
            lo, x_lo, r_lo, f_lo = lam, x_new, r_new, r_new - target
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
    return x_lo, lo


def plain_admm_g_bpdn(Phi, y, part, eps, tol=1e-4, max_iter=2000):
    """G-BPDN by plain scaled-form ADMM (no over-relaxation), as the solver
    computed it before: every projection onto the noise ball goes through
    each block's Gram eigendecomposition, with mu from Newton's method on
    1/||w(mu)|| - 1/r, and the stop, the lift onto the radius and the groups
    reported as selected (norm above 1e-5 ||x||) are the solver's.  Returns
    (x, selected groups, residual norm, iterations)."""
    Phi = _as_operator(Phi, part)
    y = np.asarray(y, dtype=complex)
    n_tx, q, _ = Phi.blocks.shape
    g, U = np.linalg.eigh(Phi.gram())
    g = g[:, None, :]
    null = g <= 1e-12 * g.max()
    inv = np.divide(1.0, g, out=np.zeros_like(g), where=~null)
    Uc, Ut = U.conj(), U.transpose(0, 2, 1)

    def coords(a):
        return a.reshape(-1, n_tx, 1, q) @ Uc

    def back(c):
        return (c @ Ut).reshape(-1)

    r = eps * (1 - tol / 2)

    def project(v, pv):
        c = coords(pv - y)
        if eps == 0:
            return v - Phi.rmatvec(back(c * inv)), y + back(c * null)
        e = (c.conj() * c).real
        mu, d = 0.0, 1.0
        for _ in range(100):
            ed = e * d * d
            n2 = float(ed.sum())
            if n2 <= r * r * (1 + 1e-12):
                break
            n = math.sqrt(n2)
            mu += (1 / r - 1 / n) * n2 * n / float((ed * g * d).sum())
            d = 1.0 / (1.0 + mu * g)
        w = back(c * d)
        return v - mu * Phi.rmatvec(w), y + w

    tau = 0.3 * float(np.sqrt(part.energies(Phi.rmatvec(y))).max()) / g.max()
    z = u = np.zeros(Phi.shape[1], dtype=complex)
    pz = pu = np.zeros_like(y)
    for n_iter in range(1, max_iter + 1):
        x, px = project(z - u, pz - pu)
        v = x + u
        norms = np.sqrt(part.energies(v))
        scale = np.maximum(1.0 - tau / np.maximum(norms, tau), 0.0)
        z_new = (v.reshape(-1, part.total_length) * part.expand(scale)).reshape(-1)
        z_prev, z, pz = z, z_new, Phi @ z_new
        u, pu = v - z, pu + px - pz
        out, p_out = (z, pz) if eps > 0 else (x, px)
        resid = np.linalg.norm(p_out - y)
        if eps == 0 or resid <= eps:
            limit = 1e-5 * np.linalg.norm(z)
            if np.linalg.norm(x - z) <= limit and np.linalg.norm(z - z_prev) <= limit:
                break
    else:
        raise DomainError(f"plain ADMM did not converge in {max_iter} iterations")
    if eps > 0 and resid < eps * (1 - tol):
        y2 = float(np.linalg.norm(y)) ** 2
        a, b, c = np.vdot(pz, pz).real, np.vdot(pz, y).real, y2 - r * r
        alpha = c / (b + math.sqrt(b * b - a * c))
        out, p_out = alpha * z, alpha * pz
        resid = np.linalg.norm(p_out - y)
    norms = np.sqrt(part.energies(out))
    selected = [int(b) for b in np.nonzero(norms > 1e-5 * np.linalg.norm(out))[0]]
    return out, selected, float(resid), n_iter


def lipschitz_by_zherk(blocks):
    """||Phi||_2^2 of the operator over ``blocks`` (n_tx, Q, M): the largest
    top eigenvalue of the per-block smaller Gram matrices, each formed by a
    BLAS Hermitian rank-k update on the transposed view (conj(A A^H) when
    Q <= M, else conj(A^H A)), upper triangle only, with no copy of the block."""
    _, q, m = blocks.shape
    return max(
        float(np.linalg.eigvalsh(zherk(1.0, A.T, trans=2 if q <= m else 0), UPLO="U")[-1])
        for A in blocks
    )


def leakage_kernel(paths, p, chan, m, i, filters, cfg):
    """Shifted leakage kernel of path ``p`` on channel ``chan`` at (m, i):
    phi^(nu)(m - tau/Ts) psi(i - nu Ts L_r), one scalar per call."""
    tau = paths.delays[p, chan]
    nu = paths.dopplers[p, chan]
    phi = phi_kernel(filters, np.array([m - tau / cfg.Ts]), nu * cfg.Ts)[0]
    psi = psi_kernel(np.array([i - nu * cfg.Ts * cfg.l_r]), cfg.l_r)[0]
    return complex(phi * psi)


def cross_ambiguity(pulses, m, xi):
    """Cross-ambiguity A_{gamma,g}(m, xi) = sum_n gamma[n] conj(g[n-m]) e^{-j2pi xi n}."""
    n = np.arange(pulses.l_gamma + 1)
    gm = np.zeros_like(n, dtype=complex)
    idx = n - m
    valid = (idx >= 0) & (idx < len(pulses.g))
    gm[valid] = pulses.g[idx[valid]]
    return complex(np.sum(pulses.gamma * np.conj(gm) * np.exp(-2j * np.pi * xi * n)))


def dense_ir(H):
    """The dense (l_r, m_len, n_rx, n_tx) array of a :class:`FactoredIR`."""
    per_channel = np.moveaxis(H.phases(H.l_r), 0, 1) @ (
        H.gains[..., None] * H.profiles)  # (n_ch, l_r, m_len)
    return np.moveaxis(per_channel, 0, -1).reshape(H.l_r, H.m_len, H.n_rx, H.n_tx)


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


def spreading_model(paths, cfg, filters):
    """Discrete-delay-Doppler spreading functions of the specular model.

    S_h[m, i] = sum_p eta_p exp(j pi (nu_p Ts - i/L_r)(L_r - 1)) Lambda_p[m, i]
    evaluated on {0..K-1} x {0..L_r-1}; matches the DFT of the impulse
    response from ``discrete_ir`` exactly.  Returns (n_channels, K, L_r).
    """
    l_r = cfg.l_r
    i = np.arange(l_r)
    S = np.zeros((cfg.n_channels, cfg.K, l_r), dtype=complex)
    for xi in range(cfg.n_channels):
        nu_ts = paths.dopplers[:, xi] * cfg.Ts
        phi = phi_profiles(filters, paths.delays[:, xi] / cfg.Ts, nu_ts, cfg.K)  # (P, K)
        for p in range(paths.n_paths):
            psi = psi_kernel(i - nu_ts[p] * l_r, l_r)
            phase = np.exp(1j * np.pi * (nu_ts[p] - i / l_r) * (l_r - 1))
            S[xi] += paths.gains[p, xi] * np.outer(phi[p], phase * psi)
    return S


def dft_coeffs(S_h, pulses, cfg):
    """2D-DFT channel coefficients on the fundamental rectangle.

    F_{m,i} = sum_{q=0}^{N-1} S_h[m, i + q L] conj(A(m, (i + q L)/L_r)) for
    m in {0..D-1}, i in {-J/2..J/2-1}; negative Doppler indices wrap modulo
    L_r; A is the kernel matrices' ``ambiguity_table``.  Returns F as a
    (D, J, n_channels) array, Doppler axis index i + J/2; the DFT-basis
    coefficients are G = sqrt(J D) F.
    """
    S_h = np.asarray(S_h)[:, : cfg.D, np.mod(cfg.doppler_grid, cfg.l_r)]  # (n_ch, D, J, N)
    amb = np.conj(ambiguity_table(pulses, cfg)).transpose(1, 0, 2)  # (D, J, N)
    return np.moveaxis((S_h * amb).sum(axis=3), 0, -1)


def assemble_basis(basis):
    """Full unitary J D x J D matrix of a ``BasisSpec``.

    Row order is the row-wise (lambda, kappa) stacking; column order is
    the delay-Doppler rank map.  Entry:
    U[kappa + lambda D, m J + i + J/2] = (1/sqrt(D)) v_{m,i}[lambda]
    exp(-j 2 pi kappa m / D) with v_{m,i}[lambda] = conj(V_m[i+J/2, lambda]).
    """
    J, D = basis.J, basis.D
    U = np.zeros((J * D, J * D), dtype=complex)
    kappa = np.arange(D)
    for m in range(D):
        vm = basis.blocks[m]
        phase = np.exp(-2j * np.pi * kappa * m / D) / np.sqrt(D)  # (D,)
        # rows (lambda, kappa), columns a = i + J/2
        block_rows = np.conj(vm).T[:, None, :] * phase[None, :, None]  # (J, D, J)
        U[:, m * J: (m + 1) * J] = block_rows.reshape(J * D, J)
    if np.abs(U.conj().T @ U - np.eye(J * D)).max() > 1e-10:
        raise ConfigurationError("assembled basis is not unitary")
    return U


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


def dense_apply_channel(H, s):
    """r[n] = sum_m H[n, m] s[n - m] on a dense (L_r, m_len, n_rx, n_tx)
    impulse response, one delay tap at a time."""
    s = np.asarray(s, dtype=complex)
    l_r, m_len = H.shape[0], H.shape[1]
    r = np.zeros((l_r, H.shape[2]), dtype=complex)
    for m in range(m_len):
        hi = min(l_r, len(s) + m)
        if hi > m:
            r[m:hi] += np.einsum("nrt,nt->nr", H[m:hi, m], s[: hi - m])
    return r


def dense_effective_coeffs(H, pulses, cfg):
    """H_{l,k}: the K-point DFT over m, folded modulo K, of
    W_l[m] = sum_n' H[lN + n', m] g[n' - m] conj(gamma[n']), per symbol."""
    lg1, m_len = pulses.l_gamma + 1, H.shape[1]
    w = np.zeros((lg1, m_len), dtype=complex)
    for m in range(m_len):
        for n in range(m, min(lg1, m + len(pulses.g))):
            w[n, m] = pulses.g[n - m] * np.conj(pulses.gamma[n])
    out = np.empty((cfg.L, cfg.K, H.shape[2], H.shape[3]), dtype=complex)
    for l in range(cfg.L):
        W = np.einsum("nmrt,nm->mrt", H[l * cfg.N: l * cfg.N + lg1], w)
        Wk = np.zeros((cfg.K,) + W.shape[1:], dtype=complex)
        np.add.at(Wk, np.arange(m_len) % cfg.K, W)
        out[l] = np.fft.fft(Wk, axis=0)
    return out


def c_kernel(nu, m, lam, pulses, cfg):
    """Scalar Doppler kernel value C^(nu)[m, lambda] by direct double summation."""
    total = 0.0 + 0.0j
    l_r = cfg.l_r
    for i in range(-cfg.J // 2, cfg.J // 2):
        for q in range(cfg.N):
            n = i + q * cfg.L
            psi_nu = np.exp(1j * np.pi * (nu * cfg.Ts - n / l_r) * (l_r - 1)) * psi_kernel(
                np.array([n - nu * cfg.Ts * l_r]), l_r
            )[0]
            total += (
                psi_nu
                * np.conj(cross_ambiguity(pulses, m, n / l_r))
                * np.exp(2j * np.pi * lam * i / cfg.J)
            )
    return total


def c_matrix(table, nu):
    """(D, J) matrix of C^(nu)[m, lambda] from a ``CKernelTable``, one
    Doppler at a time: the elementwise product with the psi row summed over
    q, then the inverse DFT over the Doppler rows."""
    X = (table.amb_conj * table.psi([nu])[0][:, None, :]).sum(axis=2)  # (J, D)
    return (table.signs[:, None] * table.cfg.J * np.fft.ifft(X, axis=0)).T


def expand_coeffs_loop(g_tensor, basis, D, J):
    """Per-channel route of the non-DFT expansion: per delay m the
    matrix-vector product V_m^H g_m, the DFT over m to the subsampled grid,
    and the inverse subsampled 2D DFT back to the rectangle.  Returns
    (f_tensor, h_sub)."""
    n_ch = g_tensor.shape[2]
    f_tensor = np.empty_like(g_tensor)
    h_sub = np.empty((J, D, n_ch), dtype=complex)
    for xi in range(n_ch):
        T = np.stack([np.conj(basis.blocks[m]).T @ g_tensor[m, :, xi] for m in range(D)])
        hs = np.fft.fft(T, axis=0).T / np.sqrt(D)
        h_sub[:, :, xi] = hs
        F = np.fft.fft(np.fft.ifft(hs, axis=1), axis=0) / J  # (i mod J, m)
        f_tensor[:, :, xi] = np.fft.fftshift(F, axes=0).T
    return f_tensor, h_sub


def explicit_convex_subproblem(v_sub, eps_bound, C_sub, di, smoothing):
    """The convexified basis-update subproblem on the explicit coefficients
    W_m = (I + jA_m) V_m C_m, flattened to (J, R * Xi).  Returns
    clip(A), the projection onto the Hermitian box; objective(A) ->
    (smoothed objective, W, block energies e); and gradient(W, e), the
    Hermitian gradient."""
    dm, J = v_sub.shape[0], v_sub.shape[1]
    R, xi = C_sub.shape[0], C_sub.shape[3]
    M = [v_sub[m] @ np.moveaxis(C_sub[:, m], 0, 1).reshape(J, R * xi) for m in range(dm)]
    cap = eps_bound * (1 - 1e-9)

    def clip(A):
        mag = np.abs(A)
        over = mag > cap
        A = np.where(over, A * (cap / np.where(over, mag, 1.0)), A)
        return 0.5 * (A + np.conj(A.transpose(0, 2, 1)))

    def objective(A):
        W = [M[m] + 1j * (A[m] @ M[m]) for m in range(dm)]
        e = np.zeros((R, J))
        for m in range(dm):
            e += (np.abs(W[m]) ** 2).reshape(J, R, xi).sum(axis=2).T
        e = e.reshape(R, J // di, di).sum(axis=2)
        return float(np.sqrt(e + smoothing).sum()), W, e

    def gradient(W, e):
        w = 1.0 / np.sqrt(e + smoothing)
        w_flat = np.repeat(np.repeat(w, di, axis=1).T[:, :, None], xi, axis=2).reshape(J, R * xi)
        out = np.empty((dm, J, J), dtype=complex)
        for m in range(dm):
            gam = 1j * (M[m] @ (np.conj(W[m]) * w_flat).T)
            out[m] = 0.5 * (gam + gam.conj().T)
        return out

    return clip, objective, gradient


def projected_gradient_convex_step(v_sub, eps_bound, C_sub, di, smoothing=1e-8, max_iter=200):
    """The convexified basis-update subproblem solved by plain projected
    gradient on the explicit coefficients: at most ``max_iter`` steps, each
    accepted only if it strictly lowers the smoothed objective, with the step
    grown by 1.5 after a success and halved after a failure.  Returns the
    Hermitian updates A (dm, J, J)."""
    clip, objective, gradient = explicit_convex_subproblem(
        v_sub, eps_bound, C_sub, di, smoothing)
    A = np.zeros(v_sub.shape, dtype=complex)
    f, W, e = objective(A)
    step = eps_bound
    for _ in range(max_iter):
        g = gradient(W, e)
        g_max = np.abs(g).max()
        if g_max < 1e-15:
            break
        improved = False
        while step * g_max > 1e-12 * eps_bound:
            A_try = clip(A - step * g)
            f_try, W_try, e_try = objective(A_try)
            if f_try < f - 1e-15 * max(1.0, abs(f)):
                A, f, W, e = A_try, f_try, W_try, e_try
                step *= 1.5
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return A
