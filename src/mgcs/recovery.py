"""Group-sparse, jointly sparse and jointly group-sparse recovery.

Greedy solvers (G-OMP, G-CoSaMP, G-DCS-SOMP), a proximal-gradient G-BPDN with
scalar root finding on the residual curve, the multichannel stacking that
turns simultaneous group-sparse problems into one block-diagonal group-sparse
problem, and brute-force certification of group restricted isometry constants.

G-OMP, G-CoSaMP and G-BPDN act on their measurement matrix only through a
:class:`BlockDiagonalOperator`: a plain matrix is its one-block case, and the
stacked multichannel problem is the operator over the per-transmit matrices,
so the dense block-diagonal stack is never formed on the solver path.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from itertools import combinations

from .errors import BudgetExceededError, ConvergenceError, DomainError
from .partition import stack_partition


@dataclass(frozen=True)
class MeasurementEnsemble:
    """Per-transmit measurement matrices and per-channel observations.

    ``matrices[s]`` is the Q x M matrix seen by every channel (r, s);
    ``observations`` has shape (n_channels, Q) in row-major (r, s) order.
    """

    matrices: tuple
    observations: np.ndarray
    noise_radius: float = 0.0

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=complex) for m in self.matrices)
        obs = np.asarray(self.observations, dtype=complex)
        if obs.ndim == 1:
            obs = obs[None, :]
        shapes = {m.shape for m in mats}
        if len(shapes) != 1:
            raise DomainError("all measurement matrices must share dimensions")
        if obs.shape[1] != mats[0].shape[0]:
            raise DomainError("observation length does not match Q")
        if obs.shape[0] % len(mats) != 0:
            raise DomainError("channel count must be a multiple of the transmit count")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "observations", obs)

    @property
    def n_channels(self):
        return self.observations.shape[0]

    @property
    def n_tx(self):
        return len(self.matrices)

    @property
    def shape(self):
        return self.matrices[0].shape

    def matrix_for(self, chan):
        """Matrix of channel index chan = r * n_tx + s."""
        return self.matrices[chan % self.n_tx]


@dataclass
class RecoveryResult:
    """Solver output: per-channel estimates plus selection diagnostics."""

    estimates: np.ndarray
    selected_groups: list
    residual_norms: np.ndarray
    iterations: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def x(self):
        """Single-channel estimate convenience view."""
        return self.estimates[0]


class _GroupIndexer:
    """Flat index machinery for fast per-group reductions."""

    def __init__(self, part):
        self.part = part
        self.perm = np.concatenate(part.groups)
        sizes = part.sizes()
        self.starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.sizes = sizes

    def energies(self, v):
        return np.add.reduceat(np.abs(v[self.perm]) ** 2, self.starts)

    def expand(self, per_group):
        out = np.empty(self.part.total_length, dtype=per_group.dtype)
        out[self.perm] = np.repeat(per_group, self.sizes)
        return out


def _solve_ls(A, y):
    """Least squares via thin QR with a minimum-norm fallback on rank loss."""
    if A.shape[0] < A.shape[1]:
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        return coef, True
    q, r = np.linalg.qr(A)
    diag = np.abs(np.diag(r))
    if diag.size and diag.min() <= 1e-12 * max(diag.max(), 1.0):
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        return coef, True
    from scipy.linalg import solve_triangular

    return solve_triangular(r, q.conj().T @ y), False


class BlockDiagonalOperator:
    """Block-diagonal measurement operator over per-transmit matrices.

    ``blocks`` has shape (n_tx, Q, M); channel xi = r * n_tx + s is measured
    by ``blocks[s]``, and the operator maps the stacked vector of
    ``n_channels`` length-M coefficient vectors to the stacked vector of
    their length-Q measurements.  Products, least squares and the Lipschitz
    constant work block by block; ``np.asarray(op)`` gives the dense
    (n_channels Q) x (n_channels M) matrix.
    """

    def __init__(self, blocks, n_channels):
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.ndim != 3:
            raise DomainError("blocks must have shape (n_tx, Q, M)")
        if n_channels < 1 or n_channels % blocks.shape[0] != 0:
            raise DomainError("channel count must be a multiple of the transmit count")
        self.blocks = blocks
        self.n_channels = n_channels

    @property
    def shape(self):
        _, q, m = self.blocks.shape
        return (self.n_channels * q, self.n_channels * m)

    def __matmul__(self, x):
        n_tx, _, m = self.blocks.shape
        return np.matmul(self.blocks, x.reshape(-1, n_tx, m, 1)).reshape(-1)

    def rmatvec(self, v):
        """Phi^H v without materializing the conjugate transpose of Phi."""
        n_tx, q, _ = self.blocks.shape
        return np.matmul(v.conj().reshape(-1, n_tx, 1, q), self.blocks).conj().reshape(-1)

    def lstsq(self, cols, y):
        """Least squares of ``y`` on the columns ``cols``, one ``_solve_ls``
        per channel on its share of the columns.  Returns the coefficients in
        ``cols`` order, the fit Phi[:, cols] @ coef, and whether any channel
        fell back to minimum norm."""
        n_tx, q, m = self.blocks.shape
        if self.n_channels == 1:  # a plain matrix: no column split to pay for
            A = self.blocks[0][:, cols]
            coef, deficient = _solve_ls(A, y)
            return coef, A @ coef, deficient
        coef = np.empty(len(cols), dtype=complex)
        fit = np.zeros(self.shape[0], dtype=complex)
        owner = cols // m
        deficient = False
        for xi in range(self.n_channels):
            share = owner == xi
            A = self.blocks[xi % n_tx][:, cols[share] - xi * m]
            c, d = _solve_ls(A, y[xi * q: (xi + 1) * q])
            coef[share] = c
            fit[xi * q: (xi + 1) * q] = A @ c
            deficient |= d
        return coef, fit, deficient

    def lipschitz(self):
        """||Phi||_2^2: the largest top eigenvalue of the per-transmit Gram
        matrices, each the smaller Gram formed by a Hermitian rank-k update on
        the transposed view (conj(A A^H) when Q <= M, else conj(A^H A)), upper
        triangle only, with no copy of the block."""
        from scipy.linalg.blas import zherk

        _, q, m = self.blocks.shape
        return max(
            float(np.linalg.eigvalsh(zherk(1.0, A.T, trans=2 if q <= m else 0), UPLO="U")[-1])
            for A in self.blocks
        )

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("the dense matrix of a block-diagonal operator is always a copy")
        n_tx, q, m = self.blocks.shape
        dense = np.zeros(self.shape, dtype=complex)
        for xi in range(self.n_channels):
            dense[xi * q: (xi + 1) * q, xi * m: (xi + 1) * m] = self.blocks[xi % n_tx]
        return dense if dtype is None else dense.astype(dtype, copy=False)


def _as_operator(Phi):
    """``Phi`` itself if it is an operator, else the one-block operator of the
    matrix."""
    if isinstance(Phi, BlockDiagonalOperator):
        return Phi
    return BlockDiagonalOperator(np.asarray(Phi, dtype=complex)[None], 1)


def _top_groups(energies, count):
    return np.argsort(-energies, kind="stable")[:count]


def g_omp(Phi, y, part, max_groups=None, residual_tol=0.0):
    """Group orthogonal matching pursuit.

    Adds per iteration the group with the largest aggregated correlation
    energy and re-solves least squares on the selected column union; stops at
    ``max_groups`` selections or when the residual norm drops to
    ``residual_tol``.  ``Phi`` is a matrix or a :class:`BlockDiagonalOperator`.
    """
    Phi = _as_operator(Phi)
    y = np.asarray(y, dtype=complex)
    if part.total_length != Phi.shape[1]:
        raise DomainError("partition does not match the column count")
    idx = _GroupIndexer(part)
    cap = part.n_groups if max_groups is None else min(max_groups, part.n_groups)
    x = np.zeros(Phi.shape[1], dtype=complex)
    resid = y.copy()
    selected = []
    history = [float(np.linalg.norm(resid))]
    rank_deficient = False
    while len(selected) < cap and history[-1] > residual_tol:
        energies = idx.energies(Phi.rmatvec(resid))
        energies[selected] = -1.0
        b = int(np.argmax(energies))
        if energies[b] <= 0:
            break
        selected.append(b)
        cols = np.concatenate([part.groups[g] for g in selected])
        coef, fit, deficient = Phi.lstsq(cols, y)
        rank_deficient |= deficient
        x = np.zeros_like(x)
        x[cols] = coef
        resid = y - fit
        history.append(float(np.linalg.norm(resid)))
    return RecoveryResult(
        estimates=x[None, :],
        selected_groups=selected,
        residual_norms=np.array([history[-1]]),
        iterations=len(selected),
        diagnostics={"residual_history": history, "rank_deficient": rank_deficient},
    )


def g_dcs_somp(ensemble, part, max_groups=None, residual_tol=0.0):
    """Greedy joint-support identification across all channels.

    Each iteration adds the group maximizing the correlation energy summed
    over channels and group members, then re-solves least squares per channel
    on the joint support.  With singleton groups this is DCS-SOMP.
    """
    mats = [ensemble.matrix_for(xi) for xi in range(ensemble.n_channels)]
    obs = ensemble.observations
    if part.total_length != mats[0].shape[1]:
        raise DomainError("partition does not match the column count")
    idx = _GroupIndexer(part)
    cap = part.n_groups if max_groups is None else min(max_groups, part.n_groups)
    x = np.zeros((ensemble.n_channels, part.total_length), dtype=complex)
    resid = obs.copy()
    selected = []
    history = [float(np.linalg.norm(resid))]
    rank_deficient = False
    while len(selected) < cap and history[-1] > residual_tol:
        energies = np.zeros(part.n_groups)
        for xi in range(ensemble.n_channels):
            energies += idx.energies((resid[xi].conj() @ mats[xi]).conj())
        energies[selected] = -1.0
        b = int(np.argmax(energies))
        if energies[b] <= 0:
            break
        selected.append(b)
        cols = np.concatenate([part.groups[g] for g in selected])
        for xi in range(ensemble.n_channels):
            coef, deficient = _solve_ls(mats[xi][:, cols], obs[xi])
            rank_deficient |= deficient
            x[xi] = 0
            x[xi, cols] = coef
            resid[xi] = obs[xi] - mats[xi][:, cols] @ coef
        history.append(float(np.linalg.norm(resid)))
    return RecoveryResult(
        estimates=x,
        selected_groups=selected,
        residual_norms=np.linalg.norm(resid, axis=1),
        iterations=len(selected),
        diagnostics={"residual_history": history, "rank_deficient": rank_deficient},
    )


def g_cosamp(Phi, y, part, S, n_iters=30, residual_tol=0.0):
    """Group-structured CoSaMP.

    Per iteration: build the proxy Phi^H r, select the 2S groups of largest
    aggregated proxy energy, merge with the current support, least-squares on
    the merged column union, and prune to the S groups of largest solution
    norm.  The output is always group-S-sparse.  ``Phi`` is a matrix or a
    :class:`BlockDiagonalOperator`.
    """
    Phi = _as_operator(Phi)
    y = np.asarray(y, dtype=complex)
    sizes = part.sizes()
    if sizes.min() != sizes.max():
        raise DomainError("G-CoSaMP requires groups of equal size")
    if S < 1 or 4 * S > part.n_groups:
        raise DomainError(f"need 1 <= S and 4S <= B (S={S}, B={part.n_groups})")
    idx = _GroupIndexer(part)
    x = np.zeros(Phi.shape[1], dtype=complex)
    support = []
    resid = y.copy()
    history = [float(np.linalg.norm(resid))]
    rank_deficient = False
    it = 0
    for it in range(1, n_iters + 1):
        if history[-1] <= residual_tol:
            break
        proxy = idx.energies(Phi.rmatvec(resid))
        candidates = sorted(set(_top_groups(proxy, 2 * S)) | set(support))
        cols = np.concatenate([part.groups[g] for g in candidates])
        coef, _, deficient = Phi.lstsq(cols, y)
        rank_deficient |= deficient
        b_full = np.zeros(Phi.shape[1], dtype=complex)
        b_full[cols] = coef
        keep = _top_groups(idx.energies(b_full), S)
        support = sorted(int(g) for g in keep)
        x = np.zeros_like(x)
        for g in support:
            x[part.groups[g]] = b_full[part.groups[g]]
        resid = y - Phi @ x
        history.append(float(np.linalg.norm(resid)))
    return RecoveryResult(
        estimates=x[None, :],
        selected_groups=support,
        residual_norms=np.array([history[-1]]),
        iterations=it,
        diagnostics={"residual_history": history, "rank_deficient": rank_deficient},
    )


def _group_prox(v, idx, thresh):
    """Groupwise soft threshold: shrink each group's l2 norm by ``thresh``."""
    norms = np.sqrt(idx.energies(v))
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = np.maximum(0.0, 1.0 - thresh / norms[nz])
    return v * idx.expand(scale)


def _fista(Phi, y, lam, idx, lip, x0, max_iter, rel_tol=1e-12):
    """Accelerated proximal gradient for the penalized group-lasso form.

    Carries Phi x across steps, so each step costs one forward and one adjoint
    product.  Returns (x, ||Phi x - y||, iterations, converged).
    """
    x, px = x0, Phi @ x0
    z, pz = x, px
    t = 1.0
    resid = px - y
    obj_prev = 0.5 * np.vdot(resid, resid).real + lam * np.sqrt(idx.energies(x)).sum()
    n_done, converged = 0, False
    for n_done in range(1, max_iter + 1):
        grad = Phi.rmatvec(pz - y)
        x_new = _group_prox(z - grad / lip, idx, lam / lip)
        px_new = Phi @ x_new
        resid = px_new - y
        obj = 0.5 * np.vdot(resid, resid).real + lam * np.sqrt(idx.energies(x_new)).sum()
        t_new = 0.5 * (1 + math.sqrt(1 + 4 * t * t))
        if obj > obj_prev:  # function restart
            z, pz, t_new = x_new, px_new, 1.0
        else:
            beta = (t - 1) / t_new
            z = x_new + beta * (x_new - x)
            pz = px_new + beta * (px_new - px)
        done = abs(obj_prev - obj) <= rel_tol * max(1.0, abs(obj_prev))
        x, px, t, obj_prev = x_new, px_new, t_new, obj
        if done:
            converged = True
            break
    return x, float(np.linalg.norm(px - y)), n_done, converged


def g_bpdn(Phi, y, part, eps, tol=1e-4, max_inner=4000, max_bisect=60):
    """Group basis pursuit denoising: minimize the group norm subject to
    ||Phi x - y||_2 <= eps.

    Solved through the equivalent group-lasso form: the residual r(lam) of
    the penalized minimizer increases with the penalty lam, so the penalty
    with residual eps is a root of r(lam) - eps.  The root is bracketed by a
    vanishing-penalty feasibility probe and by lam_max, where x = 0 and
    r = ||y|| are known without a solve, and is found by regula falsi with
    the Illinois modification, aimed at eps (1 - tol/2) and falling back to
    bisection when a step lands at a bracket end.  At most ``max_bisect``
    penalties follow the probe, each solved by FISTA warm-started from the
    feasible end; the feasible-side iterate, with residual in
    [eps (1 - tol), eps] once the search succeeds, is returned.  eps = 0 is
    treated as the vanishing-penalty basis pursuit limit.

    ``iterations`` is the total FISTA iteration count; the diagnostics give
    the penalty, the number of FISTA solves (``penalty_solves``) and how many
    of them stopped at ``max_inner`` unconverged (``inner_cap_hits``).
    ``Phi`` is a matrix or a :class:`BlockDiagonalOperator`; the Lipschitz
    constant is the largest over its blocks.
    """
    Phi = _as_operator(Phi)
    y = np.asarray(y, dtype=complex)
    if part.total_length != Phi.shape[1]:
        raise DomainError("partition does not match the column count")
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    idx = _GroupIndexer(part)
    y_norm = float(np.linalg.norm(y))
    zero = np.zeros(Phi.shape[1], dtype=complex)
    if y_norm <= eps or y_norm == 0.0:
        return RecoveryResult(
            estimates=zero[None, :],
            selected_groups=[],
            residual_norms=np.array([y_norm]),
            iterations=0,
            diagnostics={"lambda": None, "penalty_solves": 0, "inner_cap_hits": 0},
        )
    lip = Phi.lipschitz()
    lam_max = float(np.sqrt(idx.energies(Phi.rmatvec(y))).max())
    solves = []  # (iterations, converged) per FISTA solve

    def solve(lam, x0):
        x, r, n, converged = _fista(Phi, y, lam, idx, lip, x0, max_inner)
        solves.append((n, converged))
        return x, r

    if eps == 0.0:
        x, r = solve(lam_max * 1e-10, zero)
        lam_lo = None
    else:
        lo, hi = lam_max * 1e-12, lam_max
        x_lo, r_lo = solve(lo, zero)
        if r_lo > eps * (1 + tol):
            raise ConvergenceError(
                f"could not reach the feasibility radius ({r_lo:.3e} > {eps:.3e})",
                best=x_lo,
            )
        target = eps * (1 - tol / 2)
        f_lo, f_hi = r_lo - target, y_norm - target
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
        x, r, lam_lo = x_lo, r_lo, float(lo)
    norms = np.sqrt(idx.energies(x))
    selected = [int(b) for b in np.nonzero(norms > 1e-12 * max(norms.max(), 1e-300))[0]]
    return RecoveryResult(
        estimates=x[None, :],
        selected_groups=selected,
        residual_norms=np.array([r]),
        iterations=sum(n for n, _ in solves),
        diagnostics={
            "lambda": lam_lo,
            "penalty_solves": len(solves),
            "inner_cap_hits": sum(not converged for _, converged in solves),
        },
    )


def mgcs_stack(ensemble, part):
    """Stack a multichannel ensemble into one block-diagonal group problem.

    Returns (Phi_stacked, y_stacked, stacked_partition); solving the stacked
    system with G-OMP, G-CoSaMP or G-BPDN is the multichannel mode.
    ``Phi_stacked`` is the :class:`BlockDiagonalOperator` over the ensemble's
    per-transmit matrices, which never forms the (n_channels Q) x
    (n_channels M) matrix; ``np.asarray`` of it gives that dense matrix.
    """
    n_ch = ensemble.n_channels
    Phi = BlockDiagonalOperator(np.stack(ensemble.matrices), n_ch)
    if n_ch == 1:
        return Phi, ensemble.observations[0], part
    y = ensemble.observations.reshape(-1)
    return Phi, y, stack_partition(part, ensemble.shape[1], n_ch)


def unstack_estimates(x_stacked, M, n_channels):
    """Split a stacked solution back into per-channel estimates."""
    return np.asarray(x_stacked).reshape(n_channels, M)


def group_ric(Phi, part, S, budget=100_000):
    """Brute-force group restricted isometry constant of order S.

    Enumerates every S-group column support and takes the worst Gram
    eigenvalue deviation from 1.  Refuses when the enumeration exceeds the
    budget.
    """
    if S < 0 or S > part.n_groups:
        raise DomainError(f"S={S} outside 0..{part.n_groups}")
    n_supports = math.comb(part.n_groups, S)
    if n_supports > budget:
        raise BudgetExceededError(
            f"{n_supports} supports exceed the enumeration budget {budget}"
        )
    Phi = np.asarray(Phi, dtype=complex)
    delta = 0.0
    for combo in combinations(range(part.n_groups), S):
        cols = np.concatenate([part.groups[b] for b in combo])
        gram = Phi[:, cols].conj().T @ Phi[:, cols]
        w = np.linalg.eigvalsh(gram)
        delta = max(delta, float(w[-1] - 1.0), float(1.0 - w[0]))
    return delta


def delta_stacked_equals_max(ensemble, part, S, budget=100_000):
    """G-RIC of the stacked matrix and of each channel matrix, computed
    independently; the two sides agree by the block-diagonal structure."""
    Phi, _, part_stacked = mgcs_stack(ensemble, part)
    delta_stacked = group_ric(Phi, part_stacked, S, budget=budget)
    per_channel = [
        group_ric(ensemble.matrix_for(xi), part, S, budget=budget)
        for xi in range(ensemble.n_channels)
    ]
    return delta_stacked, per_channel


def sample_count_bound(S_prime, M, gamma, eta, mu_u, C=1.0):
    """Measurement-count bound for random row subsampling of a unitary matrix.

    ceil(C mu^2 S' max{log^3(S') log(M), log(1/eta)} / gamma^2), natural logs.
    The constant C is not pinned down by theory; the default 1 is heuristic.
    """
    if not (0 < gamma < 1 and 0 < eta < 1):
        raise DomainError("gamma and eta must lie in (0, 1)")
    term = max(math.log(S_prime) ** 3 * math.log(M), math.log(1.0 / eta))
    return int(math.ceil(C * mu_u**2 * S_prime * term / gamma**2))
