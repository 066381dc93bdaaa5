"""Group-sparse, jointly sparse and jointly group-sparse recovery.

Greedy solvers (G-OMP, G-CoSaMP, G-DCS-SOMP), a proximal-gradient G-BPDN with
scalar root finding on the residual curve, the multichannel stacking that
turns simultaneous group-sparse problems into one block-diagonal group-sparse
problem, and brute-force certification of group restricted isometry constants.

G-OMP, G-CoSaMP and G-BPDN act on their measurement matrix only through a
:class:`BlockDiagonalOperator`: a plain matrix is its one-block case, and the
stacked multichannel problem is the operator over the per-transmit matrices,
so the dense block-diagonal stack is never formed on the solver path.  On the
operator they also take the per-channel partition of one block's columns: its
group b is group b at every channel offset.  G-DCS-SOMP is G-OMP in that form.

Every least-squares fit splits into one problem per transmit matrix, whose
n_rx channels share its columns and are solved as the right-hand sides of one
factorization (one problem per channel under a partition of all columns).
G-OMP grows a thin QR of each problem's columns a group at a time; G-CoSaMP,
whose support changes wholesale, factors each problem from scratch.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from itertools import combinations
from scipy.linalg import solve_triangular
from scipy.linalg.blas import zgemm
from scipy.linalg.lapack import zgeqrf, zungqr

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

    def operator(self):
        """The :class:`BlockDiagonalOperator` of all channels."""
        return BlockDiagonalOperator(np.stack(self.matrices), self.n_channels)


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


class _GrownQR:
    """Least squares of the right-hand sides ``Y`` (Q x n) on a growing list
    of columns of ``A``.

    Keeps a thin QR of the selected columns in buffers of min(Q, ``width``)
    columns and appends each new set of columns by block Gram-Schmidt with
    one re-orthogonalization pass ("twice is enough"); appending all columns
    at once to an empty factor is a plain thin QR.  The residual is
    Y - Q (Q^H Y); the coefficients take one triangular solve.  Once a
    diagonal of R is at or below 1e-12 max(max |diag R|, 1), or the columns
    outnumber the rows, every later fit is the minimum-norm ``lstsq`` on all
    selected columns and ``deficient`` is set.
    """

    def __init__(self, A, Y, width):
        self.A, self.Y = A, Y
        width = min(A.shape[0], width)
        self.cols = np.zeros(0, dtype=np.intp)
        # column-major, so that the leading columns Q[:, :k] are contiguous
        # and Q^H is a BLAS flag, not a conjugated copy
        self.Q = np.empty((A.shape[0], width), dtype=complex, order="F")
        # only the upper triangle is set and read
        self.R = np.zeros((width, width), dtype=complex)
        self.QhY = np.empty((width, Y.shape[1]), dtype=complex)
        self.k = 0  # columns in the factor
        self.diag = (np.inf, 0.0)  # smallest and largest |diag R|
        self.coef = None  # minimum-norm coefficients once the rank is lost
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
            # LAPACK's QR directly: np.linalg.qr costs more than the
            # factorization of the few new columns
            qr, tau, _, _ = zgeqrf(W, overwrite_a=True)
            d = np.abs(qr.diagonal())
            diag = min(self.diag[0], d.min()), max(self.diag[1], d.max())
            if diag[0] > 1e-12 * max(diag[1], 1.0):
                self.diag = diag
                self.R[:k, k:k + g] = C + C2
                self.R[k:k + g, k:k + g] = qr[:g]  # below the diagonal: reflectors
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
        """Coefficients (columns x n) in the order the columns were appended."""
        if self.deficient:
            return self.coef
        return solve_triangular(self.R[:self.k, :self.k], self.QhY[:self.k])


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

    def shares(self, part):
        """The least-squares problems that a group selection under ``part``
        splits into: one (s, channels, columns) triple per problem, where
        ``columns(groups)`` gives, in selection order, the columns of
        ``blocks[s]`` that the groups give each of ``channels``.

        A partition of one block's M columns gives group b at every channel
        offset, so every channel of transmit antenna s has the same columns:
        one problem per transmit matrix, with its n_rx channels as
        right-hand sides.  A partition of all columns gives one problem per
        channel, on that channel's share of each group.
        """
        n_tx, _, m = self.blocks.shape
        if part.total_length == m:
            channels = np.arange(self.n_channels).reshape(-1, n_tx).T
            return [(s, channels[s], part.columns) for s in range(n_tx)]
        if part.total_length != self.shape[1]:
            raise DomainError("partition does not match the column count")

        def share(xi):
            def columns(groups):
                cols = part.columns(groups)
                return cols[cols // m == xi] - xi * m
            return columns

        return [(xi % n_tx, np.array([xi]), share(xi)) for xi in range(self.n_channels)]

    def lstsq(self, part, groups, y):
        """Least squares of ``y`` on the columns of the selected ``groups`` of
        ``part``: one thin QR from scratch per problem of :meth:`shares`, so
        one per transmit matrix with its n_rx channels as right-hand sides
        under the per-channel partition.  Returns the full-length coefficient
        vector and whether any problem fell back to minimum norm."""
        _, q, m = self.blocks.shape
        Y = y.reshape(self.n_channels, q)
        x = np.zeros((self.n_channels, m), dtype=complex)
        deficient = False
        for s, channels, columns in self.shares(part):
            cols = columns(groups)
            fit = _GrownQR(self.blocks[s], Y[channels].T, cols.size)
            fit.append(cols)
            x[np.ix_(channels, cols)] = fit.coefficients().T
            deficient |= fit.deficient
        return x.reshape(-1), deficient

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
    energy and refits least squares on the selected column union; stops at
    ``max_groups`` selections or when the residual norm drops to
    ``residual_tol``.  ``Phi`` is a matrix or a :class:`BlockDiagonalOperator`.
    The fit grows one thin QR per problem of
    :meth:`BlockDiagonalOperator.shares`: under the per-channel partition one
    per transmit matrix, fitting its n_rx channels at once.
    """
    return _g_omp(Phi, y, part, max_groups, residual_tol)[0]


def _g_omp(Phi, y, part, max_groups, residual_tol):
    """G-OMP; returns the result and the final (n_channels, Q) residual."""
    Phi = _as_operator(Phi)
    _, q, m = Phi.blocks.shape
    Y = np.asarray(y, dtype=complex).reshape(Phi.n_channels, q)
    shares = Phi.shares(part)
    cap = part.n_groups if max_groups is None else min(max_groups, part.n_groups)
    width = cap * int(part.sizes.max())
    factors = [_GrownQR(Phi.blocks[s], Y[channels].T, width) for s, channels, _ in shares]
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
    x = np.zeros((Phi.n_channels, m), dtype=complex)
    for (_, channels, _), factor in zip(shares, factors):
        x[np.ix_(channels, factor.cols)] = factor.coefficients().T
    result = RecoveryResult(
        estimates=x.reshape(1, -1),
        selected_groups=selected,
        residual_norms=np.array([history[-1]]),
        iterations=len(selected),
        diagnostics={"residual_history": history,
                     "rank_deficient": any(f.deficient for f in factors)},
    )
    return result, resid


def g_dcs_somp(ensemble, part, max_groups=None, residual_tol=0.0):
    """Greedy joint-support identification across all channels.

    G-OMP on the ensemble's block-diagonal operator with the per-channel
    partition: each iteration adds the group maximizing the correlation
    energy summed over channels and group members, then refits least squares
    on the joint support, one factorization per transmit matrix for all its
    channels.  With singleton groups this is DCS-SOMP.  Returns the
    (n_channels, M) estimates and each channel's residual norm.
    """
    res, resid = _g_omp(ensemble.operator(), ensemble.observations, part, max_groups,
                        residual_tol)
    res.estimates = res.estimates.reshape(ensemble.n_channels, -1)
    res.residual_norms = np.linalg.norm(resid, axis=1)
    return res


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
    Phi.shares(part)  # validates the partition
    if part.sizes.min() != part.sizes.max():
        raise DomainError("G-CoSaMP requires groups of equal size")
    if S < 1 or 4 * S > part.n_groups:
        raise DomainError(f"need 1 <= S and 4S <= B (S={S}, B={part.n_groups})")
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


def _group_prox(v, part, thresh):
    """Groupwise soft threshold: shrink each group's l2 norm by ``thresh``."""
    norms = np.sqrt(part.energies(v))
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = np.maximum(0.0, 1.0 - thresh / norms[nz])
    return (v.reshape(-1, part.total_length) * part.expand(scale)).reshape(v.shape)


def _fista(Phi, y, lam, part, lip, x0, max_iter, rel_tol=1e-12):
    """Accelerated proximal gradient for the penalized group-lasso form.

    Carries Phi x across steps, so each step costs one forward and one adjoint
    product.  Returns (x, ||Phi x - y||, iterations, converged).
    """
    x, px = x0, Phi @ x0
    z, pz = x, px
    t = 1.0
    resid = px - y
    obj_prev = 0.5 * np.vdot(resid, resid).real + lam * np.sqrt(part.energies(x)).sum()
    n_done, converged = 0, False
    for n_done in range(1, max_iter + 1):
        grad = Phi.rmatvec(pz - y)
        x_new = _group_prox(z - grad / lip, part, lam / lip)
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
    Phi.shares(part)  # validates the partition
    if eps < 0:
        raise DomainError("eps must be nonnegative")
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
    lam_max = float(np.sqrt(part.energies(Phi.rmatvec(y))).max())
    solves = []  # (iterations, converged) per FISTA solve

    def solve(lam, x0):
        x, r, n, converged = _fista(Phi, y, lam, part, lip, x0, max_inner)
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
    norms = np.sqrt(part.energies(x))
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
    (n_channels M) matrix; ``np.asarray`` of it gives that dense matrix.  The
    solvers take ``part`` itself on ``Phi_stacked`` too, as the estimator
    does; the stacked partition serves G-RIC certification.
    """
    n_ch = ensemble.n_channels
    if n_ch > 1:
        part = stack_partition(part, ensemble.shape[1], n_ch)
    return ensemble.operator(), ensemble.observations.reshape(-1), part


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
        cols = part.columns(combo)
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
