"""Group-sparse, jointly sparse and jointly group-sparse recovery.

Greedy solvers (G-OMP, G-CoSaMP, G-DCS-SOMP), G-BPDN by over-relaxed ADMM
with an exact projection onto the noise ball, the multichannel stacking that
turns simultaneous group-sparse problems into one block-diagonal group-sparse
problem, and the brute-force group restricted isometry constant that the
``certify-ric`` command reports.

G-OMP, G-CoSaMP and G-BPDN act on their measurement matrix only through a
:class:`BlockDiagonalOperator`: a plain matrix is its one-block case, and the
stacked multichannel problem is the operator over the per-transmit matrices,
so the dense block-diagonal stack is never formed on the solver path.  Their
partition always covers one block's columns, so on the multichannel operator
it is the per-channel partition: its group b is group b at every channel
offset.  G-DCS-SOMP is G-OMP in that form.  :func:`mgcs_stack` gives the same
problem as a dense one-block matrix with the stacked partition.

Every least-squares fit splits into one problem per transmit matrix, whose
n_rx channels share its columns (one per channel under per-channel
selection); all problems of a fit share one stacked thin QR.  G-OMP grows it
a group at a time in batched products; G-CoSaMP, whose support changes
wholesale, factors it from scratch.  A problem with more columns than rows,
or whose R loses rank, takes numpy's minimum-norm ``lstsq`` on its own;
``rank_deficient`` then means a minimum-norm fit.

G-BPDN forms each block's Gram matrix A A^H once.  When all of them equal
one c I to rounding (a tight frame, as every ``build_phi`` block is), its
projection onto the noise ball is closed-form; any other operator projects
through the eigendecomposition of each Gram matrix and a Newton solve.
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

    ``matrices[s]`` is the Q x M matrix seen by every channel (r, s), a view
    of the (n_tx, Q, M) ``blocks`` that the operator wraps; ``observations``
    has shape (n_channels, Q) in row-major (r, s) order.
    """

    matrices: tuple
    observations: np.ndarray
    blocks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len({np.shape(m) for m in self.matrices}) != 1:
            raise DomainError("all measurement matrices must share dimensions")
        blocks = np.asarray(self.matrices, dtype=complex)
        obs = np.asarray(self.observations, dtype=complex)
        if obs.ndim == 1:
            obs = obs[None, :]
        if obs.shape[1] != blocks.shape[1]:
            raise DomainError("observation length does not match Q")
        if obs.shape[0] % len(blocks) != 0:
            raise DomainError("channel count must be a multiple of the transmit count")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "matrices", tuple(blocks))
        object.__setattr__(self, "observations", obs)

    @property
    def n_channels(self):
        return self.observations.shape[0]

    @property
    def n_tx(self):
        return len(self.matrices)

    @property
    def shape(self):
        return self.blocks.shape[1:]

    def matrix_for(self, chan):
        """Matrix of channel index chan = r * n_tx + s."""
        return self.matrices[chan % self.n_tx]

    def operator(self):
        """The :class:`BlockDiagonalOperator` of all channels."""
        return BlockDiagonalOperator(self.blocks, self.n_channels)


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


# a diagonal of R at or below this times max(max |diag R|, 1) loses rank
_RANK_TOL = 1e-12


class _GrownQR:
    """Least squares of the channels' observations ``Y`` (n_channels x Q) on
    growing column lists, as P problems: with ``per_transmit`` one per
    transmit matrix s, its channels (r, s) the right-hand sides, else one per
    channel xi, on ``blocks[xi % n_tx]``.  One stacked thin QR holds each
    problem's Q, Q^H, R (unit diagonal past its columns, so one batched solve
    serves all) and Q^H Y.  Each append is block Gram-Schmidt with one
    re-orthogonalization pass in batched products, then the QR of the new
    (P, Q, g) columns, for one column a norm and a divide.  A problem whose R
    gets a diagonal at or below ``_RANK_TOL`` max(max |diag R|, 1), or that
    would hold more columns than its Q rows, takes the minimum-norm
    ``lstsq`` from then on (``lost``)."""

    def __init__(self, blocks, Y, width, per_transmit):
        n_tx, q, m = blocks.shape
        self.blocks, self.per_transmit = blocks, per_transmit
        self.mats = np.arange(n_tx if per_transmit else len(Y)) % n_tx
        self.residual = Y.copy()  # (n_channels, Q)
        self.Y, self.resid = self._problems(Y), self._problems(self.residual)
        n, w = len(self.mats), min(q, width)
        self.Q, self.Qh = np.zeros((n, q, w), complex), np.zeros((n, w, q), complex)
        self.R = np.tile(np.eye(w, dtype=complex), (n, 1, 1))
        self.QhY = np.zeros((n, w, self.Y.shape[2]), dtype=complex)
        self.cols = np.full((n, width), m)  # past a problem's columns: M, a dummy
        self.n = np.zeros(n, dtype=np.intp)
        self.lo, self.hi = [np.inf] * n, [0.0] * n  # extreme |diag R|, as floats
        self.lost = {}  # problem -> minimum-norm coefficients, once wide or rank-lost

    def _problems(self, a):
        """The (P, length, r) problem view of a channel-major array."""
        if self.per_transmit:
            return a.reshape(-1, len(self.mats), a.shape[1]).transpose(1, 2, 0)
        return a[:, :, None]

    def append(self, idx, cols):
        """Append the columns ``cols[i]`` (one row serves all) to problem
        ``idx[i]``; the problems hold equally many columns."""
        n0 = self.n[idx[0]]
        n1 = n0 + cols.shape[1]
        self.cols[idx, n0:n1], self.n[idx] = cols, n1
        wide = n1 > self.Y.shape[1]
        lost = [p for p in idx.tolist() if wide or p in self.lost]
        if len(lost) < idx.size:
            lost += self._extend(np.setdiff1d(idx, lost) if lost else idx, n0, n1)
        for p in lost:
            A = self.blocks[self.mats[p]][:, self.cols[p, :n1]]
            self.lost[p] = np.linalg.lstsq(A, self.Y[p], rcond=None)[0]
            self.resid[p] = self.Y[p] - A @ self.lost[p]

    def _extend(self, idx, n0, n1):
        """Extend the factors of problems ``idx``; returns those that lost rank."""
        sel = slice(None) if idx.size == len(self.mats) else idx  # a slice copies nothing
        Qk, Qh = self.Q[sel, :, :n0], self.Qh[sel, :n0]
        W = self.blocks[self.mats[sel, None], :, self.cols[sel, n0:n1]].transpose(0, 2, 1)
        C = Qh @ W
        W = W - Qk @ C
        C2 = Qh @ W
        W -= Qk @ C2
        if n1 - n0 == 1:
            r = np.sqrt((W.conj().transpose(0, 2, 1) @ W).real)
        else:
            W, r = np.linalg.qr(W)
        ok = []
        for p, d in zip(idx.tolist(), np.abs(np.diagonal(r, axis1=1, axis2=2)).tolist()):
            lo, hi = min(self.lo[p], *d), max(self.hi[p], *d)
            ok.append(lo > _RANK_TOL * max(hi, 1.0))
            if ok[-1]:
                self.lo[p], self.hi[p] = lo, hi
        if not all(ok):
            sel, W, r, C, C2 = (a[np.array(ok)] for a in (idx, W, r, C, C2))
        if n1 - n0 == 1:
            W /= r
        Wh = W.conj().transpose(0, 2, 1)
        self.R[sel, :n0, n0:n1], self.R[sel, n0:n1, n0:n1] = C + C2, r
        self.Q[sel, :, n0:n1], self.Qh[sel, n0:n1] = W, Wh
        qhy = self.QhY[sel, n0:n1] = Wh @ self.Y[sel]
        self.resid[sel] -= W @ qhy
        return idx[np.logical_not(ok)].tolist()

    def estimates(self):
        """The (n_channels, M) coefficients, zero off each problem's columns."""
        m = self.blocks.shape[2]
        x = np.zeros((len(self.residual), m + 1), dtype=complex)  # column M: the dummy
        xp = self._problems(x)
        k = max((c for p, c in enumerate(self.n.tolist()) if p not in self.lost), default=0)
        xp[np.arange(len(xp))[:, None], self.cols[:, :k]] = np.linalg.solve(
            self.R[:, :k, :k], self.QhY[:, :k])
        for p, coef in self.lost.items():  # past its columns: the dummy
            xp[p, self.cols[p, :self.n[p]]] = coef
        return x[:, :m]


class BlockDiagonalOperator:
    """Block-diagonal measurement operator over per-transmit matrices.

    ``blocks`` has shape (n_tx, Q, M); channel xi = r * n_tx + s is measured
    by ``blocks[s]``, and the operator maps the stacked vector of
    ``n_channels`` length-M coefficient vectors to the stacked vector of
    their length-Q measurements.  Products, least squares and the Gram
    matrices work block by block; ``np.asarray(op)`` gives the dense
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

    def lstsq(self, part, groups, y):
        """Least squares of ``y`` on the columns of the selected ``groups`` of
        the per-channel partition ``part``, factored from scratch: the
        full-length coefficient vector and whether any problem is a
        minimum-norm ``lstsq`` fit (wider than tall, or rank lost)."""
        cols = part.columns(groups)
        fit = _GrownQR(self.blocks, y.reshape(self.n_channels, -1), cols.size, True)
        fit.append(fit.mats, cols[None])
        return fit.estimates().reshape(-1), bool(fit.lost)

    def gram(self):
        """The (n_tx, Q, Q) Gram matrices A A^H of the blocks (see :func:`_gram`)."""
        return np.array([_gram(A) for A in self.blocks])

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("the dense matrix of a block-diagonal operator is always a copy")
        n_tx, q, m = self.blocks.shape
        dense = np.zeros(self.shape, dtype=complex)
        for xi in range(self.n_channels):
            dense[xi * q: (xi + 1) * q, xi * m: (xi + 1) * m] = self.blocks[xi % n_tx]
        return dense if dtype is None else dense.astype(dtype, copy=False)


# block elements conjugated at once in _gram; bounds the copy
_GRAM_BLOCK = 1 << 18


def _gram(A):
    """A A^H, accumulated over column chunks of at most ``_GRAM_BLOCK``
    elements, so the block is never copied whole."""
    q, m = A.shape
    step = max(1, _GRAM_BLOCK // q)
    gram = np.zeros((q, q), dtype=complex)
    for lo in range(0, m, step):
        chunk = A[:, lo:lo + step]
        gram += chunk @ chunk.conj().T
    return gram


def _as_operator(Phi, part):
    """``Phi`` itself if it is an operator, else the one-block operator of the
    matrix; ``DomainError`` unless ``part`` covers one block's columns."""
    if not isinstance(Phi, BlockDiagonalOperator):
        Phi = BlockDiagonalOperator(np.asarray(Phi, dtype=complex)[None], 1)
    if part.total_length != Phi.blocks.shape[2]:
        raise DomainError("partition does not match one block's column count")
    return Phi


def _top_groups(energies, count):
    return np.argsort(-energies, kind="stable")[:count]


def g_omp(Phi, y, part, max_groups=None, residual_tol=0.0, joint=True):
    """Group orthogonal matching pursuit.

    Adds per iteration the group with the largest aggregated correlation
    energy and refits least squares on the selected column union; stops at
    ``max_groups`` selections or when the residual norm drops to
    ``residual_tol``.  ``Phi`` is a matrix or a :class:`BlockDiagonalOperator`.
    Returns the (n_channels, M) estimates and each channel's residual norm.
    ``joint=False`` runs every channel's own G-OMP in this one call, each
    selecting from the one product Phi^H r and stopping on its own; its groups
    must be of equal size.  The result then lists groups per channel.
    """
    Phi = _as_operator(Phi, part)
    if not joint and np.ptp(part.sizes):
        raise DomainError("per-channel G-OMP requires groups of equal size")
    Y = np.asarray(y, dtype=complex).reshape(Phi.n_channels, -1)
    cap = part.n_groups if max_groups is None else min(max_groups, part.n_groups)
    fit = _GrownQR(Phi.blocks, Y, cap * int(part.sizes.max()), joint)
    n_sel = 1 if joint else Phi.n_channels  # selections per iteration
    selected = [[] for _ in range(n_sel)]
    taken = np.zeros((n_sel, part.n_groups), dtype=bool)
    live = np.arange(n_sel)  # the selections that go on, each with as many groups
    norms = np.linalg.norm(Y.reshape(n_sel, -1), axis=1)
    history = [math.hypot(*norms)]
    for _ in range(cap):
        live = live[norms[live] > residual_tol]
        if not live.size:
            break
        rows = slice(None) if live.size == n_sel else live
        energies = part.energies(Phi.rmatvec(fit.residual), rows=not joint).reshape(n_sel, -1)[rows]
        energies[taken[rows]] = -1.0
        on = energies.max(axis=1) > 0
        live, b = live[on], energies.argmax(axis=1)[on]
        if not live.size:
            break
        taken[live, b] = True
        for c, g in zip(live.tolist(), b.tolist()):
            selected[c].append(g)
        if joint:
            fit.append(fit.mats, part.groups[b[0]][None])
        else:  # groups of one size are rows of a table
            fit.append(live, part.perm.reshape(part.n_groups, -1)[b])
        r = fit.residual
        norms = np.sqrt((r.conj() * r).real.reshape(n_sel, -1).sum(axis=1))
        history.append(math.hypot(*norms))
    return RecoveryResult(
        estimates=fit.estimates(),
        selected_groups=selected[0] if joint else selected,
        residual_norms=np.linalg.norm(fit.residual, axis=1),
        iterations=sum(map(len, selected)),
        diagnostics={"residual_history": history, "rank_deficient": bool(fit.lost)},
    )


def g_dcs_somp(ensemble, part, max_groups=None, residual_tol=0.0):
    """Greedy joint-support identification across all channels.

    G-OMP on the ensemble's block-diagonal operator with the per-channel
    partition: each iteration adds the group maximizing the correlation
    energy summed over channels and group members, then refits least squares
    on the joint support, one problem per transmit matrix for all its
    channels.  With singleton groups this is DCS-SOMP.  Returns the
    (n_channels, M) estimates and each channel's residual norm.
    """
    return g_omp(ensemble.operator(), ensemble.observations, part, max_groups, residual_tol)


def g_cosamp(Phi, y, part, S, n_iters=30, residual_tol=0.0):
    """Group-structured CoSaMP.

    Per iteration: build the proxy Phi^H r, select the 2S groups of largest
    aggregated proxy energy, merge with the current support, least-squares on
    the merged column union, and prune to the S groups of largest solution
    norm.  The output is always group-S-sparse.  ``Phi`` is a matrix or a
    :class:`BlockDiagonalOperator`.  The loop stops after ``n_iters`` fits,
    at residual norm ``residual_tol``, or when the merged candidate set equals
    the previous one: every later fit would repeat it exactly, so the output
    is that of all ``n_iters``.  ``iterations`` counts the fits that ran;
    ``diagnostics["fixed_point"]`` says whether the repeat ended the loop.
    """
    Phi = _as_operator(Phi, part)
    y = np.asarray(y, dtype=complex)
    if part.sizes.min() != part.sizes.max():
        raise DomainError("G-CoSaMP requires groups of equal size")
    if S < 1 or 4 * S > part.n_groups:
        raise DomainError(f"need 1 <= S and 4S <= B (S={S}, B={part.n_groups})")
    x = np.zeros(Phi.shape[1], dtype=complex)
    support = np.zeros(0, dtype=np.intp)
    resid = y.copy()
    history = [float(np.linalg.norm(resid))]
    rank_deficient = fixed_point = False
    candidates = support  # empty, so unlike any merged set
    for _ in range(n_iters):
        if history[-1] <= residual_tol:
            break
        proxy = part.energies(Phi.rmatvec(resid))
        merged = np.union1d(_top_groups(proxy, 2 * S), support)
        if np.array_equal(merged, candidates):
            fixed_point = True
            break
        candidates = merged
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
        iterations=len(history) - 1,
        diagnostics={"residual_history": history, "rank_deficient": rank_deficient,
                     "fixed_point": fixed_point},
    )


# ADMM iterations g_bpdn runs at most; its shrink threshold as a fraction of
# max_b ||(Phi^H y)_b|| / ||Phi||^2; the primal and dual residuals, relative
# to ||z||, at which it stops; its over-relaxation factor (on desk trials 1.8
# took more iterations at 10 dB); Newton steps per projection at most; the
# deviation max |A A^H - c I|, relative to c, up to which the blocks are one
# tight frame
_MAX_ITER = 2000
_THRESHOLD = 0.3
_STOP = 1e-5
_RELAX = 1.6
_MAX_NEWTON = 100
_TIGHT = 1e-10


def _ball_projection(Phi, y, r, eps):
    """The projection onto {x : ||Phi x - y|| <= r}, as project(v, Phi v) ->
    (x, Phi x), and ||Phi||^2; see :func:`g_bpdn`."""
    G = Phi.gram()
    n_tx, q, _ = G.shape
    c = float(np.trace(G, axis1=1, axis2=2).real.sum()) / (n_tx * q)
    if c > 0 and np.abs(G - c * np.eye(q)).max() <= _TIGHT * c:

        def project(v, pv):
            a = pv - y
            n = float(np.linalg.norm(a))
            if n <= r:
                return v, pv
            return v - ((1 - r / n) / c) * Phi.rmatvec(a), y + (r / n) * a

        return project, c
    g, U = np.linalg.eigh(G)
    g = g[:, None, :]  # broadcasts over (n_rx, n_tx, 1, Q) rows
    null = g <= 1e-12 * g.max()
    inv = np.divide(1.0, g, out=np.zeros_like(g), where=~null)
    Uc, Ut = U.conj(), U.transpose(0, 2, 1)

    def coords(a):  # U^H a per channel, as rows
        return a.reshape(-1, n_tx, 1, q) @ Uc

    def back(c):  # U c
        return (c @ Ut).reshape(-1)

    c_y = coords(y)
    if eps > 0 and np.linalg.norm(c_y * null) >= r:
        raise ConvergenceError(f"y lies farther than {r:.3e} from the range of Phi",
                               best=Phi.rmatvec(back(c_y * inv)))

    def project(v, pv):
        c = coords(pv - y)
        if eps == 0:
            return v - Phi.rmatvec(back(c * inv)), y + back(c * null)
        e = (c.conj() * c).real
        mu, d = 0.0, 1.0
        for _ in range(_MAX_NEWTON):
            ed = e * d * d
            n2 = float(ed.sum())
            if n2 <= r * r * (1 + 1e-12):
                break
            n = math.sqrt(n2)
            mu += (1 / r - 1 / n) * n2 * n / float((ed * g * d).sum())
            d = 1.0 / (1.0 + mu * g)
        w = back(c * d)
        return v - mu * Phi.rmatvec(w), y + w

    return project, float(g.max())


def g_bpdn(Phi, y, part, eps, tol=1e-4):
    """Group basis pursuit denoising: minimize the group norm subject to
    ||Phi x - y||_2 <= eps.

    Scaled-form ADMM on min sum_b ||z_b|| s.t. x = z, ||Phi x - y|| <= r,
    r = eps (1 - tol/2), as in C-SALSA (Afonso, Bioucas-Dias & Figueiredo,
    IEEE TIP 20(3), 2011), over-relaxed (Eckstein & Bertsekas, Math.
    Programming 55, 1992; Boyd et al., Found. Trends Mach. Learn. 3(1),
    2011, sec. 3.4.3): the x-step is the exact projection x of v = z - u
    onto the ball, and x^ = ``_RELAX`` x + (1 - ``_RELAX``) z takes its place
    in the z-step and the dual update.  The z-step is the group shrink of
    x^ + u by tau = ``_THRESHOLD`` max_b ||(Phi^H y)_b|| / ||Phi||^2.

    The projection takes one of two paths, chosen from the blocks' Gram
    matrices A A^H, formed once.  When all of them equal one c I to within
    ``_TIGHT`` c (a tight frame: every ``build_phi`` block is sqrt(JD/Q)
    times pilot rows of a unitary basis), it is closed-form: with
    a = Phi v - y, x = v if ||a|| <= r, else
    x = v - (1 - r/||a||)/c Phi^H a, and Phi x = y + (r/||a||) a.  Any other
    operator (blocks of different scales, non-tight or tall blocks) takes
    U diag(g) U^H = A A^H per block from ``eigh``; the projection has the
    residual w = U diag(1 / (1 + mu g)) U^H a and is x = v - mu Phi^H w, with
    mu >= 0 such that ||w|| = r: Newton's method on the concave, increasing
    1/||w(mu)|| - 1/r rises from mu = 0 to it.  If the part of y on the
    eigenvalues 0, outside the range of Phi, has norm r or more,
    ``ConvergenceError`` carries the least-squares fit.

    The loop stops when ||Phi z - y|| <= eps and the primal residual
    ||x - z|| and the step of z are at most ``_STOP`` ||z||; ``_MAX_ITER``
    iterations raise ``ConvergenceError`` carrying z.  The primal residual is
    that of x, not of x^, as in Boyd et al.: near the solution ||x^ - z|| is
    ``_RELAX`` times it, and at eps = 1e-5 ||y|| a stop on it took 3017
    iterations, against 77.  A residual below eps (1 - tol) is then
    lifted to r by scaling z by the alpha in (0, 1) that does so: the same
    support with a smaller group norm.  (At eps = 1e-5 ||y|| the loop alone
    took over 80000 iterations to land in that band, against 50.)  eps = 0
    is the basis pursuit limit: x lies on the least-squares solutions, which
    z never meets exactly, so the loop stops on the residuals and returns x.

    ``selected_groups`` are the groups of norm above ``_STOP`` ||x||: a
    smaller group is within the stop tolerance of zero, so it stays in x but
    is not reported.  ``iterations`` counts ADMM iterations;
    ``diagnostics["lambda"]`` is the equivalent group-lasso penalty, the
    median of ||(Phi^H (y - Phi x))_b|| over the selected groups.  ``Phi`` is a matrix or a
    :class:`BlockDiagonalOperator`.
    """
    Phi = _as_operator(Phi, part)
    y = np.asarray(y, dtype=complex)
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    y_norm = float(np.linalg.norm(y))
    if y_norm <= eps or y_norm == 0.0:
        return RecoveryResult(
            estimates=np.zeros((1, Phi.shape[1]), dtype=complex),
            selected_groups=[],
            residual_norms=np.array([y_norm]),
            iterations=0,
            diagnostics={"lambda": None},
        )
    r = eps * (1 - tol / 2)
    project, norm2 = _ball_projection(Phi, y, r, eps)
    tau = max(_THRESHOLD * float(np.sqrt(part.energies(Phi.rmatvec(y))).max()) / norm2,
              np.finfo(float).tiny)  # > 0: a zero group scales by 0
    z = u = np.zeros(Phi.shape[1], dtype=complex)
    pz = pu = np.zeros_like(y)
    for n_iter in range(1, _MAX_ITER + 1):
        x, px = project(z - u, pz - pu)
        # the relaxed iterate x^ and Phi x^, without another product
        xr, pxr = _RELAX * x + (1 - _RELAX) * z, _RELAX * px + (1 - _RELAX) * pz
        v = xr + u
        norms = np.sqrt(part.energies(v))
        scale = np.maximum(1.0 - tau / np.maximum(norms, tau), 0.0)
        z_new = (v.reshape(-1, part.total_length) * part.expand(scale)).reshape(-1)
        z_prev, z, pz = z, z_new, Phi @ z_new
        u, pu = v - z, pu + pxr - pz
        out, p_out = (z, pz) if eps > 0 else (x, px)
        resid = np.linalg.norm(p_out - y)
        if eps == 0 or resid <= eps:
            limit = _STOP * np.linalg.norm(z)
            if np.linalg.norm(x - z) <= limit and np.linalg.norm(z - z_prev) <= limit:
                break
    else:
        raise ConvergenceError(f"G-BPDN did not converge in {_MAX_ITER} iterations", best=out)
    if eps > 0 and resid < eps * (1 - tol):
        # the root in (0, 1) of ||alpha Phi z - y|| = r
        a, b, c = np.vdot(pz, pz).real, np.vdot(pz, y).real, y_norm ** 2 - r * r
        alpha = c / (b + math.sqrt(b * b - a * c))
        out, p_out = alpha * z, alpha * pz
        resid = np.linalg.norm(p_out - y)
    norms = np.sqrt(part.energies(out))
    selected = np.nonzero(norms > _STOP * np.linalg.norm(out))[0].tolist()
    corr = np.sqrt(part.energies(Phi.rmatvec(y - p_out)))
    return RecoveryResult(
        estimates=out[None, :],
        selected_groups=selected,
        residual_norms=np.array([resid]),
        iterations=n_iter,
        diagnostics={"lambda": float(np.median(corr[selected])) if selected else None},
    )


def mgcs_stack(ensemble, part):
    """The paper's stacked multichannel problem in dense form.

    Returns (Phi_stacked, y_stacked, stacked_partition): the dense
    (n_channels Q) x (n_channels M) block-diagonal matrix, the stacked
    observations and the stacked partition, whose group b is group b of every
    channel.  The solvers take it as a one-block problem; it is the reference
    for the ensemble's operator with the per-channel partition ``part``,
    which solves the same problem without forming the matrix.
    """
    return (np.asarray(ensemble.operator()), ensemble.observations.reshape(-1),
            stack_partition(part, ensemble.shape[1], ensemble.n_channels))


# supports group_ric enumerates at most
_RIC_BUDGET = 100_000


def group_ric(Phi, part, S):
    """Brute-force group restricted isometry constant of order S.

    Enumerates every S-group column support and takes the worst Gram
    eigenvalue deviation from 1.  Refuses when the enumeration exceeds the
    budget.
    """
    if S < 0 or S > part.n_groups:
        raise DomainError(f"S={S} outside 0..{part.n_groups}")
    n_supports = math.comb(part.n_groups, S)
    if n_supports > _RIC_BUDGET:
        raise BudgetExceededError(
            f"{n_supports} supports exceed the enumeration budget {_RIC_BUDGET}"
        )
    Phi = np.asarray(Phi, dtype=complex)
    delta = 0.0
    for combo in combinations(range(part.n_groups), S):
        cols = part.columns(combo)
        gram = Phi[:, cols].conj().T @ Phi[:, cols]
        w = np.linalg.eigvalsh(gram)
        delta = max(delta, float(w[-1] - 1.0), float(1.0 - w[0]))
    return delta
