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
problem as a dense one-block matrix with the stacked partition.  With
``joint=False`` each of the three solves every channel as its own problem
in one call, each with its own stops.

Every least-squares fit splits into one problem per transmit matrix, whose
n_rx channels share its columns, or per channel under per-channel selection;
all problems of a fit share one stacked thin QR.  G-OMP grows it a group at
a time in batched products; G-CoSaMP, whose support changes wholesale,
factors it from scratch.  A problem with more columns than rows, or whose R
loses rank, takes numpy's minimum-norm ``lstsq`` on its own;
``rank_deficient`` then means a minimum-norm fit.  G-BPDN projects onto the
noise ball in closed form on tight-frame blocks (every ``build_phi`` block
is one), else jointly through the eigendecomposition of each block's Gram
matrix and a Newton solve.
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
    diagnostics: dict

    @property
    def x(self):
        """Single-channel estimate convenience view."""
        return self.estimates[0]


# a diagonal of R at or below this times max(max |diag R|, 1) loses rank;
# the least-squares fits g_cosamp runs at most
_RANK_TOL = 1e-12
_MAX_FITS = 15


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
    """The ``count`` largest energies' groups along the last axis, ties low."""
    return np.argsort(-energies, axis=-1, kind="stable")[..., :count]


def _row_norms(a):
    """Each row's 2-norm by ``np.linalg.norm`` (of the whole array if one row):
    a problem's norm has the same bits in a batch as on its own."""
    return [np.linalg.norm(a)] if len(a) == 1 else list(map(np.linalg.norm, a))


def _per_row(values):
    """Per-problem factors as a column scaling the rows; one as a plain float."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def g_omp(Phi, y, part, max_groups, residual_tol, *, joint):
    """Group orthogonal matching pursuit.

    Adds per iteration the group with the largest aggregated correlation
    energy and refits least squares on the selected column union; stops at
    ``max_groups`` selections (the harness's Q / (2 |g|) keeps each fit tall)
    or when the residual norm drops to ``residual_tol``.  ``Phi`` is a
    matrix or a :class:`BlockDiagonalOperator`.  Returns the (n_channels, M)
    estimates and each channel's residual norm.  ``joint=False`` runs every
    channel's own G-OMP in this one call, each selecting from the one product
    Phi^H r and stopping on its own; its groups must be of equal size.  The
    result then lists groups and ``channel_iterations`` per channel.
    """
    Phi = _as_operator(Phi, part)
    if not joint and np.ptp(part.sizes):
        raise DomainError("per-channel G-OMP requires groups of equal size")
    Y = np.asarray(y, dtype=complex).reshape(Phi.n_channels, -1)
    cap = min(max_groups, part.n_groups)
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
    return _result(joint, fit.estimates(), selected, np.linalg.norm(fit.residual, axis=1),
                   np.array([len(s) for s in selected]),
                   {"residual_history": history, "rank_deficient": bool(fit.lost)}, {})


def g_dcs_somp(ensemble, part, max_groups, residual_tol):
    """Greedy joint-support identification across all channels.

    G-OMP on the ensemble's block-diagonal operator with the per-channel
    partition: each iteration adds the group maximizing the correlation
    energy summed over channels and group members, then refits least squares
    on the joint support, one problem per transmit matrix for all its
    channels; it stops as :func:`g_omp` does.  With singleton groups this is
    DCS-SOMP.  Returns the (n_channels, M) estimates and each channel's
    residual norm.
    """
    return g_omp(ensemble.operator(), ensemble.observations, part, max_groups, residual_tol,
                 joint=True)


def g_cosamp(Phi, y, part, S, residual_tol, *, joint):
    """Group-structured CoSaMP.  Per iteration: build the proxy Phi^H r,
    select the 2S groups of largest aggregated proxy energy, merge with the
    current support, least-squares on the merged column union, and prune to
    the S groups of largest solution norm.  ``Phi`` is a matrix or a
    :class:`BlockDiagonalOperator`; groups are of equal size.  A problem
    stops after ``_MAX_FITS`` fits, at residual norm ``residual_tol``, or when
    its merged candidate set repeats: every later fit would repeat it, so the
    output is that of all ``_MAX_FITS``.  ``joint=False`` solves each
    channel's own problem in this one call, with its own selection, merged
    set and stops, frozen once stopped; a round's fits share one stacked
    factor, appended in batches of equal candidate count.  ``estimates`` has
    a row per problem (joint: the stacked vector); ``iterations`` counts all
    fits; groups, residual norms and fixed-point flags are per channel then.
    """
    Phi = _as_operator(Phi, part)
    if np.ptp(part.sizes):
        raise DomainError("G-CoSaMP requires groups of equal size")
    if S < 1 or 4 * S > part.n_groups:
        raise DomainError(f"need 1 <= S and 4S <= B (S={S}, B={part.n_groups})")
    n_ch, n_p = Phi.n_channels, 1 if joint else Phi.n_channels
    Y = np.asarray(y, dtype=complex).reshape(n_ch, -1)
    table = part.perm.reshape(part.n_groups, -1)  # groups of one size are rows of a table
    x = np.zeros((n_ch, part.total_length), dtype=complex)
    support = np.zeros((n_p, part.n_groups), dtype=bool)
    candidates = support.copy()  # empty, so unlike any merged set
    fits, fixed_point = np.zeros(n_p, dtype=np.intp), np.zeros(n_p, dtype=bool)
    resid, norms = Y, np.array(_row_norms(Y.reshape(n_p, -1)))
    history = [math.hypot(*norms)]
    rank_deficient, live = False, np.arange(n_p)
    for _ in range(_MAX_FITS):
        live = live[norms[live] > residual_tol]
        if not live.size:
            break
        sel = slice(None) if live.size == n_p else live  # a slice copies nothing
        proxy = part.energies(Phi.rmatvec(resid), rows=not joint).reshape(n_p, -1)[sel]
        merged = support[live]
        merged[np.arange(live.size)[:, None], _top_groups(proxy, 2 * S)] = True
        repeat = (merged == candidates[sel]).all(axis=1)
        if repeat.any():
            fixed_point[live[repeat]] = True
            live = sel = live[~repeat]
            if not live.size:
                break
            merged = merged[~repeat]
        candidates[sel] = merged
        fit = _GrownQR(Phi.blocks, Y, 3 * S * table.shape[1], joint)
        counts = merged.sum(axis=1)
        for k in set(counts.tolist()):
            rows = np.flatnonzero(counts == k)
            cols = table[np.nonzero(merged[rows])[1].reshape(-1, k)].reshape(rows.size, -1)
            fit.append(fit.mats if joint else live[rows], cols)
        b_full, ch = fit.estimates(), slice(None) if joint else sel
        rank_deficient |= bool(fit.lost)
        energies = part.energies(b_full, rows=not joint).reshape(n_p, -1)[sel]
        support[sel] = False
        support[live[:, None], _top_groups(energies, S)] = True
        x[ch] = np.where(part.expand(support[sel]), b_full[ch], 0)
        fits[sel] += 1
        resid = Y - (Phi @ x).reshape(n_ch, -1)
        norms = np.array(_row_norms(resid.reshape(n_p, -1)))
        history.append(math.hypot(*norms))
    return _result(joint, x.reshape(n_p, -1), [np.flatnonzero(s).tolist() for s in support],
                   norms, fits, {"residual_history": history, "rank_deficient": rank_deficient},
                   {"fixed_point": fixed_point.tolist()})


def _result(joint, estimates, groups, norms, iters, diagnostics, per_problem):
    """One call's result; ``groups`` and ``per_problem`` hold an entry per
    problem (one when joint), and per channel ``channel_iterations`` too."""
    if not joint:
        per_problem["channel_iterations"] = iters.tolist()
    diagnostics.update((k, v[0] if joint else v) for k, v in per_problem.items())
    return RecoveryResult(estimates=estimates, selected_groups=groups[0] if joint else groups,
                          residual_norms=norms, iterations=int(iters.sum()),
                          diagnostics=diagnostics)


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


def _ball_projection(Phi, Y, r, eps, joint):
    """The projection of each problem, a row of ``Y``, onto its ball
    {x : ||Phi x - y|| <= r}, as project(v, Phi v) -> (x, Phi x) on rows,
    and each problem's ||Phi||^2; see :func:`g_bpdn`."""
    G = Phi.gram()
    n_tx, q, _ = G.shape
    traces = np.trace(G, axis1=1, axis2=2).real
    c = np.full(n_tx, float(traces.sum()) / (n_tx * q)) if joint else traces / q
    if (c > 0).all() and (np.abs(G - c[:, None, None] * np.eye(q)).max(axis=(1, 2))
                          <= _TIGHT * c).all():
        c_rows = c[np.arange(len(Y)) % n_tx].tolist()  # each problem's block's

        def project(v, pv):
            a = pv - Y
            n = _row_norms(a)
            if max(n) <= r:
                return v, pv
            ratio = [r / n_q if n_q > r else 1.0 for n_q in n]  # 1: inside, no step
            step = _per_row([(1 - t) / c_p for t, c_p in zip(ratio, c_rows)])
            x, px = v - step * Phi.rmatvec(a).reshape(v.shape), Y + _per_row(ratio) * a
            if min(n) > r:
                return x, px
            inside = np.array(n)[:, None] <= r
            return np.where(inside, v, x), np.where(inside, pv, px)

        return project, np.array(c_rows)
    if not joint:
        raise DomainError("per-channel G-BPDN needs every block to be a tight frame")
    g, U = np.linalg.eigh(G)
    g = g[:, None, :]  # broadcasts over (n_rx, n_tx, 1, Q) rows
    null = g <= 1e-12 * g.max()
    inv = np.divide(1.0, g, out=np.zeros_like(g), where=~null)
    Uc, Ut = U.conj(), U.transpose(0, 2, 1)

    def coords(a):  # U^H a per channel, as rows
        return a.reshape(-1, n_tx, 1, q) @ Uc

    def back(c):  # U c
        return (c @ Ut).reshape(Y.shape)

    c_y = coords(Y)
    if eps > 0 and np.linalg.norm(c_y * null) >= r:
        raise ConvergenceError(f"y lies farther than {r:.3e} from the range of Phi",
                               best=Phi.rmatvec(back(c_y * inv)))

    def project(v, pv):
        c = coords(pv - Y)
        if eps == 0:
            return v - Phi.rmatvec(back(c * inv)).reshape(v.shape), Y + back(c * null)
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
        return v - mu * Phi.rmatvec(w).reshape(v.shape), Y + w

    return project, np.full(1, g.max())


def _admm(Phi, Y, part, eps, tol, joint, live, out, p_out, resid, iters):
    """:func:`g_bpdn`'s ADMM on the ``live`` problems (rows of ``Y``): fills
    in each one's x, Phi x, residual and iterations at its stop."""
    n_p, rows = len(Y), not joint
    r = eps * (1 - tol / 2)
    project, norm2 = _ball_projection(Phi, Y, r, eps, joint)
    y_energy = part.energies(Phi.rmatvec(Y), rows=rows).reshape(n_p, -1)
    tau = _per_row(np.maximum(_THRESHOLD * np.sqrt(y_energy).max(axis=1) / norm2,
                              np.finfo(float).tiny).tolist())  # > 0: a zero group scales by 0
    z = u = np.zeros((n_p, Phi.shape[1] // n_p), dtype=complex)
    pz = pu = np.zeros_like(Y)
    for n_iter in range(1, _MAX_ITER + 1):
        x, px = project(z - u, pz - pu)
        # the relaxed iterate x^ and Phi x^, without another product
        xr, pxr = _RELAX * x + (1 - _RELAX) * z, _RELAX * px + (1 - _RELAX) * pz
        v = xr + u
        norms = np.sqrt(part.energies(v, rows=rows))
        scale = np.maximum(1.0 - tau / np.maximum(norms, tau), 0.0)
        z_new = (v.reshape(-1, part.total_length) * part.expand(scale)).reshape(n_p, -1)
        z_prev, z, pz = z, z_new, (Phi @ z_new).reshape(n_p, -1)
        u, pu = v - z, pu + pxr - pz
        o, po = (z, pz) if eps > 0 else (x, px)
        for p in list(live):  # each problem's stop test, on its scalar norms
            res = np.linalg.norm(po[p] - Y[p])
            if eps == 0 or res <= eps:
                limit = _STOP * np.linalg.norm(z[p])
                if (np.linalg.norm(x[p] - z[p]) <= limit
                        and np.linalg.norm(z[p] - z_prev[p]) <= limit):
                    out[p], p_out[p], resid[p], iters[p] = o[p], po[p], res, n_iter
                    live.remove(p)
        if not live:
            break
    else:
        out[live] = o[live]
        raise ConvergenceError(f"G-BPDN did not converge in {_MAX_ITER} iterations",
                               best=out.reshape(-1))
    lift = np.flatnonzero((iters > 0) & (resid < eps * (1 - tol)))  # none at eps = 0
    if lift.size:
        # the root in (0, 1) of ||alpha Phi z - y|| = r
        pl, yl = p_out[lift], Y[lift]
        a, b = np.array([[np.vdot(p, p).real, np.vdot(p, w).real] for p, w in zip(pl, yl)]).T
        c = np.array(_row_norms(yl)) ** 2 - r * r
        alpha = (c / (b + np.sqrt(b * b - a * c)))[:, None]
        out[lift], p_out[lift] = alpha * out[lift], alpha * pl
        resid[lift] = _row_norms(p_out[lift] - yl)


def g_bpdn(Phi, y, part, eps, tol, *, joint):
    """Group basis pursuit denoising: minimize the group norm subject to
    ||Phi x - y||_2 <= eps.  For eps > 0 and ||y|| > eps the returned
    residual lies in [eps (1 - tol), eps]; the harness passes tol = 1e-3.
    ``joint=False`` solves each channel's own problem in this one call (own
    ball, threshold, stop and lift, frozen once stopped) on tight-frame
    blocks only (else ``DomainError``).

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
    ``_TIGHT`` c (per channel: each its own c; a tight frame, as every
    ``build_phi`` block is sqrt(JD/Q) times pilot rows of a unitary basis),
    it is closed-form: with a = Phi v - y, x = v if ||a|| <= r, else
    x = v - (1 - r/||a||)/c Phi^H a, and Phi x = y + (r/||a||) a.  Any other
    joint operator (blocks of different scales, non-tight or tall blocks)
    takes U diag(g) U^H = A A^H per block from ``eigh``; the projection has the
    residual w = U diag(1 / (1 + mu g)) U^H a and is x = v - mu Phi^H w, with
    mu >= 0 such that ||w|| = r: Newton's method on the concave, increasing
    1/||w(mu)|| - 1/r rises from mu = 0 to it.  If the part of y on the
    eigenvalues 0, outside the range of Phi, has norm r or more,
    ``ConvergenceError`` carries the least-squares fit.

    A problem stops when ||Phi z - y|| <= eps and the primal residual
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
    A problem with ||y|| <= eps gets x = 0 and no iterations.

    ``Phi`` is a matrix or a :class:`BlockDiagonalOperator`.  ``estimates``
    has a row per problem (joint: the stacked vector).  ``selected_groups``
    are the groups of norm above ``_STOP`` ||x||: a smaller group is within
    the stop tolerance of zero, so it stays in x but is not reported.
    ``iterations`` counts all ADMM iterations; ``diagnostics["lambda"]`` is
    the equivalent group-lasso penalty, the median of
    ||(Phi^H (y - Phi x))_b|| over the selected groups.  Groups, residual
    norms, penalties and ``channel_iterations`` are per channel if not joint.
    """
    Phi = _as_operator(Phi, part)
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    n_p = 1 if joint else Phi.n_channels
    Y = np.asarray(y, dtype=complex).reshape(n_p, -1)
    y_norm = np.array(_row_norms(Y))
    live = np.flatnonzero((y_norm > eps) & (y_norm > 0)).tolist()  # else x = 0 solves it
    out, p_out = np.zeros((n_p, Phi.shape[1] // n_p), dtype=complex), np.zeros_like(Y)
    resid, iters = y_norm.copy(), np.zeros(n_p, dtype=np.intp)
    if live:
        _admm(Phi, Y, part, eps, tol, joint, live, out, p_out, resid, iters)
    norms = np.sqrt(part.energies(out, rows=not joint)).reshape(n_p, -1)
    groups = [np.flatnonzero(nb > _STOP * n).tolist() for nb, n in zip(norms, _row_norms(out))]
    corr = np.sqrt(part.energies(Phi.rmatvec(Y - p_out), rows=not joint)).reshape(n_p, -1)
    lam = [float(np.median(cb[g])) if g else None for cb, g in zip(corr, groups)]
    return _result(joint, out, groups, resid, iters, {}, {"lambda": lam})


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
            stack_partition(part, ensemble.blocks.shape[2], ensemble.n_channels))


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
