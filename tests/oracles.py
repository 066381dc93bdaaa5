"""Independent reference computations shared by the tests."""

import numpy as np
from scipy.linalg import block_diag, solve_triangular

from mgcs.errors import DomainError


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


def g_omp_from_scratch(blocks, n_channels, y, part, max_groups=None, residual_tol=0.0):
    """Group OMP that factors every channel's selected columns from scratch
    at every iteration: the reference for the solver's grown factorization.

    ``blocks`` (n_tx, Q, M) measures channel xi = r n_tx + s with
    ``blocks[s]``, and ``y`` stacks the channels' observations.  ``part``
    covers one block's M columns, so group b is group b at every channel
    offset, or all n_channels M columns.  Returns (selected groups, stacked
    estimate, residual history, rank lost).
    """
    blocks = np.asarray(blocks, dtype=complex)
    n_tx, q, m = blocks.shape
    n_cols = n_channels * m
    dense = block_diag(*(blocks[xi % n_tx] for xi in range(n_channels)))
    length = part.total_length
    offsets = np.arange(0, n_cols, length)[:, None]
    cap = part.n_groups if max_groups is None else min(max_groups, part.n_groups)
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
