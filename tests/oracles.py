"""Independent reference computations shared by the tests."""

import numpy as np

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
