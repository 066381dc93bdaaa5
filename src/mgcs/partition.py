"""Index partitions, delay-Doppler block tilings, group norms and approximations.

Vector indices are 0-based throughout the package.  The 2D->1D rank map
``index_map`` keeps its textbook 1-based output range {1..J*D}; the groups of a
:class:`Partition` store the corresponding 0-based positions (rank - 1).
Every group reduction goes through a partition's flat group index and its
``energies``, ``expand`` and ``columns``.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class Partition:
    """Partition of {0..M-1} into ordered, disjoint, nonempty groups.

    Groups may be non-contiguous (stacked multichannel partitions interleave
    channels), so they are stored as explicit index arrays: views into the
    flat index ``perm``, the groups' members in group order, where group b
    occupies ``perm[starts[b]:starts[b] + sizes[b]]``.  These arrays are
    read-only, so one partition can be shared by every caller.
    """

    total_length: int
    groups: tuple
    perm: np.ndarray = field(init=False, repr=False, compare=False)
    starts: np.ndarray = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M = self.total_length
        if M <= 0:
            raise ConfigurationError("total_length must be positive")
        sizes = np.fromiter(map(np.size, self.groups), dtype=np.intp, count=len(self.groups))
        if sizes.size == 0 or sizes.min() == 0:
            raise ConfigurationError("partition without groups or with an empty group")
        perm = np.concatenate(self.groups, axis=None).astype(np.intp, copy=False)
        if perm.min() < 0 or perm.max() >= M:
            raise ConfigurationError("group index outside {0..M-1}")
        if np.bincount(perm, minlength=M).max() > 1:
            raise ConfigurationError("groups are not disjoint")
        if perm.size != M:
            raise ConfigurationError("groups do not cover {0..M-1}")
        ends = np.cumsum(sizes)
        starts = ends - sizes
        for a in (perm, starts, sizes):
            a.flags.writeable = False
        # the groups become views of perm, sliced without np.split's overhead
        groups = tuple(map(perm.__getitem__, map(slice, starts.tolist(), ends.tolist())))
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "sizes", sizes)

    @property
    def n_groups(self):
        return self.sizes.size

    def subvector(self, x, b):
        """Entries of ``x`` indexed by group ``b``."""
        return np.asarray(x)[..., self.groups[b]]

    def energies(self, v):
        """Per-group energy over the last axis of length M.  The rows of ``v``,
        or of a channel-stacked vector of length n_channels M, are summed
        first, so the result is each group's joint energy across them."""
        v = np.asarray(v)
        if v.size % self.total_length:
            raise DomainError("vector length does not match partition")
        per_entry = (np.abs(v.reshape(-1, self.total_length)) ** 2).sum(axis=0)
        return np.add.reduceat(per_entry[self.perm], self.starts)

    def expand(self, per_group):
        """Length-M vector holding ``per_group[b]`` at every member of group b."""
        per_group = np.asarray(per_group)
        out = np.empty(self.total_length, dtype=per_group.dtype)
        out[self.perm] = np.repeat(per_group, self.sizes)
        return out

    def columns(self, selected):
        """Members of the ``selected`` groups, concatenated in selection order."""
        sel = np.asarray(selected, dtype=np.intp)
        sizes = self.sizes[sel]
        first = np.cumsum(sizes) - sizes  # where each selected group starts in the output
        pos = np.arange(sizes.sum()) + np.repeat(self.starts[sel] - first, sizes)
        return self.perm[pos]


@dataclass(frozen=True)
class BlockTiling:
    """Tiling of the delay-Doppler rectangle {0..D-1} x {-J/2..J/2-1} into
    equal dm x di blocks, enumerated row-major (delay-block outer)."""

    D: int
    J: int
    dm: int
    di: int

    def __post_init__(self):
        if self.J % 2 != 0:
            raise ConfigurationError("J must be even")
        if self.D % self.dm != 0:
            raise ConfigurationError("dm must divide D")
        if (self.J // 2) % self.di != 0:
            raise ConfigurationError("di must divide J/2")

    @property
    def n_blocks(self):
        return (self.J * self.D) // (self.dm * self.di)

    @property
    def block_size(self):
        return self.dm * self.di

    def blocks(self):
        """List of (dm*di, 2) arrays of (m, i) pairs, i in -J/2..J/2-1."""
        m, a = np.divmod(self.to_partition().perm.reshape(self.n_blocks, -1), self.J)
        return list(np.stack([m, a - self.J // 2], axis=-1))

    def to_partition(self):
        """1D partition of {0..J*D-1} induced by the rank map, built once per
        tiling."""
        return self._partition

    @cached_property
    def _partition(self):
        # rank m J + (i + J/2) over the rectangle, split into dm x di blocks;
        # within a block the ranks run in increasing (m, i) order
        ranks = np.arange(self.J * self.D).reshape(
            self.D // self.dm, self.dm, self.J // self.di, self.di
        )
        return Partition(self.J * self.D,
                         tuple(ranks.transpose(0, 2, 1, 3).reshape(self.n_blocks, -1)))


def make_block_tiling(D, J, dm, di):
    """Tile the fundamental delay-Doppler rectangle into dm x di blocks."""
    return BlockTiling(D=D, J=J, dm=dm, di=di)


def index_map(m, i, D, J):
    """2D->1D rank of delay-Doppler position (m, i): m*J + i + J/2 + 1.

    Bijective from {0..D-1} x {-J/2..J/2-1} onto {1..J*D} (1-based).
    """
    if not (0 <= m < D):
        raise DomainError(f"m={m} outside 0..{D - 1}")
    if not (-J // 2 <= i < J // 2):
        raise DomainError(f"i={i} outside -{J // 2}..{J // 2 - 1}")
    return m * J + i + J // 2 + 1


def index_map_inverse(rank, D, J):
    """Inverse of :func:`index_map`; returns (m, i)."""
    if not (1 <= rank <= J * D):
        raise DomainError(f"rank={rank} outside 1..{J * D}")
    m, a = divmod(rank - 1, J)
    return m, a - J // 2


@cache
def singleton_partition(M):
    """Partition of {0..M-1} into M singletons, built once per M."""
    return Partition(M, tuple(np.arange(M)[:, None]))


def uniform_partition(M, size):
    """Partition of {0..M-1} into contiguous groups of equal ``size``."""
    if M % size != 0:
        raise ConfigurationError("group size must divide M")
    return Partition(M, tuple(np.arange(M).reshape(-1, size)))


def stack_partition(part, M, n_channels):
    """Partition of {0..M*n_channels-1} whose group b collects group b of
    ``part`` replicated across all channel offsets xi*M, channel by channel."""
    if part.total_length != M:
        raise DomainError("partition length does not match M")
    if n_channels < 1:
        raise DomainError("n_channels must be >= 1")
    offsets = np.arange(n_channels)[:, None] * M
    return Partition(M * n_channels, tuple((offsets + g).ravel() for g in part.groups))


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
