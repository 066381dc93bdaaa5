"""Index partitions and delay-Doppler block tilings.

Vector indices are 0-based throughout the package.  Delay-Doppler position
(m, i), i in {-J/2..J/2-1}, has rank m J + i + J/2, the textbook 1-based
rank map minus one; the groups of a :class:`Partition` hold these ranks.
Every group reduction goes through a partition's table of equal-size groups
and its ``energies``, ``expand`` and ``columns``.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class Partition:
    """Partition of {0..M-1} into ordered, disjoint groups of one size.

    ``groups`` is the read-only (n_groups, size) table whose row b holds the
    members of group b; any sequence of equal-length index arrays converts to
    it.  Groups may be non-contiguous (stacked multichannel partitions
    interleave channels).  ``perm`` is the table read row by row,
    ``group_of[j]`` is the group of column j, and ``identity`` says whether
    the groups are the singletons {0}, {1}, ... in order.  These arrays are
    read-only, so one partition can be shared by every caller.
    """

    total_length: int
    groups: np.ndarray
    perm: np.ndarray = field(init=False, repr=False, compare=False)
    group_of: np.ndarray = field(init=False, repr=False, compare=False)
    identity: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M = self.total_length
        if M <= 0:
            raise ConfigurationError("total_length must be positive")
        sizes = {np.size(g) for g in self.groups}
        if len(sizes) > 1:
            raise ConfigurationError("groups of unequal size")
        if not sizes or 0 in sizes:
            raise ConfigurationError("partition without groups or with empty groups")
        table = np.array(self.groups, dtype=np.intp).reshape(len(self.groups), -1)
        perm = table.ravel()
        if perm.min() < 0 or perm.max() >= M:
            raise ConfigurationError("group index outside {0..M-1}")
        if np.bincount(perm, minlength=M).max() > 1:
            raise ConfigurationError("groups are not disjoint")
        if perm.size != M:
            raise ConfigurationError("groups do not cover {0..M-1}")
        group_of = np.empty(M, dtype=np.intp)
        group_of[perm] = np.arange(len(table)).repeat(table.shape[1])
        for a in (table, perm, group_of):
            a.flags.writeable = False
        object.__setattr__(self, "groups", table)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "group_of", group_of)
        object.__setattr__(self, "identity",
                           table.shape[1] == 1 and bool((perm == np.arange(M)).all()))

    @property
    def n_groups(self):
        return self.groups.shape[0]

    @property
    def size(self):
        """The common size of the groups."""
        return self.groups.shape[1]

    def energies(self, v, rows=False):
        """Per-group energy over the last axis of length M.  The rows of ``v``,
        or of a channel-stacked vector of length n_channels M, are summed
        first, unless ``rows``, so that each group's energy is joint across them."""
        v = np.asarray(v)
        if v.size % self.total_length:
            raise DomainError("vector length does not match partition")
        per_entry = np.abs(v.reshape(-1, self.total_length)) ** 2
        if not rows:
            per_entry = per_entry.sum(axis=0)
        if self.identity:  # singletons in order: each group's energy is its entry's
            return per_entry
        # gather, then reduceat: a sum over a short (..., size) axis is far slower
        return np.add.reduceat(per_entry.take(self.perm, axis=-1),
                               np.arange(0, self.total_length, self.size), axis=-1)

    def expand(self, per_group):
        """Length-M vector holding ``per_group[b]`` at every member of group b."""
        return np.take(per_group, self.group_of, axis=-1)

    def columns(self, selected):
        """Members of the ``selected`` groups, concatenated in selection order."""
        return self.groups[np.asarray(selected, dtype=np.intp)].ravel()


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
        if self.dm < 1 or self.di < 1:
            raise ConfigurationError("dm and di must be at least 1")
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
        return Partition(self.J * self.D, ranks.transpose(0, 2, 1, 3).reshape(self.n_blocks, -1))


def make_block_tiling(D, J, dm, di):
    """Tile the fundamental delay-Doppler rectangle into dm x di blocks."""
    return BlockTiling(D=D, J=J, dm=dm, di=di)


@cache
def singleton_partition(M):
    """Partition of {0..M-1} into M singletons, built once per M."""
    return Partition(M, np.arange(M)[:, None])


def stack_partition(part, M, n_channels):
    """Partition of {0..M*n_channels-1} whose group b collects group b of
    ``part`` replicated across all channel offsets xi*M, channel by channel."""
    if part.total_length != M:
        raise DomainError("partition length does not match M")
    if n_channels < 1:
        raise DomainError("n_channels must be >= 1")
    offsets = np.arange(n_channels)[:, None] * M
    return Partition(M * n_channels, (offsets + part.groups[:, None]).reshape(part.n_groups, -1))
