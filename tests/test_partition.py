"""Tests for partitions, tilings, the rank map and group norms."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgcs.errors import ConfigurationError, DomainError
from mgcs.partition import (
    Partition,
    make_block_tiling,
    singleton_partition,
    stack_partition,
)
from oracles import best_group_approx, group_frobenius_norm, group_norm, uniform_partition


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


def tiling_blocks(t):
    """The tiling's blocks: a list of (dm*di, 2) arrays of (m, i) pairs,
    i in -J/2..J/2-1."""
    m, a = np.divmod(t.to_partition().perm.reshape(t.n_blocks, -1), t.J)
    return list(np.stack([m, a - t.J // 2], axis=-1))


def as_sets(part):
    return [set(g.tolist()) for g in part.groups]


class TestBlockTiling:
    def test_small_tiling_counts(self):
        t = make_block_tiling(D=2, J=4, dm=1, di=2)
        assert t.n_blocks == 4
        assert all(len(b) == 2 for b in tiling_blocks(t))

    def test_degenerate_tiling(self):
        t = make_block_tiling(D=1, J=2, dm=1, di=1)
        assert t.n_blocks == 2
        assert all(len(b) == 1 for b in tiling_blocks(t))

    def test_anchor_block(self):
        t = make_block_tiling(D=4, J=8, dm=1, di=4)
        assert t.n_blocks == 8
        anchor = [set(map(tuple, b)) for b in tiling_blocks(t) if (0, 0) in set(map(tuple, b))]
        assert anchor == [{(0, 0), (0, 1), (0, 2), (0, 3)}]

    def test_blocks_tile_rectangle(self):
        t = make_block_tiling(D=4, J=8, dm=2, di=2)
        cells = list(itertools.chain.from_iterable(map(tuple, b) for b in tiling_blocks(t)))
        assert len(cells) == len(set(cells)) == 4 * 8
        assert set(cells) == {(m, i) for m in range(4) for i in range(-4, 4)}

    def test_divisibility_errors(self):
        with pytest.raises(ConfigurationError):
            make_block_tiling(D=3, J=4, dm=2, di=1)
        with pytest.raises(ConfigurationError):
            make_block_tiling(D=2, J=4, dm=1, di=4)  # di must divide J/2


class TestIndexMap:
    def test_corners(self):
        D, J = 5, 6
        assert index_map(0, -J // 2, D, J) == 1
        assert index_map(D - 1, J // 2 - 1, D, J) == J * D

    def test_formula_value(self):
        assert index_map(1, 0, 4, 8) == 13

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            index_map(4, 0, 4, 8)
        with pytest.raises(DomainError):
            index_map(0, 4, 4, 8)

    @given(st.integers(1, 6), st.integers(1, 4))
    def test_bijection(self, D, half_j):
        J = 2 * half_j
        seen = set()
        for m in range(D):
            for i in range(-J // 2, J // 2):
                rank = index_map(m, i, D, J)
                assert index_map_inverse(rank, D, J) == (m, i)
                seen.add(rank)
        assert seen == set(range(1, J * D + 1))


class TestStackPartition:
    def test_single_channel_identity(self):
        p = Partition(3, (np.array([0, 1]), np.array([2])))
        assert as_sets(stack_partition(p, 3, 1)) == as_sets(p)

    def test_two_channels(self):
        p = Partition(2, (np.array([0]), np.array([1])))
        assert as_sets(stack_partition(p, 2, 2)) == [{0, 2}, {1, 3}]

    def test_cardinality(self):
        p = uniform_partition(4, 2)
        stacked = stack_partition(p, 4, 3)
        assert stacked.n_groups == 2
        assert all(g.size == 6 for g in stacked.groups)

    def test_subvector_identity(self):
        # stacked subvector b = concatenation over channels of x^(theta)[b]
        rng = np.random.default_rng(0)
        p = uniform_partition(6, 2)
        xs = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        stacked_x = xs.reshape(-1)
        stacked_p = stack_partition(p, 6, 3)
        for b in range(p.n_groups):
            expect = np.concatenate([x[p.groups[b]] for x in xs])
            np.testing.assert_allclose(np.sort_complex(stacked_x[stacked_p.groups[b]]),
                                       np.sort_complex(expect))


class TestGroupNorm:
    def test_zero_vector(self):
        p = uniform_partition(4, 2)
        assert group_norm(np.zeros(4), p) == 0.0

    def test_single_group(self):
        p = Partition(5, (np.arange(5),))
        x = np.array([1, 2, 2, 0, 4.0])
        assert group_norm(x, p) == pytest.approx(np.linalg.norm(x))

    def test_worked_example(self):
        p = uniform_partition(4, 2)
        assert group_norm(np.array([3.0, 4.0, 0.0, 5.0]), p) == pytest.approx(10.0)

    @given(st.integers(1, 5), st.integers(0, 1000))
    @settings(max_examples=30)
    def test_l2_lower_bound(self, n_groups, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 4, size=n_groups)
        M = int(sizes.sum())
        perm = rng.permutation(M)
        groups, pos = [], 0
        for s in sizes:
            groups.append(perm[pos: pos + s])
            pos += s
        p = Partition(M, tuple(groups))
        x = rng.normal(size=M) + 1j * rng.normal(size=M)
        assert np.linalg.norm(x) <= group_norm(x, p) + 1e-12


class TestGroupFrobeniusNorm:
    def test_zero_tensor(self):
        t = make_block_tiling(D=2, J=4, dm=1, di=2)
        assert group_frobenius_norm(np.zeros((2, 4, 3)), t) == 0.0

    def test_singleton_blocks_reduce_to_l1(self):
        t = make_block_tiling(D=2, J=2, dm=1, di=1)
        rng = np.random.default_rng(1)
        g = rng.normal(size=(2, 2, 1)) + 1j * rng.normal(size=(2, 2, 1))
        assert group_frobenius_norm(g, t) == pytest.approx(np.abs(g).sum())

    def test_matches_stacked_group_norm(self):
        rng = np.random.default_rng(2)
        t = make_block_tiling(D=2, J=4, dm=1, di=2)
        g = rng.normal(size=(2, 4, 2)) + 1j * rng.normal(size=(2, 4, 2))
        # independent route: stack per-channel rank-ordered vectors, then the
        # plain group norm under the stacked partition
        vecs = [g[:, :, xi].reshape(-1) for xi in range(2)]
        stacked = np.concatenate(vecs)
        p_tilde = stack_partition(t.to_partition(), 8, 2)
        assert group_frobenius_norm(g, t) == pytest.approx(
            group_norm(stacked, p_tilde), rel=1e-12
        )


def unequal_partitions():
    """Partitions with unequal group sizes: contiguous, and scattered by a
    random permutation so that groups are non-contiguous and unsorted."""
    rng = np.random.default_rng(3)
    sizes = [1, 3, 2, 4, 1]
    bounds = np.cumsum([0] + sizes)
    perm = rng.permutation(int(bounds[-1]))
    contiguous = Partition(11, tuple(np.arange(a, b) for a, b in zip(bounds, bounds[1:])))
    scattered = Partition(11, tuple(perm[a:b] for a, b in zip(bounds, bounds[1:])))
    return [contiguous, scattered]


class TestGroupIndex:
    @pytest.mark.parametrize("p", unequal_partitions())
    def test_index_reproduces_the_groups(self, p):
        assert p.sizes.tolist() == [g.size for g in p.groups]
        for b, g in enumerate(p.groups):
            start = p.starts[b]
            np.testing.assert_array_equal(p.perm[start: start + p.sizes[b]], g)

    @pytest.mark.parametrize("shape", [(11,), (3, 11)])
    @pytest.mark.parametrize("p", unequal_partitions())
    def test_energies_match_a_group_loop(self, p, shape):
        rng = np.random.default_rng(4)
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        loop = [np.sum(np.abs(v[..., g]) ** 2) for g in p.groups]
        np.testing.assert_allclose(p.energies(v), loop, rtol=1e-12)
        # the channel-stacked vector gives the same joint energies
        np.testing.assert_allclose(p.energies(v.reshape(-1)), loop, rtol=1e-12)

    @pytest.mark.parametrize("p", unequal_partitions())
    def test_row_energies_are_each_rows_own(self, p):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(3, 11)) + 1j * rng.normal(size=(3, 11))
        rows = p.energies(v, rows=True)
        assert rows.shape == (3, p.n_groups)
        for row, vec in zip(rows, v):
            np.testing.assert_array_equal(row, p.energies(vec))
        np.testing.assert_array_equal(p.energies(v.reshape(-1), rows=True), rows)

    @pytest.mark.parametrize("rows", [False, True])
    def test_singleton_energies_are_the_entries_exactly(self, rows):
        # in order, the energies skip the gather and the group sums; out of
        # order they take them; either way they are the entries' |.|^2, bit for bit
        rng = np.random.default_rng(6)
        v = rng.normal(size=(4, 11)) + 1j * rng.normal(size=(4, 11))
        per_entry = np.abs(v) ** 2 if rows else (np.abs(v) ** 2).sum(axis=0)
        ordered = singleton_partition(11)
        shuffled = Partition(11, tuple(rng.permutation(11)[:, None]))
        assert ordered.identity and uniform_partition(11, 1).identity
        assert not shuffled.identity
        assert not any(p.identity for p in unequal_partitions())
        np.testing.assert_array_equal(ordered.energies(v, rows=rows), per_entry)
        np.testing.assert_array_equal(shuffled.energies(v, rows=rows),
                                      per_entry[..., shuffled.perm])

    def test_energies_reject_a_length_that_is_not_a_multiple(self):
        with pytest.raises(DomainError):
            uniform_partition(4, 2).energies(np.ones(6))

    @pytest.mark.parametrize("p", unequal_partitions())
    def test_expand_matches_a_group_loop(self, p):
        per_group = np.arange(1.0, p.n_groups + 1)
        loop = np.zeros(p.total_length)
        for b, g in enumerate(p.groups):
            loop[g] = per_group[b]
        np.testing.assert_array_equal(p.expand(per_group), loop)

    def test_expand_matches_repeat_and_scatter_on_a_stacked_partition(self):
        # 2 x 2 blocks of a 4 x 8 rectangle over three channels: every group
        # is non-contiguous
        p = stack_partition(make_block_tiling(4, 8, 2, 2).to_partition(), 32, 3)
        per_group = np.random.default_rng(5).normal(size=p.n_groups)
        scatter = np.empty(p.total_length)
        scatter[p.perm] = np.repeat(per_group, p.sizes)
        np.testing.assert_array_equal(p.expand(per_group), scatter)
        for b, g in enumerate(p.groups):
            assert (p.group_of[g] == b).all()

    @pytest.mark.parametrize("selected", [[], [3], [4, 0, 2], [1, 3, 0, 4, 2]])
    @pytest.mark.parametrize("p", unequal_partitions())
    def test_columns_match_a_group_loop(self, p, selected):
        loop = [int(j) for b in selected for j in p.groups[b]]
        assert p.columns(selected).tolist() == loop


class TestBestGroupApprox:
    def test_keep_all(self):
        p = uniform_partition(6, 2)
        x = np.arange(6.0)
        np.testing.assert_array_equal(best_group_approx(x, p, p.n_groups), x)

    def test_keep_none(self):
        p = uniform_partition(6, 2)
        np.testing.assert_array_equal(best_group_approx(np.arange(6.0), p, 0), np.zeros(6))

    def test_worked_example(self):
        p = uniform_partition(6, 2)
        x = np.array([1.0, 0.0, 2.0, 0.0, 0.0, 3.0])
        np.testing.assert_array_equal(
            best_group_approx(x, p, 2), np.array([0.0, 0.0, 2.0, 0.0, 0.0, 3.0])
        )

    def test_tie_break_lowest_index(self):
        p = uniform_partition(4, 2)
        x = np.array([1.0, 0.0, 0.0, 1.0])
        np.testing.assert_array_equal(best_group_approx(x, p, 1), [1.0, 0.0, 0.0, 0.0])

    def test_out_of_range(self):
        p = uniform_partition(4, 2)
        with pytest.raises(DomainError):
            best_group_approx(np.zeros(4), p, 3)

    @pytest.mark.parametrize("seed", range(8))
    def test_optimal_among_group_sparse(self, seed):
        # exhaustive oracle: the kept-group choice minimizes the group-norm
        # distance over every group-S-sparse competitor
        rng = np.random.default_rng(seed)
        B = int(rng.integers(2, 7))
        sizes = rng.integers(1, 3, size=B)
        M = int(sizes.sum())
        groups, pos = [], 0
        for s in sizes:
            groups.append(np.arange(pos, pos + s))
            pos += s
        p = Partition(M, tuple(groups))
        x = rng.normal(size=M) + 1j * rng.normal(size=M)
        S = int(rng.integers(0, B + 1))
        achieved = group_norm(best_group_approx(x, p, S) - x, p)
        for combo in itertools.combinations(range(B), S):
            competitor = np.zeros_like(x)
            for b in combo:
                competitor[p.groups[b]] = x[p.groups[b]]
            assert achieved <= group_norm(competitor - x, p) + 1e-12


def test_partition_validation():
    with pytest.raises(ConfigurationError):
        Partition(3, (np.array([0, 1]),))  # not covering
    with pytest.raises(ConfigurationError):
        Partition(3, (np.array([0, 1]), np.array([1, 2])))  # overlap
    with pytest.raises(ConfigurationError):
        Partition(2, (np.array([0, 1]), np.array([], dtype=int)))  # empty group
    with pytest.raises(ConfigurationError):
        Partition(2, (np.array([0, 0]),))  # repeat inside one group, 1 uncovered
    with pytest.raises(ConfigurationError):
        Partition(2, (np.array([-1, 0]), np.array([1])))  # index below 0
    with pytest.raises(ConfigurationError):
        Partition(2, (np.array([0, 1]), np.array([2])))  # index M
    with pytest.raises(ConfigurationError):
        Partition(2, ())  # zero groups
    with pytest.raises(ConfigurationError):
        Partition(0, (np.array([0]),))  # total_length 0


def test_tiling_partition_ranks_match_index_map():
    t = make_block_tiling(D=3, J=4, dm=1, di=2)
    part = t.to_partition()
    for blk, grp in zip(tiling_blocks(t), part.groups):
        ranks = sorted(index_map(m, i, 3, 4) - 1 for m, i in blk)
        assert ranks == grp.tolist()


def test_singleton_partition():
    p = singleton_partition(4)
    assert p.n_groups == 4
    assert group_norm(np.array([1.0, -2.0, 2.0, 0.0]), p) == pytest.approx(5.0)


def test_partitions_are_built_once_and_read_only():
    tiling = make_block_tiling(D=4, J=4, dm=2, di=2)
    assert tiling.to_partition() is tiling.to_partition()
    assert singleton_partition(6) is singleton_partition(6)
    for part in (tiling.to_partition(), singleton_partition(6), unequal_partitions()[1]):
        for array in (part.perm, part.starts, part.sizes, part.groups[0]):
            with pytest.raises(ValueError):
                array[0] = 1
