import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from blockprec import (
    BlockCholesky,
    EnumerationCapError,
    InvalidArgumentError,
    Partitioning,
    SingularBlockError,
    block_mask,
    check_symmetric_matrix,
    derive_seed,
    diagonal_blocks,
    enumerate_partitions,
    partition_count,
    sample_uniform_partition,
)
from blockprec.partition import (
    DEFAULT_ENUMERATION_CAP,
    _block_layout,
    _enumerate_assignments,
    _sample_assignments,
)

# numpy warns when uint64 scalar arithmetic overflows; the sampler must wrap silently
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MASK64 = 2**64 - 1


def splitmix64(z):
    """The SplitMix64 finalizer on a Python int, masked to 64 bits."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64_assignment(n, k, seed):
    """The documented draw, one coordinate at a time on Python ints masked to 64 bits."""
    def key(j):
        return splitmix64((seed + (j + 1) * 0x9E3779B97F4A7C15) & MASK64)

    perm = sorted(range(n), key=key)
    base, extra = divmod(n, k)
    assignment = [0] * n
    start = 0
    for block in range(k):
        size = base + (1 if block < extra else 0)
        for i in perm[start:start + size]:
            assignment[i] = block
        start += size
    return assignment


def canonical_labels(rows, k):
    """Relabel each row's blocks in order of first occurrence."""
    first = np.argmax(rows[:, None, :] == np.arange(k)[:, None], axis=2)
    rank = np.argsort(np.argsort(first, axis=1), axis=1)
    return np.take_along_axis(rank, rows, axis=1)


def random_spd(n, rng, ridge=0.1):
    g = rng.standard_normal((n, 2 * n))
    return g @ g.T / (2 * n) + ridge * np.eye(n)


class TestSampling:
    def test_forced_sizes_n4_k2(self):
        part = sample_uniform_partition(4, 2, seed=0)
        assert sorted(np.bincount(part.assignment, minlength=part.k_blocks)) == [2, 2]
        assert sorted(np.concatenate([idx.ravel() for _, idx in part.stacks()])) == [0, 1, 2, 3]

    @pytest.mark.parametrize("assignment", [[2, 0, 1, 0, 2, 0], [0, 1, 1, 0, 2, 1, 2]])
    def test_stacks_group_the_blocks_by_size(self, assignment):
        part = Partitioning(np.array(assignment), 3)
        assert part.stacks() is part.stacks()
        sizes = [idx.shape[1] for _, idx in part.stacks()]
        assert sizes == sorted(set(np.bincount(part.assignment, minlength=part.k_blocks)))
        labels = np.concatenate([labels for labels, _ in part.stacks()])
        assert sorted(labels) == [0, 1, 2]
        for labels, idx in part.stacks():
            assert list(labels) == sorted(labels)
            for label, row in zip(labels, idx):
                np.testing.assert_array_equal(row, np.flatnonzero(part.assignment == label))
            with pytest.raises(ValueError):
                idx[0, 0] = 4
            with pytest.raises(ValueError):
                labels[0] = 4

    def test_forced_sizes_n5_k2(self):
        part = sample_uniform_partition(5, 2, seed=3)
        assert sorted(np.bincount(part.assignment, minlength=part.k_blocks)) == [2, 3]

    def test_deterministic_given_seed(self):
        a = sample_uniform_partition(200, 5, seed=7)
        b = sample_uniform_partition(200, 5, seed=7)
        assert np.array_equal(a.assignment, b.assignment)
        c = sample_uniform_partition(200, 5, seed=8)
        assert not np.array_equal(a.assignment, c.assignment)

    def test_matches_the_scalar_splitmix64_reference(self):
        # Python ints masked to 64 bits: an oracle for the uint64 wrap-around
        for n in range(1, 14):
            for k in range(1, n + 1):
                for seed in (0, 1, 7, 2**63, 2**64 - 1):
                    got = sample_uniform_partition(n, k, seed).assignment
                    assert got.dtype == np.intp
                    assert got.tolist() == splitmix64_assignment(n, k, seed)

    def test_reference_reproduces_the_published_splitmix64_outputs(self):
        # SplitMix64 from state 0 outputs 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, ...:
        # the keys of coordinates 0 and 1 of the draw with seed 0
        gamma = 0x9E3779B97F4A7C15
        assert [splitmix64(gamma), splitmix64(2 * gamma & MASK64)] == \
            [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
        assert sample_uniform_partition(2, 2, 0).assignment.tolist() == [1, 0]

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64])
    def test_invalid_seed_rejected(self, seed):
        with pytest.raises(InvalidArgumentError, match="seed must"):
            sample_uniform_partition(4, 2, seed)

    def test_array_sampler_matches_single_draws(self):
        # one (S, n) draw equals S single draws, row by row, bit for bit
        seeds = [0, 1, 7, 2**63, 2**64 - 1]
        for n in range(1, 14):
            for k in range(1, n + 1):
                got = _sample_assignments(n, k, seeds)
                assert got.shape == (len(seeds), n) and got.dtype == np.intp
                for row, seed in zip(got, seeds):
                    np.testing.assert_array_equal(
                        row, sample_uniform_partition(n, k, seed).assignment)

    @pytest.mark.parametrize("n,k", [(400, 8), (13, 3), (50, 3), (7, 7), (1, 1)])
    def test_array_sampler_matches_stable_sort_reference(self, n, k):
        # the keys of a row are distinct, so the default sort and the scatter
        # give what a stable sort and put_along_axis give, row by row
        seeds = [0, 1, 2**63, 2**64 - 1] + [derive_seed(5, i) for i in range(60)]
        base, extra = divmod(n, k)
        labels = np.repeat(np.arange(k), [base + 1] * extra + [base] * (k - extra))
        counters = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        keys = np.array([[splitmix64((s + int(c)) & MASK64) for c in counters] for s in seeds],
                        dtype=np.uint64)
        want = np.empty(keys.shape, dtype=np.intp)
        np.put_along_axis(want, np.argsort(keys, axis=1, kind="stable"), labels, axis=1)
        np.testing.assert_array_equal(_sample_assignments(n, k, seeds), want)

    @pytest.mark.parametrize("n,k", [(400, 8), (13, 3), (9, 4), (7, 7), (1, 1), (10, 4)])
    def test_sampled_layout_is_the_block_layout_of_the_assignment(self, n, k):
        # the draw cuts its keyed sort into the layout: no second sort, same arrays
        for seed in [0, 1, 2**63, 2**64 - 1] + [derive_seed(6, i) for i in range(30)]:
            part = sample_uniform_partition(n, k, seed)
            want = _sample_assignments(n, k, [seed])[0]
            assert part.assignment.dtype == want.dtype
            np.testing.assert_array_equal(part.assignment, want)
            layout = _block_layout(want[None])
            assert len(part.stacks()) == len(layout)
            for got, ref in zip(part.stacks(), layout):
                for got_array, ref_array in zip(got, ref):
                    assert got_array.dtype == ref_array.dtype
                    assert not got_array.flags.writeable and not ref_array.flags.writeable
                    np.testing.assert_array_equal(got_array, ref_array)

    @pytest.mark.parametrize("n,k", [(3, 4), (5, 0), (0, 1)])
    def test_invalid_arguments(self, n, k):
        with pytest.raises(InvalidArgumentError):
            sample_uniform_partition(n, k, seed=0)

    def test_block_membership_uniform_chi_square(self):
        # every coordinate should land in each block with frequency 1/K
        n, k, draws = 6, 3, 10_000
        rows = _sample_assignments(n, k, range(draws))
        counts = np.stack([np.bincount(col, minlength=k) for col in rows.T])
        crit = scipy.stats.chi2.ppf(0.999, df=k - 1)
        for i in range(n):
            stat = np.sum((counts[i] - draws / k) ** 2 / (draws / k))
            assert stat < crit

    @pytest.mark.parametrize("k", [2, 3])
    def test_partitionings_uniform_chi_square(self, k):
        # all 10 (K=2) or 15 (K=3) partitionings of 6 coordinates, equally often
        n, draws = 6, 30_000
        rows, counts = np.unique(canonical_labels(_sample_assignments(n, k, range(draws)), k),
                                 axis=0, return_counts=True)
        assert len(rows) == partition_count(n, k)
        expected = draws / len(rows)
        stat = np.sum((counts - expected) ** 2 / expected)
        assert stat < scipy.stats.chi2.ppf(0.999, df=len(rows) - 1)

    def test_pair_co_occurrence_matches_exact_probability(self):
        # blocks of sizes 4, 3, 3, 3: P(i, j share a block) = sum s(s-1) / (n(n-1)) = 30/156;
        # |z| < 4.5 on each of the 78 pairs keeps the family-wise false alarm rate below 1e-3
        n, k, draws = 13, 4, 60_000
        onehot = np.eye(k)[_sample_assignments(n, k, range(draws))]
        together = np.einsum("dik,djk->ij", onehot, onehot)[np.triu_indices(n, 1)]
        p = 30 / 156
        z = (together - draws * p) / np.sqrt(draws * p * (1 - p))
        assert len(z) == 78
        assert np.abs(z).max() < 4.5

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Partitioning(np.array([0, 0, 0]), 2)

    @pytest.mark.parametrize("assignment", [[0.5, 1.7], [0.0, 1.0], [-1, 0, 1], [0, 1, 2]])
    def test_labels_must_be_integers_in_range(self, assignment):
        with pytest.raises(InvalidArgumentError, match="block labels must"):
            Partitioning(np.array(assignment), 2)

    @pytest.mark.parametrize("make,name", [
        (lambda: Partitioning(np.array([0, 1]), 2.5), "k_blocks"),
        (lambda: sample_uniform_partition(5.0, 2, 0), "n"),
        (lambda: sample_uniform_partition(5, 2.0, 0), "k"),
        (lambda: enumerate_partitions(4, 2.0), "k"),
        (lambda: enumerate_partitions(4.0, 2), "n"),
    ])
    def test_counts_must_be_integers(self, make, name):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer, got "):
            make()


class TestBlockLayout:
    def test_many_rows_match_each_rows_stacks(self):
        # random surjections with uneven sizes and labels out of order; rows differ in sizes
        rng = np.random.default_rng(18)
        for _ in range(60):
            rows, n = int(rng.integers(1, 21)), int(rng.integers(1, 41))
            k = int(rng.integers(1, n + 1))
            a = rng.integers(0, k, size=(rows, n))
            for row in a:
                row[rng.permutation(n)[:k]] = rng.permutation(k)
            layout = _block_layout(a)
            sizes = [idx.shape[1] for _, idx in layout]
            assert sizes == sorted(set(sizes))
            for ids, idx in layout:
                assert ids.dtype == idx.dtype == np.intp
                assert np.all(np.diff(ids) > 0)
                for block, coords in zip(ids, idx):
                    row, label = divmod(block, n)
                    np.testing.assert_array_equal(coords, np.flatnonzero(a[row] == label))
            for r in range(rows):
                want = Partitioning(a[r], k).stacks()
                got = [(ids[ids // n == r] - r * n, idx[ids // n == r]) for ids, idx in layout]
                got = [(ids, idx) for ids, idx in got if len(ids)]
                assert len(got) == len(want)
                for (got_ids, got_idx), (labels, idx) in zip(got, want):
                    assert got_ids.dtype == got_idx.dtype == labels.dtype == idx.dtype == np.intp
                    np.testing.assert_array_equal(got_ids, labels)
                    np.testing.assert_array_equal(got_idx, idx)


class TestEnumeration:
    def test_counts_small(self):
        assert len(enumerate_partitions(4, 2)) == 3
        assert len(enumerate_partitions(2, 2)) == 1
        # 6!/((2!)^3 * 3!) = 15
        assert partition_count(6, 3) == 15
        assert len(enumerate_partitions(6, 3)) == 15

    def test_each_partition_once(self):
        parts = enumerate_partitions(6, 3)
        seen = {frozenset(frozenset(row.tolist()) for _, idx in p.stacks() for row in idx)
                for p in parts}
        assert len(seen) == len(parts)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_count_matches_formula(self, n):
        import math
        for k in range(1, n + 1):
            if n % k:
                continue
            nk = n // k
            expected = math.factorial(n) // (math.factorial(nk) ** k * math.factorial(k))
            assert partition_count(n, k) == expected
            if expected <= 1000:
                assert len(enumerate_partitions(n, k)) == expected

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 13)
                                      for k in range(1, n + 1) if n % k == 0])
    def test_order_matches_depth_first_recursion(self, n, k):
        # block j takes the lowest coordinate no earlier block covers, plus each
        # lexicographic choice of companions among the rest, depth first
        def blockings(free):
            if not free:
                yield ()
                return
            for companions in itertools.combinations(free[1:], n // k - 1):
                block = (free[0], *companions)
                for tail in blockings([i for i in free if i not in block]):
                    yield (block, *tail)

        want = np.empty((partition_count(n, k), n), dtype=np.intp)
        for row, blocks in zip(want, blockings(list(range(n))), strict=True):
            for label, block in enumerate(blocks):
                row[list(block)] = label
        got = _enumerate_assignments(n, k, DEFAULT_ENUMERATION_CAP)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, want)

    def test_cap_exceeded(self):
        with pytest.raises(EnumerationCapError):
            enumerate_partitions(12, 4, cap=100)

    def test_k_must_divide_n(self):
        with pytest.raises(InvalidArgumentError):
            enumerate_partitions(5, 2)


class TestBlockMask:
    def test_identity_survives_any_mask(self):
        part = sample_uniform_partition(7, 3, seed=1)
        assert np.array_equal(block_mask(np.eye(7), part), np.eye(7))

    def test_consecutive_blocks_structure(self):
        # 9x9 all-alpha off-diagonal, three consecutive blocks of 3: the
        # mask keeps exactly the three 3x3 diagonal blocks
        alpha = 0.4
        q = np.full((9, 9), alpha)
        np.fill_diagonal(q, 1.0)
        part = Partitioning(np.repeat([0, 1, 2], 3), 3)
        masked = block_mask(q, part)
        expected = np.zeros((9, 9))
        for b in range(3):
            s = slice(3 * b, 3 * b + 3)
            expected[s, s] = q[s, s]
        assert np.array_equal(masked, expected)

    def test_mask_complement_identity(self):
        rng = np.random.default_rng(5)
        q = random_spd(8, rng)
        part = sample_uniform_partition(8, 3, seed=2)
        masked = block_mask(q, part)
        assert np.array_equal(masked + (q - masked), q)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        q = random_spd(10, rng)
        part = sample_uniform_partition(10, 4, seed=3)
        once = block_mask(q, part)
        assert np.array_equal(block_mask(once, part), once)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        q = random_spd(8, rng)
        part = sample_uniform_partition(8, 2, seed=4)
        perm = rng.permutation(8)
        q_perm = q[np.ix_(perm, perm)]
        part_perm = Partitioning(part.assignment[perm], part.k_blocks)
        np.testing.assert_array_equal(
            block_mask(q_perm, part_perm), block_mask(q, part)[np.ix_(perm, perm)])

    def test_dimension_mismatch(self):
        part = sample_uniform_partition(4, 2, seed=0)
        with pytest.raises(InvalidArgumentError):
            block_mask(np.eye(5), part)

    def test_asymmetric_rejected(self):
        part = sample_uniform_partition(3, 1, seed=0)
        q = np.array([[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(InvalidArgumentError):
            block_mask(q, part)

    def test_symmetry_tolerance_is_relative_to_scale(self):
        # rounding in g diag(d) g^T can leave an asymmetry above 1e-10 at
        # entry scale 1e6; the tolerance is 1e-10 * max(1, max |Q|)
        rng = np.random.default_rng(1)
        g = rng.standard_normal((200, 200))
        check_symmetric_matrix(g @ np.diag(rng.uniform(1.0, 1e4, 200)) @ g.T)
        q = 1e6 * random_spd(6, rng)
        rounded, skewed = q.copy(), q.copy()
        rounded[0, 1] += 1e-15 * np.max(np.abs(q))
        skewed[0, 1] += 1e-9 * np.max(np.abs(q))
        part = Partitioning(np.zeros(6, dtype=int), 1)
        np.testing.assert_array_equal(check_symmetric_matrix(rounded), rounded)
        BlockCholesky(diagonal_blocks(rounded, part), part)
        with pytest.raises(InvalidArgumentError):
            check_symmetric_matrix(skewed)
        with pytest.raises(InvalidArgumentError):
            BlockCholesky(diagonal_blocks(skewed, part), part)

    def test_block_cholesky_checks_only_the_blocks_it_reads(self):
        q = np.eye(4)
        q[0, 2] = 0.5  # coordinates 0 and 2 lie in different blocks
        part = Partitioning(np.array([0, 0, 1, 1]), 2)
        chol = BlockCholesky(diagonal_blocks(q, part), part)
        np.testing.assert_array_equal(chol.solve(np.ones(4)), np.ones(4))
        with pytest.raises(InvalidArgumentError):
            chol.whiten(q)
        q[0, 1] = 0.5
        with pytest.raises(InvalidArgumentError):
            BlockCholesky(diagonal_blocks(q, part), part)
        q[0, 1] = q[1, 0] = np.nan
        with pytest.raises(InvalidArgumentError):
            BlockCholesky(diagonal_blocks(q, part), part)


class TestBlockSolve:
    def test_diagonal_case(self):
        q = np.diag([2.0, 4.0, 8.0, 16.0])
        part = sample_uniform_partition(4, 2, seed=0)
        g = np.array([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(BlockCholesky(diagonal_blocks(q, part), part).solve(g),
                                   1.0 / np.diag(q))

    def test_single_block_is_full_solve(self):
        rng = np.random.default_rng(8)
        q = random_spd(6, rng)
        g = rng.standard_normal(6)
        part = Partitioning(np.zeros(6, dtype=int), 1)
        np.testing.assert_allclose(BlockCholesky(diagonal_blocks(q, part), part).solve(g),
                                   np.linalg.solve(q, g), rtol=1e-10)

    def test_matches_dense_solve_of_masked_matrix(self):
        rng = np.random.default_rng(9)
        q = random_spd(8, rng)
        g = rng.standard_normal(8)
        part = sample_uniform_partition(8, 2, seed=5)
        dense = np.linalg.solve(block_mask(q, part), g)
        got = BlockCholesky(diagonal_blocks(q, part), part).solve(g)
        assert np.linalg.norm(got - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_singular_block_names_offender(self):
        # block {0, 1} is indefinite; block {2, 3} is fine
        q = np.array([
            [1.0, 2.0, 0.0, 0.0],
            [2.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ])
        part = Partitioning(np.array([0, 0, 1, 1]), 2)
        with pytest.raises(SingularBlockError) as excinfo:
            BlockCholesky(diagonal_blocks(q, part), part).solve(np.ones(4))
        assert excinfo.value.block == 0

    def test_blocks_must_match_partitioning(self):
        part = Partitioning(np.array([0, 1, 1]), 2)
        with pytest.raises(InvalidArgumentError, match="expected 2 blocks"):
            BlockCholesky(diagonal_blocks(np.eye(3), part)[:1], part)
        blocks = [np.eye(1), np.eye(3)]  # block 1 has the wrong size
        with pytest.raises(InvalidArgumentError, match="block 1 has shape"):
            BlockCholesky([np.stack([blocks[k] for k in labels]) for labels, _ in part.stacks()],
                          part)
        with pytest.raises(InvalidArgumentError):
            diagonal_blocks(np.eye(4), part)


def per_block_solve(q, part, g):
    """The block solve as a loop over the blocks: a Cholesky and a cho_solve per block."""
    d = np.empty_like(g)
    for label in range(part.k_blocks):
        idx = np.flatnonzero(part.assignment == label)
        block = q[np.ix_(idx, idx)]
        d[idx] = scipy.linalg.cho_solve((np.linalg.cholesky(block), True), g[idx],
                                        check_finite=False)
    return d


# Sizes 3, 1 and 2 for labels 0, 1 and 2, so the stacks (by size) run out of label order.
OUT_OF_ORDER = Partitioning(np.array([2, 0, 1, 0, 2, 0]), 3)


class TestStackedSolve:
    def test_bit_identical_to_per_block_cho_solve(self):
        rng = np.random.default_rng(16)
        parts = [OUT_OF_ORDER]
        for trial in range(20):
            n = int(rng.integers(5, 40))
            k = int(rng.choice([k for k in range(2, n) if n % k]))
            parts.append(sample_uniform_partition(n, k, seed=trial))
        for part in parts:
            sizes = np.bincount(part.assignment, minlength=part.k_blocks)
            assert len(part.stacks()) == len(set(sizes))
            q = random_spd(part.n, rng)
            g = rng.standard_normal(part.n)
            got = BlockCholesky(diagonal_blocks(q, part), part).solve(g)
            np.testing.assert_array_equal(got, per_block_solve(q, part, g))

    def test_one_cholesky_per_block_size(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        rng = np.random.default_rng(17)
        for part in (OUT_OF_ORDER, sample_uniform_partition(30, 8, seed=1)):
            calls.clear()
            BlockCholesky(diagonal_blocks(random_spd(part.n, rng), part), part)
            assert calls == [idx.shape + idx.shape[1:] for _, idx in part.stacks()]

    @staticmethod
    def two_bad_blocks(kind):
        """Q over OUT_OF_ORDER with blocks 0 (size 3) and 2 (size 2) broken as ``kind`` says."""
        q = np.eye(6)
        block0, block2 = [1, 3, 5], [0, 4]
        if kind == "singular":
            q[np.ix_(block0, block0)] = 1.0
            q[np.ix_(block2, block2)] = 1.0
        elif kind == "entries":
            q[1, 3] = np.nan
            q[0, 4] = 0.5  # block 2 is not symmetric
        else:  # block 0 is singular, block 2 not symmetric
            q[np.ix_(block0, block0)] = 1.0
            q[0, 4] = 0.5
        return q

    def test_singular_block_named_across_stacks(self):
        # the size-2 stack of block 2 is factored before the size-3 stack of block 0
        q = self.two_bad_blocks("singular")
        with pytest.raises(SingularBlockError) as excinfo:
            BlockCholesky(diagonal_blocks(q, OUT_OF_ORDER), OUT_OF_ORDER)
        assert excinfo.value.block == 0
        assert str(excinfo.value) == "block 0 (size 3) is not positive definite"

    def test_bad_entries_named_across_stacks(self):
        q = self.two_bad_blocks("entries")
        with pytest.raises(InvalidArgumentError, match="^block 0 has non-finite entries$"):
            BlockCholesky(diagonal_blocks(q, OUT_OF_ORDER), OUT_OF_ORDER)
        q[1, 3] = 0.0
        with pytest.raises(InvalidArgumentError, match="^block 2 is not symmetric"):
            BlockCholesky(diagonal_blocks(q, OUT_OF_ORDER), OUT_OF_ORDER)

    def test_lowest_label_wins_between_kinds(self):
        # a label-order loop reaches the singular block 0 before the asymmetric block 2
        q = self.two_bad_blocks("mixed")
        with pytest.raises(SingularBlockError) as excinfo:
            BlockCholesky(diagonal_blocks(q, OUT_OF_ORDER), OUT_OF_ORDER)
        assert excinfo.value.block == 0


class TestWhitenBound:
    def test_lambda_max_of_whitened_at_most_k(self):
        # x^T Q x <= K x^T Q_P x, i.e. the spectrum of L^{-1} Q L^{-T}
        # stays below K for every partitioning
        rng = np.random.default_rng(10)
        for trial in range(25):
            n = int(rng.integers(4, 12))
            k = int(rng.integers(1, n + 1))
            q = random_spd(n, rng)
            part = sample_uniform_partition(n, k, seed=trial)
            w = BlockCholesky(diagonal_blocks(q, part), part).whiten(q)
            assert np.linalg.eigvalsh(w)[-1] <= k + 1e-8


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24), st.data())
def test_sampled_partitions_are_near_uniform_and_mask_idempotent(n, data):
    k = data.draw(st.integers(1, n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    part = sample_uniform_partition(n, k, seed)
    sizes = np.bincount(part.assignment, minlength=part.k_blocks)
    assert sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1
    rng = np.random.default_rng(seed)
    q = random_spd(n, rng)
    masked = block_mask(q, part)
    np.testing.assert_array_equal(block_mask(masked, part), masked)
