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
    diagonal_blocks,
    enumerate_partitions,
    partition_count,
    sample_uniform_partition,
)
from blockprec.partition import _sample_assignments

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
        assert sorted(part.block_sizes()) == [2, 2]
        assert sorted(np.concatenate([idx.ravel() for _, idx in part.stacks()])) == [0, 1, 2, 3]

    @pytest.mark.parametrize("assignment", [[2, 0, 1, 0, 2, 0], [0, 1, 1, 0, 2, 1, 2]])
    def test_stacks_group_the_blocks_by_size(self, assignment):
        part = Partitioning(np.array(assignment), 3)
        assert part.stacks() is part.stacks()
        sizes = [idx.shape[1] for _, idx in part.stacks()]
        assert sizes == sorted(set(part.block_sizes()))
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
        assert sorted(part.block_sizes()) == [2, 3]

    def test_deterministic_given_seed(self):
        a = sample_uniform_partition(200, 5, seed=7)
        b = sample_uniform_partition(200, 5, seed=7)
        assert a == b
        c = sample_uniform_partition(200, 5, seed=8)
        assert a != c

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

    def test_jitter_rescues_singular_block(self):
        q = np.array([[1.0, 1.0], [1.0, 1.0]])
        part = Partitioning(np.array([0, 0]), 1)
        with pytest.raises(SingularBlockError):
            BlockCholesky(diagonal_blocks(q, part), part).solve(np.ones(2))
        d = BlockCholesky(diagonal_blocks(q, part), part, jitter=1e-6).solve(np.ones(2))
        np.testing.assert_allclose((q + 1e-6 * np.eye(2)) @ d, np.ones(2), rtol=1e-9)

    def test_negative_jitter_rejected(self):
        part = Partitioning(np.array([0, 0]), 1)
        with pytest.raises(InvalidArgumentError):
            BlockCholesky(diagonal_blocks(np.eye(2), part), part, jitter=-1.0).solve(np.ones(2))

    @pytest.mark.parametrize("jitter", [np.nan, np.inf])
    def test_non_finite_jitter_rejected(self, jitter):
        part = sample_uniform_partition(4, 2, 0)
        with pytest.raises(InvalidArgumentError, match="jitter"):
            BlockCholesky(diagonal_blocks(np.eye(4), part), part, jitter=jitter)

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


def per_block_solve(q, part, g, jitter):
    """The block solve as a loop over the blocks: a Cholesky and a cho_solve per block."""
    d = np.empty_like(g)
    for label in range(part.k_blocks):
        idx = np.flatnonzero(part.assignment == label)
        block = q[np.ix_(idx, idx)]
        if jitter:
            block = block + jitter * np.eye(idx.size)
        d[idx] = scipy.linalg.cho_solve((np.linalg.cholesky(block), True), g[idx],
                                        check_finite=False)
    return d


# Sizes 3, 1 and 2 for labels 0, 1 and 2, so the stacks (by size) run out of label order.
OUT_OF_ORDER = Partitioning(np.array([2, 0, 1, 0, 2, 0]), 3)


class TestStackedSolve:
    @pytest.mark.parametrize("jitter", [0.0, 1e-6])
    def test_bit_identical_to_per_block_cho_solve(self, jitter):
        rng = np.random.default_rng(16)
        parts = [OUT_OF_ORDER]
        for trial in range(20):
            n = int(rng.integers(5, 40))
            k = int(rng.choice([k for k in range(2, n) if n % k]))
            parts.append(sample_uniform_partition(n, k, seed=trial))
        for part in parts:
            assert len(part.stacks()) == len(set(part.block_sizes()))
            q = random_spd(part.n, rng)
            g = rng.standard_normal(part.n)
            got = BlockCholesky(diagonal_blocks(q, part), part, jitter=jitter).solve(g)
            np.testing.assert_array_equal(got, per_block_solve(q, part, g, jitter))

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
        assert str(excinfo.value) == \
            "block 0 (size 3) is not positive definite; consider a positive jitter"
        q[[1, 3, 5], [1, 3, 5]] = 0.5  # block 0 is now indefinite whatever the jitter
        with pytest.raises(SingularBlockError) as excinfo:
            BlockCholesky(diagonal_blocks(q, OUT_OF_ORDER), OUT_OF_ORDER, jitter=1e-6)
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
    sizes = part.block_sizes()
    assert sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1
    rng = np.random.default_rng(seed)
    q = random_spd(n, rng)
    masked = block_mask(q, part)
    np.testing.assert_array_equal(block_mask(masked, part), masked)
