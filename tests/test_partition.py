import json

import numpy as np
import pytest
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


def random_spd(n, rng, ridge=0.1):
    g = rng.standard_normal((n, 2 * n))
    return g @ g.T / (2 * n) + ridge * np.eye(n)


class TestSampling:
    def test_forced_sizes_n4_k2(self):
        part = sample_uniform_partition(4, 2, seed=0)
        assert sorted(part.block_sizes()) == [2, 2]
        assert sorted(np.concatenate(part.blocks())) == [0, 1, 2, 3]

    def test_blocks_are_shared_and_read_only(self):
        part = sample_uniform_partition(5, 2, seed=3)
        assert part.blocks() is part.blocks()
        with pytest.raises(ValueError):
            part.blocks()[0][0] = 4

    def test_forced_sizes_n5_k2(self):
        part = sample_uniform_partition(5, 2, seed=3)
        assert sorted(part.block_sizes()) == [2, 3]

    def test_deterministic_given_seed(self):
        a = sample_uniform_partition(200, 5, seed=7)
        b = sample_uniform_partition(200, 5, seed=7)
        assert a == b
        c = sample_uniform_partition(200, 5, seed=8)
        assert a != c

    def test_matches_the_per_block_loop(self):
        # the assignment before it was vectorized: a permutation cut into K
        # consecutive chunks, the first n mod K of them one longer
        def loop_assignment(n, k, seed):
            perm = np.random.default_rng(seed).permutation(n)
            base, extra = divmod(n, k)
            assignment = np.empty(n, dtype=np.intp)
            start = 0
            for block in range(k):
                size = base + (1 if block < extra else 0)
                assignment[perm[start:start + size]] = block
                start += size
            return assignment

        for n in range(1, 14):
            for k in range(1, n + 1):
                for seed in (0, 1, 7, 2**63, 2**64 - 1):
                    got = sample_uniform_partition(n, k, seed).assignment
                    assert got.dtype == np.intp
                    np.testing.assert_array_equal(got, loop_assignment(n, k, seed))

    @pytest.mark.parametrize("n,k", [(3, 4), (5, 0), (0, 1)])
    def test_invalid_arguments(self, n, k):
        with pytest.raises(InvalidArgumentError):
            sample_uniform_partition(n, k, seed=0)

    def test_block_membership_uniform_chi_square(self):
        # every coordinate should land in each block with frequency 1/K
        n, k, draws = 6, 3, 10_000
        counts = np.zeros((n, k))
        for s in range(draws):
            part = sample_uniform_partition(n, k, seed=s)
            counts[np.arange(n), part.assignment] += 1
        crit = scipy.stats.chi2.ppf(0.999, df=k - 1)
        for i in range(n):
            stat = np.sum((counts[i] - draws / k) ** 2 / (draws / k))
            assert stat < crit

    def test_json_round_trip(self):
        part = sample_uniform_partition(9, 3, seed=11)
        blob = json.dumps(part.to_json_dict())
        back = Partitioning.from_json_dict(json.loads(blob))
        assert back == part

    def test_empty_block_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Partitioning(np.array([0, 0, 0]), 2)


class TestEnumeration:
    def test_counts_small(self):
        assert len(enumerate_partitions(4, 2)) == 3
        assert len(enumerate_partitions(2, 2)) == 1
        # 6!/((2!)^3 * 3!) = 15
        assert partition_count(6, 3) == 15
        assert len(enumerate_partitions(6, 3)) == 15

    def test_each_partition_once(self):
        parts = enumerate_partitions(6, 3)
        seen = {frozenset(frozenset(b.tolist()) for b in p.blocks()) for p in parts}
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
        with pytest.raises(InvalidArgumentError, match="block 1 has shape"):
            BlockCholesky([np.eye(1), np.eye(3)], part)
        with pytest.raises(InvalidArgumentError):
            diagonal_blocks(np.eye(4), part)


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
