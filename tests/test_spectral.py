import io
import json

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from blockprec import (
    BlockCholesky,
    GeneralModelParams,
    InvalidArgumentError,
    Partitioning,
    SingularBlockError,
    UnsupportedLossError,
    block_mask,
    build_report,
    derive_seed,
    diagonal_blocks,
    enumerate_partitions,
    expected_lambda_exact,
    expected_lambda_mc,
    gen_separable_q,
    gen_uniform_q,
    lambda_min_precond,
    rate_general,
    rate_glm,
    rate_quadratic,
    sample_uniform_partition,
    separable_toy,
    uniform_closed_form,
)
from blockprec.spectral import expected_inverse_exact, lambda_min_of_expected


def random_spd(n, rng, ridge=0.1):
    g = rng.standard_normal((n, 2 * n))
    return g @ g.T / (2 * n) + ridge * np.eye(n)


def epsilon_alt_form(nk, alpha):
    """Algebraically equivalent form of epsilon, valid for alpha > 0."""
    return (1.0 - alpha) / ((nk - 2) + 1.0 / alpha - (nk - 1) * alpha)


class TestLambdaMinPrecond:
    def test_aligned_separable_gives_one(self):
        q = gen_separable_q(8, 2, 0.7)
        part = Partitioning(np.repeat([0, 1], 4), 2)
        assert lambda_min_precond(q, part) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_matches_closed_form(self):
        n, k, alpha = 12, 3, 0.4
        q = gen_uniform_q(n, alpha)
        part = sample_uniform_partition(n, k, seed=5)
        expected = 1.0 - epsilon_alt_form(n // k, alpha) * (n // k)
        assert lambda_min_precond(q, part) == pytest.approx(expected, abs=1e-10)

    def test_identity_gives_one(self):
        part = sample_uniform_partition(10, 5, seed=0)
        assert lambda_min_precond(np.eye(10), part) == pytest.approx(1.0, abs=1e-12)

    def test_spectrum_bounds(self):
        # all eigenvalues of Q_P^{-1} Q lie in (0, K]; the smallest one
        # additionally never exceeds 1 (observed, reported if violated)
        rng = np.random.default_rng(1)
        above_one = []
        for trial in range(30):
            n = int(rng.integers(4, 12))
            k = int(rng.integers(1, n + 1))
            q = random_spd(n, rng)
            part = sample_uniform_partition(n, k, seed=trial)
            chol = BlockCholesky(diagonal_blocks(q, part), part)
            spectrum = np.linalg.eigvalsh(chol.whiten(q))
            assert spectrum[0] > 0.0
            assert spectrum[-1] <= k + 1e-8
            if spectrum[0] > 1.0 + 1e-10:
                above_one.append((trial, spectrum[0]))
        if above_one:
            print(f"note: lambda_min above 1 on instances {above_one}")

    def test_singular_block_propagates(self):
        q = np.array([[1.0, 2.0], [2.0, 1.0]])
        part = Partitioning(np.array([0, 0]), 1)
        with pytest.raises(SingularBlockError):
            lambda_min_precond(q, part)


class TestExpectedLambda:
    def test_identity_exact_one_any_sample_count(self):
        for m in (1, 7, 50):
            value, stderr = expected_lambda_mc(np.eye(8), 2, m, seed=3)
            assert value == pytest.approx(1.0, abs=1e-12)
            assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_mc_converges_to_enumeration(self):
        rng = np.random.default_rng(2)
        q = random_spd(6, rng)
        exact = expected_lambda_exact(q, 3)
        errors = {}
        for m in (100, 1000, 10_000):
            value, _ = expected_lambda_mc(q, 3, m, seed=11)
            errors[m] = abs(value - exact)
        assert errors[10_000] <= 0.01
        assert errors[10_000] < errors[100]

    def test_exact_on_separable_toy(self):
        alpha = 0.6
        q = gen_separable_q(4, 2, alpha)
        got = expected_lambda_exact(q, 2)
        assert got == pytest.approx(1.0 / 3.0 + (2.0 / 3.0) * (1.0 - alpha), abs=1e-10)

    def test_exact_identity(self):
        assert expected_lambda_exact(np.eye(4), 2) == pytest.approx(1.0, abs=1e-12)

    def test_exact_matches_uniform_closed_form(self):
        n, k, alpha = 6, 2, 0.3
        q = gen_uniform_q(n, alpha)
        form = uniform_closed_form(n, k, alpha)
        assert expected_lambda_exact(q, k) == pytest.approx(form.lambda_dynamic, abs=1e-10)

    def test_expected_lambda_at_least_sample_minimum(self):
        # lambda_min is concave over the mean of inverses, so the
        # repartitioning value can never fall below the worst partitioning
        rng = np.random.default_rng(3)
        for trial in range(10):
            q = random_spd(6, rng)
            k = 2 if trial % 2 == 0 else 3
            parts = enumerate_partitions(6, k)
            sampled = [lambda_min_precond(q, p) for p in parts]
            assert expected_lambda_exact(q, k) >= min(sampled) - 1e-10

    def test_full_sandwich_on_separable_structures(self):
        # with a block-aligned optimum the repartitioning value sits
        # between the worst and the best static partitioning
        for alpha in (0.2, 0.5, 0.8):
            q = gen_separable_q(6, 3, alpha)
            parts = enumerate_partitions(6, 3)
            sampled = [lambda_min_precond(q, p) for p in parts]
            value = expected_lambda_exact(q, 3)
            assert min(sampled) - 1e-10 <= value <= max(sampled) + 1e-10


class TestClosedForms:
    def test_displayed_epsilon_form_equivalent(self):
        for nk in (2, 5, 40, 100):
            for alpha in (0.01, 0.1, 0.5, 0.9):
                n, k = nk * 4, 4
                form = uniform_closed_form(n, k, alpha)
                assert form.epsilon == pytest.approx(epsilon_alt_form(nk, alpha), rel=1e-12)

    def test_alpha_zero(self):
        form = uniform_closed_form(200, 5, 0.0)
        assert form.epsilon == 0.0
        assert form.lambda_static == 1.0
        assert form.lambda_dynamic == 1.0

    def test_k_one_keeps_everything(self):
        form = uniform_closed_form(12, 1, 0.7)
        assert form.lambda_static == 1.0
        assert form.lambda_dynamic == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            uniform_closed_form(10, 3, 0.1)
        with pytest.raises(InvalidArgumentError):
            uniform_closed_form(10, 2, 1.0)

    def test_agrees_with_linear_algebra_up_to_n12(self):
        for n in range(2, 13):
            for k in range(2, n + 1):
                if n % k:
                    continue
                for alpha in (0.1, 0.3, 0.5, 0.9):
                    q = gen_uniform_q(n, alpha)
                    form = uniform_closed_form(n, k, alpha)
                    part = sample_uniform_partition(n, k, seed=n * 100 + k)
                    assert lambda_min_precond(q, part) == pytest.approx(
                        form.lambda_static, abs=1e-8)
                    assert expected_lambda_exact(q, k) == pytest.approx(
                        form.lambda_dynamic, abs=1e-8)

    def test_monotone_in_alpha_and_k(self):
        # static rate falls as correlations strengthen; dynamic rate falls
        # as the block count grows
        n = 200
        alphas = np.linspace(0.05, 0.95, 10)
        rho_static = [uniform_closed_form(n, 5, a).rho_static for a in alphas]
        assert np.all(np.diff(rho_static) < 0)
        ks = [2, 4, 5, 8, 10, 20, 25, 40, 50, 100, 200]
        rho_dynamic = [uniform_closed_form(n, k, 0.3).rho_dynamic for k in ks]
        assert np.all(np.diff(rho_dynamic) < 0)

    def test_separable_toy_values(self):
        toy = separable_toy(0.0)
        assert (toy.lambda_aligned, toy.lambda_misaligned, toy.lambda_dynamic) == (1, 1, 1)
        toy = separable_toy(0.6)
        assert toy.lambda_aligned == 1.0
        assert toy.lambda_misaligned == pytest.approx(0.4)
        assert toy.lambda_dynamic == pytest.approx(0.6)
        with pytest.raises(InvalidArgumentError):
            separable_toy(1.0)

    def test_separable_toy_against_numeric_oracle(self):
        for alpha in (0.15, 0.45, 0.85):
            toy = separable_toy(alpha)
            q = gen_separable_q(4, 2, alpha)
            sampled = sorted(lambda_min_precond(q, p) for p in enumerate_partitions(4, 2))
            assert sampled[0] == pytest.approx(toy.lambda_misaligned, abs=1e-10)
            assert sampled[1] == pytest.approx(toy.lambda_misaligned, abs=1e-10)
            assert sampled[2] == pytest.approx(toy.lambda_aligned, abs=1e-10)
            assert expected_lambda_exact(q, 2) == pytest.approx(toy.lambda_dynamic,
                                                                abs=1e-10)


class TestRates:
    def test_quadratic_k1_is_one(self):
        rng = np.random.default_rng(4)
        q = random_spd(5, rng)
        part = Partitioning(np.zeros(5, dtype=int), 1)
        assert rate_quadratic(q, [part]) == pytest.approx(1.0, abs=1e-10)
        assert rate_quadratic(q, enumerate_partitions(5, 1)) == pytest.approx(1.0, abs=1e-10)

    def test_quadratic_dynamic_not_below_worst_static(self):
        rng = np.random.default_rng(5)
        q = random_spd(6, rng)
        parts = enumerate_partitions(6, 3)
        rhos = [rate_quadratic(q, [p]) for p in parts]
        rho_dyn = rate_quadratic(q, parts)
        assert rho_dyn >= min(rhos) - 1e-10

    def test_glm_identity(self):
        assert rate_glm(np.eye(5), 1.0, 1.0, enumerate_partitions(5, 1)) == pytest.approx(
            1.0, abs=1e-10)

    def test_glm_square_symmetric_equals_gram_formula(self):
        # for symmetric invertible A the m x m product has the same
        # spectrum as E^{1/2} A^T A E^{1/2}
        rng = np.random.default_rng(6)
        a = random_spd(6, rng)
        gram = a.T @ a
        rho = rate_glm(a, 2.0, 0.5, enumerate_partitions(6, 2))
        expected_inv = expected_inverse_exact(gram, 2)
        lam = lambda_min_of_expected(expected_inv, gram)
        assert rho == pytest.approx(0.5 / (2 * 2.0) * lam, rel=1e-8)

    def test_glm_wide_product_positive(self):
        # more rows than columns: the zero spectrum of A E A^T is
        # structural and skipped
        rng = np.random.default_rng(7)
        a = rng.standard_normal((40, 6)) / 6.0
        rho = rate_glm(a, 1.0, 1.0, enumerate_partitions(6, 2))
        assert rho > 0.0

    def test_glm_unknown_mu_rejected(self):
        with pytest.raises(UnsupportedLossError):
            rate_glm(np.eye(4), 0.25, None, enumerate_partitions(4, 2))

    def test_glm_singular_blocks_suggest_shift(self):
        # m < n makes A^T A rank deficient, so masked blocks are singular
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 8))
        parts = [sample_uniform_partition(8, 2, derive_seed(0, i)) for i in range(5)]
        with pytest.raises(SingularBlockError) as excinfo:
            rate_glm(a, 1.0, 1.0, parts)
        assert "lambda_shift" in str(excinfo.value)
        rho = rate_glm(a, 1.0, 1.0, parts, lambda_shift=1.0)
        assert np.isfinite(rho) and rho > 0.0
        sparse_rho = rate_glm(scipy.sparse.csr_matrix(a), 1.0, 1.0, parts, lambda_shift=1.0)
        assert sparse_rho == pytest.approx(rho, rel=1e-12)

    def test_glm_real_dataset_baseline(self):
        # regression baseline, first computed by this implementation: only
        # runs when the real dataset file is available locally
        import os
        from pathlib import Path
        root = Path(os.environ.get("BLOCKPREC_DATASETS",
                                   Path(__file__).resolve().parent.parent / "datasets"))
        path = next((root / n for n in ("mushrooms", "mushrooms.libsvm", "mushroom")
                     if (root / n).exists()), None)
        if path is None:
            pytest.skip("mushroom dataset not available locally")
        from blockprec import read_libsvm
        ds = read_libsvm(path)
        parts = [sample_uniform_partition(ds.n_features, 5, derive_seed(12, i))
                 for i in range(200)]
        rho = rate_glm(ds.a, 1.0, 1.0, parts, lambda_shift=1.0)
        print(f"mushroom rate baseline (K=5, shift=1): {rho!r}")
        assert np.isfinite(rho) and rho > 0.0

    @pytest.mark.parametrize("parts", [
        [], (), None, 3, sample_uniform_partition(4, 2, 0),
        [sample_uniform_partition(4, 2, 0), np.zeros(4, dtype=int)],
        [sample_uniform_partition(5, 2, 0)],
        [sample_uniform_partition(4, 2, 0), sample_uniform_partition(4, 4, 0)],
    ])
    def test_parts_checked_at_the_boundary(self, parts):
        # a non-empty sequence of Partitionings over the matrix's n with one K
        with pytest.raises(InvalidArgumentError, match="parts must be|partitioning [01] has"):
            rate_quadratic(np.eye(4), parts)
        with pytest.raises(InvalidArgumentError, match="parts must be|partitioning [01] has"):
            rate_glm(np.eye(4), 1.0, 1.0, parts)
        with pytest.raises(InvalidArgumentError, match="parts must be|partitioning [01] has"):
            rate_general(np.eye(4), parts, GeneralModelParams())

    @pytest.mark.parametrize("constants", [
        {"gamma_loss": 0.0}, {"gamma_loss": -1.0}, {"gamma_loss": np.nan},
        {"gamma_loss": np.inf}, {"mu_loss": -0.5}, {"mu_loss": np.nan}, {"mu_loss": np.inf},
        {"lambda_shift": -1.0}, {"lambda_shift": np.nan}, {"lambda_shift": np.inf},
    ])
    def test_glm_constants_checked(self, constants):
        args = {"gamma_loss": 1.0, "mu_loss": 1.0, "lambda_shift": 0.0, **constants}
        with pytest.raises(InvalidArgumentError, match=next(iter(constants))):
            rate_glm(np.eye(4), parts=enumerate_partitions(4, 2), **args)

    def test_glm_non_finite_data_rejected(self):
        a = np.eye(4)
        a[0, 1] = np.nan
        for data in (a, scipy.sparse.csr_matrix(a)):
            with pytest.raises(InvalidArgumentError, match="non-finite"):
                rate_glm(data, 1.0, 1.0, enumerate_partitions(4, 2))

    @pytest.mark.parametrize("l_lipschitz", [np.nan, np.inf])
    def test_general_lipschitz_checked(self, l_lipschitz):
        with pytest.raises(InvalidArgumentError, match="l_lipschitz"):
            GeneralModelParams(l_lipschitz=l_lipschitz)

    def test_general_identity(self):
        params = GeneralModelParams(xi=1.0, alpha_decrease=0.0, l_lipschitz=1.0)
        part = Partitioning(np.zeros(3, dtype=int), 1)
        got = rate_general(np.eye(3), [part], params)
        assert got.rho == pytest.approx(0.5, abs=1e-12)
        assert got.contraction == pytest.approx(0.5, abs=1e-12)

    def test_general_smoothness_model_identity(self):
        # scaling the curvature by gamma scales the decrease constant by
        # gamma as well: Q^T E[Q_P^{-1}] Q with Q = gamma M
        rng = np.random.default_rng(9)
        m = random_spd(6, rng)
        gamma = 0.25
        params = GeneralModelParams(xi=1.0)
        got = rate_general(gamma * m, enumerate_partitions(6, 2), params)
        expected_inv = expected_inverse_exact(m, 2)
        prod = m @ expected_inv @ m
        lam = np.linalg.eigvalsh(0.5 * (prod + prod.T))[0]
        assert got.rho == pytest.approx(gamma / (2 * 2) * lam, rel=1e-10)

    def test_general_contraction_in_unit_interval(self):
        rng = np.random.default_rng(10)
        q = random_spd(6, rng)
        params = GeneralModelParams(xi=0.7, alpha_decrease=0.2, l_lipschitz=4.0)
        got = rate_general(q, enumerate_partitions(6, 2), params)
        if 0.0 < got.rho * (1 - params.alpha_decrease) / params.l_lipschitz < 1.0:
            assert 0.0 < got.contraction < 1.0


class TestReport:
    def test_exact_mode_enumerates(self):
        q = gen_separable_q(4, 2, 0.6)
        report = build_report(q, 2, exact=True)
        assert report.estimator == "exact"
        assert len(report.samples) == 3
        lams = sorted(s.lambda_min for s in report.samples)
        assert lams[0] == pytest.approx(0.4, abs=1e-10)
        assert lams[2] == pytest.approx(1.0, abs=1e-10)
        assert report.lambda_min_expected == pytest.approx(0.6, abs=1e-10)
        assert report.rho_dynamic == pytest.approx(0.3, abs=1e-10)
        assert report.rho_static_min == pytest.approx(0.2, abs=1e-10)
        assert report.rho_static_max == pytest.approx(0.5, abs=1e-10)

    def test_sampled_mode_deterministic_and_serializable(self):
        q = gen_uniform_q(12, 0.3)
        a = build_report(q, 3, n_samples=20, seed=5)
        b = build_report(q, 3, n_samples=20, seed=5)
        assert [s.lambda_min for s in a.samples] == [s.lambda_min for s in b.samples]
        assert a.lambda_min_expected == b.lambda_min_expected
        blob = json.dumps(a.to_json_dict(), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["estimator"]["kind"] == "mc"
        assert parsed["n"] == 12 and parsed["k"] == 3
        assert len(parsed["samples"]) == 20

    def test_identity_all_ones(self):
        report = build_report(np.eye(9), 3, n_samples=15, seed=1)
        assert all(s.lambda_min == pytest.approx(1.0, abs=1e-12) for s in report.samples)
        assert report.lambda_min_expected == pytest.approx(1.0, abs=1e-12)

    def test_samples_csv_format(self):
        q = gen_uniform_q(6, 0.2)
        report = build_report(q, 2, n_samples=4, seed=2)
        buf = io.StringIO()
        report.write_samples_csv(buf, comment="demo")
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "# demo"
        assert lines[1] == "lambda_min"
        assert len(lines) == 6

    def test_thread_count_invariant(self):
        q = gen_uniform_q(16, 0.4)
        a = build_report(q, 4, n_samples=24, seed=9, threads=1)
        b = build_report(q, 4, n_samples=24, seed=9, threads=4)
        assert a.lambda_min_expected == b.lambda_min_expected
        assert [s.lambda_min for s in a.samples] == [s.lambda_min for s in b.samples]

    def test_one_factorization_per_partitioning(self, monkeypatch):
        import blockprec.spectral as spectral
        built = []

        class CountingCholesky(BlockCholesky):
            def __init__(self, *args, **kwargs):
                built.append(args[1])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(spectral, "BlockCholesky", CountingCholesky)
        q = gen_uniform_q(6, 0.3)
        report = build_report(q, 2, exact=True)
        assert len(built) == len(report.samples) == 10
        built.clear()
        build_report(q, 2, n_samples=7, seed=3)
        assert len(built) == 7  # the distribution samples; the MC mean is batched

    def test_mc_expected_inverse_batchwise_matches_plain_mean(self):
        # value and stderr against 10 dense batch means over the same bounds
        q = gen_uniform_q(8, 0.3)
        value, stderr = expected_lambda_mc(q, 2, 25, seed=4)
        inverses = [np.linalg.inv(block_mask(q, sample_uniform_partition(8, 2, derive_seed(4, i))))
                    for i in range(25)]
        bounds = np.linspace(0, 25, 11).astype(int)
        batches = [dense_lambda(np.mean(inverses[lo:hi], axis=0), q)
                   for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert value == pytest.approx(dense_lambda(np.mean(inverses, axis=0), q), rel=1e-10)
        assert stderr == pytest.approx(np.std(batches, ddof=1) / np.sqrt(10), rel=1e-6)


def dense_mean_inverse(q, parts):
    return sum(np.linalg.inv(block_mask(q, p)) for p in parts) / len(parts)


def dense_lambda(expected, q):
    """lambda_min of the nonsymmetric product E Q."""
    return float(np.min(np.linalg.eigvals(expected @ q).real))


class TestMeanInverseKernel:
    """Every mean of block inverses against dense inv(block_mask) oracles."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 10), data=st.data())
    def test_exact_matches_dense_enumeration(self, n, data):
        k = data.draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
        q = random_spd(n, np.random.default_rng(data.draw(st.integers(0, 2**32))))
        want = dense_mean_inverse(q, enumerate_partitions(n, k))
        np.testing.assert_allclose(expected_inverse_exact(q, k), want, rtol=1e-10, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 24), data=st.data())
    def test_dynamic_rate_matches_dense_replay(self, n, data):
        k = data.draw(st.integers(1, n))
        samples = data.draw(st.integers(1, 30))
        seed = data.draw(st.integers(0, 2**64 - 1))
        q = random_spd(n, np.random.default_rng(data.draw(st.integers(0, 2**32))))
        parts = [sample_uniform_partition(n, k, derive_seed(seed, i)) for i in range(samples)]
        want = dense_lambda(dense_mean_inverse(q, parts), q) / k
        got = rate_quadratic(q, parts)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_mean_spanning_several_chunks(self):
        # 5775 partitionings of 3 blocks of 4x4: several chunks of 2^16 entries
        q = random_spd(12, np.random.default_rng(3))
        parts = enumerate_partitions(12, 3)
        assert len(parts) * 3 * 16 > 4 * 2**16
        np.testing.assert_allclose(expected_inverse_exact(q, 3), dense_mean_inverse(q, parts),
                                   rtol=1e-10, atol=1e-12)

    def test_singular_block_named_as_block_cholesky_names_it(self):
        q = np.eye(4)
        q[2, 3] = q[3, 2] = 2.0  # the block {2, 3} is indefinite
        first = enumerate_partitions(4, 2)[0]
        with pytest.raises(SingularBlockError) as direct:
            BlockCholesky(diagonal_blocks(q, first), first)
        with pytest.raises(SingularBlockError) as exact:
            expected_inverse_exact(q, 2)
        with pytest.raises(SingularBlockError) as static:
            rate_quadratic(q, [first])
        assert direct.value.block == exact.value.block == static.value.block == 1
        assert str(direct.value) == str(exact.value) == str(static.value)

    def test_static_partitioning_must_match_k(self):
        parts = [sample_uniform_partition(6, 3, 1), sample_uniform_partition(6, 2, 1)]
        with pytest.raises(InvalidArgumentError, match="2 blocks"):
            rate_quadratic(np.eye(6), parts)
        with pytest.raises(InvalidArgumentError, match="2 blocks"):
            rate_glm(np.eye(6), 1.0, 1.0, parts)
        with pytest.raises(InvalidArgumentError, match="2 blocks"):
            rate_general(np.eye(6), parts, GeneralModelParams())
