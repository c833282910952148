import io
import itertools
import json
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from blockprec import (
    BlockCholesky,
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
    gen_random_corr_q,
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
from blockprec import spectral
from blockprec.partition import (
    DEFAULT_ENUMERATION_CAP,
    _enumerate_assignments,
    _sample_assignments,
)
from blockprec.spectral import (
    _block_inverses,
    _lambda_min_stack,
    _mean_congruence,
    _mean_inverse,
)


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

    def test_one_block_cholesky_and_no_stacked_kernel(self, monkeypatch):
        # the per-partitioning reference shares no code with the stacked spectral kernels
        built = []
        init = BlockCholesky.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def unreachable(*args):
            raise AssertionError("lambda_min_precond reached a stacked spectral kernel")

        monkeypatch.setattr(BlockCholesky, "__init__", counted)
        monkeypatch.setattr(spectral, "_block_inverses", unreachable)
        monkeypatch.setattr(spectral, "_block_stacks", unreachable)
        q = random_spd(9, np.random.default_rng(11))
        part = Partitioning(np.array([2, 0, 1, 0, 2, 0, 1, 1, 0]), 3)
        got = lambda_min_precond(q, part)
        assert len(built) == 1
        want = scipy.linalg.eigh(q, block_mask(q, part), eigvals_only=True, subset_by_index=[0, 0])
        assert got == pytest.approx(want[0], rel=1e-10)


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

    def test_numpy_alpha_writes_the_same_json(self):
        want = json.dumps(uniform_closed_form(6, 2, float(np.float32(0.3))).to_json_dict())
        assert json.dumps(uniform_closed_form(6, 2, np.float32(0.3)).to_json_dict()) == want

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            uniform_closed_form(10, 3, 0.1)
        with pytest.raises(InvalidArgumentError):
            uniform_closed_form(10, 2, 1.0)

    @pytest.mark.slow
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
        rows = _enumerate_assignments(6, 2, DEFAULT_ENUMERATION_CAP)
        lam = np.linalg.eigvalsh(_mean_congruence(scipy.linalg.cholesky(gram), gram, rows))[0]
        assert rho == pytest.approx(0.5 / (2 * 2.0) * lam, rel=1e-8)

    def test_glm_wide_product_positive(self):
        # more rows than columns: the zero spectrum of A E A^T is
        # structural and skipped
        rng = np.random.default_rng(7)
        a = rng.standard_normal((40, 6)) / 6.0
        rho = rate_glm(a, 1.0, 1.0, enumerate_partitions(6, 2))
        assert rho > 0.0

    @pytest.mark.parametrize("lambda_shift", [0.0, 1.0])
    def test_glm_rank_deficient_tall_gives_zero(self, lambda_shift):
        # two one-hot groups of 3 columns each sum to the ones vector, so
        # A^T A (10 x 6) has rank 5 while every 3-column block stays regular
        rows = np.array([[0, 0], [1, 1], [2, 2], [0, 1], [1, 2], [2, 0], [0, 2], [1, 0],
                         [2, 1], [0, 0]])
        a = np.zeros((10, 6))
        a[np.arange(10), rows[:, 0]] = a[np.arange(10), 3 + rows[:, 1]] = 1.0
        gram = a.T @ a
        assert np.linalg.matrix_rank(gram) == 5
        parts = enumerate_partitions(6, 2)
        for matrix in (a, scipy.sparse.csr_matrix(a)):
            assert rate_glm(matrix, 1.0, 1.0, parts, lambda_shift=lambda_shift) == 0.0
        expected_inv = dense_mean_inverse(gram + lambda_shift * np.eye(6), parts)
        assert abs(congruence_lambda(expected_inv, gram)) <= 1e-12

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
        # only runs when the real dataset file is available locally
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
        # one-hot columns can make A^T A rank-deficient, and then the rate is exactly 0
        a = scipy.sparse.csr_matrix(ds.a)
        gram = (a.T @ a).toarray()
        assert np.isfinite(rho) and rho >= 0.0
        assert (rho == 0.0) == (np.linalg.matrix_rank(gram) < ds.n_features)

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
            rate_general(np.eye(4), parts)

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

    @pytest.mark.parametrize("a", [np.ones(4), np.ones((1, 2, 4)), np.zeros((0, 4)),
                                   scipy.sparse.csr_matrix((0, 4))])
    def test_glm_a_not_2d_or_without_rows_rejected(self, a):
        with pytest.raises(InvalidArgumentError, match="^A must be 2-d with at least one row"):
            rate_glm(a, 1.0, 1.0, enumerate_partitions(4, 2), lambda_shift=1.0)

    @pytest.mark.parametrize("xi", [0.0, -0.5, 1.5, np.nan, np.inf])
    def test_general_xi_checked(self, xi):
        with pytest.raises(InvalidArgumentError, match="xi must lie in"):
            rate_general(np.eye(4), enumerate_partitions(4, 2), xi)

    def test_numpy_scalars_give_float_rates(self):
        q = random_spd(6, np.random.default_rng(11))
        parts = enumerate_partitions(6, 2)
        numpy_k = [Partitioning(p.assignment, np.int64(2)) for p in parts]
        gamma, mu, xi = np.float32(1.3), np.float32(0.7), np.float32(0.7)
        for got, want in (
                (rate_quadratic(q, numpy_k), rate_quadratic(q, parts)),
                (rate_glm(q, gamma, mu, parts), rate_glm(q, float(gamma), float(mu), parts)),
                (rate_general(q, parts, xi), rate_general(q, parts, float(xi)))):
            assert type(got) is float
            assert json.dumps(got) == json.dumps(want)

    def test_general_identity(self):
        part = Partitioning(np.zeros(3, dtype=int), 1)
        assert rate_general(np.eye(3), [part]) == pytest.approx(0.5, abs=1e-12)

    def test_general_smoothness_model_identity(self):
        # scaling the curvature by gamma scales the decrease constant by
        # gamma as well: Q^T E[Q_P^{-1}] Q with Q = gamma M
        rng = np.random.default_rng(9)
        m = random_spd(6, rng)
        gamma = 0.25
        got = rate_general(gamma * m, enumerate_partitions(6, 2))
        expected_inv = _mean_inverse(m, _enumerate_assignments(6, 2, DEFAULT_ENUMERATION_CAP))
        prod = m @ expected_inv @ m
        lam = np.linalg.eigvalsh(0.5 * (prod + prod.T))[0]
        assert got == pytest.approx(gamma / (2 * 2) * lam, rel=1e-10)


class TestReport:
    def test_exact_mode_enumerates(self):
        q = gen_separable_q(4, 2, 0.6)
        report = build_report(q, 2, exact=True)
        assert report.stderr is None
        assert report.keys == [0, 1, 2]
        lams = np.sort(report.lambdas)
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
        assert a.keys == b.keys and a.lambdas.tolist() == b.lambdas.tolist()
        assert a.lambda_min_expected == b.lambda_min_expected
        blob = json.dumps(a.to_json_dict(), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["estimator"]["kind"] == "mc"
        assert parsed["n"] == 12 and parsed["k"] == 3
        assert len(parsed["samples"]) == 20

    @pytest.mark.parametrize("exact", [False, True])
    def test_numpy_integer_counts_write_the_same_json(self, exact):
        q = gen_uniform_q(6, 0.3)
        outputs = []
        for n, k, samples in ((6, 2, 5), (np.int64(6), np.int64(2), np.int64(5))):
            report = build_report(q, k, n_samples=samples, seed=3, exact=exact)
            closed = uniform_closed_form(n, k, 0.3).to_json_dict()
            outputs.append(json.dumps({**report.to_json_dict(), "closed_form": closed},
                                      indent=2, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_identity_all_ones(self):
        report = build_report(np.eye(9), 3, n_samples=15, seed=1)
        assert report.lambdas == pytest.approx(1.0, abs=1e-12)
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

    def test_samples_csv_comment_must_be_one_line(self):
        report = build_report(gen_uniform_q(6, 0.2), 2, n_samples=4, seed=2)
        buf = io.StringIO()
        with pytest.raises(InvalidArgumentError, match="^a comment must be one line"):
            report.write_samples_csv(buf, comment="two\nlines")
        assert buf.getvalue() == ""

    def test_thread_count_invariant(self):
        q = gen_uniform_q(16, 0.4)
        a = build_report(q, 4, n_samples=24, seed=9, threads=1)
        b = build_report(q, 4, n_samples=24, seed=9, threads=4)
        assert a.lambda_min_expected == b.lambda_min_expected
        assert a.lambdas.tolist() == b.lambdas.tolist()

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
        assert len(report.keys) == len(report.lambdas) == 10
        assert built == []  # the distribution and the means are stacked
        build_report(q, 2, n_samples=7, seed=3)
        assert built == []

    def test_mc_expected_inverse_matches_plain_mean(self):
        # value and delta-method stderr against the dense oracle; the sample
        # mean's lambda_min is simple here (next eigenvalue 0.864 against 0.830)
        q = gen_uniform_q(8, 0.3)
        value, stderr = expected_lambda_mc(q, 2, 25, seed=4)
        inverses = [np.linalg.inv(block_mask(q, sample_uniform_partition(8, 2, derive_seed(4, i))))
                    for i in range(25)]
        assert value == pytest.approx(dense_lambda(np.mean(inverses, axis=0), q), rel=1e-10)
        s = dense_rayleigh_quotients(q, inverses)
        assert np.mean(s) == pytest.approx(value, rel=1e-12)
        assert stderr == pytest.approx(np.std(s, ddof=1) / np.sqrt(25), rel=1e-10)

    def test_mc_stderr_tracks_seed_to_seed_spread(self):
        # Random SPD, n = 24, K = 4, 10 samples; lambda_min(E Q) is about 0.299,
        # the next eigenvalue 0.320. Over 100 disjoint sets of 100 seeds, median
        # stderr / sd of the estimate ranged 0.82-1.20; batch means over 10
        # one-row batches ranged 0.51-0.74 on the same sets.
        q = random_spd(24, np.random.default_rng(24))
        runs = np.array([expected_lambda_mc(q, 4, 10, derive_seed(7, i)) for i in range(100)])
        ratio = np.median(runs[:, 1]) / np.std(runs[:, 0], ddof=1)
        assert 0.8 <= ratio <= 1.25

    def test_mc_takes_one_eigensolve(self, monkeypatch):
        calls = []
        eigh = scipy.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
        expected_lambda_mc(random_spd(12, np.random.default_rng(3)), 3, 50, seed=1)
        assert len(calls) == 1


def dense_mean_inverse(q, parts):
    return sum(np.linalg.inv(block_mask(q, p)) for p in parts) / len(parts)


def dense_lambda(expected, q):
    """lambda_min of the nonsymmetric product E Q."""
    return float(np.min(np.linalg.eigvals(expected @ q).real))


def dense_rayleigh_quotients(q, inverses):
    """u^T X_i u for each inverse X_i = Q_{P_i}^{-1}, with u = Q w.

    w is the right eigenvector of E Q, E the mean of the X_i, at its smallest
    eigenvalue, scaled to w^T Q w = 1.
    """
    values, vectors = np.linalg.eig(np.mean(inverses, axis=0) @ q)
    w = vectors[:, np.argmin(values.real)].real
    u = q @ w / np.sqrt(w @ q @ w)
    return np.array([u @ x @ u for x in inverses])


def congruence_lambda(expected, q):
    """lambda_min of E Q as lambda_min(L^T Q L), E = L L^T, on the symmetrized product."""
    lower = np.linalg.cholesky(expected)
    w = lower.T @ q @ lower
    return float(np.linalg.eigvalsh(0.5 * (w + w.T))[0])


def indefinite_q():
    """Symmetric and indefinite, with every diagonal entry positive."""
    q = np.eye(6)
    q[0, 1] = q[1, 0] = 2.0
    return q


class TestFactoredExpectation:
    """lambda_min(E Q) through Q = R^T R against dense and congruence oracles."""

    @pytest.mark.parametrize("n, k", [(5, 2), (5, 5), (13, 3), (13, 4), (60, 4), (60, 7)])
    def test_matches_eigvals_of_product(self, n, k):
        q = random_spd(n, np.random.default_rng(n + k))
        parts = [sample_uniform_partition(n, k, derive_seed(k, i)) for i in range(20)]
        rows = np.stack([p.assignment for p in parts])
        got = np.linalg.eigvalsh(_mean_congruence(scipy.linalg.cholesky(q), q, rows))[0]
        assert got == pytest.approx(dense_lambda(dense_mean_inverse(q, parts), q), rel=1e-12)

    @pytest.mark.parametrize("n, k", [(6, 2), (6, 3), (7, 2), (13, 3)])
    def test_rates_match_congruence_of_mean(self, n, k):
        q = random_spd(n, np.random.default_rng(10 * n + k))
        parts = [sample_uniform_partition(n, k, derive_seed(4, i)) for i in range(50)]
        expected = dense_mean_inverse(q, parts)
        assert rate_quadratic(q, parts) * k == pytest.approx(congruence_lambda(expected, q),
                                                             rel=1e-12)
        assert rate_quadratic(q, parts[:1]) * k == pytest.approx(
            congruence_lambda(np.linalg.inv(block_mask(q, parts[0])), q), rel=1e-12)
        w = q @ expected @ q
        assert rate_general(q, parts) * 2 * k == pytest.approx(
            float(np.linalg.eigvalsh(0.5 * (w + w.T))[0]), rel=1e-12)
        if n % k == 0:
            exact = dense_mean_inverse(q, enumerate_partitions(n, k))
            assert expected_lambda_exact(q, k) == pytest.approx(congruence_lambda(exact, q),
                                                                rel=1e-12)

    @pytest.mark.parametrize("n, k, samples", [(6, 2, 25), (7, 3, 200), (12, 12, 30)])
    def test_mc_value_and_stderr_match_dense_rayleigh_quotients(self, n, k, samples):
        q = random_spd(n, np.random.default_rng(n))
        value, stderr = expected_lambda_mc(q, k, samples, seed=5)
        inverses = [np.linalg.inv(block_mask(q, sample_uniform_partition(n, k, derive_seed(5, i))))
                    for i in range(samples)]
        want = congruence_lambda(np.mean(inverses, axis=0), q)
        assert value == pytest.approx(want, rel=1e-12)
        s = dense_rayleigh_quotients(q, inverses)
        # stderr is a spread of lambda values, so roundoff is measured on their scale
        # (K = n gives every sample the same diagonal Q_P, so there s is constant)
        assert abs(np.mean(s) - value) <= 1e-12 * want
        assert abs(stderr - np.std(s, ddof=1) / np.sqrt(samples)) <= 1e-12 * want

    def test_report_mean_is_expected_lambda_mc_on_its_stream(self):
        q = random_spd(9, np.random.default_rng(2))
        report = build_report(q, 3, n_samples=40, seed=6)
        assert (report.lambda_min_expected, report.stderr) == expected_lambda_mc(
            q, 3, 40, derive_seed(6, 1))

    @pytest.mark.parametrize("call", [
        lambda q: rate_quadratic(q, [sample_uniform_partition(6, 6, 0)]),
        lambda q: rate_quadratic(q, enumerate_partitions(6, 6)),
        lambda q: expected_lambda_exact(q, 6),
        lambda q: expected_lambda_mc(q, 6, 20, seed=1),
        lambda q: build_report(q, 6, exact=True),
        lambda q: build_report(q, 6, n_samples=20, seed=1),
    ])
    def test_q_not_positive_definite_rejected(self, call):
        # every 1 x 1 block is positive definite, so only Q itself fails
        with pytest.raises(InvalidArgumentError, match="^Q is not positive definite$"):
            call(indefinite_q())

    @pytest.mark.parametrize("call, rows", [
        (lambda q: expected_lambda_mc(q, 2, 5000, seed=1),
         lambda: _sample_assignments(8, 2, [derive_seed(1, i) for i in range(5000)])),
        (lambda q: build_report(q, 2, exact=True),
         lambda: _enumerate_assignments(8, 2, DEFAULT_ENUMERATION_CAP)),
    ], ids=["mc", "exact"])
    def test_q_not_positive_definite_costs_one_cholesky_per_stack(self, monkeypatch, call, rows):
        # every 4 x 4 block of 1.2 I - 0.2 11^T is positive definite, Q itself is not:
        # its blocks are factored stack by stack, never one partitioning at a time
        q = 1.2 * np.eye(8) - 0.2
        stacks = sum(1 for _ in spectral._block_stacks(q, rows()))
        built, factored = [], []
        init, cholesky = BlockCholesky.__init__, np.linalg.cholesky

        def counted_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def counted_cholesky(a):
            factored.append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(BlockCholesky, "__init__", counted_init)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        with pytest.raises(InvalidArgumentError, match="^Q is not positive definite$"):
            call(q)
        assert built == []
        assert len(factored) == stacks

    def test_singular_block_takes_precedence_over_q(self):
        q = indefinite_q()
        parts = [sample_uniform_partition(6, 2, derive_seed(3, i)) for i in range(20)]
        for part in parts:
            try:
                BlockCholesky(diagonal_blocks(q, part), part)
            except SingularBlockError as exc:
                direct = exc
                break
        with pytest.raises(SingularBlockError) as got:
            expected_lambda_mc(q, 2, 20, seed=3)
        assert got.value.block == direct.block
        assert str(got.value) == str(direct)


class TestMeanInverseKernel:
    """Every mean of block inverses against dense inv(block_mask) oracles."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 10), data=st.data())
    def test_exact_matches_dense_enumeration(self, n, data):
        k = data.draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
        q = random_spd(n, np.random.default_rng(data.draw(st.integers(0, 2**32))))
        want = dense_mean_inverse(q, enumerate_partitions(n, k))
        got = _mean_inverse(q, _enumerate_assignments(n, k, DEFAULT_ENUMERATION_CAP))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

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
        got = _mean_inverse(q, _enumerate_assignments(12, 3, DEFAULT_ENUMERATION_CAP))
        np.testing.assert_allclose(got, dense_mean_inverse(q, parts), rtol=1e-10, atol=1e-12)

    def test_singular_block_named_as_block_cholesky_names_it(self):
        q = np.eye(4)
        q[2, 3] = q[3, 2] = 2.0  # the block {2, 3} is indefinite
        first = enumerate_partitions(4, 2)[0]
        with pytest.raises(SingularBlockError) as direct:
            BlockCholesky(diagonal_blocks(q, first), first)
        with pytest.raises(SingularBlockError) as exact:
            _mean_inverse(q, _enumerate_assignments(4, 2, DEFAULT_ENUMERATION_CAP))
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
            rate_general(np.eye(6), parts)


class TestBlockInverses:
    """Each inverse of the block-inverse kernel against np.linalg.inv of its diagonal block."""

    # block sizes 1, 2, 6, 100 and 150; K not dividing n mixes 3 with 2 and 151 with 150
    @pytest.mark.parametrize("n, k", [(6, 6), (6, 3), (12, 2), (300, 3), (300, 2), (7, 3),
                                      (301, 2)])
    def test_each_inverse_matches_dense_inverse(self, n, k):
        q = random_spd(n, np.random.default_rng(n + k))
        parts = [sample_uniform_partition(n, k, derive_seed(n, i)) for i in range(3)]
        assignments = np.stack([p.assignment for p in parts])
        seen = []
        for row, where, inverse in _block_inverses(q, assignments):
            for r, flat, got in zip(row, where, inverse):
                idx = flat.diagonal() // (n + 1)
                np.testing.assert_array_equal(
                    idx, np.flatnonzero(assignments[r] == assignments[r, idx[0]]))
                want = np.linalg.inv(q[np.ix_(idx, idx)])
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
                seen.append((int(r), int(idx[0])))
        assert sorted(seen) == sorted((r, int(np.flatnonzero(a == b)[0]))
                                      for r, a in enumerate(assignments) for b in range(k))
        want = dense_mean_inverse(q, parts)
        np.testing.assert_allclose(_mean_inverse(q, assignments), want,
                                   rtol=0, atol=1e-12 * np.abs(want).max())


def lambda_min_generalized(q, part):
    """lambda_min of the pencil (Q, Q_P), the spectrum of Q_P^{-1} Q."""
    return float(scipy.linalg.eigh(q, block_mask(q, part), eigvals_only=True,
                                   subset_by_index=[0, 0])[0])


class TestStackedDistribution:
    """build_report's stacked lambda_min(Q_P^{-1} Q) against per-partitioning oracles."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 24), data=st.data())
    def test_sampled_matches_per_partitioning_oracles(self, n, data):
        k = data.draw(st.integers(1, n))
        samples = data.draw(st.integers(1, 30))
        seed = data.draw(st.integers(0, 2**64 - 1))
        q = random_spd(n, np.random.default_rng(data.draw(st.integers(0, 2**32))))
        report = build_report(q, k, n_samples=samples, seed=seed)
        violin = derive_seed(seed, 0)
        assert report.keys == [derive_seed(violin, i) for i in range(samples)]
        for key, lam in zip(report.keys, report.lambdas):
            part = sample_uniform_partition(n, k, key)
            assert lam == pytest.approx(lambda_min_precond(q, part), abs=1e-12)
            assert lam == pytest.approx(lambda_min_generalized(q, part), abs=1e-12)

    @pytest.mark.slow
    def test_exact_spanning_several_chunks(self):
        # 5775 partitionings of 12 coordinates: 13 chunks of at most 2^16 / 12^2 = 455
        q = random_spd(12, np.random.default_rng(5))
        parts = enumerate_partitions(12, 3)
        report = build_report(q, 3, exact=True)
        assert report.keys == list(range(len(parts))) == list(range(5775))
        got = report.lambdas
        want = np.array([lambda_min_precond(q, p) for p in parts])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for i in (0, 454, 455, 2888, 5774):
            assert got[i] == pytest.approx(lambda_min_generalized(q, parts[i]), abs=1e-12)

    def test_mixed_block_sizes_in_one_chunk(self):
        # K does not divide n, and rows with different block sizes share one call
        q = random_spd(7, np.random.default_rng(8))
        rows = np.array([[0, 0, 0, 1, 1, 1, 1], [1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 1, 1, 1, 1],
                         [1, 1, 1, 1, 1, 1, 0], [1, 1, 0, 0, 1, 1, 0], [0, 1, 0, 1, 0, 1, 1]])
        got = _lambda_min_stack(q, scipy.linalg.cholesky(q, lower=False), rows)
        parts = [Partitioning(row, 2) for row in rows]
        np.testing.assert_allclose(got, [lambda_min_precond(q, p) for p in parts],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, [lambda_min_generalized(q, p) for p in parts],
                                   rtol=0, atol=1e-12)

    def test_chunk_bound_holds_for_mixed_size_profiles(self, monkeypatch):
        # One balanced row, then 99 rows with a 361-coordinate block: the step must
        # come from the largest row, or one chunk stacks 5 214 400 entries.
        n, k = 400, 40
        balanced = np.arange(n) % k
        lopsided = np.concatenate((np.zeros(n - k + 1, dtype=np.intp), np.arange(1, k)))
        rows = np.vstack([balanced] + [lopsided] * 99)
        chunks = []
        layout = spectral._block_layout

        def counted_layout(assignments):
            stacks = layout(assignments)
            chunks.append(sum(idx.size * idx.shape[1] for _, idx in stacks))
            return stacks

        monkeypatch.setattr(spectral, "_block_layout", counted_layout)
        blocks = sum(len(row) for row, _, _ in spectral._block_stacks(np.eye(n), rows))
        assert blocks == 100 * k
        assert len(chunks) > 1 and max(chunks) <= max(n * n, 2**16)

    def test_threads_give_equal_values(self):
        # sampled: chunks of 40 rows at n = 40, one-row (Lanczos) chunks at n = 200;
        # exact: 5775 partitionings of 12 coordinates in 13 chunks
        for n, k, samples, exact in ((40, 4, 200, False), (200, 4, 12, False), (12, 3, 1, True)):
            q = random_spd(n, np.random.default_rng(6))
            a, *others = [build_report(q, k, n_samples=samples, seed=2, exact=exact,
                                       threads=threads) for threads in (1, 2, 3)]
            for b in others:
                assert a.lambdas.tolist() == b.lambdas.tolist() and a.keys == b.keys
                assert a.lambda_min_expected == b.lambda_min_expected and a.stderr == b.stderr

    @pytest.mark.parametrize("exact", [False, True])
    def test_mean_runs_beside_the_distribution(self, monkeypatch, exact):
        # The first distribution chunk waits until the mean has started. A mean that
        # only starts after the distribution never starts in time, whatever the speed.
        started = threading.Event()
        waited = []
        calls = itertools.count()
        stack = spectral._lambda_min_stack
        mean_name = "_mean_inverse" if exact else "_lambda_mc"
        mean = getattr(spectral, mean_name)

        def waiting_stack(*args):
            if next(calls) == 0:
                waited.append(started.wait(timeout=20))
            return stack(*args)

        def starting_mean(*args):
            started.set()
            return mean(*args)

        q = random_spd(12, np.random.default_rng(4))
        want = build_report(q, 3, n_samples=30, seed=5, exact=exact)
        monkeypatch.setattr(spectral, "_lambda_min_stack", waiting_stack)
        monkeypatch.setattr(spectral, mean_name, starting_mean)
        got = build_report(q, 3, n_samples=30, seed=5, exact=exact, threads=2)
        assert waited == [True]
        assert got.keys == want.keys and got.lambdas.tolist() == want.lambdas.tolist()
        assert (got.lambda_min_expected, got.stderr) == (want.lambda_min_expected, want.stderr)

    @pytest.mark.parametrize("exact", [True, False])
    def test_singular_block_named_as_block_cholesky_names_it(self, exact):
        q = np.eye(6)
        q[1, 4] = q[4, 1] = 2.0  # every block holding 1 and 4 is indefinite
        if exact:
            parts = enumerate_partitions(6, 2)
        else:
            violin = derive_seed(7, 0)
            parts = [sample_uniform_partition(6, 2, derive_seed(violin, i)) for i in range(20)]
        for part in parts:
            try:
                BlockCholesky(diagonal_blocks(q, part), part)
            except SingularBlockError as exc:
                direct = exc
                break
        with pytest.raises(SingularBlockError) as got:
            build_report(q, 2, n_samples=20, seed=7, exact=exact)
        assert got.value.block == direct.block
        assert str(got.value) == str(direct)

    def test_singular_block_of_the_mean_after_the_distribution(self):
        # the one distribution partitioning keeps coordinates 0 and 1 apart, the mean's joins them
        q = np.eye(6)
        q[0, 1] = q[1, 0] = 2.0
        spread = sample_uniform_partition(6, 2, derive_seed(derive_seed(0, 0), 0))
        joined = sample_uniform_partition(6, 2, derive_seed(derive_seed(0, 1), 0))
        assert spread.assignment[0] != spread.assignment[1]
        assert joined.assignment[0] == joined.assignment[1]
        BlockCholesky(diagonal_blocks(q, spread), spread)
        with pytest.raises(SingularBlockError) as direct:
            BlockCholesky(diagonal_blocks(q, joined), joined)
        with pytest.raises(SingularBlockError) as got:
            build_report(q, 2, n_samples=1, seed=0)
        assert got.value.block == direct.value.block == joined.assignment[0]
        assert str(got.value) == str(direct.value)

    def test_singular_block_of_the_distribution_before_the_mean(self):
        # K does not divide n: the distribution joins coordinates 0 and 1 in block 0 of
        # size 3, the mean in block 1 of size 2
        q = np.eye(5)
        q[0, 1] = q[1, 0] = 2.0
        first = sample_uniform_partition(5, 2, derive_seed(derive_seed(18, 0), 0))
        joined = sample_uniform_partition(5, 2, derive_seed(derive_seed(18, 1), 0))
        assert first.assignment[0] == first.assignment[1] == 0
        assert joined.assignment[0] == joined.assignment[1] == 1
        with pytest.raises(SingularBlockError) as direct:
            BlockCholesky(diagonal_blocks(q, first), first)
        with pytest.raises(SingularBlockError) as got:
            build_report(q, 2, n_samples=1, seed=18)
        assert got.value.block == direct.value.block == first.assignment[0]
        assert str(got.value) == str(direct.value)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_no_samples_rejected(self, n_samples):
        with pytest.raises(InvalidArgumentError, match="n_samples must be at least 1"):
            build_report(np.eye(4), 2, n_samples=n_samples)


class TestLanczosDistribution:
    """From n = 182 on, build_report takes each lambda_min(Q_P^{-1} Q) by Lanczos."""

    @pytest.mark.parametrize("kind", ["spd", "corr"])
    @pytest.mark.parametrize("k", [1, 2, 8, "n"])
    @pytest.mark.parametrize("n", [200, 201, 256])
    def test_matches_per_partitioning_oracles(self, n, k, kind):
        k = n if k == "n" else k
        if kind == "spd":
            q = random_spd(n, np.random.default_rng(n))
        else:
            q = gen_random_corr_q(n, 0.05, n)
        report = build_report(q, k, n_samples=3, seed=n + k)
        for key, lam in zip(report.keys, report.lambdas):
            part = sample_uniform_partition(n, k, key)
            assert lam == pytest.approx(lambda_min_generalized(q, part), rel=1e-10)
            assert lam == pytest.approx(lambda_min_precond(q, part), rel=1e-10)

    @pytest.mark.parametrize("n, k", [(200, 1), (200, 2), (200, 8), (200, 200), (201, 1),
                                      (201, 201), (256, 2), (256, 8), (256, 256)])
    def test_uniform_matches_closed_form(self, n, k):
        report = build_report(gen_uniform_q(n, 0.3), k, n_samples=3, seed=1)
        want = uniform_closed_form(n, k, 0.3).lambda_static
        assert report.lambdas == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("error", [
        scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), np.empty(0)),
        scipy.sparse.linalg.ArpackError(-9999)])
    def test_arpack_failure_falls_back_to_the_stack(self, monkeypatch, error):
        calls = []

        def failing_eigsh(*args, **kwargs):
            calls.append(1)
            raise error

        q = random_spd(200, np.random.default_rng(3))
        want = build_report(q, 5, n_samples=4, seed=8)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing_eigsh)
        got = build_report(q, 5, n_samples=4, seed=8)
        assert len(calls) == 4
        rows = np.stack([sample_uniform_partition(200, 5, key).assignment for key in got.keys])
        stack = _lambda_min_stack(q, scipy.linalg.cholesky(q, lower=False), rows)
        np.testing.assert_allclose(got.lambdas, stack, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.lambdas, want.lambdas, rtol=1e-10)
        assert got.lambda_min_expected == want.lambda_min_expected and got.stderr == want.stderr
