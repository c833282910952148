import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse
from scipy.special import expit

from blockprec import (
    EXACT_HESSIAN,
    SMOOTHNESS_BOUND,
    BlockCholesky,
    InvalidArgumentError,
    Partitioning,
    Quadratic,
    SingularBlockError,
    SolverConfig,
    UnsupportedLossError,
    diagonal_blocks,
    logistic,
    ridge,
    run,
    sample_uniform_partition,
)
from blockprec.objectives import gram_matrix


def central_diff_gradient(obj, x):
    """Finite-difference oracle: central differences with step 1e-6 (1 + ||x||)."""
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
    return g


def whole(n):
    """The one-block partitioning, whose one diagonal block is the whole matrix."""
    return Partitioning(np.zeros(n, dtype=np.intp), 1)


def dense_curvature(obj, a, x, model):
    """gamma_ell A^T A + lambda I, or the exact logistic Hessian A^T diag(w) A + lambda I."""
    a = a.toarray() if scipy.sparse.issparse(a) else a
    if obj.curvature_is_constant(model):
        q = obj.gamma_loss * (a.T @ a)
    else:
        sig = expit(obj.y * (a @ x))
        q = a.T @ ((sig * (1.0 - sig))[:, None] * a)
    return q + obj.lam * np.eye(a.shape[1])


def random_glm_data(rng, m=14, n=9):
    a = rng.standard_normal((m, n)) / np.sqrt(m)
    y_real = rng.standard_normal(m)
    y_pm = np.where(rng.standard_normal(m) >= 0, 1.0, -1.0)
    return a, y_real, y_pm


def one_hot_logistic_data(rng, m, groups):
    """Sparse one-hot A (one nonzero per group and row) and planted {-1, +1} labels."""
    offsets = np.cumsum((0,) + tuple(groups[:-1]))
    cols = (offsets + rng.integers(0, groups, size=(m, len(groups)))).ravel()
    a = scipy.sparse.csr_matrix((np.ones(cols.size), cols, np.arange(0, cols.size + 1, len(groups))),
                                shape=(m, sum(groups)))
    margin = a @ rng.standard_normal(a.shape[1]) + rng.logistic(size=m)
    return a, np.where(margin > 0.0, 1.0, -1.0)


class TestQuadratic:
    def test_value_identity(self):
        obj = Quadratic(np.eye(3), np.zeros(3))
        assert obj.value(np.array([1.0, 0.0, 0.0])) == 0.5

    def test_gradient_vanishes_at_optimum(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((5, 10))
        obj = Quadratic(g @ g.T / 10 + 0.2 * np.eye(5), rng.standard_normal(5))
        x_star, _ = obj.optimum()
        assert np.linalg.norm(obj.gradient(x_star)) <= 1e-10

    def test_optimum_diagonal(self):
        n = 4
        obj = Quadratic(2.0 * np.eye(n), 2.0 * np.ones(n))
        x_star, f_star = obj.optimum()
        np.testing.assert_allclose(x_star, np.ones(n))
        assert f_star == pytest.approx(-n)

    def test_curvature_is_h_for_both_models(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal((4, 8))
        h = g @ g.T / 8 + 0.3 * np.eye(4)
        obj = Quadratic(h, np.zeros(4))
        x = rng.standard_normal(4)
        np.testing.assert_array_equal(obj.block_curvature(x, whole(4), EXACT_HESSIAN)[0][0], h)
        np.testing.assert_array_equal(obj.block_curvature(x, whole(4), SMOOTHNESS_BOUND)[0][0],
                                      h)

    def test_rejects_indefinite_h(self):
        with pytest.raises(InvalidArgumentError):
            Quadratic(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))

    def test_dimension_mismatch(self):
        obj = Quadratic(np.eye(3), np.zeros(3))
        with pytest.raises(InvalidArgumentError):
            obj.value(np.zeros(4))

    def test_suboptimality_error_form_matches_naive(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((6, 12))
        obj = Quadratic(g @ g.T / 12 + 0.2 * np.eye(6), rng.standard_normal(6))
        _, f_star = obj.optimum()
        x = rng.standard_normal(6)
        naive = float(0.5 * x @ (obj.h @ x) - obj.c @ x) - f_star
        assert obj.evaluate(x)[1] == pytest.approx(naive, rel=1e-10)
        assert obj.evaluate(x)[1] >= 0.0

    def test_evaluate_takes_one_product_with_h(self):
        products = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                products.append(ufunc.__name__)
                return getattr(ufunc, method)(*(np.asarray(v) for v in inputs), **kwargs)

        rng = np.random.default_rng(3)
        g = rng.standard_normal((7, 14))
        obj = Quadratic(g @ g.T / 14 + 0.2 * np.eye(7), rng.standard_normal(7))
        obj.h = obj.h.view(Counted)
        fx, subopt, grad = obj.evaluate(rng.standard_normal(7))
        assert products == ["matmul"]
        assert np.isfinite(fx) and subopt > 0.0 and grad.shape == (7,)


class TestRidge:
    def test_value_identity_data(self):
        obj = ridge(np.eye(2), np.zeros(2), lam=0.0)
        assert obj.value(np.array([1.0, 1.0])) == 1.0

    def test_curvature_regularizer_only(self):
        obj = ridge(np.zeros((3, 2)), np.zeros(3), lam=1.0)
        np.testing.assert_array_equal(obj.block_curvature(np.zeros(2), whole(2))[0][0],
                                      np.eye(2))

    def test_optimum_scalar_per_coordinate(self):
        # A = I, y = e1, lambda = 1: x* = e1/2, f* = 1/4
        e1 = np.array([1.0, 0.0])
        obj = ridge(np.eye(2), e1, lam=1.0)
        x_star, f_star = obj.optimum()
        np.testing.assert_allclose(x_star, e1 / 2)
        assert f_star == pytest.approx(0.25)

    def test_curvature_constant_in_x(self):
        rng = np.random.default_rng(3)
        a, y, _ = random_glm_data(rng)
        obj = ridge(a, y, lam=0.5)
        q0 = obj.block_curvature(np.zeros(obj.n), whole(obj.n))[0][0]
        q1 = obj.block_curvature(rng.standard_normal(obj.n), whole(obj.n))[0][0]
        np.testing.assert_array_equal(q0, q1)

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(4)
        a, y, _ = random_glm_data(rng)
        a[np.abs(a) < 0.1] = 0.0
        dense = ridge(a, y, lam=0.3)
        sparse = ridge(scipy.sparse.csr_matrix(a), y, lam=0.3)
        x = rng.standard_normal(dense.n)
        assert dense.value(x) == pytest.approx(sparse.value(x), rel=1e-12)
        np.testing.assert_allclose(dense.gradient(x), sparse.gradient(x), rtol=1e-12)
        np.testing.assert_allclose(dense.block_curvature(x, whole(dense.n))[0][0],
                                   sparse.block_curvature(x, whole(dense.n))[0][0], rtol=1e-12)

    def test_rank_deficient_unregularized_optimum_rejected(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        obj = ridge(a, np.array([1.0, 2.0]), lam=0.0)
        with pytest.raises(InvalidArgumentError):
            obj.optimum()


class TestLogistic:
    def test_value_at_zero_margins(self):
        rng = np.random.default_rng(5)
        a, _, y = random_glm_data(rng)
        obj = logistic(a, y, lam=3.0)
        assert obj.value(np.zeros(obj.n)) == pytest.approx(a.shape[0] * np.log(2.0))

    def test_gradient_at_zero(self):
        rng = np.random.default_rng(6)
        a, _, y = random_glm_data(rng)
        obj = logistic(a, y, lam=0.7)
        np.testing.assert_allclose(obj.gradient(np.zeros(obj.n)), -0.5 * a.T @ y,
                                   rtol=1e-12, atol=1e-14)

    def test_labels_validated(self):
        with pytest.raises(InvalidArgumentError):
            logistic(np.eye(2), np.array([0.0, 1.0]))

    def test_curvature_exact_at_zero_is_quarter_gram(self):
        rng = np.random.default_rng(7)
        a, _, y = random_glm_data(rng)
        obj = logistic(a, y, lam=0.2)
        expected = 0.25 * a.T @ a + 0.2 * np.eye(obj.n)
        part = whole(obj.n)
        np.testing.assert_allclose(obj.block_curvature(np.zeros(obj.n), part, EXACT_HESSIAN)[0][0],
                                   expected, rtol=1e-12)
        np.testing.assert_allclose(obj.block_curvature(rng.standard_normal(obj.n), part,
                                                       SMOOTHNESS_BOUND)[0][0],
                                   expected, rtol=1e-12)

    def test_smoothness_bound_dominates_exact(self):
        rng = np.random.default_rng(8)
        a, _, y = random_glm_data(rng)
        obj = logistic(a, y, lam=0.1)
        for _ in range(10):
            x = 3.0 * rng.standard_normal(obj.n)
            gap = obj.block_curvature(x, whole(obj.n), SMOOTHNESS_BOUND)[0][0] \
                - obj.block_curvature(x, whole(obj.n), EXACT_HESSIAN)[0][0]
            assert np.linalg.eigvalsh(gap)[0] >= -1e-12

    def test_finite_for_huge_margins(self):
        a = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        obj = logistic(a, y, lam=0.5)
        for scale in (1e2, 1e4):
            for sign in (1.0, -1.0):
                x = np.array([sign * scale])
                assert np.isfinite(obj.value(x))
                assert np.all(np.isfinite(obj.gradient(x)))

    def test_exact_hessian_summed_over_row_chunks(self):
        # nnz = 4m: the one-block slice (m x 24) is summed over 6 chunks of 50 rows,
        # and blocks of 4 columns (m x 4) fit, so they are one chunk each.
        rng = np.random.default_rng(12)
        a, y = one_hot_logistic_data(rng, 300, (6, 6, 6, 6))
        sparse, dense = logistic(a, y, lam=0.3), logistic(a.toarray(), y, lam=0.3)
        x = rng.standard_normal(24)
        w = expit(y * (a @ x)) * expit(-y * (a @ x))
        want = a.T @ (w[:, None] * a.toarray()) + 0.3 * np.eye(24)
        got = sparse.block_curvature(x, whole(24), EXACT_HESSIAN)[0][0]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(got, dense.block_curvature(x, whole(24), EXACT_HESSIAN)[0][0],
                                   rtol=1e-13, atol=1e-13)
        part = sample_uniform_partition(24, 6, 1)
        for got, want in zip(sparse.block_curvature(x, part, EXACT_HESSIAN),
                             diagonal_blocks(want, part)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_newton_reference_memory_scales_with_stored_entries(self):
        # 10 000 one-hot rows of 22 groups (n = 112, nnz = 220 000). Row-chunked
        # Hessians keep the optimum's traced peak at 3.2 MB, 1.8 x 8 nnz bytes, against
        # a bound of 3.6 MB; densifying the whole m x n slice at once peaks at 12.0 MB.
        rng = np.random.default_rng(13)
        groups = (6, 4, 10, 2, 9, 2, 2, 2, 12, 2, 5, 4, 4, 9, 9, 1, 4, 3, 5, 9, 6, 2)
        a, y = one_hot_logistic_data(rng, 10_000, groups)
        obj = logistic(a, y, lam=1.0)
        tracemalloc.start()
        try:
            obj.optimum()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * a.nnz + 8 * obj.n ** 2

    def test_optimum_requires_regularization(self):
        obj = logistic(np.eye(2), np.array([1.0, -1.0]), lam=0.0)
        with pytest.raises(UnsupportedLossError):
            obj.optimum()

    def test_optimum_reproducible_across_instances(self):
        rng = np.random.default_rng(9)
        a, _, y = random_glm_data(rng, m=30, n=8)
        first = logistic(a, y, lam=1.0)
        second = logistic(a.copy(), y.copy(), lam=1.0)
        x1, f1 = first.optimum()
        x2, f2 = second.optimum()
        assert abs(f1 - f2) <= 1e-10
        assert np.linalg.norm(first.gradient(x1)) <= 1e-12
        assert np.linalg.norm(x1 - x2) <= 1e-10

    def test_optimum_at_large_scale_stops_at_rounding_floor(self):
        # entries ~1e3 put the rounding floor of the gradient above 1e-12,
        # so an absolute gradient tolerance can never be met
        rng = np.random.default_rng(0)
        a = 1e3 * rng.standard_normal((400, 10))
        y = np.where(rng.standard_normal(400) + a[:, 0] / 1e3 > 0, 1.0, -1.0)
        obj = logistic(a, y, lam=1.0)
        x_star, f_star = obj.optimum()
        assert np.linalg.norm(obj.gradient(x_star)) <= 1e-12 * np.linalg.norm(
            obj.gradient(np.zeros(obj.n)))
        oracle = scipy.optimize.minimize(obj.value, x_star + 1e-3, jac=obj.gradient,
                                         method="BFGS", options={"gtol": 1e-9})
        assert f_star <= oracle.fun + 1e-12 * abs(f_star)
        assert f_star == pytest.approx(oracle.fun, rel=1e-10)


class TestBlockCurvature:
    # n = 9, so K = 2 gives blocks of 5 and 4 and K = 4 blocks of 3, 2, 2, 2
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("model", [EXACT_HESSIAN, SMOOTHNESS_BOUND])
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_blocks_of_full_curvature(self, sparse, loss, model, lam):
        rng = np.random.default_rng(12)
        a, y_real, y_pm = random_glm_data(rng)
        if sparse:
            a[np.abs(a) < 0.15] = 0.0
            a = scipy.sparse.csr_matrix(a)
        obj = ridge(a, y_real, lam=lam) if loss == "squared" else logistic(a, y_pm, lam=lam)
        # the constant blocks are bit-identical to slices of gamma_ell G + lambda I built
        # from the same Gram; the dense Gram of a sparse A differs from it at roundoff
        constant = obj.gamma_loss * gram_matrix(a) + lam * np.eye(obj.n)
        for k in (2, 4):
            part = sample_uniform_partition(obj.n, k, seed=k)
            x = rng.standard_normal(obj.n)
            full = dense_curvature(obj, a, x, model)
            stacks = obj.block_curvature(x, part, model)
            assert len(stacks) == len(part.stacks())
            assert sum(len(stack) for stack in stacks) == k
            for (_, idx), stack in zip(part.stacks(), stacks):
                for i, block in zip(idx, stack):
                    want = full[np.ix_(i, i)]
                    if obj.curvature_is_constant(model):
                        np.testing.assert_array_equal(block, constant[np.ix_(i, i)])
                    assert np.abs(block - want).max() <= 1e-12 * np.abs(want).max()

    def test_quadratic_blocks_are_bit_identical(self):
        rng = np.random.default_rng(13)
        g = rng.standard_normal((7, 14))
        obj = Quadratic(g @ g.T / 14 + 0.2 * np.eye(7), rng.standard_normal(7))
        part = sample_uniform_partition(7, 3, seed=2)
        for model in (EXACT_HESSIAN, SMOOTHNESS_BOUND):
            stacks = obj.block_curvature(rng.standard_normal(7), part, model)
            for (_, idx), stack in zip(part.stacks(), stacks):
                for i, block in zip(idx, stack):
                    np.testing.assert_array_equal(block, obj.h[np.ix_(i, i)])

    @pytest.mark.parametrize("model", [EXACT_HESSIAN, SMOOTHNESS_BOUND])
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_stacked_solve_is_bit_identical_to_per_block_cho_solve(self, sparse, loss, model):
        # K = 2 and K = 4 do not divide n = 9, so each partitioning has two block sizes
        rng = np.random.default_rng(16)
        a, y_real, y_pm = random_glm_data(rng)
        if sparse:
            a[np.abs(a) < 0.15] = 0.0
            a = scipy.sparse.csr_matrix(a)
        obj = ridge(a, y_real, lam=0.3) if loss == "squared" else logistic(a, y_pm, lam=0.3)
        constant = obj.gamma_loss * gram_matrix(a) + obj.lam * np.eye(obj.n)
        for k in (2, 4):
            part = sample_uniform_partition(obj.n, k, seed=k)
            x, g = rng.standard_normal(obj.n), rng.standard_normal(obj.n)
            root_w = np.sqrt(obj._hessian_weights(x))[:, None] if loss == "logistic" else None
            want = np.empty(obj.n)
            for label in range(k):
                idx = np.flatnonzero(part.assignment == label)
                if obj.curvature_is_constant(model):
                    block = constant[np.ix_(idx, idx)]
                else:  # the exact logistic Hessian, one column slice at a time
                    cols = obj._columns[:, idx]
                    cols = cols.toarray() if sparse else cols
                    cols *= root_w
                    block = cols.T @ cols + obj.lam * np.eye(idx.size)
                want[idx] = scipy.linalg.cho_solve((np.linalg.cholesky(block), True), g[idx],
                                                   check_finite=False)
            got = BlockCholesky(obj.block_curvature(x, part, model), part)
            np.testing.assert_array_equal(got.solve(g), want)

    @pytest.mark.parametrize("scheme", ["static", "dynamic"])
    def test_static_constant_curvature_run_factors_once(self, monkeypatch, scheme):
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(np.shape(a))
            return cholesky(a)

        rng = np.random.default_rng(18)
        g = rng.standard_normal((9, 18))
        obj = Quadratic(g @ g.T / 18 + 0.2 * np.eye(9), rng.standard_normal(9))
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        run(obj, SolverConfig(k_blocks=4, scheme=scheme, seed=5, n_iters=6))
        # every partitioning of 9 into 4 blocks has sizes 3, 2, 2, 2: two stacks
        stacks = [(1, 3, 3), (3, 2, 2)]
        assert sorted(calls) == sorted(stacks * (1 if scheme == "static" else 6))

    @pytest.mark.parametrize("model", [EXACT_HESSIAN, SMOOTHNESS_BOUND])
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_singular_block_named_as_from_full_curvature(self, loss, model):
        # at lambda = 0 a zero column of A leaves its coordinate no curvature
        rng = np.random.default_rng(14)
        a, y_real, y_pm = random_glm_data(rng)
        a[:, 5] = 0.0
        obj = ridge(a, y_real) if loss == "squared" else logistic(a, y_pm)
        part = sample_uniform_partition(obj.n, 3, seed=1)
        x = rng.standard_normal(obj.n)
        with pytest.raises(SingularBlockError) as full:
            BlockCholesky(diagonal_blocks(dense_curvature(obj, a, x, model), part), part)
        with pytest.raises(SingularBlockError) as local:
            BlockCholesky(obj.block_curvature(x, part, model), part)
        assert local.value.block == full.value.block == part.assignment[5]

    def test_partitioning_must_match_n(self):
        rng = np.random.default_rng(15)
        a, y_real, y_pm = random_glm_data(rng)
        part = sample_uniform_partition(8, 2, seed=0)
        for obj in (Quadratic(np.eye(9), np.zeros(9)), ridge(a, y_real), logistic(a, y_pm)):
            for model in (EXACT_HESSIAN, SMOOTHNESS_BOUND):
                with pytest.raises(InvalidArgumentError):
                    obj.block_curvature(np.zeros(9), part, model)


class TestGradientOracle:
    @pytest.mark.parametrize("which", ["quadratic", "ridge", "logistic"])
    def test_gradient_matches_central_differences(self, which):
        rng = np.random.default_rng(42)
        a, y_real, y_pm = random_glm_data(rng)
        if which == "quadratic":
            g = rng.standard_normal((9, 18))
            obj = Quadratic(g @ g.T / 18 + 0.2 * np.eye(9), rng.standard_normal(9))
        elif which == "ridge":
            obj = ridge(a, y_real, lam=0.4)
        else:
            obj = logistic(a, y_pm, lam=0.4)
        for _ in range(10):
            x = rng.standard_normal(obj.n)
            g_fd = central_diff_gradient(obj, x)
            g_an = obj.gradient(x)
            assert np.linalg.norm(g_fd - g_an) <= 1e-5 * max(1.0, np.linalg.norm(g_an))


class TestOptimumIsMinimum:
    @pytest.mark.parametrize("which", ["quadratic", "ridge", "logistic"])
    def test_no_probe_beats_the_optimum(self, which):
        rng = np.random.default_rng(11)
        a, y_real, y_pm = random_glm_data(rng)
        if which == "quadratic":
            g = rng.standard_normal((6, 12))
            obj = Quadratic(g @ g.T / 12 + 0.3 * np.eye(6), rng.standard_normal(6))
        elif which == "ridge":
            obj = ridge(a, y_real, lam=0.2)
        else:
            obj = logistic(a, y_pm, lam=0.2)
        x_star, f_star = obj.optimum()
        probes = x_star + rng.standard_normal((1000, obj.n))
        values = np.array([obj.value(p) for p in probes])
        assert np.all(values >= f_star - 1e-12)


class TestEvaluate:
    """``evaluate(x)`` is (value(x), value(x) - f*, gradient(x)), with f and f - f* as floats."""

    @staticmethod
    def objectives():
        rng = np.random.default_rng(31)
        g = rng.standard_normal((9, 18))
        yield "quadratic", Quadratic(g @ g.T / 18 + 0.3 * np.eye(9), rng.standard_normal(9))
        a, y_real, y_pm = random_glm_data(rng)
        a[np.abs(a) < 0.2] = 0.0
        for kind, mat in (("dense", a), ("sparse", scipy.sparse.csr_matrix(a))):
            yield f"ridge {kind}", ridge(mat, y_real, lam=0.4)
            yield f"logistic {kind}", logistic(mat, y_pm, lam=0.4)

    def test_evaluate_agrees_with_value_and_gradient(self):
        rng = np.random.default_rng(32)
        for name, obj in self.objectives():
            _, f_star = obj.optimum()
            for x in (np.zeros(obj.n), rng.standard_normal(obj.n)):
                fx, subopt, grad = obj.evaluate(x)
                assert type(fx) is float and type(subopt) is float, name
                assert type(obj.value(x)) is float, name
                assert fx == obj.value(x), name
                np.testing.assert_array_equal(grad, obj.gradient(x), err_msg=name)
                assert subopt == pytest.approx(fx - f_star, rel=1e-12, abs=1e-12), name
                if name.startswith("logistic"):
                    assert subopt == fx - f_star
