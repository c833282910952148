import io
import threading
import time

import numpy as np
import pytest

from blockprec import (
    ArmijoStep,
    BlockCholesky,
    DivergenceError,
    EXACT_HESSIAN,
    FixedStep,
    InvalidArgumentError,
    LineSearchError,
    Quadratic,
    SingularBlockError,
    SolverConfig,
    armijo_step_size,
    block_mask,
    derive_seed,
    diagonal_blocks,
    gen_uniform_q,
    ridge,
    run,
    run_repeats,
    sample_uniform_partition,
    uniform_closed_form,
)
from blockprec import partition, solver
from blockprec.objectives import gram_matrix
from blockprec.solver import write_traces_csv, write_traces_json


def random_quadratic(n, rng, ridge_eps=0.2):
    g = rng.standard_normal((n, 2 * n))
    return Quadratic(g @ g.T / (2 * n) + ridge_eps * np.eye(n), rng.standard_normal(n))


def one_step(obj, x, k, seed, eta):
    """x - eta Q_P^{-1} grad f(x) with P = sample_uniform_partition(n, k, seed).

    Computed as one static iteration from 0 on z -> f(x + z), which is the
    quadratic with linear term c - H x.
    """
    shifted = Quadratic(obj.h, obj.c - obj.h @ x)
    trace = run(shifted, SolverConfig(k_blocks=k, scheme="static", seed=seed, n_iters=1,
                                      step=FixedStep(eta)))
    return x + trace.x_final


def counted(calls, name, method):
    """``method`` wrapped to add one to ``calls[name]`` per call."""
    def wrapper(self, *args):
        calls[name] += 1
        return method(self, *args)
    return wrapper


class TestStep:
    def test_full_newton_step_reaches_optimum(self):
        rng = np.random.default_rng(0)
        obj = random_quadratic(6, rng)
        x1 = one_step(obj, np.zeros(6), 1, seed=0, eta=1.0)
        x_star, _ = obj.optimum()
        assert np.linalg.norm(x1 - x_star) <= 1e-10

    def test_diagonal_curvature_is_diagonal_preconditioning(self):
        h = np.diag([1.0, 4.0, 9.0, 16.0])
        obj = Quadratic(h, np.ones(4))
        x = np.full(4, 2.0)
        got = one_step(obj, x, 2, seed=1, eta=0.5)
        expected = x - 0.5 * obj.gradient(x) / np.diag(h)
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_matches_dense_masked_computation(self):
        rng = np.random.default_rng(2)
        obj = random_quadratic(8, rng)
        part = sample_uniform_partition(8, 2, seed=3)
        x = rng.standard_normal(8)
        got = one_step(obj, x, 2, seed=3, eta=0.5)
        dense = x - 0.5 * np.linalg.solve(block_mask(obj.h, part), obj.gradient(x))
        assert np.linalg.norm(got - dense) <= 1e-10 * max(1.0, np.linalg.norm(dense))

    def test_monotone_decrease_at_default_step(self):
        # with eta = 1/K and exact quadratic curvature every partitioning
        # decreases f deterministically
        rng = np.random.default_rng(3)
        for trial in range(10):
            n = int(rng.integers(4, 12))
            k = int(rng.integers(1, n + 1))
            obj = random_quadratic(n, rng)
            x = rng.standard_normal(n)
            x_next = one_step(obj, x, k, seed=trial, eta=1.0 / k)
            assert obj.value(x_next) <= obj.value(x) + 1e-12


class TestArmijo:
    def test_full_newton_direction_accepts_one(self):
        # the exact Newton decrease equals half the slope, so any c1
        # strictly below 1/2 accepts beta = 1 immediately (c1 = 1/2 itself
        # is the equality case and sits on the roundoff knife edge)
        rng = np.random.default_rng(4)
        obj = random_quadratic(5, rng)
        x = rng.standard_normal(5)
        d = -np.linalg.solve(obj.h, obj.gradient(x))
        for c1 in (0.25, 0.49):
            beta = armijo_step_size(obj, x, obj.value(x), obj.gradient(x), d, c1=c1,
                                    shrink=0.5, max_backtracks=30)
            assert beta == 1.0

    def test_ascent_direction_rejected(self):
        rng = np.random.default_rng(5)
        obj = random_quadratic(5, rng)
        x = rng.standard_normal(5)
        with pytest.raises(InvalidArgumentError):
            armijo_step_size(obj, x, obj.value(x), obj.gradient(x), +obj.gradient(x), c1=0.3,
                             shrink=0.5, max_backtracks=30)

    def test_zero_direction_accepts_one(self):
        rng = np.random.default_rng(5)
        obj = random_quadratic(5, rng)
        x = rng.standard_normal(5)
        assert armijo_step_size(obj, x, obj.value(x), obj.gradient(x), np.zeros(5), c1=0.3,
                                shrink=0.5, max_backtracks=30) == 1.0

    def test_nonzero_direction_with_zero_slope_rejected(self):
        rng = np.random.default_rng(5)
        obj = random_quadratic(5, rng)
        x = rng.standard_normal(5)
        g = obj.gradient(x)
        d = np.zeros(5)
        d[:2] = g[1], -g[0]  # g^T d = g0 g1 - g1 g0 = 0 exactly
        with pytest.raises(InvalidArgumentError, match="not a descent direction"):
            armijo_step_size(obj, x, obj.value(x), g, d, c1=0.3, shrink=0.5, max_backtracks=30)

    def test_returned_beta_is_maximal(self):
        # strongly correlated data with K = 4 blocks makes the masked
        # preconditioner poor enough to force backtracking
        rng = np.random.default_rng(6)
        a = np.linalg.cholesky(gen_uniform_q(12, 0.9)).T
        obj = ridge(a, rng.standard_normal(12), lam=0.0)
        part = sample_uniform_partition(12, 4, seed=7)
        x = rng.standard_normal(12)
        g = obj.gradient(x)
        d = -BlockCholesky(obj.block_curvature(x, part), part).solve(g)
        c1, shrink = 0.3, 0.5
        beta = armijo_step_size(obj, x, obj.value(x), g, d, c1=c1, shrink=shrink,
                                max_backtracks=60)
        slope = g @ d
        assert obj.value(x + beta * d) <= obj.value(x) + c1 * beta * slope
        assert beta < 1.0
        wider = beta / shrink
        assert obj.value(x + wider * d) > obj.value(x) + c1 * wider * slope

    def test_budget_exhaustion(self):
        rng = np.random.default_rng(7)
        a = np.linalg.cholesky(gen_uniform_q(12, 0.9)).T
        obj = ridge(a, rng.standard_normal(12), lam=0.0)
        part = sample_uniform_partition(12, 4, seed=7)
        x = rng.standard_normal(12)
        d = -BlockCholesky(obj.block_curvature(x, part), part).solve(obj.gradient(x))
        with pytest.raises(LineSearchError):
            armijo_step_size(obj, x, obj.value(x), obj.gradient(x), d, c1=0.3, shrink=0.5,
                             max_backtracks=1)


class TestRun:
    def test_trace_shape_and_t0(self):
        rng = np.random.default_rng(8)
        obj = random_quadratic(6, rng)
        trace = run(obj, SolverConfig(k_blocks=2, scheme="dynamic", seed=0, n_iters=7))
        assert len(trace) == 8
        assert trace.fvals[0] == pytest.approx(obj.value(np.zeros(6)))
        assert len(trace.seeds) == 7
        assert np.all(trace.subopts >= -1e-9)

    def test_static_uses_one_partitioning(self):
        rng = np.random.default_rng(9)
        obj = random_quadratic(6, rng)
        trace = run(obj, SolverConfig(k_blocks=3, scheme="static", seed=5, n_iters=6))
        assert set(trace.seeds) == {5}

    def test_dynamic_reseeds_each_iteration(self):
        rng = np.random.default_rng(10)
        obj = random_quadratic(6, rng)
        trace = run(obj, SolverConfig(k_blocks=3, scheme="dynamic", seed=5, n_iters=6))
        assert len(set(trace.seeds)) == 6

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        obj = random_quadratic(8, rng)
        cfg = SolverConfig(k_blocks=2, scheme="dynamic", seed=3, n_iters=15)
        a, b = run(obj, cfg), run(obj, cfg)
        np.testing.assert_array_equal(a.subopts, b.subopts)
        np.testing.assert_array_equal(a.x_final, b.x_final)

    def test_one_step_convergence_single_block(self):
        rng = np.random.default_rng(12)
        obj = random_quadratic(6, rng)
        cfg = SolverConfig(k_blocks=1, scheme="static", seed=0, n_iters=1,
                           step=FixedStep(1.0))
        trace = run(obj, cfg)
        assert trace.subopts[1] <= 1e-18

    def test_mean_dynamic_decay_under_rate_bound(self):
        # 30-run mean suboptimality stays under 1.05 (1 - rho)^t eps0 with
        # rho the closed-form dynamic rate
        n, k, alpha = 60, 2, 0.2
        h = gen_uniform_q(n, alpha)
        rng = np.random.default_rng(13)
        obj = Quadratic(h, rng.standard_normal(n))
        rho = uniform_closed_form(n, k, alpha).rho_dynamic
        cfg = SolverConfig(k_blocks=k, scheme="dynamic", seed=21, n_iters=30,
                           step=FixedStep(1.0 / k))
        traces = run_repeats(obj, cfg, 30)
        mean = np.mean([t.subopts for t in traces], axis=0)
        eps0 = mean[0]
        for t in range(31):
            assert mean[t] <= 1.05 * (1.0 - rho) ** t * eps0

    def test_armijo_run_monotone(self):
        rng = np.random.default_rng(14)
        a = np.linalg.cholesky(gen_uniform_q(12, 0.6)).T
        obj = ridge(a, rng.standard_normal(12), lam=0.1)
        cfg = SolverConfig(k_blocks=3, scheme="dynamic", seed=2, n_iters=20,
                           step=ArmijoStep(c1=0.3, shrink=0.5, max_backtracks=60))
        trace = run(obj, cfg)
        assert np.all(np.diff(trace.fvals) <= 1e-12)

    def test_divergence_carries_partial_trace(self):
        n = 8
        h = gen_uniform_q(n, 0.5)
        rng = np.random.default_rng(15)
        obj = Quadratic(h, rng.standard_normal(n))
        cfg = SolverConfig(k_blocks=2, scheme="dynamic", seed=1, n_iters=500,
                           step=FixedStep(1000.0))
        with pytest.raises(DivergenceError) as excinfo, np.errstate(over="ignore"):
            run(obj, cfg)
        partial = excinfo.value.trace
        assert partial is not None
        assert 0 < len(partial) <= 501
        assert np.isfinite(partial.fvals[:-1]).all()

    def test_run_repeats_thread_count_invariant(self):
        rng = np.random.default_rng(16)
        obj = random_quadratic(10, rng)
        cfg = SolverConfig(k_blocks=2, scheme="dynamic", seed=9, n_iters=10)
        seq = run_repeats(obj, cfg, 6, threads=1)
        par = run_repeats(obj, cfg, 6, threads=4)
        for a, b in zip(seq, par):
            np.testing.assert_array_equal(a.subopts, b.subopts)
        # exact-Hessian logistic: per-iterate block curvature on shared A
        from blockprec import logistic
        a = rng.standard_normal((50, 12))
        obj = logistic(a, np.where(rng.standard_normal(50) >= 0, 1.0, -1.0), lam=0.5)
        cfg = SolverConfig(k_blocks=3, scheme="dynamic", seed=2, n_iters=8,
                           model=EXACT_HESSIAN, step=ArmijoStep())
        seq = run_repeats(obj, cfg, 4, threads=1)
        par = run_repeats(obj, cfg, 4, threads=2)
        for a, b in zip(seq, par):
            for got, want in ((a.fvals, b.fvals), (a.subopts, b.subopts),
                              (a.gradnorms, b.gradnorms), (a.x_final, b.x_final)):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("step", [FixedStep(), ArmijoStep()])
    @pytest.mark.parametrize("scheme", ["static", "dynamic"])
    def test_each_iterate_evaluated_once_without_full_curvature(self, monkeypatch, scheme,
                                                                step):
        from blockprec import Glm, logistic
        rng = np.random.default_rng(22)
        a = rng.standard_normal((40, 12))
        obj = logistic(a, np.where(rng.standard_normal(40) >= 0, 1.0, -1.0), lam=1.0)
        obj.optimum()  # the Newton reference forms one-block Hessians; run() forms none
        calls = {"blocks per curvature": [], "evaluate": 0, "gradient": 0}
        block_curvature = Glm.block_curvature

        def counted_block_curvature(self, x, part, model):
            calls["blocks per curvature"].append(part.k_blocks)
            return block_curvature(self, x, part, model)

        monkeypatch.setattr(Glm, "block_curvature", counted_block_curvature)
        for name in ("evaluate", "gradient"):
            monkeypatch.setattr(Glm, name, counted(calls, name, getattr(Glm, name)))
        run(obj, SolverConfig(k_blocks=3, scheme=scheme, seed=4, n_iters=7,
                              model=EXACT_HESSIAN, step=step))
        assert calls == {"blocks per curvature": [3] * 7, "evaluate": 8, "gradient": 0}

    def test_quadratic_run_records_each_iterate_with_evaluate_only(self, monkeypatch):
        rng = np.random.default_rng(23)
        g = rng.standard_normal((9, 18))
        obj = Quadratic(g @ g.T / 18 + 0.3 * np.eye(9), rng.standard_normal(9))
        calls = dict.fromkeys(("evaluate", "value", "gradient"), 0)
        for name in calls:
            monkeypatch.setattr(Quadratic, name, counted(calls, name, getattr(Quadratic, name)))
        trace = run(obj, SolverConfig(k_blocks=3, scheme="dynamic", seed=5, n_iters=6))
        assert calls == {"evaluate": 7, "value": 0, "gradient": 0}
        assert len(trace) == 7

    def test_run_repeats_fills_lazy_caches_once(self, monkeypatch):
        # Slow counting wrappers widen the window in which concurrent
        # repeats would each find a cache empty and fill it themselves.
        from blockprec import SMOOTHNESS_BOUND, Glm, logistic, objectives
        calls = {"optimum": [], "gram": []}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key].append(threading.get_ident())
                time.sleep(0.05)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Glm, "_newton_reference",
                            counted("optimum", Glm._newton_reference))
        monkeypatch.setattr(objectives, "gram_matrix",
                            counted("gram", objectives.gram_matrix))
        rng = np.random.default_rng(20)
        a = rng.standard_normal((30, 8))
        obj = logistic(a, np.where(rng.standard_normal(30) >= 0, 1.0, -1.0), lam=1.0)
        cfg = SolverConfig(k_blocks=2, scheme="dynamic", seed=3, n_iters=3,
                           model=SMOOTHNESS_BOUND)
        traces = run_repeats(obj, cfg, 4, threads=4)
        assert {key: len(v) for key, v in calls.items()} == {"optimum": 1, "gram": 1}
        assert len({t.f_star for t in traces}) == 1

    def test_matched_seeds_across_schemes(self):
        rng = np.random.default_rng(17)
        obj = random_quadratic(6, rng)
        static = SolverConfig(k_blocks=2, scheme="static", seed=4, n_iters=3)
        dynamic = SolverConfig(k_blocks=2, scheme="dynamic", seed=4, n_iters=3)
        s_traces = run_repeats(obj, static, 4)
        d_traces = run_repeats(obj, dynamic, 4)
        for s, d in zip(s_traces, d_traces):
            assert s.config.seed == d.config.seed

    def test_logistic_matched_pairs_dynamic_beats_static(self):
        # same shape as the real-dataset ordering check: exact-Hessian
        # logistic with correlated columns, matched seeds per scheme
        rng = np.random.default_rng(19)
        from blockprec import factor_sqrt, logistic
        a = rng.standard_normal((40, 24)) @ factor_sqrt(gen_uniform_q(24, 0.5))
        y = np.where(rng.standard_normal(40) >= 0, 1.0, -1.0)
        obj = logistic(a, y, lam=1.0)
        finals = {}
        for scheme in ("static", "dynamic"):
            cfg = SolverConfig(k_blocks=8, scheme=scheme, seed=0, n_iters=60,
                               model=EXACT_HESSIAN)
            traces = run_repeats(obj, cfg, 6)
            finals[scheme] = np.median([t.subopts[-1] for t in traces])
        assert finals["dynamic"] <= finals["static"]

    def test_run_repeats_checks_k_against_n_before_filling_caches(self):
        obj = Quadratic(np.zeros((0, 0)), np.zeros(0))
        with pytest.raises(InvalidArgumentError,
                           match=r"^k must satisfy 1 <= k <= n, got k=1, n=0$"):
            run_repeats(obj, SolverConfig(k_blocks=1, n_iters=2), 2)

    def test_csv_comment_must_be_one_line(self):
        trace = run(random_quadratic(4, np.random.default_rng(18)),
                    SolverConfig(k_blocks=2, scheme="static", seed=0, n_iters=2))
        for comment in ("two\nlines", "two\rlines"):
            buf = io.StringIO()
            with pytest.raises(InvalidArgumentError, match="^a comment must be one line"):
                write_traces_csv(buf, [trace], comment=comment)
            assert buf.getvalue() == ""

    def test_csv_format(self):
        rng = np.random.default_rng(18)
        obj = random_quadratic(4, rng)
        trace = run(obj, SolverConfig(k_blocks=2, scheme="static", seed=0, n_iters=2))
        buf = io.StringIO()
        write_traces_csv(buf, [trace], comment="demo")
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "# demo"
        assert lines[1] == "run,t,fval,subopt,gradnorm"
        assert len(lines) == 2 + 3
        assert lines[2].startswith("0,0,")


class TestSchedule:
    """A run is its list of seeds; the static and dynamic schemes differ in nothing else."""

    @pytest.mark.parametrize("scheme, curvature, builds, draws", [
        ("static", "ridge", 1, 1),
        ("static", "smoothness_bound", 1, 1),
        ("static", "exact_hessian", 7, 1),
        ("dynamic", "ridge", 7, 7),
        ("dynamic", "smoothness_bound", 7, 7),
        ("dynamic", "exact_hessian", 7, 7),
    ])
    def test_factors_only_when_the_partitioning_or_the_curvature_changes(
            self, monkeypatch, scheme, curvature, builds, draws):
        from blockprec import SMOOTHNESS_BOUND, logistic
        rng = np.random.default_rng(23)
        a = rng.standard_normal((30, 9))
        if curvature == "ridge":
            obj, model = ridge(a, rng.standard_normal(30), lam=0.5), EXACT_HESSIAN
        else:
            obj = logistic(a, np.where(rng.standard_normal(30) >= 0, 1.0, -1.0), lam=0.5)
            model = SMOOTHNESS_BOUND if curvature == "smoothness_bound" else EXACT_HESSIAN
        counts = {"builds": 0, "draws": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(BlockCholesky, "_factored",
                            counted("builds", BlockCholesky._factored))
        monkeypatch.setattr(solver, "sample_uniform_partition",
                            counted("draws", sample_uniform_partition))
        run(obj, SolverConfig(k_blocks=3, scheme=scheme, seed=6, n_iters=7, model=model))
        assert counts == {"builds": builds, "draws": draws}

    @pytest.mark.parametrize("curvature", ["quadratic", "logistic"])
    def test_dynamic_step_neither_lays_out_nor_checks_blocks(self, monkeypatch, curvature):
        from blockprec import logistic
        rng = np.random.default_rng(26)
        if curvature == "quadratic":
            obj = random_quadratic(11, rng)
        else:
            a = rng.standard_normal((30, 11))
            obj = logistic(a, np.where(rng.standard_normal(30) >= 0, 1.0, -1.0), lam=0.5)
        obj.optimum()  # the Newton reference lays out its one-block partitioning
        calls = {"_block_layout": 0, "_entry_fault": 0, "cholesky": []}
        for name in ("_block_layout", "_entry_fault"):
            def wrapper(*args, name=name, fn=getattr(partition, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(partition, name, wrapper)
        cholesky = np.linalg.cholesky

        def counted_cholesky(a):
            calls["cholesky"].append(np.shape(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        run(obj, SolverConfig(k_blocks=3, scheme="dynamic", seed=8, n_iters=7))
        shapes = [idx.shape + idx.shape[1:] for t in range(7)
                  for _, idx in sample_uniform_partition(11, 3, derive_seed(8, t)).stacks()]
        assert calls == {"_block_layout": 0, "_entry_fault": 0, "cholesky": shapes}

    @pytest.mark.parametrize("curvature", ["quadratic", "ridge"])
    def test_dynamic_run_matches_a_loop_over_the_public_factorization(self, curvature):
        # K does not divide n, so every partitioning has two block sizes
        rng = np.random.default_rng(27)
        if curvature == "quadratic":
            obj = random_quadratic(11, rng)
            h = obj.h
        else:
            a = rng.standard_normal((30, 10))
            obj = ridge(a, rng.standard_normal(30), lam=0.5)
            h = gram_matrix(a) + 0.5 * np.eye(10)
        trace = run(obj, SolverConfig(k_blocks=3, scheme="dynamic", seed=2, n_iters=9))
        x = np.zeros(obj.n)
        for t in range(9):
            part = sample_uniform_partition(obj.n, 3, derive_seed(2, t))
            d = -BlockCholesky(diagonal_blocks(h, part), part).solve(obj.gradient(x))
            x = x + (1 / 3) * d
        np.testing.assert_array_equal(trace.x_final, x)

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_singular_curvature_block_error_unchanged(self, loss):
        # at lambda = 0 a zero column of A leaves its coordinate no curvature; a
        # stand-in optimum lets the run reach the block, which the real one refuses
        from blockprec import logistic
        rng = np.random.default_rng(14)
        a = rng.standard_normal((20, 9))
        a[:, 5] = 0.0
        y = rng.standard_normal(20)
        obj = ridge(a, y) if loss == "squared" else logistic(a, np.where(y >= 0, 1.0, -1.0))
        obj.optimum = lambda: (np.zeros(9), 0.0)
        label = sample_uniform_partition(9, 3, derive_seed(1, 0)).assignment[5]
        with pytest.raises(SingularBlockError,
                           match=rf"^block {label} \(size 3\) is not positive definite$") as exc:
            run(obj, SolverConfig(k_blocks=3, scheme="dynamic", seed=1, n_iters=4))
        assert exc.value.block == label

    def test_overflowing_curvature_block_named_as_by_the_entry_check(self):
        # A^T A overflows to inf on coordinate 0; a Cholesky of [[inf]] does not fail
        obj = ridge(np.diag([1e200, 1.0, 1.0]), np.ones(3), lam=1.0)
        label = sample_uniform_partition(3, 2, derive_seed(1, 0)).assignment[0]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                InvalidArgumentError, match=f"^block {label} has non-finite entries$"):
            run(obj, SolverConfig(k_blocks=2, scheme="dynamic", seed=1, n_iters=2))

    @pytest.mark.parametrize("n_iters", [0, 1])
    @pytest.mark.parametrize("scheme", ["static", "dynamic"])
    def test_more_blocks_than_coordinates_rejected(self, scheme, n_iters):
        obj = Quadratic(np.eye(3), np.ones(3))
        with pytest.raises(InvalidArgumentError, match="^k must satisfy 1 <= k <= n, got k=5"):
            run(obj, SolverConfig(k_blocks=5, scheme=scheme, n_iters=n_iters))

    def test_numpy_integer_counts_write_the_same_json(self):
        rng = np.random.default_rng(24)
        obj = random_quadratic(6, rng)
        outputs = []
        for k, seed, t, backtracks in ((2, 7, 3, 40),
                                       (np.int64(2), np.uint64(7), np.int32(3), np.int64(40))):
            config = SolverConfig(k_blocks=k, seed=seed, n_iters=t,
                                  step=ArmijoStep(max_backtracks=backtracks))
            buf = io.StringIO()
            write_traces_json(buf, config, [run(obj, config)])
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("step", [
        lambda cast: FixedStep(cast(0.3)),
        lambda cast: ArmijoStep(c1=cast(0.25), shrink=cast(0.7))], ids=["fixed", "armijo"])
    def test_numpy_float_settings_write_the_same_json(self, step):
        obj = random_quadratic(6, np.random.default_rng(25))
        outputs = []
        for cast in (lambda v: float(np.float32(v)), np.float32):
            config = SolverConfig(k_blocks=2, seed=7, n_iters=3, step=step(cast))
            buf = io.StringIO()
            write_traces_json(buf, config, [run(obj, config)])
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]


class TestNonFiniteSettings:
    @pytest.mark.parametrize("eta", [np.nan, np.inf, 0.0, -1.0])
    def test_step_must_be_positive_and_finite(self, eta):
        with pytest.raises(InvalidArgumentError, match="step size"):
            FixedStep(eta)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    def test_regularization_must_be_non_negative_and_finite(self, lam):
        with pytest.raises(InvalidArgumentError, match="lambda"):
            ridge(np.eye(3), np.zeros(3), lam=lam)
