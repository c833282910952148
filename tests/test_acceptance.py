"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 6 and 7 need the real mushroom/covtype LIBSVM files; they
look under ./datasets (or $BLOCKPREC_DATASETS) and skip with an explicit
message when the files are absent, since this environment cannot download
them.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from blockprec import (
    EXACT_HESSIAN,
    FixedStep,
    Quadratic,
    SolverConfig,
    block_mask,
    build_report,
    enumerate_partitions,
    expected_lambda_exact,
    expected_lambda_mc,
    gen_separable_q,
    gen_uniform_q,
    lambda_min_precond,
    logistic,
    read_libsvm,
    ridge,
    run,
    run_repeats,
    sample_uniform_partition,
    uniform_closed_form,
    write_libsvm,
)
from blockprec.cli import main as cli_main
from blockprec.partition import BlockCholesky, diagonal_blocks
from blockprec.seeding import derive_seed

pytestmark = pytest.mark.acceptance


def report_line(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def skip_line(num, detail):
    print(f"[criterion {num}] SKIP: {detail}")


def dataset_path(candidates):
    root = Path(os.environ.get("BLOCKPREC_DATASETS",
                               Path(__file__).resolve().parent.parent / "datasets"))
    for name in candidates:
        path = root / name
        if path.exists():
            return path
    return None


MUSHROOM_FILES = ("mushrooms", "mushrooms.libsvm", "mushroom", "mushroom.libsvm",
                  "mushrooms.txt")
COVTYPE_FILES = ("covtype.libsvm.binary", "covtype.binary", "covtype",
                 "covtype.libsvm", "covtype.txt")

NO_DATASET_MSG = ("dataset file not found (this environment has no network access; "
                  "place the LIBSVM file under ./datasets or $BLOCKPREC_DATASETS)")


# Reference rates rho = lambda_min / K at n = 200, to three decimals:
# (K, alpha) -> (rho_dynamic, rho_static).
RATE_N = 200
RATE_CELLS = {
    (2, 0.1): (0.498, 0.041),
    (4, 0.1): (0.247, 0.038),
    (8, 0.1): (0.122, 0.033),
    (5, 0.01): (0.199, 0.142),
    (5, 0.1): (0.197, 0.037),
    (5, 0.5): (0.196, 0.005),
}


def dense_rho_static(n, k, alpha):
    """lambda_min(Q_P^{-1} Q) / K from dense linear algebra on one partitioning.

    Every equal-size partitioning of the uniform-correlation matrix gives
    the same value, so a single sampled one stands for the static scheme.
    """
    q = gen_uniform_q(n, alpha)
    part = sample_uniform_partition(n, k, seed=k)
    eigs = np.linalg.eigvals(np.linalg.solve(block_mask(q, part), q))
    return float(eigs.real.min()) / k


def test_criterion_1_rate_tables():
    """Closed-form rates at n = 200 against the six reference cells.

    Each static cell is also checked against dense linear algebra, computed
    outside the timed region.
    """
    start = time.perf_counter()
    forms = {(k, alpha): uniform_closed_form(RATE_N, k, alpha) for k, alpha in RATE_CELLS}
    elapsed = time.perf_counter() - start
    mismatches = []
    for (k, alpha), (rho_dyn, rho_stat) in RATE_CELLS.items():
        form = forms[(k, alpha)]
        for label, value, reference in (
                ("dynamic", form.rho_dynamic, rho_dyn),
                ("static", form.rho_static, rho_stat),
                ("static dense", dense_rho_static(RATE_N, k, alpha), rho_stat)):
            if abs(value - reference) > 0.001:
                mismatches.append(f"K={k} alpha={alpha} {label}: {value:.6f} vs {reference}")
    ok = not mismatches and elapsed < 1.0
    report_line(1, ok, f"6 table cells within 0.001 (static cells also by dense "
                f"linear algebra) in {elapsed:.3f}s"
                if ok else f"mismatched cells: {mismatches} (elapsed {elapsed:.3f}s)")
    assert elapsed < 1.0
    assert not mismatches, (
        "rates differ from the reference cells: " + "; ".join(mismatches))


@pytest.mark.slow
def test_criterion_2_mc_matches_closed_form():
    """Monte Carlo estimate vs closed-form dynamic eigenvalue at n = 200."""
    start = time.perf_counter()
    failures = []
    details = []
    for k in (2, 5, 8):
        for alpha in (0.1, 0.5):
            q = gen_uniform_q(200, alpha)
            seed = derive_seed(2026, k, int(alpha * 100))
            value, stderr = expected_lambda_mc(q, k, 2000, seed)
            target = uniform_closed_form(200, k, alpha).lambda_dynamic
            diff = abs(value - target)
            tol = 0.01 + 3.0 * stderr
            details.append(f"K={k} a={alpha}: |{value:.5f}-{target:.5f}|="
                           f"{diff:.5f} tol={tol:.5f}")
            if diff > tol:
                failures.append(details[-1])
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    report_line(2, ok, f"6 grid points within 0.01 + 3 se in {elapsed:.1f}s")
    if failures:
        print("\n".join(details))
    assert elapsed < 120.0
    assert not failures, failures


@pytest.mark.slow
def test_criterion_3_enumeration_oracle():
    """MC vs exact enumeration at n = 6, plus mean_P lambda_min <= E <= 1.

    E = lambda_min(E[Q_P^{-1}] Q) is bounded below by the mean of
    lambda_min(Q_P^{-1} Q) over partitionings, because lambda_min is concave
    and E[Q_P^{-1}] Q is similar to E[Q^{1/2} Q_P^{-1} Q^{1/2}]. It is bounded
    above by 1, because tr(Q_P^{-1} Q) = n for every P (Q - Q_P vanishes on
    the diagonal blocks), so the real positive eigenvalues of E[Q_P^{-1}] Q
    average 1. E <= max_P lambda_min(Q_P^{-1} Q) is not promised on generic
    SPD matrices, since averaging repairs every partitioning's weak direction
    at once; the count of cases with E > max is printed, not asserted. On
    block-separable structures E <= max does hold, and
    test_spectral.py::test_full_sandwich_on_separable_structures checks it.
    """
    rng = np.random.default_rng(20260810)
    mc_failures = []
    bound_failures = []
    above_max = 0
    for trial in range(20):
        g = rng.standard_normal((6, 12))
        q = g @ g.T / 12 + 0.1 * np.eye(6)
        for k in (2, 3):
            exact = expected_lambda_exact(q, k)
            value, _ = expected_lambda_mc(q, k, 10_000, derive_seed(99, trial, k))
            if abs(value - exact) > 0.01:
                mc_failures.append(f"trial={trial} K={k}: |{value:.5f}-{exact:.5f}|")
            sampled = [lambda_min_precond(q, p) for p in enumerate_partitions(6, k)]
            mean = float(np.mean(sampled))
            if not (mean - 1e-10 <= exact <= 1.0 + 1e-10):
                bound_failures.append(f"trial={trial} K={k}: mean={mean:.5f} E={exact:.5f}")
            above_max += exact > max(sampled)
    ok = not mc_failures and not bound_failures
    report_line(3, ok, "MC/enumeration agree within 0.01 and mean <= E <= 1 hold "
                f"(E > max on {above_max} of 40 cases)"
                if ok else f"MC failures: {mc_failures or 'none'}; "
                f"bound failures: {bound_failures or 'none'}")
    assert not mc_failures, mc_failures
    assert not bound_failures, (
        "mean_P lambda_min(Q_P^{-1} Q) <= E <= 1 fails (both bounds hold for every "
        "SPD Q; E <= max is checked on block-separable structures by "
        "test_spectral.py::test_full_sandwich_on_separable_structures): "
        + "; ".join(bound_failures))


def test_criterion_4_separable_toy():
    """The explicit 4x4 two-block matrix: enumerated and averaged eigenvalues."""
    failures = []
    for alpha in (0.2, 0.6, 0.9):
        q = gen_separable_q(4, 2, alpha)
        sampled = sorted(lambda_min_precond(q, p) for p in enumerate_partitions(4, 2))
        expected_samples = sorted([1.0 - alpha, 1.0 - alpha, 1.0])
        if not np.allclose(sampled, expected_samples, atol=1e-10, rtol=0.0):
            failures.append(f"alpha={alpha} sampled={sampled}")
        e_value = expected_lambda_exact(q, 2)
        target = 1.0 / 3.0 + (2.0 / 3.0) * (1.0 - alpha)
        if abs(e_value - target) > 1e-10:
            failures.append(f"alpha={alpha} E={e_value!r} target={target!r}")
    report_line(4, not failures,
                "toy eigenvalues (1-a, 1-a, 1) and 1/3 + 2/3 (1-a) to 1e-10"
                if not failures else str(failures))
    assert not failures, failures


@pytest.mark.slow
def test_criterion_5_rate_bound_desk_scale():
    """Dynamic mean under the rate bound; static per-iteration contraction."""
    start = time.perf_counter()
    n, k, alpha = RATE_N, 2, 0.1
    rho_dyn, rho_stat = RATE_CELLS[(k, alpha)]
    h = gen_uniform_q(n, alpha)
    c = np.random.default_rng(2026).standard_normal(n)
    obj = Quadratic(h, c)

    config = SolverConfig(k_blocks=k, scheme="dynamic", seed=7, n_iters=50,
                          step=FixedStep(0.5))
    traces = run_repeats(obj, config, 100)
    mean = np.mean([t.subopts for t in traces], axis=0)
    eps0 = mean[0]
    bound_failures = [
        f"t={t}: mean={mean[t]:.3e} bound={1.05 * (1 - rho_dyn) ** t * eps0:.3e}"
        for t in range(51) if mean[t] > 1.05 * (1.0 - rho_dyn) ** t * eps0
    ]

    static = run(obj, SolverConfig(k_blocks=k, scheme="static", seed=7, n_iters=50,
                                   step=FixedStep(0.5)))
    factor = (static.subopts[50] / static.subopts[5]) ** (1.0 / 45.0)
    lo, hi = 0.94 * (1.0 - rho_stat), 1.0 - rho_stat
    static_ok = lo <= factor <= hi
    elapsed = time.perf_counter() - start

    ok = not bound_failures and static_ok and elapsed < 60.0
    report_line(5, ok, f"dynamic mean under 1.05 (1-{rho_dyn})^t for t<=50; static "
                f"per-iteration factor {factor:.4f} in [{lo:.4f}, {hi:.4f}] "
                f"({elapsed:.1f}s)")
    assert elapsed < 60.0
    assert not bound_failures, bound_failures
    assert static_ok, f"static contraction factor {factor:.4f} outside [{lo:.4f}, {hi:.4f}]"


def _violin_dominance(path, name, expect_shape=None):
    ds = read_libsvm(path)
    if expect_shape is not None:
        assert (ds.n_samples, ds.n_features) == expect_shape, (
            f"{name}: expected {expect_shape}, got {(ds.n_samples, ds.n_features)}")
    gram = ds.a.T @ ds.a
    gram = np.asarray(gram.todense(), dtype=float)
    q = 0.5 * (gram + gram.T) + np.eye(ds.n_features)
    report = build_report(q, 5, n_samples=1000, seed=31)
    best_static = float(report.lambdas.max())
    return report.lambda_min_expected, best_static


def test_criterion_6_violin_dominance_real_data():
    """Repartitioning eigenvalue strictly above 1000 sampled partitionings."""
    mushroom = dataset_path(MUSHROOM_FILES)
    covtype = dataset_path(COVTYPE_FILES)
    if mushroom is None or covtype is None:
        missing = [n for n, p in (("mushroom", mushroom), ("covtype", covtype))
                   if p is None]
        skip_line(6, f"{'/'.join(missing)}: {NO_DATASET_MSG}")
        pytest.skip(f"criterion 6 needs {missing}: {NO_DATASET_MSG}")
    results = []
    for path, name, shape, budget in ((mushroom, "mushroom", (8124, 112), 300.0),
                                      (covtype, "covtype", (581012, 54), 300.0)):
        start = time.perf_counter()
        expected, best_static = _violin_dominance(path, name, shape)
        elapsed = time.perf_counter() - start
        results.append((name, expected, best_static, elapsed, budget))
    ok = all(e > b and t < budget for _, e, b, t, budget in results)
    report_line(6, ok, "; ".join(
        f"{name}: E={e:.5f} > max sampled {b:.5f} ({t:.0f}s)"
        for name, e, b, t, _ in results))
    for name, e, b, t, budget in results:
        assert t < budget, f"{name} took {t:.0f}s"
        assert e > b, f"{name}: expected {e} does not exceed best sampled {b}"


def test_criterion_7_logistic_ordering_real_data():
    """Median dynamic vs static suboptimality on regularized logistic loss."""
    mushroom = dataset_path(MUSHROOM_FILES)
    if mushroom is None:
        skip_line(7, f"mushroom: {NO_DATASET_MSG}")
        pytest.skip(f"criterion 7 needs mushroom: {NO_DATASET_MSG}")
    start = time.perf_counter()
    ds = read_libsvm(mushroom, logistic_labels=True)
    obj = logistic(ds.a, ds.y, lam=1.0)
    finals = {}
    for scheme in ("static", "dynamic"):
        config = SolverConfig(k_blocks=8, scheme=scheme, seed=17, n_iters=100,
                              model=EXACT_HESSIAN, step=FixedStep(1.0 / 8.0))
        traces = run_repeats(obj, config, 10)
        finals[scheme] = float(np.median([t.subopts[-1] for t in traces]))
    elapsed = time.perf_counter() - start
    ok = finals["dynamic"] <= finals["static"] and elapsed < 120.0
    report_line(7, ok, f"median subopt at t=100: dynamic {finals['dynamic']:.3e} "
                f"<= static {finals['static']:.3e} ({elapsed:.0f}s)")
    assert elapsed < 120.0
    assert finals["dynamic"] <= finals["static"], finals


def test_criterion_8_property_suites(tmp_path):
    """Gradient oracle, spectrum bound, monotonicity, determinism, round trip."""
    from test_objectives import central_diff_gradient

    failures = []
    rng = np.random.default_rng(88)

    # gradient vs central differences, 100 random points per objective
    a = rng.standard_normal((15, 8)) / 4.0
    y_real = rng.standard_normal(15)
    y_pm = np.where(rng.standard_normal(15) >= 0, 1.0, -1.0)
    g = rng.standard_normal((8, 16))
    objs = {
        "quadratic": Quadratic(g @ g.T / 16 + 0.2 * np.eye(8), rng.standard_normal(8)),
        "ridge": ridge(a, y_real, lam=0.3),
        "logistic": logistic(a, y_pm, lam=0.3),
    }
    for name, obj in objs.items():
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(obj.n)
            g_fd = central_diff_gradient(obj, x)
            g_an = obj.gradient(x)
            worst = max(worst, np.linalg.norm(g_fd - g_an)
                        / max(1.0, np.linalg.norm(g_an)))
        if worst > 1e-5:
            failures.append(f"gradient oracle {name}: rel err {worst:.2e}")

    # lambda_max of the whitened matrix never exceeds K
    for trial in range(100):
        n = int(rng.integers(4, 14))
        k = int(rng.integers(1, n + 1))
        gq = rng.standard_normal((n, 2 * n))
        q = gq @ gq.T / (2 * n) + 0.1 * np.eye(n)
        part = sample_uniform_partition(n, k, seed=trial)
        lam_max = np.linalg.eigvalsh(BlockCholesky(diagonal_blocks(q, part), part).whiten(q))[-1]
        if lam_max > k + 1e-8:
            failures.append(f"whitened lambda_max {lam_max} > K={k}")

    # per-step monotone decrease for quadratics at eta = 1/K
    for trial in range(20):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, n + 1))
        gq = rng.standard_normal((n, 2 * n))
        obj = Quadratic(gq @ gq.T / (2 * n) + 0.2 * np.eye(n), rng.standard_normal(n))
        trace = run(obj, SolverConfig(k_blocks=k, scheme="dynamic", seed=trial,
                                      n_iters=10))
        if not np.all(np.diff(trace.fvals) <= 1e-12):
            failures.append(f"non-monotone quadratic decrease at trial {trial}")

    # K = 1 converges in one step
    gq = rng.standard_normal((10, 20))
    obj = Quadratic(gq @ gq.T / 20 + 0.2 * np.eye(10), rng.standard_normal(10))
    trace = run(obj, SolverConfig(k_blocks=1, scheme="static", seed=0, n_iters=1,
                                  step=FixedStep(1.0)))
    if trace.subopts[1] > 1e-12:
        failures.append(f"one-step suboptimality {trace.subopts[1]:.2e}")

    # CLI trace bytes identical for --threads 1 and 4 (data rows; the
    # provenance comment necessarily echoes the differing flag)
    qfile = tmp_path / "u"
    cli_main(["gen", "--kind", "uniform", "--n", "24", "--alpha", "0.2",
              "--seed", "0", "--out", str(qfile)])
    contents = {}
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        code = cli_main(["solve", "--objective", "quadratic", "--q",
                         str(qfile) + ".q", "--k", "2", "--scheme", "both",
                         "--t", "12", "--repeats", "5", "--threads", str(threads),
                         "--seed", "11", "--out", str(out)])
        assert code == 0
        contents[threads] = [
            (tmp_path / f"t{threads}_{scheme}_runs.csv").read_text().split("\n", 1)[1]
            for scheme in ("static", "dynamic")]
    if contents[1] != contents[4]:
        failures.append("trace rows differ between --threads 1 and 4")

    # LIBSVM write/read round trip is bit exact
    import scipy.sparse
    from blockprec import Dataset
    dense = rng.standard_normal((10, 6)) * np.e
    dense[rng.random((10, 6)) < 0.4] = 0.0
    ds = Dataset(scipy.sparse.csr_matrix(dense), rng.standard_normal(10))
    one, two = tmp_path / "a.libsvm", tmp_path / "b.libsvm"
    write_libsvm(one, ds)
    write_libsvm(two, read_libsvm(one, n_features=6))
    if one.read_bytes() != two.read_bytes():
        failures.append("libsvm round trip not bit exact")

    report_line(8, not failures, "gradient oracle, spectrum bound, monotone "
                "decrease, one-step K=1, thread determinism, libsvm round trip"
                if not failures else str(failures))
    assert not failures, failures
