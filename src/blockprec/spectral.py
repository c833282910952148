"""Spectral quantities governing the convergence of block preconditioning.

For an SPD matrix Q and a partitioning P, the smallest eigenvalue of
Lambda_P = Q_P^{-1} Q measures how much curvature information the
block-diagonal mask preserves; the per-iteration rate constant is
rho = lambda_min / K. Static partitioning is governed by lambda_min of a
single Lambda_P, repartitioning by lambda_min(E[Q_P^{-1}] Q) with the
expectation over uniformly random equal-size partitionings. The
expectation is computed exactly (full enumeration) at small scale and by
Monte Carlo otherwise, and in closed form for uniform-correlation and
block-separable structures.

All lambda_min computations go through symmetric congruences of the
nonsymmetric products (L^{-1} Q L^{-T} for a single partitioning,
E^{1/2} Q E^{1/2} for expectations), which preserve the spectrum exactly
and keep the eigensolver on symmetric matrices.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import InvalidArgumentError, SingularBlockError, UnsupportedLossError
from .objectives import gram_matrix
from .partition import (
    DEFAULT_ENUMERATION_CAP,
    BlockCholesky,
    Partitioning,
    check_symmetric_matrix,
    enumerate_partitions,
    sample_uniform_partition,
)
from .seeding import derive_seed
from .solver import STATIC, SCHEMES, GeneralModelParams

N_BATCHES = 10


def precond_spectrum(q, part: Partitioning, jitter: float = 0.0):
    """All eigenvalues of Q_P^{-1} Q, ascending.

    Computed from the symmetric congruence L^{-1} Q L^{-T} with
    Q_P = L L^T, which is similar to Q_P^{-1} Q.
    """
    chol = BlockCholesky(q, part, jitter=jitter)
    return np.linalg.eigvalsh(chol.whiten(q))


def lambda_min_precond(q, part: Partitioning, jitter: float = 0.0) -> float:
    """Smallest eigenvalue of Q_P^{-1} Q."""
    return float(precond_spectrum(q, part, jitter=jitter)[0])


def _lambda_min(chol, q) -> float:
    """lambda_min(Q_P^{-1} Q) from an existing factorization of Q_P."""
    return float(np.linalg.eigvalsh(chol.whiten(q))[0])


def lambda_min_of_expected(expected_inverse, q) -> float:
    """Smallest eigenvalue of E Q given a symmetric SPD mean-of-inverses E.

    Uses the symmetric form E^{1/2} Q E^{1/2}, similar to E Q.
    """
    e = check_symmetric_matrix(np.asarray(expected_inverse), tol=1e-8)
    w, v = np.linalg.eigh(0.5 * (e + e.T))
    if w[0] <= 0.0:
        raise InvalidArgumentError(
            f"mean of inverses is not positive definite (lambda_min = {w[0]:.3e})")
    s = (v * np.sqrt(w)) @ v.T
    prod = s @ q @ s
    return float(np.linalg.eigvalsh(0.5 * (prod + prod.T))[0])


def _map_ordered(fn, items, threads):
    """Apply fn over items, yielding results in input order.

    With threads > 1 the work runs on a pool but results are still
    consumed in index order (bounded chunks keep memory flat), so any
    downstream accumulation is independent of the thread count.
    """
    if threads <= 1:
        for item in items:
            yield fn(item)
        return
    chunk = max(4 * threads, 16)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for start in range(0, len(items), chunk):
            yield from pool.map(fn, items[start:start + chunk])


def expected_inverse_mc(q, k_blocks: int, n_samples: int, seed: int, threads: int = 1):
    """Monte Carlo mean of Q_P^{-1} over sampled partitionings.

    Returns (mean, batch_means) where batch_means are the per-batch means
    used for standard-error estimation. Sample i uses the derived seed
    derive_seed(seed, i); accumulation happens batch by batch in index
    order, so the result is bit-identical for any thread count.
    """
    q = check_symmetric_matrix(q)
    if n_samples < 1:
        raise InvalidArgumentError("n_samples must be at least 1")
    n = q.shape[0]

    def inverse_for(i):
        part = sample_uniform_partition(n, k_blocks, derive_seed(seed, i))
        return BlockCholesky(q, part).inverse()

    n_batches = min(N_BATCHES, n_samples)
    bounds = np.linspace(0, n_samples, n_batches + 1).astype(int)
    batch_means = []
    total = np.zeros((n, n))
    for b in range(n_batches):
        indices = list(range(bounds[b], bounds[b + 1]))
        acc = np.zeros((n, n))
        for inv in _map_ordered(inverse_for, indices, threads):
            acc += inv
        batch_means.append(acc / len(indices))
        total += acc
    return total / n_samples, batch_means


def expected_lambda_mc(q, k_blocks: int, n_samples: int, seed: int, threads: int = 1):
    """Monte Carlo estimate of lambda_min(E[Q_P^{-1}] Q) with standard error.

    Returns (estimate, stderr). The estimate is lambda_min of the
    symmetrized E^{1/2} Q E^{1/2} built from the full mean of sampled
    block inverses; the standard error comes from the spread of the same
    statistic over 10 sample batches. Deterministic given the seed.
    """
    mean, batch_means = expected_inverse_mc(q, k_blocks, n_samples, seed, threads=threads)
    value = lambda_min_of_expected(mean, q)
    if len(batch_means) < 2:
        return value, 0.0
    batch_values = [lambda_min_of_expected(b, q) for b in batch_means]
    stderr = float(np.std(batch_values, ddof=1) / np.sqrt(len(batch_values)))
    return value, stderr


def _exact_mean_inverse(q, k_blocks, cap, lambdas=None):
    """Mean of Q_P^{-1} over all equal-size partitionings of a validated Q.

    With a list ``lambdas``, each lambda_min(Q_P^{-1} Q) is appended to it
    from the same factorization, in enumeration order.
    """
    parts = enumerate_partitions(q.shape[0], k_blocks, cap=cap)
    total = np.zeros_like(q)
    for part in parts:
        chol = BlockCholesky(q, part)
        if lambdas is not None:
            lambdas.append(_lambda_min(chol, q))
        total += chol.inverse()
    return total / len(parts)


def expected_inverse_exact(q, k_blocks: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """Exact mean of Q_P^{-1} over all equal-size partitionings."""
    return _exact_mean_inverse(check_symmetric_matrix(q), k_blocks, cap)


def expected_lambda_exact(q, k_blocks: int, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Exact lambda_min(E[Q_P^{-1}] Q) by enumerating all partitionings."""
    return lambda_min_of_expected(expected_inverse_exact(q, k_blocks, cap=cap), q)


@dataclass(frozen=True)
class UniformClosedForm:
    """Closed-form eigenvalues for the uniform-correlation structure.

    For unit diagonal and constant off-diagonal alpha, with K equal blocks
    of size n_k = n/K: the block inverse times the masked complement has
    constant off-diagonal-block entries

        epsilon = alpha / (1 + (n_k - 1) alpha),

    a single static partitioning gives lambda_min = 1 - epsilon n_k, and
    averaging over partitionings thins epsilon by the probability
    p = n_k (K - 1)/(n - 1) that an off-diagonal entry is masked out,
    giving lambda_min = 1 - epsilon p.
    """

    n: int
    k_blocks: int
    alpha: float
    epsilon: float
    lambda_static: float
    lambda_dynamic: float

    @property
    def rho_static(self) -> float:
        return self.lambda_static / self.k_blocks

    @property
    def rho_dynamic(self) -> float:
        return self.lambda_dynamic / self.k_blocks

    def to_json_dict(self):
        return {"n": self.n, "k": self.k_blocks, "alpha": self.alpha,
                "epsilon": self.epsilon,
                "lambda_static": self.lambda_static,
                "lambda_dynamic": self.lambda_dynamic,
                "rho_static": self.rho_static,
                "rho_dynamic": self.rho_dynamic}


def uniform_closed_form(n: int, k_blocks: int, alpha: float) -> UniformClosedForm:
    """Closed-form static/dynamic eigenvalues for uniform correlations.

    Requires K | n and alpha in [0, 1). For K = 1 the mask keeps the whole
    matrix and both eigenvalues are exactly 1 (epsilon = 0 by convention,
    as for alpha = 0).
    """
    if k_blocks < 1 or n < 1 or n % k_blocks != 0:
        raise InvalidArgumentError(f"k must divide n, got n={n}, k={k_blocks}")
    if not 0.0 <= alpha < 1.0:
        raise InvalidArgumentError(f"alpha must lie in [0, 1), got {alpha}")
    nk = n // k_blocks
    if k_blocks == 1 or alpha == 0.0:
        epsilon = 0.0
    else:
        epsilon = alpha / (1.0 + (nk - 1) * alpha)
    p = nk * (k_blocks - 1) / (n - 1) if n > 1 else 0.0
    return UniformClosedForm(n, k_blocks, alpha, epsilon,
                             1.0 - epsilon * nk, 1.0 - epsilon * p)


@dataclass(frozen=True)
class SeparableToy:
    """Analytic eigenvalues for the 4x4 two-block separable structure.

    With two 2x2 blocks of off-diagonal weight alpha there are three
    equal-size partitionings: the one aligned with the blocks keeps the
    whole matrix (lambda_min = 1), the two misaligned ones keep only the
    diagonal (lambda_min = 1 - alpha), and the average over all three
    gives 1/3 + 2/3 (1 - alpha).
    """

    alpha: float
    lambda_aligned: float
    lambda_misaligned: float
    lambda_dynamic: float


def separable_toy(alpha: float) -> SeparableToy:
    if not 0.0 <= alpha < 1.0:
        raise InvalidArgumentError(f"alpha must lie in [0, 1), got {alpha}")
    return SeparableToy(alpha, 1.0, 1.0 - alpha, 1.0 / 3.0 + (2.0 / 3.0) * (1.0 - alpha))


def _expected_inverse(q, k_blocks, scheme, partitioning, mc_samples, seed, exact, cap,
                      threads):
    """E[Q_P^{-1}] of a validated Q: the static/exact/MC dispatch all rates share."""
    if scheme not in SCHEMES:
        raise InvalidArgumentError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if scheme == STATIC:
        if partitioning is None:
            raise InvalidArgumentError("the static scheme needs an explicit partitioning")
        return BlockCholesky(q, partitioning).inverse()
    if exact:
        return _exact_mean_inverse(q, k_blocks, cap)
    return expected_inverse_mc(q, k_blocks, mc_samples, seed, threads=threads)[0]


def rate_quadratic(q, k_blocks: int, scheme: str, partitioning: Partitioning | None = None,
                   mc_samples: int = 1000, seed: int = 0, exact: bool = False,
                   cap: int = DEFAULT_ENUMERATION_CAP, threads: int = 1) -> float:
    """Linear rate constant rho = lambda_min / K for exact quadratic curvature.

    Static uses lambda_min(Q_P^{-1} Q) for the given partitioning; dynamic
    uses lambda_min(E[Q_P^{-1}] Q) with the expectation taken by full
    enumeration (``exact``) or Monte Carlo.
    """
    q = check_symmetric_matrix(q)
    expected = _expected_inverse(q, k_blocks, scheme, partitioning,
                                 mc_samples, seed, exact, cap, threads)
    return lambda_min_of_expected(expected, q) / k_blocks


def rate_glm(a, gamma_loss: float, mu_loss: float | None, k_blocks: int, scheme: str,
             mc_samples: int = 1000, seed: int = 0, partitioning: Partitioning | None = None,
             exact: bool = False, lambda_shift: float = 0.0,
             cap: int = DEFAULT_ENUMERATION_CAP, threads: int = 1) -> float:
    """Rate constant mu/(K gamma) * lambda_min(A E[M_P^{-1}] A^T) for GLMs.

    M = A^T A (plus ``lambda_shift`` I when its blocks would be singular)
    supplies the masked inverses. For wide products (more rows than
    columns) the zero part of the spectrum of A E A^T is structural, so
    lambda_min is taken over the equivalent nonzero spectrum via the
    n x n congruence E^{1/2} A^T A E^{1/2}.
    """
    if mu_loss is None:
        raise UnsupportedLossError(
            "no curvature-floor constant is known for this loss; rate unavailable")
    if lambda_shift < 0.0:
        raise InvalidArgumentError("lambda_shift must be non-negative")
    if not scipy.sparse.issparse(a):
        a = np.asarray(a, dtype=float)
    m_rows, n = a.shape
    gram = gram_matrix(a)
    shifted = gram + lambda_shift * np.eye(n) if lambda_shift else gram
    try:
        expected = _expected_inverse(shifted, k_blocks, scheme, partitioning,
                                     mc_samples, seed, exact, cap, threads)
    except SingularBlockError as exc:
        raise SingularBlockError(
            exc.block, f"{exc}; pass lambda_shift > 0 to regularize the masked blocks"
        ) from exc
    if m_rows <= n:
        prod = np.asarray(a @ (a @ expected).T)
        lam = float(np.linalg.eigvalsh(0.5 * (prod + prod.T))[0])
    else:
        lam = lambda_min_of_expected(expected, gram)
    return mu_loss / (k_blocks * gamma_loss) * lam


@dataclass(frozen=True)
class GeneralRate:
    """Per-iteration decrease constant and contraction for a general model."""

    rho: float
    contraction: float


def rate_general(q, k_blocks: int, params: GeneralModelParams, scheme: str,
                 mc_samples: int = 1000, seed: int = 0,
                 partitioning: Partitioning | None = None, exact: bool = False,
                 cap: int = DEFAULT_ENUMERATION_CAP, threads: int = 1) -> GeneralRate:
    """Decrease constant rho = xi/(2K) lambda_min(Q^T E[Q_P^{-1}] Q).

    Also reports the induced contraction factor 1 - rho (1 - alpha)/L.
    Reporting only; nothing here is enforced on solver runs.
    """
    q = check_symmetric_matrix(q)
    expected = _expected_inverse(q, k_blocks, scheme, partitioning,
                                 mc_samples, seed, exact, cap, threads)
    prod = q.T @ expected @ q
    lam = float(np.linalg.eigvalsh(0.5 * (prod + prod.T))[0])
    rho = params.xi / (2.0 * k_blocks) * lam
    return GeneralRate(rho, 1.0 - rho * (1.0 - params.alpha_decrease) / params.l_lipschitz)


@dataclass(frozen=True)
class SpectralSample:
    """lambda_min(Q_P^{-1} Q) for one partitioning.

    ``key`` is the partition seed (sampled mode) or the enumeration index
    (exact mode).
    """

    key: int
    lambda_min: float


@dataclass
class SpectralReport:
    """Distribution of per-partitioning eigenvalues plus the repartitioning value.

    ``samples`` holds lambda_min(Q_P^{-1} Q) across partitionings;
    ``lambda_min_expected`` is lambda_min(E[Q_P^{-1}] Q) with estimator
    metadata. rho values are the corresponding rate constants lambda / K.
    """

    n: int
    k_blocks: int
    samples: list
    lambda_min_expected: float
    estimator: str
    mc_samples: int
    stderr: float | None
    closed_form: UniformClosedForm | None = None

    @property
    def rho_dynamic(self) -> float:
        return self.lambda_min_expected / self.k_blocks

    @property
    def rho_static_min(self) -> float:
        return min(s.lambda_min for s in self.samples) / self.k_blocks

    @property
    def rho_static_max(self) -> float:
        return max(s.lambda_min for s in self.samples) / self.k_blocks

    def to_json_dict(self):
        return {
            "n": self.n,
            "k": self.k_blocks,
            "lambda_min_expected": self.lambda_min_expected,
            "estimator": ({"kind": "exact enumeration"} if self.estimator == "exact"
                          else {"kind": "mc", "samples": self.mc_samples,
                                "stderr": self.stderr}),
            "rho_dynamic": self.rho_dynamic,
            "rho_static_min": self.rho_static_min,
            "rho_static_max": self.rho_static_max,
            "samples": [{"key": int(s.key), "lambda_min": s.lambda_min}
                        for s in self.samples],
            "closed_form": self.closed_form.to_json_dict() if self.closed_form else None,
        }

    def write_json(self, fh):
        json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    def write_samples_csv(self, fh, comment: str | None = None):
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write("lambda_min\n")
        for s in self.samples:
            fh.write(f"{float(s.lambda_min)!r}\n")


def build_report(q, k_blocks: int, n_samples: int = 1000, seed: int = 0,
                 exact: bool = False, closed_form: UniformClosedForm | None = None,
                 cap: int = DEFAULT_ENUMERATION_CAP, threads: int = 1) -> SpectralReport:
    """Sample the eigenvalue distribution and estimate the repartitioning value.

    In sampled mode, ``n_samples`` partitionings feed both the
    distribution and the Monte Carlo mean (with derived, disjoint seed
    streams). In exact mode every equal-size partitioning is enumerated
    once and the expectation is the exact average.
    """
    q = check_symmetric_matrix(q)
    n = q.shape[0]
    if exact:
        lambdas = []
        value = lambda_min_of_expected(_exact_mean_inverse(q, k_blocks, cap, lambdas), q)
        samples = [SpectralSample(i, lam) for i, lam in enumerate(lambdas)]
        return SpectralReport(n, k_blocks, samples, value, "exact", len(samples), None,
                              closed_form)
    violin_seed = derive_seed(seed, 0)
    mc_seed = derive_seed(seed, 1)
    keys = [derive_seed(violin_seed, i) for i in range(n_samples)]

    def lam_for(key):
        return _lambda_min(BlockCholesky(q, sample_uniform_partition(n, k_blocks, key)), q)

    values = list(_map_ordered(lam_for, keys, threads))
    samples = [SpectralSample(k, v) for k, v in zip(keys, values)]
    value, stderr = expected_lambda_mc(q, k_blocks, n_samples, mc_seed, threads=threads)
    return SpectralReport(n, k_blocks, samples, value, "mc", n_samples, stderr, closed_form)
