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
nonsymmetric products (L^{-1} Q L^{-T} with Q_P = L L^T for a single
partitioning, L^T Q L with E = L L^T for expectations), which preserve
the spectrum exactly and keep the eigensolver on symmetric matrices.
"""

import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import InvalidArgumentError, SingularBlockError, UnsupportedLossError
from .objectives import gram_matrix
from .partition import (
    DEFAULT_ENUMERATION_CAP,
    BlockCholesky,
    Partitioning,
    check_symmetric_matrix,
    diagonal_blocks,
    enumerate_partitions,
    sample_uniform_partition,
)
from .seeding import derive_seed, map_ordered

N_BATCHES = 10


def _min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a matrix symmetric up to roundoff, symmetrized here."""
    return float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])


def lambda_min_precond(q, part: Partitioning) -> float:
    """Smallest eigenvalue of Q_P^{-1} Q."""
    return _min_eigenvalue(BlockCholesky(diagonal_blocks(q, part), part).whiten(q))


def lambda_min_of_expected(expected_inverse, q) -> float:
    """Smallest eigenvalue of E Q given a symmetric SPD mean-of-inverses E.

    Uses the symmetric form L^T Q L with E = L L^T, similar to E Q.
    """
    e = check_symmetric_matrix(np.asarray(expected_inverse), tol=1e-8)
    try:
        lower = scipy.linalg.cholesky(e, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        raise InvalidArgumentError("mean of inverses is not positive definite") from None
    return _min_eigenvalue(lower.T @ q @ lower)


def _mean_inverse(q, parts):
    """Mean of Q_P^{-1} over the partitionings ``parts`` of a validated Q.

    Per chunk of at most max(n^2, 2^16) stacked entries, the blocks of each
    size form one stack that one batched Cholesky inverts and one bincount
    over flat indices n*i + j sums into place. A block that is not positive
    definite raises the SingularBlockError that BlockCholesky raises for it.
    """
    n = q.shape[0]
    total = np.zeros(n * n)
    step = max(n * n, 2**16) // int(np.sum(parts[0].block_sizes() ** 2))
    for start in range(0, len(parts), step):
        chunk = parts[start:start + step]
        # Coordinates by (block size, chunk-wide block id), ascending within a block.
        ids = np.concatenate([p.assignment + n * s for s, p in enumerate(chunk)])
        sizes = np.bincount(ids)[ids]
        order = np.lexsort((ids, sizes))
        coords, sizes = order % n, sizes[order]
        for size in np.unique(sizes):
            idx = coords[sizes == size].reshape(-1, size)
            where = idx[:, :, None] * n + idx[:, None, :]
            try:
                inv_lower = np.linalg.inv(np.linalg.cholesky(q.ravel()[where]))
            except np.linalg.LinAlgError:
                for part in chunk:
                    # raises SingularBlockError naming the block
                    BlockCholesky(diagonal_blocks(q, part), part)
                raise
            inverse = inv_lower.transpose(0, 2, 1) @ inv_lower
            total += np.bincount(where.ravel(), inverse.ravel(), minlength=n * n)
    return (total / len(parts)).reshape(n, n)


def _sampled_partitions(n, k_blocks, n_samples, seed):
    """The Monte Carlo partitionings: sample i is drawn with seed derive_seed(seed, i)."""
    if n_samples < 1:
        raise InvalidArgumentError("n_samples must be at least 1")
    return [sample_uniform_partition(n, k_blocks, derive_seed(seed, i)) for i in range(n_samples)]


def expected_lambda_mc(q, k_blocks: int, n_samples: int, seed: int):
    """Monte Carlo estimate of lambda_min(E[Q_P^{-1}] Q) with standard error.

    Returns (estimate, stderr). The estimate is lambda_min of the
    congruence L^T Q L, E = L L^T, built from the full mean of sampled
    block inverses; the standard error comes from the spread of the same
    statistic over 10 sample batches, streamed into that mean one by one.
    Deterministic given the seed.
    """
    q = check_symmetric_matrix(q)
    parts = _sampled_partitions(q.shape[0], k_blocks, n_samples, seed)
    bounds = np.linspace(0, n_samples, min(N_BATCHES, n_samples) + 1).astype(int)
    total = np.zeros_like(q)
    batch_values = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mean = _mean_inverse(q, parts[lo:hi])
        batch_values.append(lambda_min_of_expected(mean, q))
        total += (hi - lo) * mean
    if len(batch_values) < 2:
        return batch_values[0], 0.0
    stderr = float(np.std(batch_values, ddof=1) / np.sqrt(len(batch_values)))
    return lambda_min_of_expected(total / n_samples, q), stderr


def expected_inverse_exact(q, k_blocks: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """Exact mean of Q_P^{-1} over all equal-size partitionings."""
    q = check_symmetric_matrix(q)
    return _mean_inverse(q, enumerate_partitions(q.shape[0], k_blocks, cap=cap))


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


def _check_parts(parts, n) -> int:
    """The K of ``parts``: a non-empty sequence of Partitionings over n coordinates, one K."""
    if not (isinstance(parts, Sequence) and parts
            and all(isinstance(p, Partitioning) for p in parts)):
        raise InvalidArgumentError("parts must be a non-empty sequence of Partitionings")
    k = parts[0].k_blocks
    for i, p in enumerate(parts):
        if (p.n, p.k_blocks) != (n, k):
            raise InvalidArgumentError(f"partitioning {i} has {p.k_blocks} blocks over {p.n} "
                                       f"coordinates, not {k} over {n}")
    return k


def rate_quadratic(q, parts) -> float:
    """Linear rate constant rho = lambda_min(E[Q_P^{-1}] Q) / K for exact quadratic curvature.

    The expectation is the mean over ``parts``, which share one K: ``[part]``
    gives the static rate of one partitioning, ``enumerate_partitions(n, k)``
    the exact repartitioning rate, and Monte Carlo draws an estimate of it.
    """
    q = check_symmetric_matrix(q)
    k = _check_parts(parts, q.shape[0])
    return lambda_min_of_expected(_mean_inverse(q, parts), q) / k


def rate_glm(a, gamma_loss: float, mu_loss: float | None, parts,
             lambda_shift: float = 0.0) -> float:
    """Rate constant mu/(K gamma) * lambda_min(A E[M_P^{-1}] A^T) for GLMs.

    The expectation is the mean over ``parts``, as in ``rate_quadratic``.
    M = A^T A (plus ``lambda_shift`` I when its blocks would be singular)
    supplies the masked inverses. For wide products (more rows than
    columns) the zero part of the spectrum of A E A^T is structural, so
    lambda_min is taken over the equivalent nonzero spectrum via the
    n x n congruence L^T A^T A L with E = L L^T.
    """
    if mu_loss is None:
        raise UnsupportedLossError(
            "no curvature-floor constant is known for this loss; rate unavailable")
    if not (0.0 < gamma_loss < np.inf and 0.0 <= mu_loss < np.inf
            and 0.0 <= lambda_shift < np.inf):
        raise InvalidArgumentError(
            "need 0 < gamma_loss < inf and 0 <= mu_loss, lambda_shift < inf, got "
            f"gamma_loss={gamma_loss}, mu_loss={mu_loss}, lambda_shift={lambda_shift}")
    if not scipy.sparse.issparse(a):
        a = np.asarray(a, dtype=float)
    m_rows, n = a.shape
    k = _check_parts(parts, n)
    gram = gram_matrix(a)
    shifted = check_symmetric_matrix(gram + lambda_shift * np.eye(n) if lambda_shift else gram)
    try:
        expected = _mean_inverse(shifted, parts)
    except SingularBlockError as exc:
        raise SingularBlockError(
            exc.block, f"{exc}; pass lambda_shift > 0 to regularize the masked blocks"
        ) from exc
    if m_rows <= n:
        lam = _min_eigenvalue(np.asarray(a @ (a @ expected).T))
    else:
        lam = lambda_min_of_expected(expected, gram)
    return mu_loss / (k * gamma_loss) * lam


@dataclass(frozen=True)
class GeneralModelParams:
    """Constants of the general auxiliary-model analysis, for rate reporting.

    xi weights the quadratic model in the upper bound on f, alpha_decrease
    is the guaranteed per-step contraction of the model optimum, and
    l_lipschitz is the Lipschitz constant of f. These are never enforced
    at runtime.
    """

    xi: float = 1.0
    alpha_decrease: float = 0.0
    l_lipschitz: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.xi <= 1.0:
            raise InvalidArgumentError(f"xi must lie in (0, 1], got {self.xi}")
        if not 0.0 <= self.alpha_decrease < 1.0:
            raise InvalidArgumentError(
                f"alpha_decrease must lie in [0, 1), got {self.alpha_decrease}")
        if not 0.0 < self.l_lipschitz < np.inf:
            raise InvalidArgumentError(
                f"l_lipschitz must be positive and finite, got {self.l_lipschitz}")


@dataclass(frozen=True)
class GeneralRate:
    """Per-iteration decrease constant and contraction for a general model."""

    rho: float
    contraction: float


def rate_general(q, parts, params: GeneralModelParams) -> GeneralRate:
    """Decrease constant rho = xi/(2K) lambda_min(Q^T E[Q_P^{-1}] Q).

    The expectation is the mean over ``parts``, as in ``rate_quadratic``.
    Also reports the induced contraction factor 1 - rho (1 - alpha)/L.
    Reporting only; nothing here is enforced on solver runs.
    """
    q = check_symmetric_matrix(q)
    k = _check_parts(parts, q.shape[0])
    lam = _min_eigenvalue(q.T @ _mean_inverse(q, parts) @ q)
    rho = params.xi / (2.0 * k) * lam
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

    The distribution of lambda_min(Q_P^{-1} Q) runs on ``threads`` workers.
    In sampled mode it and the Monte Carlo mean each use ``n_samples``
    partitionings from disjoint derived seed streams; in exact mode both
    use every equal-size partitioning, enumerated once.
    """
    q = check_symmetric_matrix(q)
    n = q.shape[0]
    if exact:
        parts = enumerate_partitions(n, k_blocks, cap=cap)
        keys = range(len(parts))
    else:
        violin_seed = derive_seed(seed, 0)
        keys = [derive_seed(violin_seed, i) for i in range(n_samples)]
        parts = [sample_uniform_partition(n, k_blocks, key) for key in keys]
    values = map_ordered(lambda part: lambda_min_precond(q, part), parts, threads)
    samples = [SpectralSample(key, lam) for key, lam in zip(keys, values)]
    if exact:
        value, stderr = lambda_min_of_expected(_mean_inverse(q, parts), q), None
    else:
        value, stderr = expected_lambda_mc(q, k_blocks, n_samples, derive_seed(seed, 1))
    return SpectralReport(n, k_blocks, samples, value, "exact" if exact else "mc",
                          len(samples), stderr, closed_form)
