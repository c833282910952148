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

Every rate and expectation is lambda_min(A E A^T) for E, the mean of
M_P^{-1} over a set of partitionings, and one pair (A, M); one kernel,
``_mean_congruence``, forms A E A^T. The pairs are (R, Q) with Q = R^T R for
a quadratic, R E R^T being similar to E Q; (A, A^T A + shift I) for a GLM,
with R, A^T A = R^T R, in place of a tall A; and (Q, Q) for the general
model. Q is factored once per call, also for the R X R^T, X = Q_P^{-1}, of
each partitioning of a report's distribution. E and every Q_P^{-1} come
from one kernel of diagonal-block inverses: a batched Cholesky per stack of
same-size blocks (partition's one block layout), then a triangular inverse
per block. A single lambda_min comes from a subset eigensolve that reads one
triangle; a Monte Carlo estimate takes one, and its standard error one
batched solve per stack of the same diagonal blocks. A report runs its mean
as one more task on the pool of its distribution's chunks. Those chunks take
one of two paths, chosen by the chunk size alone: a chunk of several
partitionings (n < 182) keeps one batched full eigensolve, while a chunk of
one (n >= 182) takes its lambda_min as 1/theta_max of R^{-T} Q_P R^{-1} by
Lanczos, from products with R^{-1} and Q_P and no n x n slab, since forming
R X R^T alone costs 4n^3 flops there. ``lambda_min_precond`` takes one
partitioning's lambda_min on L^{-1} Q L^{-T} with Q_P = L L^T instead.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dtrtri

from .data import _check_alpha, _comment_line
from .errors import InvalidArgumentError, SingularBlockError, UnsupportedLossError
from .objectives import gram_matrix
from .partition import (
    DEFAULT_ENUMERATION_CAP,
    BlockCholesky,
    Partitioning,
    _block_layout,
    _enumerate_assignments,
    _flat_indices,
    _raise_first_failure,
    _sample_assignments,
    _check_equal_blocks,
    check_symmetric_matrix,
    diagonal_blocks,
    sample_uniform_partition,  # noqa: F401  (perfbench/test_smoke.py traces it here)
)
from .seeding import _check_integer, derive_seed, map_ordered


def _min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a matrix symmetric up to roundoff, read from its lower triangle."""
    return float(scipy.linalg.eigh(m, eigvals_only=True, subset_by_index=[0, 0],
                                   check_finite=False)[0])


def lambda_min_precond(q, part: Partitioning) -> float:
    """Smallest eigenvalue of Q_P^{-1} Q."""
    return _min_eigenvalue(BlockCholesky(diagonal_blocks(q, part), part).whiten(q))


def _chunk_rows(n, entries_per_row):
    """Rows per chunk so that a chunk stacks at most max(n^2, 2^16) entries."""
    return max(n * n, 2**16) // entries_per_row


def _factor(q, assignments):
    """Upper Cholesky factor R of a validated Q = R^T R.

    If Q is not positive definite, raises the SingularBlockError of the
    first row of ``assignments`` with a singular diagonal block, which
    ``_block_factors`` finds, else InvalidArgumentError.
    """
    try:
        return scipy.linalg.cholesky(q, lower=False, check_finite=False)
    except scipy.linalg.LinAlgError:
        for _ in _block_factors(q, assignments):
            pass
        raise InvalidArgumentError("Q is not positive definite") from None


def _chunks(q, assignments):
    """Yield (start, ``_block_layout`` of the rows from ``start``) per chunk of ``assignments``.

    A chunk stacks at most max(n^2, 2^16) entries, counted on the row whose blocks hold the most.
    """
    n = q.shape[0]
    entries = sum(np.count_nonzero(assignments == block, axis=1) ** 2
                  for block in range(int(assignments.max()) + 1))
    step = _chunk_rows(n, int(np.max(entries)))
    for start in range(0, len(assignments), step):
        yield start, _block_layout(assignments[start:start + step])


def _block_stacks(q, assignments):
    """Yield (row, idx, where) per stack of ``_chunks``: ``where`` indexes ``q.ravel()``."""
    n = q.shape[0]
    for start, layout in _chunks(q, assignments):
        for ids, idx in layout:
            yield start + ids // n, idx, _flat_indices(idx, n)


def _block_factors(q, assignments):
    """Yield (row, where, lower) per stack of ``_chunks``, for a validated Q.

    One batched Cholesky factors each gathered stack, B = L L^T. If one fails,
    the walk over its chunk, as every earlier chunk passed, raises the
    SingularBlockError that BlockCholesky raises for the first row with one.
    """
    n = q.shape[0]
    for start, layout in _chunks(q, assignments):
        for ids, idx in layout:
            where = _flat_indices(idx, n)
            try:
                lower = np.linalg.cholesky(q.ravel()[where])
            except np.linalg.LinAlgError:
                _raise_first_failure(layout, [q.ravel()[_flat_indices(i, n)] for _, i in layout], n)
                raise
            yield start + ids // n, where, lower


def _block_inverses(q, assignments):
    """Yield (row, where, inverse) per stack of ``_block_factors``, for a validated Q.

    LAPACK's triangular inverse ``dtrtri`` turns each factor L into W = L^{-1}
    in place, one block at a time; ``inverse`` holds the blocks' inverses W^T W.
    """
    for row, where, inv_lower in _block_factors(q, assignments):
        # A C-ordered L is the Fortran-ordered upper factor L^T, which dtrtri
        # inverts in place; dtrtri(lower=1) on L would copy each block in and out.
        # Cholesky left a positive diagonal, so no inverse is singular.
        for factor in inv_lower:
            dtrtri(factor.T, lower=0, overwrite_c=1)
        yield row, where, inv_lower.transpose(0, 2, 1) @ inv_lower


def _mean_inverse(q, assignments):
    """Mean of Q_P^{-1} over the rows of an (S, n) assignment array, for a validated Q.

    One bincount per stack over the flat indices of ``_block_inverses`` sums
    the inverses into place.
    """
    n = q.shape[0]
    total = np.zeros(n * n)
    for _, where, inverse in _block_inverses(q, assignments):
        total += np.bincount(where.ravel(), inverse.ravel(), minlength=n * n)
    return (total / len(assignments)).reshape(n, n)


def _mean_congruence(a, m, assignments):
    """A E A^T, dense, for E = ``_mean_inverse(m, assignments)`` and a dense or sparse A."""
    e = _mean_inverse(m, assignments)
    return np.asarray(a @ (a @ e).T)


def _lambda_min_stack(q, upper, assignments):
    """lambda_min(Q_P^{-1} Q) for each row of an (S, n) assignment array.

    Q = R^T R, R = ``upper``. Each row's block inverses fill its own n x n
    slab X = Q_P^{-1}, and R X R^T, similar to Q_P^{-1} Q, goes to one
    batched eigensolve. ``build_report`` sends it chunks of several rows,
    and ``_lambda_min_lanczos`` the rows ARPACK fails on.
    """
    rows, n = assignments.shape
    # Every inverse is formed before x is allocated: interleaving the kernel's
    # temporaries with x fragments the pool threads' heaps (+13 MB peak RSS
    # at n = 600 on two threads, which only a Lanczos fallback now reaches).
    stacks = list(_block_inverses(q, assignments))
    x = np.zeros((rows, n * n))
    for row, where, inverse in stacks:
        x[row[:, None, None], where] = inverse
    x = x.reshape(rows, n, n)
    np.matmul(upper @ x, upper.T, out=x)
    return np.linalg.eigvalsh(x)[:, 0]


def _lambda_min_lanczos(q, upper, assignments):
    """lambda_min(Q_P^{-1} Q) for a (1, n) assignment array, by Lanczos.

    With Q = R^T R, R = ``upper``, M = R^{-T} Q_P R^{-1} is similar to
    Q^{-1} Q_P = (Q_P^{-1} Q)^{-1}, so lambda_min is 1/theta_max(M). ARPACK
    finds theta_max from products v -> R^{-T} (Q_P (R^{-1} v)): two
    triangular solves and one product with Q_P, masked from Q. The start
    vector is one fixed random draw, not a structured vector that a
    symmetry of Q could make orthogonal to the top eigenvector, and the
    restart generator is seeded, so the value depends on the row alone. A
    row ARPACK fails on goes to ``_lambda_min_stack``.
    """
    # Imported here: it adds about 20 ms to every CLI start, and n < 182 never uses it.
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    (row,) = assignments
    n = len(row)
    masked = np.where(row[:, None] == row, q, 0.0)

    def matvec(v):
        return dtrsv(upper, masked @ dtrsv(upper, v), trans=1, overwrite_x=1)

    try:
        theta = eigsh(LinearOperator((n, n), matvec, dtype=float), k=1, which="LA", tol=1e-13,
                      v0=np.random.default_rng(0).standard_normal(n),
                      return_eigenvectors=False, rng=0)
    except ArpackError:  # includes ArpackNoConvergence
        return _lambda_min_stack(q, upper, assignments)
    return 1.0 / theta


def _sample_seeds(n_samples, seed):
    """Per-sample seeds: sample i is drawn with seed derive_seed(seed, i)."""
    if _check_integer(n_samples, "n_samples") < 1:
        raise InvalidArgumentError("n_samples must be at least 1")
    return [derive_seed(seed, i) for i in range(n_samples)]


def _lambda_mc(q, upper, assignments):
    """(lambda_min(E Q), delta-method stderr) for the mean E over the rows of ``assignments``.

    Q = R^T R, R = ``upper``. With v the unit eigenvector of R E R^T at the
    estimate and u = R^T v, the per-row Rayleigh quotients
    s_i = u^T Q_{P_i}^{-1} u average to the estimate, which moves as their
    mean to first order in the sampling error of E; the stderr is std(s)/sqrt(S).
    """
    (value,), v = scipy.linalg.eigh(_mean_congruence(upper, q, assignments),
                                    subset_by_index=[0, 0], check_finite=False)
    u = upper.T @ v[:, 0]
    s = np.zeros(len(assignments))
    for row, idx, where in _block_stacks(q, assignments):
        ub = u[idx][:, :, None]
        s += np.bincount(row, np.sum(ub * np.linalg.solve(q.ravel()[where], ub), axis=(1, 2)),
                         minlength=len(s))
    stderr = float(np.std(s, ddof=1) / np.sqrt(len(s))) if len(s) > 1 else 0.0
    return float(value), stderr


def expected_lambda_mc(q, k_blocks: int, n_samples: int, seed: int):
    """Monte Carlo estimate of lambda_min(E[Q_P^{-1}] Q) with standard error.

    Returns (estimate, stderr): the plug-in lambda_min for the mean of the
    sampled block inverses and its delta-method standard error (0.0 for one
    sample), which measures spread only, not the low bias of lambda_min of a
    mean. Q must be positive definite. Deterministic given the seed.
    """
    q = check_symmetric_matrix(q)
    assignments = _sample_assignments(q.shape[0], k_blocks, _sample_seeds(n_samples, seed))
    return _lambda_mc(q, _factor(q, assignments), assignments)


def expected_lambda_exact(q, k_blocks: int, cap: int = DEFAULT_ENUMERATION_CAP) -> float:
    """Exact lambda_min(E[Q_P^{-1}] Q) by enumerating all partitionings."""
    q = check_symmetric_matrix(q)
    assignments = _enumerate_assignments(q.shape[0], k_blocks, cap)
    # Q is factored first, so if it is not positive definite, _factor's pass replaces the mean's.
    return _min_eigenvalue(_mean_congruence(_factor(q, assignments), q, assignments))


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
    n, k_blocks = _check_equal_blocks(n, k_blocks, "k_blocks")
    _check_alpha(alpha)
    alpha = float(alpha)
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
    _check_alpha(alpha)
    return SeparableToy(alpha, 1.0, 1.0 - alpha, 1.0 / 3.0 + (2.0 / 3.0) * (1.0 - alpha))


def _check_parts(parts, n):
    """K and the stacked assignments of ``parts``, Partitionings over n coordinates with one K."""
    if not (isinstance(parts, Sequence) and parts
            and all(isinstance(p, Partitioning) for p in parts)):
        raise InvalidArgumentError("parts must be a non-empty sequence of Partitionings")
    k = int(parts[0].k_blocks)
    for i, p in enumerate(parts):
        if (p.n, p.k_blocks) != (n, k):
            raise InvalidArgumentError(f"partitioning {i} has {p.k_blocks} blocks over {p.n} "
                                       f"coordinates, not {k} over {n}")
    return k, np.stack([p.assignment for p in parts])


def rate_quadratic(q, parts) -> float:
    """Linear rate constant rho = lambda_min(E[Q_P^{-1}] Q) / K for exact quadratic curvature.

    The expectation is the mean over ``parts``, which share one K: ``[part]``
    gives the static rate of one partitioning, ``enumerate_partitions(n, k)``
    the exact repartitioning rate, and Monte Carlo draws an estimate of it.
    """
    q = check_symmetric_matrix(q)
    k, assignments = _check_parts(parts, q.shape[0])
    return _min_eigenvalue(_mean_congruence(_factor(q, assignments), q, assignments)) / k


def rate_glm(a, gamma_loss: float, mu_loss: float | None, parts,
             lambda_shift: float = 0.0) -> float:
    """Rate constant mu/(K gamma) * lambda_min(A E[M_P^{-1}] A^T) for GLMs.

    The expectation is the mean over ``parts``, as in ``rate_quadratic``.
    M = A^T A (plus ``lambda_shift`` I when its blocks would be singular)
    supplies the masked inverses. For tall A (more rows than columns) the
    zero part of the spectrum of A E A^T is structural, so lambda_min is
    taken over R E R^T, similar to E A^T A, with A^T A = R^T R. If such an
    A lacks full column rank, A^T A is singular and, E being positive
    definite, that lambda_min is exactly 0: a zero row R returns 0.0.
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
    if a.ndim != 2 or a.shape[0] == 0:
        raise InvalidArgumentError(f"A must be 2-d with at least one row, got shape {a.shape}")
    m_rows, n = a.shape
    k, assignments = _check_parts(parts, n)
    gram = gram_matrix(a)
    shifted = check_symmetric_matrix(gram + lambda_shift * np.eye(n) if lambda_shift else gram)
    if m_rows > n:
        try:
            a = scipy.linalg.cholesky(gram, lower=False, check_finite=False)
        except scipy.linalg.LinAlgError:  # A^T A is singular and E is positive definite
            a = np.zeros((1, n))
    try:
        lam = _min_eigenvalue(_mean_congruence(a, shifted, assignments))
    except SingularBlockError as exc:
        raise SingularBlockError(
            exc.block, f"{exc}; pass lambda_shift > 0 to regularize the masked blocks"
        ) from exc
    return float(mu_loss) / (k * float(gamma_loss)) * lam


def rate_general(q, parts, xi: float = 1.0) -> float:
    """Decrease constant rho = xi/(2K) lambda_min(Q^T E[Q_P^{-1}] Q) for a general model.

    The expectation is the mean over ``parts``, as in ``rate_quadratic``.
    ``xi`` in (0, 1] weights the quadratic model in the upper bound on f; an
    analysis with per-step model decrease alpha and Lipschitz constant L
    contracts by 1 - rho (1 - alpha)/L. Reporting only; nothing here is
    enforced on solver runs.
    """
    if not 0.0 < xi <= 1.0:
        raise InvalidArgumentError(f"xi must lie in (0, 1], got {xi}")
    q = check_symmetric_matrix(q)
    k, assignments = _check_parts(parts, q.shape[0])
    return float(xi) / (2.0 * k) * _min_eigenvalue(_mean_congruence(q, q, assignments))


@dataclass(eq=False)
class SpectralReport:
    """Distribution of per-partitioning eigenvalues plus the repartitioning value.

    ``lambdas[i]`` is lambda_min(Q_P^{-1} Q) for the partitioning with key
    ``keys[i]``: its partition seed (sampled mode) or enumeration index
    (exact mode). ``lambda_min_expected`` is lambda_min(E[Q_P^{-1}] Q): in
    exact mode over every partitioning, with ``stderr`` None; in sampled
    mode the plug-in value with its delta-method ``stderr``, which measures
    spread only, not the low bias of lambda_min of a mean. rho values are
    the corresponding rate constants lambda / K.
    """

    n: int
    k_blocks: int
    keys: list
    lambdas: np.ndarray
    lambda_min_expected: float
    stderr: float | None

    @property
    def rho_dynamic(self) -> float:
        return self.lambda_min_expected / self.k_blocks

    @property
    def rho_static_min(self) -> float:
        return float(self.lambdas.min()) / self.k_blocks

    @property
    def rho_static_max(self) -> float:
        return float(self.lambdas.max()) / self.k_blocks

    def to_json_dict(self):
        return {
            "n": self.n,
            "k": self.k_blocks,
            "lambda_min_expected": self.lambda_min_expected,
            "estimator": ({"kind": "exact enumeration"} if self.stderr is None
                          else {"kind": "mc", "samples": len(self.keys), "stderr": self.stderr}),
            "rho_dynamic": self.rho_dynamic,
            "rho_static_min": self.rho_static_min,
            "rho_static_max": self.rho_static_max,
            "samples": [{"key": key, "lambda_min": lam}
                        for key, lam in zip(self.keys, self.lambdas.tolist())],
        }

    def write_samples_csv(self, fh, comment: str | None = None):
        """Write the eigenvalues as CSV with header lambda_min, after a one-line ``comment``."""
        if comment is not None:
            fh.write(_comment_line(comment))
        fh.write("lambda_min\n")
        for lam in self.lambdas.tolist():
            fh.write(f"{lam!r}\n")


def build_report(q, k_blocks: int, n_samples: int = 1000, seed: int = 0,
                 exact: bool = False, cap: int = DEFAULT_ENUMERATION_CAP,
                 threads: int = 1) -> SpectralReport:
    """Sample the eigenvalue distribution and estimate the repartitioning value.

    The distribution of lambda_min(Q_P^{-1} Q) is computed in chunks of at
    most max(n^2, 2^16) stacked matrix entries, on ``threads`` workers. A
    chunk of several partitionings (n < 182) goes to the batched eigensolve
    of ``_lambda_min_stack``. From n = 182 on a chunk holds one partitioning,
    and ``_lambda_min_lanczos`` takes it from O(n^2)-flop products instead
    of the 4n^3 flops of R X R^T and a full eigensolve. The mean,
    lambda_min(E Q), is one more task on the same pool, ahead of the first
    chunk, so with two or more threads it runs beside the distribution. In
    sampled mode the distribution and the Monte Carlo mean each use
    ``n_samples`` partitionings from disjoint derived seed streams; in exact
    mode both use every equal-size partitioning, enumerated once. Both halves
    share one factorization of Q, taken before either starts, so Q must be
    positive definite; if it is not, a singular diagonal block of the
    distribution's partitionings is reported before one of the mean's. If
    both halves raise after that factorization, the mean's error surfaces,
    for any thread count.
    """
    if _check_integer(threads, "threads") < 1:
        raise InvalidArgumentError(f"threads must be at least 1, got {threads}")
    _check_integer(cap, "cap")
    q = check_symmetric_matrix(q)
    n, k_blocks = q.shape[0], _check_integer(k_blocks, "k_blocks")
    if exact:
        assignments = mean_rows = _enumerate_assignments(n, k_blocks, cap)
        keys = list(range(len(assignments)))
    else:
        keys = _sample_seeds(n_samples, derive_seed(seed, 0))
        assignments = _sample_assignments(n, k_blocks, keys)
        mean_rows = _sample_assignments(n, k_blocks, _sample_seeds(n_samples, derive_seed(seed, 1)))
    # A singular block of the distribution takes precedence over one of the mean.
    upper = _factor(q, assignments if exact else np.concatenate((assignments, mean_rows)))

    def mean():
        if exact:
            return _min_eigenvalue(_mean_congruence(upper, q, mean_rows)), None
        return _lambda_mc(q, upper, mean_rows)

    step = _chunk_rows(n, n * n)
    kernel = _lambda_min_stack if step > 1 else _lambda_min_lanczos
    chunks = [partial(kernel, q, upper, assignments[lo:lo + step])
              for lo in range(0, len(assignments), step)]
    # The mean goes first, so the pool starts it beside the first chunk.
    (value, stderr), *values = map_ordered(lambda task: task(), [mean, *chunks], threads)
    return SpectralReport(n, k_blocks, keys, np.concatenate(values), value, stderr)
