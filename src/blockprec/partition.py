"""Coordinate partitionings and block-diagonal matrix operations.

A partitioning splits the n coordinate indices into K disjoint, non-empty
blocks. Masking a symmetric matrix by a partitioning keeps the entries
whose row and column fall in the same block and zeroes the rest, which
makes linear solves against the masked matrix decompose into independent
per-block solves. The blocks of one size form a stack: diagonal blocks
travel as one (K_s, s, s) array per block size s, gathered by one flat
take, checked in one vectorized pass and factored by one batched Cholesky.

Sampled partitionings come from a counter-based draw: coordinate j of the
draw with seed d gets the key SplitMix64(d + (j+1) * 0x9E3779B97F4A7C15
mod 2^64), the coordinates sorted by key form a permutation, and the
permutation is cut into blocks. Each draw is a pure function of its seed,
and any number of draws is one vectorized pass over an (S, n) array.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrs

from .errors import EnumerationCapError, InvalidArgumentError, SingularBlockError
from .seeding import check_seed

SYMMETRY_TOL = 1e-10

DEFAULT_ENUMERATION_CAP = 10**6


def check_symmetric_matrix(q, tol=SYMMETRY_TOL):
    """Validate a dense symmetric matrix and return it as a float64 array.

    Requires a square 2-d array with finite entries that is symmetric
    within ``tol`` relative to its scale, max |Q - Q^T| <= tol * max(1, max |Q|),
    so unit-scale matrices see the absolute tolerance ``tol``. The entries
    are returned unchanged; no silent symmetrization happens here.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {q.shape}")
    _check_entries(q, tol, "matrix")
    return q


def _check_entries(q, tol, what):
    """Raise unless square ``q`` is finite and symmetric within tol * max(1, max |q|)."""
    scale = np.abs(q).max(initial=0.0)
    if not np.isfinite(scale):
        raise InvalidArgumentError(f"{what} has non-finite entries")
    skew = np.abs(q - q.T).max(initial=0.0)
    if skew > tol * max(1.0, scale):
        raise InvalidArgumentError(f"{what} is not symmetric: max |Q - Q^T| = {skew:.3e} "
                                   f"exceeds {tol:g} * max(1, max |Q| = {scale:.3e})")


@dataclass(frozen=True)
class Partitioning:
    """Assignment of n coordinates to K disjoint non-empty blocks.

    ``assignment[i]`` is the block index of coordinate i, in ``[0, k_blocks)``.
    """

    assignment: np.ndarray
    k_blocks: int

    def __post_init__(self):
        assignment = np.asarray(self.assignment)
        if self.k_blocks < 1:
            raise InvalidArgumentError("k_blocks must be positive")
        if assignment.ndim != 1 or assignment.size == 0:
            raise InvalidArgumentError("assignment must be a non-empty 1-d sequence")
        if not np.issubdtype(assignment.dtype, np.integer):
            raise InvalidArgumentError(
                f"block labels must be integers, got dtype {assignment.dtype}")
        assignment = assignment.astype(np.intp, copy=False)
        assignment.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)
        if assignment.min() < 0 or assignment.max() >= self.k_blocks:
            raise InvalidArgumentError(
                f"block labels must lie in [0, {self.k_blocks}), got "
                f"{assignment.min()} to {assignment.max()}")
        counts = np.bincount(assignment, minlength=self.k_blocks)
        if np.any(counts == 0):
            raise InvalidArgumentError("every block must be non-empty")

    @property
    def n(self) -> int:
        return self.assignment.size

    def stacks(self):
        """One ``(labels, idx)`` pair per distinct block size, smallest size first.

        ``labels`` holds the labels of the blocks of size s, ascending, and
        ``idx`` their coordinates as a (len(labels), s) array, one row per
        block, ascending within a row. Computed on the first call and shared
        by every later one, so the arrays are read-only.
        """
        stacks = self.__dict__.get("_stacks")
        if stacks is None:
            sizes = self.block_sizes()
            order = np.argsort(self.assignment, kind="stable")
            starts = np.cumsum(sizes) - sizes
            stacks = []
            for size in np.unique(sizes):
                labels = np.flatnonzero(sizes == size)
                idx = order[starts[labels, None] + np.arange(size)]
                labels.setflags(write=False)
                idx.setflags(write=False)
                stacks.append((labels, idx))
            stacks = tuple(stacks)
            object.__setattr__(self, "_stacks", stacks)
        return stacks

    def block_sizes(self):
        return np.bincount(self.assignment, minlength=self.k_blocks)

    def __eq__(self, other):
        if not isinstance(other, Partitioning):
            return NotImplemented
        return self.k_blocks == other.k_blocks and np.array_equal(self.assignment, other.assignment)

    def __hash__(self):
        return hash((self.k_blocks, self.assignment.tobytes()))


def sample_uniform_partition(n: int, k: int, seed: int) -> Partitioning:
    """Draw a random partitioning with near-equal block sizes.

    Coordinate j gets the key ``splitmix64(seed + (j+1) * 0x9E3779B97F4A7C15
    mod 2^64)``; the coordinates in ascending key order form a permutation,
    which is cut into K consecutive chunks of size ceil(n/K) or floor(n/K)
    (the first n mod K chunks take the larger size). The finalizer is a
    bijection on 64-bit words, so no two keys tie. Over seeds the draw is
    uniform over all such assignments up to the quality of the hash.
    Deterministic given ``seed``, an integer in [0, 2^64).
    """
    check_seed(seed)
    return Partitioning(_sample_assignments(n, k, [seed])[0], k)


_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(z):
    """The SplitMix64 finalizer of a uint64 array, in place; wraps modulo 2^64."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _sample_assignments(n: int, k: int, seeds):
    """(len(seeds), n) block assignments; row i is ``sample_uniform_partition(n, k, seeds[i])``.

    The seeds are not checked here: callers pass checked or derived seeds.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be positive, got {n}")
    if k < 1 or k > n:
        raise InvalidArgumentError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    base, extra = divmod(n, k)
    labels = np.repeat(np.arange(k), [base + 1] * extra + [base] * (k - extra))
    counters = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN_GAMMA
    keys = _splitmix64(np.array(seeds, dtype=np.uint64)[:, None] + counters)
    out = np.empty(keys.shape, dtype=np.intp)
    np.put_along_axis(out, np.argsort(keys, axis=1, kind="stable"), labels, axis=1)
    return out


def partition_count(n: int, k: int) -> int:
    """Number of unordered partitionings of n indices into K equal blocks."""
    if k < 1 or n % k != 0:
        raise InvalidArgumentError(f"k must divide n, got n={n}, k={k}")
    nk = n // k
    return math.factorial(n) // (math.factorial(nk) ** k * math.factorial(k))


def enumerate_partitions(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """All unordered equal-size partitionings of n indices into K blocks.

    Each partitioning appears exactly once; block labels are canonical
    (block j contains the smallest index not covered by blocks < j).
    Requires K | n and the total count not to exceed ``cap``.
    """
    return [Partitioning(row, k) for row in _enumerate_assignments(n, k, cap)]


def _enumerate_assignments(n: int, k: int, cap: int):
    """``enumerate_partitions(n, k, cap)`` as one (S, n) assignment array, in the same order."""
    count = partition_count(n, k)
    if count > cap:
        raise EnumerationCapError(
            f"{count} partitionings for n={n}, k={k} exceed the cap of {cap}")
    nk = n // k
    rows = []
    assignment = np.empty(n, dtype=np.intp)

    def fill(remaining, block):
        if not remaining:
            rows.append(assignment.copy())
            return
        head, rest = remaining[0], remaining[1:]
        assignment[head] = block
        for companions in itertools.combinations(rest, nk - 1):
            taken = set(companions)
            for i in companions:
                assignment[i] = block
            fill([i for i in rest if i not in taken], block + 1)

    fill(list(range(n)), 0)
    return np.stack(rows)


def _check_dims(q, part):
    q = np.asarray(q, dtype=float)
    if q.shape != (part.n, part.n):
        raise InvalidArgumentError(
            f"matrix of shape {q.shape} does not match partitioning over {part.n} coordinates")
    return q


def block_mask(q, part: Partitioning):
    """Block-diagonal version of ``q``: entry (i, j) survives iff i and j share a block."""
    q = _check_dims(check_symmetric_matrix(q), part)
    same = part.assignment[:, None] == part.assignment[None, :]
    return np.where(same, q, 0.0)


def diagonal_blocks(q, part: Partitioning):
    """The principal blocks Q[P_k, P_k] of ``q``, one (K_s, s, s) stack per block size.

    The stacks follow ``part.stacks()``, and the blocks of a stack the rows
    of its ``idx``; each stack is gathered by one flat take of ``q.ravel()``.
    Only the shape of ``q`` is checked here; ``BlockCholesky`` checks the
    blocks it is given.
    """
    q = _check_dims(q, part)
    flat = q.ravel()
    return [flat.take(idx[:, :, None] * part.n + idx[:, None, :]) for _, idx in part.stacks()]


def _bad_entries(stack, tol):
    """Per block of a (K_s, s, s) stack: whether ``_check_entries`` would raise on it."""
    scale = np.abs(stack).max(axis=(1, 2))
    skew = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
    return ~np.isfinite(scale) | (skew > tol * np.maximum(1.0, scale))


class BlockCholesky:
    """Per-block Cholesky factorization of the masked matrix Q_P.

    Takes the principal blocks Q[P_k, P_k] as one (K_s, s, s) stack per
    entry of ``part.stacks()`` (from ``diagonal_blocks(q, part)`` or an
    objective's ``block_curvature``), checks each stack in one vectorized
    pass and factors it (+ jitter on the diagonal) once, with one batched
    Cholesky, and exposes the solve and congruence operations used by the
    solver and the spectral analysis. Blocks are independent, so all
    operations decompose per block and yield results identical to dense
    computations against block_mask(Q, P). A block that fails its check or
    its factorization is named as a loop over the blocks in label order
    would name it: the lowest failing label.
    """

    def __init__(self, stacks, part: Partitioning, jitter: float = 0.0):
        if not 0.0 <= jitter < np.inf:
            raise InvalidArgumentError(f"jitter must be non-negative and finite, got {jitter}")
        self.part = part
        self.n = part.n
        self._stacks = part.stacks()
        if len(stacks) != len(self._stacks):
            raise InvalidArgumentError(
                f"expected {part.k_blocks} blocks in {len(self._stacks)} stacks, one per "
                f"block size, got {len(stacks)} stacks")
        stacks = [np.asarray(stack, dtype=float) for stack in stacks]
        for (labels, idx), stack in zip(self._stacks, stacks):
            want = idx.shape + idx.shape[1:]
            if stack.shape != want:
                raise InvalidArgumentError(
                    f"the stack of size-{idx.shape[1]} blocks holding block {labels[0]} "
                    f"has shape {stack.shape}, expected {want}")
        if any(_bad_entries(stack, SYMMETRY_TOL).any() for stack in stacks):
            self._raise_first_failure(stacks, jitter)
        self._factors = []
        for stack in stacks:
            if jitter:
                stack = stack + jitter * np.eye(stack.shape[1])
            try:  # numpy's Cholesky, as in the batched spectral kernel, so both agree
                self._factors.append(np.linalg.cholesky(stack))
            except np.linalg.LinAlgError:
                self._raise_first_failure(stacks, jitter)
                raise

    def _raise_first_failure(self, stacks, jitter):
        """Raise the error of the lowest-labelled block that fails its check or its Cholesky.

        Runs only after a stack has failed, so the loop over single blocks
        costs nothing on the success path.
        """
        blocks = {}
        for (labels, _), stack in zip(self._stacks, stacks):
            blocks.update(zip(labels.tolist(), stack))
        for k in sorted(blocks):
            block = blocks[k]
            _check_entries(block, SYMMETRY_TOL, f"block {k}")
            try:
                np.linalg.cholesky(block + jitter * np.eye(len(block)) if jitter else block)
            except np.linalg.LinAlgError as exc:
                raise SingularBlockError(
                    k, f"block {k} (size {len(block)}) is not positive definite"
                    + ("" if jitter else "; consider a positive jitter")) from exc

    def _block_factors(self):
        """(idx, L) per block, stack by stack."""
        for (_, idx), factors in zip(self._stacks, self._factors):
            yield from zip(idx, factors)

    def solve(self, g):
        """Solve Q_P d = g: one gather of g per stack, then LAPACK ``dpotrs`` in place per block."""
        g = np.asarray(g, dtype=float)
        if g.shape != (self.n,):
            raise InvalidArgumentError(f"expected a vector of length {self.n}, got shape {g.shape}")
        d = np.empty_like(g)
        for (_, idx), factors in zip(self._stacks, self._factors):
            rhs = g[idx]
            for lower, b in zip(factors, rhs):
                dpotrs(lower, b, lower=1, overwrite_b=1)
            d[idx] = rhs
        return d

    def whiten(self, q):
        """Congruence transform L^{-1} Q L^{-T} where Q_P = L L^T.

        The result is similar to Q_P^{-1} Q, so it has the same spectrum,
        and it is symmetric up to roundoff, so ``eigvalsh`` applies.
        """
        q = _check_dims(check_symmetric_matrix(q), self.part)
        y = np.empty_like(q)
        for idx, lower in self._block_factors():
            y[idx, :] = scipy.linalg.solve_triangular(
                lower, q[idx, :], lower=True, check_finite=False)
        w = np.empty_like(q)
        for idx, lower in self._block_factors():
            w[:, idx] = scipy.linalg.solve_triangular(
                lower, y[:, idx].T, lower=True, check_finite=False).T
        return w
