"""Coordinate partitionings and block-diagonal matrix operations.

A partitioning splits the n coordinate indices into K disjoint, non-empty
blocks. Masking a symmetric matrix by a partitioning keeps the entries
whose row and column fall in the same block and zeroes the rest, which
makes linear solves against the masked matrix decompose into independent
per-block solves. One layout, for one partitioning or the rows of an (S, n)
assignment array alike, groups the blocks of one size into a stack: diagonal
blocks travel as one (K_s, s, s) array per block size s, gathered by one flat
take, checked in one vectorized pass (which the solver skips, as its blocks
come from matrices checked on entry) and factored by one batched Cholesky.

Sampled partitionings come from a counter-based draw: coordinate j of the
draw with seed d gets the key SplitMix64(d + (j+1) * 0x9E3779B97F4A7C15
mod 2^64), the coordinates sorted by key form a permutation, and the
permutation is cut into blocks, which, each sorted, are also the draw's
layout. Each draw is a pure function of its seed, and any number of draws
is one vectorized pass over an (S, n) array.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrs

from .errors import EnumerationCapError, InvalidArgumentError, SingularBlockError
from .seeding import _check_integer, check_seed

SYMMETRY_TOL = 1e-10

DEFAULT_ENUMERATION_CAP = 10**6


def check_symmetric_matrix(q):
    """Validate a dense symmetric matrix and return it as a float64 array.

    Requires a square 2-d array that passes ``_entry_fault``, so unit-scale
    matrices see the absolute symmetry tolerance SYMMETRY_TOL. The entries
    are returned unchanged; no silent symmetrization happens here.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {q.shape}")
    fault = _entry_fault(q[None])
    if fault:
        raise InvalidArgumentError(f"matrix {fault}")
    return q


def _entry_fault(stack):
    """Why the first failing matrix B of a (K, s, s) stack fails, or None if every one passes.

    B passes if its entries are finite and max |B - B^T| <= SYMMETRY_TOL * max(1, max |B|).
    """
    scale = np.abs(stack).max(axis=(1, 2), initial=0.0)
    skew = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
    bad = np.flatnonzero(~np.isfinite(scale) | (skew > SYMMETRY_TOL * np.maximum(1.0, scale)))
    if not bad.size:
        return None
    i = bad[0]
    if not np.isfinite(scale[i]):
        return "has non-finite entries"
    return (f"is not symmetric: max |Q - Q^T| = {skew[i]:.3e} "
            f"exceeds {SYMMETRY_TOL:g} * max(1, max |Q| = {scale[i]:.3e})")


@dataclass(frozen=True, eq=False)
class Partitioning:
    """Assignment of n coordinates to K disjoint non-empty blocks.

    ``assignment[i]`` is the block index of coordinate i, in ``[0, k_blocks)``.
    """

    assignment: np.ndarray
    k_blocks: int

    def __post_init__(self):
        assignment = np.asarray(self.assignment)
        if _check_integer(self.k_blocks, "k_blocks") < 1:
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
        block, ascending within a row: ``_block_layout`` of one row, computed
        on the first call and shared by every later one, so read-only.
        """
        stacks = self.__dict__.get("_stacks")
        if stacks is None:
            stacks = _block_layout(self.assignment[None, :])
            object.__setattr__(self, "_stacks", stacks)
        return stacks


def _block_layout(assignments):
    """Read-only ``(ids, idx)`` per block size, smallest first, for an (S, n) assignment array.

    Block j of row r has the id r*n + j. ``ids`` ascend, and row b of ``idx``
    lists the coordinates of block ``ids[b]``, ascending.
    """
    rows, n = assignments.shape
    ids = (assignments + n * np.arange(rows)[:, None]).ravel()
    order = np.argsort(ids, kind="stable") % n
    sizes = np.bincount(ids)
    starts = np.cumsum(sizes) - sizes
    layout = []
    for size in np.unique(sizes[sizes > 0]):
        block_ids = np.flatnonzero(sizes == size)
        layout.append((block_ids, order[starts[block_ids, None] + np.arange(size)]))
    for array in itertools.chain(*layout):
        array.setflags(write=False)
    return tuple(layout)


def _flat_indices(idx, n):
    """Indices n*i + j into an n x n ``ravel()`` of the (K_s, s, s) blocks on (K_s, s) ``idx``."""
    return idx[:, :, None] * n + idx[:, None, :]


def sample_uniform_partition(n: int, k: int, seed: int) -> Partitioning:
    """Draw a random partitioning with near-equal block sizes.

    Coordinate j gets the key ``splitmix64(seed + (j+1) * 0x9E3779B97F4A7C15
    mod 2^64)``; the coordinates in ascending key order form a permutation,
    which is cut into K consecutive chunks of size ceil(n/K) or floor(n/K)
    (the first n mod K chunks take the larger size). The finalizer is a
    bijection on 64-bit words, so no two keys tie. Over seeds the draw is
    uniform over all such assignments up to the quality of the hash.
    Deterministic given ``seed``, an integer in [0, 2^64).

    The chunks, each sorted, are the rows of ``part.stacks()``, so the
    partitioning comes with its block layout and ``_block_layout`` never
    runs on it.
    """
    check_seed(seed)
    order = _key_order(n, k, [seed])[0]
    base, extra = divmod(n, k)
    cut = extra * (base + 1)
    chunks = [(np.arange(extra, k), order[cut:].reshape(k - extra, base))]
    if extra:
        chunks.append((np.arange(extra), order[:cut].reshape(extra, base + 1)))
    layout = tuple((labels, np.sort(idx, axis=1)) for labels, idx in chunks)
    assignment = np.empty(n, dtype=np.intp)
    for labels, idx in layout:
        assignment[idx] = labels[:, None]
        labels.setflags(write=False)
        idx.setflags(write=False)
    part = Partitioning(assignment, k)
    object.__setattr__(part, "_stacks", layout)
    return part


_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(z):
    """The SplitMix64 finalizer of a uint64 array, in place; wraps modulo 2^64."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _key_order(n: int, k: int, seeds):
    """(len(seeds), n) coordinates of each draw in ascending key order, one row per seed.

    The seeds are not checked here: callers pass checked or derived seeds.
    """
    if not 1 <= _check_integer(k, "k") <= _check_integer(n, "n"):
        raise InvalidArgumentError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    counters = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN_GAMMA
    keys = _splitmix64(np.array(seeds, dtype=np.uint64)[:, None] + counters)
    # The keys of a row are distinct (SplitMix64 is a bijection and the odd
    # gamma keeps the counters distinct), so any sort gives the same order.
    return np.argsort(keys, axis=1)


def _sample_assignments(n: int, k: int, seeds):
    """(len(seeds), n) block assignments; row i is ``sample_uniform_partition(n, k, seeds[i])``."""
    order = _key_order(n, k, seeds)
    base, extra = divmod(n, k)
    labels = np.repeat(np.arange(k), [base + 1] * extra + [base] * (k - extra))
    out = np.empty(order.shape, dtype=np.intp)
    out[np.arange(len(order))[:, None], order] = labels
    return out


def _check_equal_blocks(n, k, k_name="k"):
    """(n, k) as Python ints; InvalidArgumentError unless n, k >= 1 and K divides n."""
    k_int, n_int = _check_integer(k, k_name), _check_integer(n, "n")
    if k_int < 1 or n_int < 1 or n_int % k_int:
        raise InvalidArgumentError(f"k must divide n, got n={n}, k={k}")
    return n_int, k_int


def partition_count(n: int, k: int) -> int:
    """Number of unordered partitionings of n indices into K equal blocks."""
    n, k = _check_equal_blocks(n, k)
    return math.factorial(n) // (math.factorial(n // k) ** k * math.factorial(k))


def enumerate_partitions(n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP):
    """All unordered equal-size partitionings of n indices into K blocks.

    Each partitioning appears exactly once; block labels are canonical
    (block j contains the smallest index not covered by blocks < j).
    Requires K | n and the total count not to exceed ``cap``.
    """
    return [Partitioning(row, k) for row in _enumerate_assignments(n, k, cap)]


def _enumerate_assignments(n: int, k: int, cap: int):
    """``enumerate_partitions(n, k, cap)`` as one (S, n) assignment array, in the same order.

    Step b repeats each row once per lexicographic (n/K - 1)-subset of its free
    coordinates but the lowest; these and the lowest keep label b - 1, the rest take b.
    """
    count = partition_count(n, k)
    if count > _check_integer(cap, "cap"):
        raise EnumerationCapError(
            f"{count} partitionings for n={n}, k={k} exceed the cap of {cap}")
    nk = n // k
    rows = np.zeros((1, n), dtype=np.intp)
    free = np.arange(n)[None, :]
    for block in range(1, k):
        r = free.shape[1]
        subsets = math.comb(r - 1, nk - 1)
        taken = np.fromiter(itertools.chain.from_iterable(
            itertools.combinations(range(1, r), nk - 1)), np.intp).reshape(subsets, nk - 1)
        keep = np.tile(np.arange(r) > 0, (subsets, 1))  # the lowest free coordinate is taken
        keep[np.arange(subsets)[:, None], taken] = False
        free = free[:, np.nonzero(keep)[1].reshape(subsets, r - nk)].reshape(-1, r - nk)
        rows = np.repeat(rows, subsets, axis=0)
        np.put_along_axis(rows, free, block, axis=1)
    return rows


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
    return [flat.take(_flat_indices(idx, part.n)) for _, idx in part.stacks()]


def _raise_first_failure(layout, stacks, n):
    """Raise the error of the block of lowest layout id that fails its entries or its Cholesky.

    ``stacks`` holds the blocks of ``layout``, the ``_block_layout`` of one or
    more rows: the walk names the first failing row's lowest failing label,
    and returns if no block fails.
    """
    ids = np.concatenate([ids for ids, _ in layout])
    blocks = [block for stack in stacks for block in stack]
    for i in np.argsort(ids):
        k, block = int(ids[i] % n), blocks[i]
        fault = _entry_fault(block[None])
        if fault:
            raise InvalidArgumentError(f"block {k} {fault}")
        try:
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError as exc:
            raise SingularBlockError(
                k, f"block {k} (size {block.shape[0]}) is not positive definite") from exc


class BlockCholesky:
    """Per-block Cholesky factorization of the masked matrix Q_P.

    Takes the principal blocks Q[P_k, P_k] as one (K_s, s, s) stack per
    entry of ``part.stacks()`` (from ``diagonal_blocks(q, part)`` or an
    objective's ``block_curvature``), checks each stack's entries in one
    vectorized pass, factors it by one batched Cholesky, as the spectral
    kernels do, and exposes the solves and congruences of the solver and
    the spectral analysis, identical to dense ones against block_mask(Q, P).
    A failing block is named by ``_raise_first_failure``: the lowest failing
    label. ``_factored`` is the same factorization without the entry pass.
    """

    def __init__(self, stacks, part: Partitioning):
        layout = part.stacks()
        if len(stacks) != len(layout):
            raise InvalidArgumentError(
                f"expected {part.k_blocks} blocks in {len(layout)} stacks, one per "
                f"block size, got {len(stacks)} stacks")
        stacks = [np.asarray(stack, dtype=float) for stack in stacks]
        for (labels, idx), stack in zip(layout, stacks):
            want = idx.shape + idx.shape[1:]
            if stack.shape != want:
                raise InvalidArgumentError(
                    f"the stack of size-{idx.shape[1]} blocks holding block {labels[0]} "
                    f"has shape {stack.shape}, expected {want}")
        if any(_entry_fault(stack) for stack in stacks):
            _raise_first_failure(layout, stacks, part.n)
        self._factor(stacks, part)

    @classmethod
    def _factored(cls, stacks, part: Partitioning):
        """``BlockCholesky(stacks, part)`` for stacks that pass the entry check by construction.

        Skips the shape checks and the entry pass, so a stack must be a
        float (K_s, s, s) array whose blocks are finite and symmetric: a
        principal block of a validated matrix, or a block symmetric by
        construction. A block that fails its Cholesky is still named by
        ``_raise_first_failure``, which checks its entries first, so such a
        block raises the public constructor's error.
        """
        chol = cls.__new__(cls)
        chol._factor(stacks, part)
        return chol

    def _factor(self, stacks, part):
        """Factor each stack by one batched Cholesky, naming the failing block if one fails.

        LAPACK may let NaN through, but a non-finite entry of a block always
        leaves a non-finite entry in its factor if the factorization does
        not fail, so a non-finite factor is a failure too.
        """
        self.part = part
        self.n = part.n
        self._stacks = part.stacks()
        try:
            self._factors = [np.linalg.cholesky(stack) for stack in stacks]
        except np.linalg.LinAlgError:
            _raise_first_failure(self._stacks, stacks, self.n)
            raise
        if not all(np.isfinite(factors).all() for factors in self._factors):
            _raise_first_failure(self._stacks, stacks, self.n)

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
