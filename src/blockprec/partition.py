"""Coordinate partitionings and block-diagonal matrix operations.

A partitioning splits the n coordinate indices into K disjoint, non-empty
blocks. Masking a symmetric matrix by a partitioning keeps the entries
whose row and column fall in the same block and zeroes the rest, which
makes linear solves against the masked matrix decompose into independent
per-block solves.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
        assignment = np.asarray(self.assignment, dtype=np.intp)
        assignment.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)
        if self.k_blocks < 1:
            raise InvalidArgumentError("k_blocks must be positive")
        if assignment.ndim != 1 or assignment.size == 0:
            raise InvalidArgumentError("assignment must be a non-empty 1-d sequence")
        counts = np.bincount(assignment, minlength=self.k_blocks)
        if counts.size > self.k_blocks:
            raise InvalidArgumentError("assignment refers to a block >= k_blocks")
        if np.any(counts == 0):
            raise InvalidArgumentError("every block must be non-empty")

    @property
    def n(self) -> int:
        return self.assignment.size

    def blocks(self):
        """Index arrays of the blocks, ordered by block label, ascending within a block.

        Computed on the first call and shared by every later one, so the
        arrays are read-only.
        """
        blocks = self.__dict__.get("_blocks")
        if blocks is None:
            order = np.argsort(self.assignment, kind="stable")
            order.setflags(write=False)
            blocks = tuple(np.split(order, np.cumsum(self.block_sizes())[:-1]))
            object.__setattr__(self, "_blocks", blocks)
        return blocks

    def block_sizes(self):
        return np.bincount(self.assignment, minlength=self.k_blocks)

    def to_json_dict(self):
        return {"n": int(self.n), "k": int(self.k_blocks),
                "assignment": [int(b) for b in self.assignment]}

    @classmethod
    def from_json_dict(cls, obj):
        part = cls(np.asarray(obj["assignment"], dtype=np.intp), int(obj["k"]))
        if part.n != int(obj["n"]):
            raise InvalidArgumentError("assignment length does not match declared n")
        return part

    def __eq__(self, other):
        if not isinstance(other, Partitioning):
            return NotImplemented
        return self.k_blocks == other.k_blocks and np.array_equal(self.assignment, other.assignment)

    def __hash__(self):
        return hash((self.k_blocks, self.assignment.tobytes()))


def sample_uniform_partition(n: int, k: int, seed: int) -> Partitioning:
    """Draw a uniformly random partitioning with near-equal block sizes.

    A random permutation of the n indices is cut into K consecutive chunks
    of size ceil(n/K) or floor(n/K) (the first n mod K chunks take the
    larger size), which is uniform over all such assignments. Deterministic
    given ``seed``.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be positive, got {n}")
    if k < 1 or k > n:
        raise InvalidArgumentError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    base, extra = divmod(n, k)
    sizes = [base + 1] * extra + [base] * (k - extra)
    assignment = np.empty(n, dtype=np.intp)
    assignment[perm] = np.repeat(np.arange(k), sizes)
    return Partitioning(assignment, k)


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
    count = partition_count(n, k)
    if count > cap:
        raise EnumerationCapError(
            f"{count} partitionings for n={n}, k={k} exceed the cap of {cap}")
    nk = n // k
    out = []
    assignment = np.empty(n, dtype=np.intp)

    def fill(remaining, block):
        if not remaining:
            out.append(Partitioning(assignment.copy(), k))
            return
        head, rest = remaining[0], remaining[1:]
        assignment[head] = block
        for companions in itertools.combinations(rest, nk - 1):
            taken = set(companions)
            for i in companions:
                assignment[i] = block
            fill([i for i in rest if i not in taken], block + 1)

    fill(list(range(n)), 0)
    return out


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
    """The principal blocks Q[P_k, P_k] of ``q`` in ``part.blocks()`` order.

    Only the shape is checked here; ``BlockCholesky`` checks the blocks it
    is given.
    """
    q = _check_dims(q, part)
    return [q[np.ix_(idx, idx)] for idx in part.blocks()]


class BlockCholesky:
    """Per-block Cholesky factorization of the masked matrix Q_P.

    Takes the principal blocks Q[P_k, P_k] in ``part.blocks()`` order (from
    ``diagonal_blocks(q, part)`` or an objective's ``block_curvature``),
    checks and factors each one (+ jitter on the diagonal) once, and exposes
    the solve and congruence operations used by the solver and the spectral
    analysis. Blocks are independent, so all operations decompose per block
    and yield results identical to dense computations against
    block_mask(Q, P).
    """

    def __init__(self, blocks, part: Partitioning, jitter: float = 0.0):
        if not 0.0 <= jitter < np.inf:
            raise InvalidArgumentError(f"jitter must be non-negative and finite, got {jitter}")
        self.part = part
        self.n = part.n
        self._blocks = part.blocks()
        if len(blocks) != len(self._blocks):
            raise InvalidArgumentError(f"expected {len(self._blocks)} blocks, got {len(blocks)}")
        self._factors = []
        for k, (idx, block) in enumerate(zip(self._blocks, blocks)):
            block = np.asarray(block, dtype=float)
            if block.shape != (idx.size, idx.size):
                raise InvalidArgumentError(
                    f"block {k} has shape {block.shape}, expected ({idx.size}, {idx.size})")
            _check_entries(block, SYMMETRY_TOL, f"block {k}")
            if jitter:
                block = block + jitter * np.eye(idx.size)
            try:  # numpy's Cholesky, as in the batched spectral kernel, so both agree
                lower = np.linalg.cholesky(block)
            except np.linalg.LinAlgError as exc:
                raise SingularBlockError(
                    k, f"block {k} (size {idx.size}) is not positive definite"
                    + ("" if jitter else "; consider a positive jitter")) from exc
            self._factors.append(lower)

    def solve(self, g):
        """Solve Q_P d = g block by block."""
        g = np.asarray(g, dtype=float)
        if g.shape != (self.n,):
            raise InvalidArgumentError(f"expected a vector of length {self.n}, got shape {g.shape}")
        d = np.empty_like(g)
        for idx, lower in zip(self._blocks, self._factors):
            d[idx] = scipy.linalg.cho_solve((lower, True), g[idx], check_finite=False)
        return d

    def whiten(self, q):
        """Congruence transform L^{-1} Q L^{-T} where Q_P = L L^T.

        The result is similar to Q_P^{-1} Q, so it has the same spectrum,
        and it is symmetric up to roundoff, so ``eigvalsh`` applies.
        """
        q = _check_dims(check_symmetric_matrix(q), self.part)
        y = np.empty_like(q)
        for idx, lower in zip(self._blocks, self._factors):
            y[idx, :] = scipy.linalg.solve_triangular(
                lower, q[idx, :], lower=True, check_finite=False)
        w = np.empty_like(q)
        for idx, lower in zip(self._blocks, self._factors):
            w[:, idx] = scipy.linalg.solve_triangular(
                lower, y[:, idx].T, lower=True, check_finite=False).T
        return w

