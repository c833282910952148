"""Synthetic curvature-structure generators and dataset I/O.

Generators produce the correlation structures used throughout the spectral
analysis (uniform off-diagonal, block-separable, random symmetric). Real
datasets are read from LIBSVM sparse text files. Dense symmetric matrices
round-trip through a small binary format with a JSON metadata sidecar.
"""

import array
import json
import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import InvalidArgumentError, LibsvmParseError
from .partition import _check_equal_blocks, check_symmetric_matrix
from .seeding import _check_integer, check_seed

_Q_MAGIC = b"BPQ1"
_Q_HEADER = struct.Struct("<4sI8x")  # magic, u32 order, 8 reserved bytes


def _comment_line(comment):
    """``comment`` as one ``# `` line of a CSV file; InvalidArgumentError if it holds a line break.

    A reader that skips ``#`` lines would take the rest of a multi-line
    comment for data.
    """
    if "\n" in comment or "\r" in comment:
        raise InvalidArgumentError(f"a comment must be one line, got {comment!r}")
    return f"# {comment}\n"


def _check_alpha(alpha):
    if not 0.0 <= alpha < 1.0:
        raise InvalidArgumentError(f"alpha must lie in [0, 1), got {alpha}")


def gen_uniform_q(n: int, alpha: float):
    """Unit-diagonal matrix with all off-diagonal entries equal to alpha.

    SPD for alpha in [0, 1): the eigenvalues are 1 + (n-1) alpha (once)
    and 1 - alpha (n-1 times).
    """
    if _check_integer(n, "n") < 1:
        raise InvalidArgumentError("n must be positive")
    _check_alpha(alpha)
    q = np.full((n, n), float(alpha))
    np.fill_diagonal(q, 1.0)
    return q


def gen_separable_q(n: int, k: int, alpha: float):
    """Block-diagonal matrix of K uniform-correlation blocks of size n/K."""
    n, k = _check_equal_blocks(n, k)
    _check_alpha(alpha)
    nk = n // k
    q = np.zeros((n, n))
    block = gen_uniform_q(nk, alpha)
    for j in range(k):
        s = slice(j * nk, (j + 1) * nk)
        q[s, s] = block
    return q


def gen_random_corr_q(n: int, alpha: float, seed: int):
    """Random symmetric correlation-like matrix with mean off-diagonal alpha.

    Off-diagonal entries are drawn i.i.d. from N(alpha, (alpha/2)^2)
    (standard deviation alpha/2) and mirrored; the diagonal is one. If the
    raw matrix is not positive definite it is shifted by
    (|lambda_min| + 1e-3) I and rescaled back to unit diagonal, which
    preserves symmetry and guarantees SPD. Reading the noise parameter as
    a standard deviation keeps moderate-alpha draws positive definite
    without the shift; the variance reading floods the spectrum at
    n in the hundreds and erases the repartitioning gap the structure is
    meant to exhibit.
    """
    if _check_integer(n, "n") < 1:
        raise InvalidArgumentError("n must be positive")
    if not 0.0 < alpha < np.inf:
        raise InvalidArgumentError(f"alpha must be positive and finite, got {alpha}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    q = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    q[iu] = rng.normal(loc=alpha, scale=alpha / 2.0, size=iu[0].size)
    q = q + q.T
    np.fill_diagonal(q, 1.0)
    lam_min = np.linalg.eigvalsh(q)[0]
    if lam_min <= 0.0:
        shift = abs(lam_min) + 1e-3
        q = (q + shift * np.eye(n)) / (1.0 + shift)
    return q


def factor_sqrt(q):
    """Symmetric PSD square root A of an SPD matrix, so that A^T A = Q."""
    q = check_symmetric_matrix(q)
    w, v = np.linalg.eigh(0.5 * (q + q.T))
    if w[0] <= 0.0:
        raise InvalidArgumentError(f"matrix is not positive definite (lambda_min = {w[0]:.3e})")
    a = (v * np.sqrt(w)) @ v.T
    return 0.5 * (a + a.T)


@dataclass
class Dataset:
    """A data matrix with labels, as loaded from disk or generated."""

    a: "scipy.sparse.spmatrix | np.ndarray"
    y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.a.shape[0] != self.y.size:
            raise InvalidArgumentError(
                f"{self.a.shape[0]} rows but {self.y.size} labels")
        values = self.a.data if scipy.sparse.issparse(self.a) else self.a
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(self.y))):
            raise InvalidArgumentError("dataset contains non-finite values")

    @property
    def n_samples(self) -> int:
        return self.a.shape[0]

    @property
    def n_features(self) -> int:
        return self.a.shape[1]


def _remap_binary_labels(y):
    """Map a two-valued label set onto {-1, +1} (smaller value -> -1)."""
    values = np.unique(y)
    if values.size != 2:
        raise InvalidArgumentError(
            f"expected exactly two label values for logistic use, got {values}")
    if set(values) == {-1.0, 1.0}:
        return y
    out = np.where(y == values[0], -1.0, 1.0)
    return out


def read_libsvm(path, n_features=None, logistic_labels=False):
    """Read a LIBSVM sparse text file into a Dataset.

    Each line is ``label idx:val idx:val ...`` with 1-based, strictly
    increasing indices that fit in int64. The feature count is the largest
    index seen unless ``n_features`` overrides it. With ``logistic_labels``
    the two observed label values are remapped onto {-1, +1}. Each line's
    entries go into typed arrays of labels, values, indices and row
    pointers, which the CSR matrix takes without a copy, so reading peaks
    at about 24 bytes per stored entry.
    """
    labels = array.array("d")
    data, indices, indptr = array.array("d"), array.array("q"), array.array("q", [0])
    max_index = 0
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            try:
                labels.append(float(fields[0]))
            except ValueError:
                raise LibsvmParseError(f"bad label {fields[0]!r}", lineno) from None
            prev = 0
            row_indices, row_values = [], []
            for item in fields[1:]:
                idx_str, _, val_str = item.partition(":")
                try:
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise LibsvmParseError(f"bad feature entry {item!r}", lineno) from None
                if idx <= prev:
                    raise LibsvmParseError(
                        f"indices must be strictly increasing and 1-based, got {idx} after {prev}",
                        lineno)
                prev = idx
                row_indices.append(idx - 1)
                row_values.append(val)
            try:
                indices.fromlist(row_indices)
            except OverflowError:
                # Indices increase along a line, so its last entry is out of range.
                raise LibsvmParseError(f"bad feature entry {fields[-1]!r}", lineno) from None
            data.fromlist(row_values)
            max_index = max(max_index, prev)
            indptr.append(len(data))
    if n_features is None:
        n_features = max_index
    elif n_features < max_index:
        raise InvalidArgumentError(
            f"n_features={n_features} is smaller than the largest index {max_index}")
    a = scipy.sparse.csr_matrix(
        (np.frombuffer(data), np.frombuffer(indices, dtype=np.int64),
         np.frombuffer(indptr, dtype=np.int64)),
        shape=(len(labels), n_features))
    y = np.frombuffer(labels)
    if logistic_labels:
        y = _remap_binary_labels(y)
    return Dataset(a, y)


def write_libsvm(path, dataset: Dataset):
    """Write a Dataset in LIBSVM text format with 17 significant digits."""
    a = scipy.sparse.csr_matrix(dataset.a)
    with open(path, "w", encoding="ascii") as fh:
        for row in range(a.shape[0]):
            start, stop = a.indptr[row], a.indptr[row + 1]
            parts = [f"{dataset.y[row]:.17g}"]
            parts.extend(
                f"{idx + 1}:{val:.17g}"
                for idx, val in zip(a.indices[start:stop], a.data[start:stop]))
            fh.write(" ".join(parts) + "\n")


def normalize_columns(dataset: Dataset) -> Dataset:
    """Scale each feature column to unit L2 norm (zero columns untouched).

    Off by default everywhere; enable explicitly where a consumer wants
    scale-free features. A sparse A's norms are reduced column by column
    from a CSC form, which is then dropped; one CSR copy is scaled in
    place, each stored entry multiplied by its column's 1/norm.
    """
    a = dataset.a
    if scipy.sparse.issparse(a):
        columns = scipy.sparse.csc_matrix(a)
        norms = np.sqrt(np.asarray(columns.multiply(columns).sum(axis=0)).ravel())
        del columns
        scale = np.where(norms > 0.0, norms, 1.0)
        a = scipy.sparse.csr_matrix(a, copy=True)
        a.data *= (1.0 / scale)[a.indices]
    else:
        a = np.array(a, dtype=float, copy=True)
        norms = np.linalg.norm(a, axis=0)
        a /= np.where(norms > 0.0, norms, 1.0)
    return Dataset(a, dataset.y)


def gen_labels(a, seed: int):
    """Labels y ~ N(0, I_m) for an m-row data matrix, deterministic given ``seed``."""
    check_seed(seed)
    return np.random.default_rng(seed).standard_normal(a.shape[0])


def save_q(path, q, metadata=None):
    """Write a dense symmetric matrix as BPQ1 binary plus a JSON sidecar."""
    q = check_symmetric_matrix(q)
    n = q.shape[0]
    with open(path, "wb") as fh:
        fh.write(_Q_HEADER.pack(_Q_MAGIC, n))
        fh.write(np.ascontiguousarray(q, dtype="<f8").tobytes())
    sidecar = dict(metadata or {})
    sidecar.setdefault("n", n)
    with open(str(path) + ".json", "w", encoding="ascii") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_q(path):
    """Read a BPQ1 binary matrix; returns (Q, its JSON-object sidecar or None)."""
    with open(path, "rb") as fh:
        header = fh.read(_Q_HEADER.size)
        if len(header) != _Q_HEADER.size:
            raise LibsvmParseError(f"{path}: truncated header")
        magic, n = _Q_HEADER.unpack(header)
        if magic != _Q_MAGIC:
            raise LibsvmParseError(f"{path}: bad magic {magic!r}")
        payload = fh.read(8 * n * n)
    if len(payload) != 8 * n * n:
        raise LibsvmParseError(f"{path}: truncated payload for n={n}")
    q = check_symmetric_matrix(np.frombuffer(payload, dtype="<f8").reshape(n, n).astype(float))
    sidecar = str(path) + ".json"
    try:
        with open(sidecar, "r", encoding="ascii") as fh:
            metadata = json.load(fh)
    except FileNotFoundError:
        return q, None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise LibsvmParseError(f"{sidecar}: bad JSON: {exc}") from None
    if not isinstance(metadata, dict):
        raise LibsvmParseError(f"{sidecar}: expected a JSON object")
    return q, metadata
