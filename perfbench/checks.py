"""Independent output checks for the benchmark workloads.

Each check recomputes what a CLI invocation wrote, from the generated
inputs and the replayed seeds, with dense linear algebra that does not go
through the code path it checks:

- spectral: E[Q_P^{-1}] as the mean of ``np.linalg.inv(block_mask(Q, P))``
  over the same partitionings (enumerated, or replayed from
  ``derive_seed`` and ``sample_uniform_partition``), then the smallest
  eigenvalue of the nonsymmetric product E Q; each per-partitioning value
  from the generalized problem Q v = lambda Q_P v;
- solve: f* from a dense solve (quadratic) or an L-BFGS minimization of a
  separately parsed logistic loss, and every dynamic run reaching the
  workload's tolerance.

A check returns a list of failure messages; an empty list means it passed.
"""

import json
import math
import struct

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.special

from blockprec.cli import _TAG_LINEAR
from blockprec.partition import block_mask, enumerate_partitions, sample_uniform_partition
from blockprec.seeding import derive_seed

REL_TOL = 1e-7


def close(a, b, rel=REL_TOL, abs_tol=1e-12):
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


def read_q(path):
    """Dense matrix from a BPQ1 file, read without blockprec.data."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        _, n = struct.unpack("<4sI8x", header)
        return np.frombuffer(fh.read(), dtype="<f8").reshape(n, n).astype(float)


def parse_libsvm(path):
    """(A, y) from a LIBSVM file with labels mapped onto {-1, +1}."""
    rows, cols, labels = [], [], []
    vals = []
    with open(path, "r", encoding="ascii") as fh:
        for i, line in enumerate(fh):
            fields = line.split()
            labels.append(float(fields[0]))
            for item in fields[1:]:
                j, v = item.split(":")
                rows.append(i)
                cols.append(int(j) - 1)
                vals.append(float(v))
    y = np.asarray(labels)
    y = np.where(y == y.min(), -1.0, 1.0)
    a = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(len(labels), max(cols) + 1))
    return a, y


def lambda_min_of_mean_inverse(q, parts):
    e = sum(np.linalg.inv(block_mask(q, p)) for p in parts) / len(parts)
    return float(np.min(np.linalg.eigvals(e @ q).real))


def lambda_min_generalized(q, part):
    return float(scipy.linalg.eigh(q, block_mask(q, part), eigvals_only=True,
                                   subset_by_index=[0, 0])[0])


def iters_to_tol(subopts, tol):
    """First t with subopts[t] / subopts[0] <= tol, or None."""
    ratio = np.asarray(subopts, dtype=float) / float(subopts[0])
    hits = np.flatnonzero(ratio <= tol)
    return int(hits[0]) if hits.size else None


def predicted_iters(rho, tol):
    """Iterations for a (1 - rho)^t contraction to reach tol."""
    return math.ceil(math.log(tol) / math.log1p(-rho))


def check_spectral(report_path, q, k, seed, exact):
    """Check one spectral JSON report; returns (failures, report dict)."""
    with open(report_path, "r", encoding="ascii") as fh:
        report = json.load(fh)
    n = q.shape[0]
    failures = []
    if exact:
        parts = enumerate_partitions(n, k)
        keys = list(range(len(parts)))
        if report["estimator"] != {"kind": "exact enumeration"}:
            failures.append(f"{report_path}: estimator is {report['estimator']}")
    else:
        # build_report draws the eigenvalue distribution from
        # derive_seed(seed, 0) and the Monte Carlo mean from derive_seed(seed, 1).
        samples = report["estimator"]["samples"]
        violin, mc = derive_seed(seed, 0), derive_seed(seed, 1)
        keys = [derive_seed(violin, i) for i in range(samples)]
        parts = [sample_uniform_partition(n, k, derive_seed(mc, i)) for i in range(samples)]
    expected = lambda_min_of_mean_inverse(q, parts)
    if not close(report["lambda_min_expected"], expected):
        failures.append(f"{report_path}: lambda_min_expected {report['lambda_min_expected']!r}"
                        f" != dense oracle {expected!r}")
    if not close(report["rho_dynamic"], report["lambda_min_expected"] / k):
        failures.append(f"{report_path}: rho_dynamic is not lambda_min_expected / k")
    got_keys = [s["key"] for s in report["samples"]]
    if got_keys != keys:
        failures.append(f"{report_path}: sample keys do not replay")
    else:
        for key, sample in zip(keys, report["samples"]):
            part = parts[key] if exact else sample_uniform_partition(n, k, key)
            want = lambda_min_generalized(q, part)
            if not close(sample["lambda_min"], want, rel=1e-6):
                failures.append(f"{report_path}: sample {key} lambda_min "
                                f"{sample['lambda_min']!r} != {want!r}")
                break
    return failures, report


def check_mc_vs_exact(mc_report, exact_report):
    diff = abs(mc_report["lambda_min_expected"] - exact_report["lambda_min_expected"])
    allowed = 0.01 + 3.0 * mc_report["estimator"]["stderr"]
    if diff > allowed:
        return [f"MC lambda_min_expected is {diff:.3e} from exact enumeration "
                f"(allowed {allowed:.3e})"]
    return []


def quadratic_optimum(q, seed):
    """f* = -1/2 c^T Q^{-1} c for the CLI's linear term c."""
    c = np.random.default_rng(derive_seed(seed, _TAG_LINEAR)).standard_normal(q.shape[0])
    return -0.5 * float(c @ np.linalg.solve(q, c))


def logistic_optimum(path, reg, normalize=False):
    """min_x sum log(1 + exp(-y_i a_i^T x)) + reg/2 ||x||^2 by L-BFGS.

    With ``normalize``, every nonzero column of A is first scaled to unit
    L2 norm, as ``solve --normalize`` does.
    """
    a, y = parse_libsvm(path)
    if normalize:
        norms = np.sqrt(np.asarray(a.multiply(a).sum(axis=0)).ravel())
        a = scipy.sparse.csr_matrix(a.multiply(1.0 / np.where(norms > 0.0, norms, 1.0)))

    def fun(x):
        v = a @ x
        z = -y * v
        grad = a.T @ (-y * scipy.special.expit(z)) + reg * x
        return float(np.sum(np.logaddexp(0.0, z)) + 0.5 * reg * x @ x), grad

    res = scipy.optimize.minimize(fun, np.zeros(a.shape[1]), jac=True, method="L-BFGS-B",
                                  options={"gtol": 1e-10, "ftol": 1e-15, "maxiter": 10000})
    return float(res.fun)


def check_solve(json_path, scheme, f_star, n_iters, repeats, tol):
    """Check one solve JSON output; returns (failures, iters_to_tol per trace)."""
    with open(json_path, "r", encoding="ascii") as fh:
        out = json.load(fh)
    traces = out["traces"]
    failures = []
    if out["config"]["scheme"] != scheme or len(traces) != repeats:
        failures.append(f"{json_path}: expected {repeats} {scheme} traces")
    hits = []
    for r, trace in enumerate(traces):
        if not close(trace["f_star"], f_star, rel=1e-8):
            failures.append(f"{json_path}: trace {r} f_star {trace['f_star']!r} "
                            f"!= oracle {f_star!r}")
        subopts = trace["subopts"]
        if len(subopts) != n_iters + 1 or not np.all(np.isfinite(subopts)):
            failures.append(f"{json_path}: trace {r} is not {n_iters + 1} finite values")
            continue
        if min(subopts) < -1e-9 * abs(f_star):
            failures.append(f"{json_path}: trace {r} went below f*")
        if scheme == "dynamic":
            hit = iters_to_tol(subopts, tol)
            if hit is None:
                failures.append(f"{json_path}: trace {r} never reached subopt ratio {tol:g}")
            else:
                hits.append(hit)
    return failures, hits


def strip_comments(path):
    """File bytes without '#' comment lines (they carry the invocation)."""
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if not line.startswith(b"#"))
