"""Workload definitions and input generation for the blockprec benchmark.

A workload is a fixed sequence of ``blockprec`` CLI invocations (one
"round") over inputs generated from the workload seed. Inputs are made
here and nowhere else: dense curvature matrices through ``blockprec gen``
and the sparse classification file through ``blockprec.data.write_libsvm``.

Run as a script, this module generates one workload's inputs into a
directory; the benchmark times that process to measure set-up cost
(interpreter start, import, generation):

    python3 perfbench/workloads.py --workload solve-logistic --seed 7 --out DIR
"""

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("spectral-small", "spectral-large", "solve-quadratic", "solve-logistic")

# Why each workload is in the benchmark (mirrored in BENCHMARK.json).
WHY = {
    "spectral-small": "tiny blocks, so per-partitioning Python overhead (seeding, sampling, "
                      "validation, BlockCholesky, scatter) dominates exact and MC spectral runs",
    "spectral-large": "n=600 blocks make it flop-bound (eigensolve, whitening) and it is the "
                      "only workload on the --threads 2 pool",
    "solve-quadratic": "free curvature, so per-iteration repartitioning, validation and "
                       "factorization dominate, and it writes the largest trace outputs",
    "solve-logistic": "mushroom-shaped sparse logistic regression (unit-norm columns) with "
                      "Armijo steps, where dense GLM curvature and objective evaluations "
                      "dominate",
}

# Sizes per workload. "full" is what the benchmark measures; "tiny" keeps
# the smoke test fast while exercising every code path and check.
SIZES = {
    "full": {
        "spectral-small": {"n": 12, "alpha": 0.1, "k": 2, "samples": 1000},
        "spectral-large": {"n": 600, "alpha": 0.02, "k": 4, "samples": 16, "threads": 2},
        "solve-quadratic": {"n": 400, "alpha": 0.1, "k": 8, "t": 200, "repeats": 3},
        "solve-logistic": {"m": 8124, "k": 8, "t": 30, "reg": 1.0},
    },
    "tiny": {
        "spectral-small": {"n": 8, "alpha": 0.1, "k": 2, "samples": 40},
        "spectral-large": {"n": 40, "alpha": 0.02, "k": 4, "samples": 10, "threads": 2},
        "solve-quadratic": {"n": 40, "alpha": 0.1, "k": 4, "t": 120, "repeats": 2},
        "solve-logistic": {"m": 400, "k": 4, "t": 40, "reg": 1.0},
    },
}

# Relative suboptimality subopt[t] / subopt[0] that defines iters_to_tol.
# Every dynamic run at the seed commit reaches it well inside the budget t.
TOLERANCE = {"spectral-small": 1e-6, "spectral-large": 1e-6,
             "solve-quadratic": 1e-6, "solve-logistic": 1e-6}

# One-hot group sizes of the mushroom-shaped file: 22 categorical
# attributes expanding to 112 binary columns, one nonzero per group.
MUSHROOM_GROUPS = (6, 4, 10, 2, 9, 2, 2, 2, 12, 2, 5, 4, 4, 9, 9, 1, 4, 3, 5, 9, 6, 2)


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a round: its argv, output files and work done."""

    label: str
    argv: list
    outputs: tuple
    work: int


def is_spectral(name):
    return name.startswith("spectral")


def threads(name, size="full"):
    return SIZES[size][name].get("threads", 1)


def input_files(name, indir):
    """Paths of the generated inputs a workload's invocations read."""
    indir = Path(indir)
    if name == "solve-logistic":
        return [indir / "mushroom.libsvm"]
    return [indir / "q.q", indir / "q.q.json"]


def make_inputs(name, seed, outdir, size="full"):
    """Generate a workload's inputs from ``seed`` into ``outdir``."""
    from blockprec import cli

    p = SIZES[size][name]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if name == "solve-logistic":
        write_mushroom(outdir / "mushroom.libsvm", p["m"], seed)
        return
    kind = "uniform" if name == "solve-quadratic" else "randomcorr"
    rc = cli.main(["gen", "--kind", kind, "--n", str(p["n"]), "--alpha", str(p["alpha"]),
                   "--seed", str(seed), "--out", str(outdir / "q")])
    if rc != 0:
        raise RuntimeError(f"blockprec gen exited with {rc}")


def write_mushroom(path, m, seed):
    """Mushroom-shaped LIBSVM file: m rows, 22 one-hot groups, labels 1/2.

    Category frequencies follow a fixed 1/(j+1) profile within each group,
    so only the rows, the planted weights and the label noise come from
    the seed. Labels come from a planted linear model plus logistic noise,
    split at the median margin, so the classes are balanced and not
    separable.
    """
    import numpy as np
    import scipy.sparse

    from blockprec import data

    rng = np.random.default_rng(seed)
    n = sum(MUSHROOM_GROUPS)
    offsets = np.cumsum((0,) + MUSHROOM_GROUPS[:-1])
    cols = np.empty((m, len(MUSHROOM_GROUPS)), dtype=np.int64)
    for g, (offset, size) in enumerate(zip(offsets, MUSHROOM_GROUPS)):
        weights = 1.0 / np.arange(1, size + 1)
        cols[:, g] = offset + rng.choice(size, size=m, p=weights / weights.sum())
    a = scipy.sparse.csr_matrix(
        (np.ones(cols.size), cols.ravel(), np.arange(0, cols.size + 1, len(MUSHROOM_GROUPS))),
        shape=(m, n))
    margin = a @ rng.standard_normal(n) + rng.logistic(size=m)
    y = np.where(margin > np.median(margin), 2.0, 1.0)
    data.write_libsvm(path, data.Dataset(a, y))


def invocations(name, seed, indir, outdir, size="full"):
    """The CLI invocations of one round of ``name``, in order."""
    p = SIZES[size][name]
    indir, outdir = Path(indir), Path(outdir)
    common = ["--seed", str(seed), "--k", str(p["k"])]
    if is_spectral(name):
        q = ["--q", str(indir / "q.q")]
        rounds = []
        if name == "spectral-small":
            from blockprec.partition import partition_count

            out = str(outdir / "exact")
            rounds.append(Invocation("exact", ["spectral", *q, *common, "--exact", "--out", out],
                                     (out + ".json", out + "_samples.csv"),
                                     partition_count(p["n"], p["k"])))
        out = str(outdir / "mc")
        argv = ["spectral", *q, *common, "--samples", str(p["samples"]), "--out", out]
        if "threads" in p:
            argv += ["--threads", str(p["threads"])]
        # Sampled mode draws one partitioning per sample for the eigenvalue
        # distribution and one more for the Monte Carlo mean.
        rounds.append(Invocation("mc", argv, (out + ".json", out + "_samples.csv"),
                                 2 * p["samples"]))
        return rounds
    out = str(outdir / "solve")
    if name == "solve-quadratic":
        argv = ["solve", "--objective", "quadratic", "--q", str(indir / "q.q"), *common,
                "--scheme", "both", "--t", str(p["t"]), "--repeats", str(p["repeats"])]
        repeats = p["repeats"]
    else:
        # --normalize scales columns to unit norm. Without it the CLI's Newton
        # reference solve for f* stalls above its absolute gradient tolerance
        # (1e-12) on about 4% of seeds at this size and exits 2.
        argv = ["solve", "--objective", "logistic", "--dataset",
                str(indir / "mushroom.libsvm"), *common, "--scheme", "both",
                "--step", "armijo", "--reg", str(p["reg"]), "--normalize",
                "--t", str(p["t"])]
        repeats = 1
    outputs = tuple(f"{out}_{scheme}{suffix}" for scheme in ("static", "dynamic")
                    for suffix in ("_runs.csv", ".json", "_agg.csv"))
    # Work is solver iterations: T x repeats x two schemes.
    return [Invocation("solve", argv + ["--out", out], outputs, 2 * p["t"] * repeats)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    make_inputs(args.workload, args.seed, args.out, args.size)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main())
