"""Benchmark of the blockprec CLI, driven in-process through ``blockprec.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One run:

1. sets up the workload's inputs from the seed (several times, each in a
   fresh interpreter, so set-up time includes import);
2. runs one untimed warm-up round, whose outputs become the reference;
3. repeats timed rounds of the workload's CLI invocations for S seconds;
4. checks the reference outputs against independent oracles, every other
   round's outputs against the reference bytes, and, where a workload
   uses a thread pool, the outputs of --threads 1 against --threads 2.

With ``--trace 0`` it prints the end-to-end metrics. With ``--trace 1`` it
splits the S seconds between untraced rounds and rounds traced from
outside the library (see tracer.py) and prints the per-layer metrics.
The last line of standard output is the result object; a full record with
the environment and every round time goes to .perfbench/results/.

BLAS is pinned to one thread before numpy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
MIN_ROUNDS = 3

# Every reported time is rescaled to a reference machine speed. On a shared
# host, throughput drifts by up to 1.5x over minutes and CPU time drifts
# with it, so raw medians of runs minutes apart differ by 15-30%. A fixed
# kernel timed right before and after each measurement drifts the same way;
# time * CAL_REF_S / kernel time varies by 3-9% instead. CAL_REF_S is
# close to the kernel's time on a quiet 2-vCPU x86-64 VM with OpenBLAS
# 0.3.31; it only sets the unit. Raw times are kept in the run record.
CAL_REF_S = 0.080

# (name, unit) of every metric, in print order.
END_TO_END = [("wall_s", "s"), ("work_per_s", "work/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("pass_frac", "fraction")]

TRACED_NAMES = (
    "seeding.derive_seed",
    "partition.check_symmetric_matrix",
    "partition.sample_uniform_partition",
    "partition.enumerate_partitions",
    "partition.Partitioning.blocks",
    "partition.BlockCholesky.factorize",
    "partition.BlockCholesky.solve",
    "partition.BlockCholesky.inverse",
    "partition.BlockCholesky.whiten",
    "spectral.build_report",
    "spectral.lambda_min_precond",
    "spectral.precond_spectrum",
    "spectral.lambda_min_of_expected",
    "spectral.expected_inverse_mc",
    "spectral.expected_lambda_mc",
    "spectral.expected_inverse_exact",
    "spectral.SpectralReport.write_json",
    "spectral.SpectralReport.write_samples_csv",
    "objectives.value",
    "objectives.gradient",
    "objectives.curvature",
    "objectives.suboptimality",
    "objectives.optimum",
    "solver.run",
    "solver.armijo_step_size",
    "solver.write_traces_csv",
    "solver.write_traces_json",
    "data.read_libsvm",
    "data.load_q",
    "data.factor_sqrt",
    "cli.main",
)

PER_LAYER = (
    [(f"{n}.{what}", unit) for n in TRACED_NAMES for what, unit in (("calls", "count"),
                                                                    ("self_s", "s"))]
    + [(f"{layer}.self_s", "s") for layer in tracer.LAYERS]
    + [("solver.refactorizations", "count"), ("objectives.evals_per_iter", "calls/iter"),
       ("partition.factorize.flops", "flop"), ("iters_to_tol", "count"),
       ("wall_raw_s", "s"), ("calibration_s", "s"), ("trace.spans", "count"),
       ("trace.overhead_frac", "fraction")]
)


def import_blockprec():
    """Import blockprec from this checkout's src/, never from elsewhere."""
    package = SRC / "blockprec"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no blockprec sources at {package}; "
                         "run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    import blockprec
    import blockprec.cli

    if Path(blockprec.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported blockprec from {blockprec.__file__}, "
                         f"not from {package}")
    return blockprec


class Tally:
    """Invocations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


class Calibration:
    """Times a fixed kernel that does not touch blockprec.

    The kernel mixes interpreter work, small dense linear algebra,
    mid-size array operations and a sparse weighted Gram product, as the
    workloads do, and takes about CAL_REF_S.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((64, 64))
        self._spd = g @ g.T + 64.0 * np.eye(64)
        self._dense = rng.standard_normal((200, 200))
        self._mid = rng.standard_normal((400, 400))
        rows, groups, width = 2000, 22, 5
        cols = np.arange(groups) * width + rng.integers(0, width, (rows, groups))
        self._onehot = scipy.sparse.csr_matrix(
            (np.ones(rows * groups), cols.ravel(), np.arange(0, rows * groups + 1, groups)),
            shape=(rows, groups * width))
        self._weights = rng.random(rows)[:, None]
        self._last = None
        self.samples = []

    def _kernel(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        for _ in range(200):
            np.linalg.cholesky(self._spd)
        for _ in range(20):
            self._dense @ self._dense
        # Mid-size array work with temporaries, like input validation and
        # matrix-vector products: it tracks memory contention, which the
        # cache-resident parts above miss.
        for _ in range(40):
            np.max(np.abs(self._mid - self._mid.T))
            self._mid @ self._mid[0]
        for _ in range(4):
            (self._onehot.T @ self._onehot.multiply(self._weights)).toarray()
        return time.perf_counter() - t0

    def start(self):
        self._last = self._kernel()

    def factor(self):
        """Scale for a time measured since the last call (or ``start``).

        CAL_REF_S over the mean of the kernel times on either side.
        """
        now = self._kernel()
        mean = 0.5 * (self._last + now)
        self._last = now
        self.samples.append(mean)
        return CAL_REF_S / mean


def _call_cli(cli, argv):
    """Exit code of ``blockprec <argv>``; a traceback counts as failure."""
    try:
        return cli.main(argv)
    except Exception:  # the CLI contract forbids tracebacks: record, keep measuring
        traceback.print_exc()
        return None


def _read_outputs(inv):
    out = {}
    for path in inv.outputs:
        try:
            out[path] = Path(path).read_bytes()
        except OSError:
            out[path] = None
    return out


def setup(name, seed, size, work, tally, cal):
    """Generate inputs SETUP_REPEATS times in fresh interpreters; time each.

    Every repeat writes the same directory and must reproduce the bytes of
    the first (generation is deterministic given the seed). Returns the
    input directory, raw times and calibrated times.
    """
    outdir = work / "inputs"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(seed), "--out", str(outdir), "--size", size]
    times, scaled, first = [], [], None
    cal.start()
    for r in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT)
        # A blocking wait returns the moment the child exits; a wait with a
        # timeout polls and rounds the time up to 50 ms steps. The watchdog
        # bounds the wait instead.
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * cal.factor())
        files = [Path(p).read_bytes() if Path(p).is_file() else None
                 for p in workloads.input_files(name, outdir)]
        first = files if first is None else first
        tally.record(proc.returncode == 0 and None not in files and files == first,
                     f"set-up {r}: exit {proc.returncode} or inputs differ from set-up 0")
    return outdir, times, scaled


def timed_rounds(cli, rounds, seconds, reference, tally, cal, after_round=None):
    """Repeat rounds until ``seconds`` of round time.

    Returns raw and calibrated round times.
    """
    times, scaled = [], []
    cal.start()
    while len(times) < MIN_ROUNDS or sum(times) < seconds:
        t0 = time.perf_counter()
        codes = [_call_cli(cli, inv.argv) for inv in rounds]
        times.append(time.perf_counter() - t0)
        if after_round is not None:
            after_round()
        scaled.append(times[-1] * cal.factor())
        for inv, code in zip(rounds, codes):
            same = _read_outputs(inv) == reference[inv.label]
            tally.record(code == 0 and same,
                         f"{inv.label}: exit {code}" if code != 0 else
                         f"{inv.label}: outputs differ from the reference round")
    return times, scaled


def verify(name, seed, size, indir, rounds, reference_codes):
    """Oracle checks of the reference outputs.

    Returns ({label: failure messages}, iters_to_tol). An invocation that
    exited non-zero is not checked further; an output that is missing or
    malformed is a failure, not a crash of the benchmark.
    """
    import checks

    p = workloads.SIZES[size][name]
    tol = workloads.TOLERANCE[name]
    by_label = {inv.label: inv for inv in rounds}
    failures = {label: ([] if code == 0 else [f"{label}: exit {code}"])
                for label, code in reference_codes.items()}

    def guarded(label, check, *args, **kwargs):
        if reference_codes[label] != 0:
            return None
        try:
            found, value = check(*args, **kwargs)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            failures[label].append(f"{label}: output could not be checked: {exc!r}")
            return None
        failures[label] += found
        return value

    if workloads.is_spectral(name):
        q = checks.read_q(indir / "q.q")
        reports = {label: guarded(label, checks.check_spectral, inv.outputs[0], q, p["k"],
                                  seed, exact=label == "exact")
                   for label, inv in by_label.items()}
        if reports.get("exact") and reports["mc"]:
            failures["mc"] += checks.check_mc_vs_exact(reports["mc"], reports["exact"])
        report = reports.get("exact") or reports["mc"]
        return failures, checks.predicted_iters(report["rho_dynamic"], tol) if report else 0
    if name == "solve-quadratic":
        f_star = checks.quadratic_optimum(checks.read_q(indir / "q.q"), seed)
        repeats = p["repeats"]
    else:
        f_star = checks.logistic_optimum(indir / "mushroom.libsvm", p["reg"],
                                          normalize="--normalize" in by_label["solve"].argv)
        repeats = 1
    hits = []
    for scheme in ("static", "dynamic"):
        path = next(o for o in by_label["solve"].outputs if o.endswith(f"_{scheme}.json"))
        hits += guarded("solve", checks.check_solve, path, scheme, f_star, p["t"], repeats,
                        tol) or []
    return failures, statistics.median(hits) if hits else p["t"] + 1


def check_threads(cli, name, size, rounds, work, tally):
    """Outputs of --threads 1 must equal those of the timed --threads N run."""
    import checks

    n_threads = workloads.threads(name, size)
    for inv in rounds:
        if "--threads" not in inv.argv:
            continue
        argv = list(inv.argv)
        argv[argv.index("--threads") + 1] = "1"
        single = str(work / "threads1" / inv.label)
        argv[argv.index("--out") + 1] = single
        code = _call_cli(cli, argv)
        prefix = inv.argv[inv.argv.index("--out") + 1]
        try:
            same = code == 0 and all(
                checks.strip_comments(path) == checks.strip_comments(single + path[len(prefix):])
                for path in inv.outputs)
        except OSError:
            same = False
        tally.record(same, f"{inv.label}: --threads 1 output differs from --threads "
                           f"{n_threads} (exit {code})")


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(name, size):
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "blockprec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "threads": workloads.threads(name, size),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_metrics(tr, untraced, traced, iters, cal):
    """Per-layer metrics of a traced run.

    ``untraced`` and ``traced`` are (raw, calibrated) round times.
    """
    runs = max(len(tr.run_self), 1)
    metrics = {}
    for name in TRACED_NAMES:
        metrics[f"{name}.calls"] = _metric(tr.calls[name] / runs, "count")
        metrics[f"{name}.self_s"] = _metric(
            statistics.median(r.get(name, 0.0) for r in tr.run_self), "s")
    for layer in tracer.LAYERS:
        metrics[f"{layer}.self_s"] = _metric(statistics.median(
            sum((v for k, v in r.items() if k.startswith(layer + ".")), 0.0)
            for r in tr.run_self), "s")
    runs_called = tr.calls["solver.run"]
    objective_calls = sum(tr.calls[f"objectives.{m}"]
                          for m in ("value", "gradient", "curvature", "suboptimality"))
    iterations = tr.counters["solver.iterations"]
    metrics["solver.refactorizations"] = _metric(
        tr.counters["solver.run_factorizations"] / runs_called if runs_called else 0.0, "count")
    metrics["objectives.evals_per_iter"] = _metric(
        objective_calls / iterations if iterations else 0.0, "calls/iter")
    metrics["partition.factorize.flops"] = _metric(
        tr.counters["partition.factorize.flops"] / runs, "flop")
    metrics["iters_to_tol"] = _metric(float(iters), "count")
    metrics["wall_raw_s"] = _metric(statistics.median(untraced[0]), "s")
    metrics["calibration_s"] = _metric(statistics.median(cal.samples), "s")
    metrics["trace.spans"] = _metric(tr.counters["trace.spans"] / runs, "count")
    metrics["trace.overhead_frac"] = _metric(
        statistics.median(traced[1]) / statistics.median(untraced[1]) - 1.0, "fraction")
    return metrics


def bench(name, seed, seconds, trace, size="full"):
    """One benchmark run; returns (result object, full record)."""
    blockprec = import_blockprec()
    cli = blockprec.cli
    cal = Calibration()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        tally = Tally()
        indir, setup_raw, setup_scaled = setup(name, seed, size, work, tally, cal)
        outdir = work / "out"
        outdir.mkdir()
        rounds = workloads.invocations(name, seed, indir, outdir, size)

        reference_codes = {inv.label: _call_cli(cli, inv.argv) for inv in rounds}
        reference = {inv.label: _read_outputs(inv) for inv in rounds}

        traced = ([], [])
        if trace:
            times = timed_rounds(cli, rounds, seconds / 2, reference, tally, cal)
            tr = tracer.Tracer()
            tr.install()
            try:
                traced = timed_rounds(cli, rounds, seconds / 2, reference, tally, cal,
                                      after_round=tr.close_run)
            finally:
                tr.uninstall()
            leftovers = tracer.leftover_wrappers()
            tally.record(not leftovers, f"wrappers left after tracing: {leftovers[:5]}")
        else:
            times = timed_rounds(cli, rounds, seconds, reference, tally, cal)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures, iters = verify(name, seed, size, indir, rounds, reference_codes)
        for inv in rounds:
            tally.record(not failures[inv.label], "; ".join(failures[inv.label]))
        check_threads(cli, name, size, rounds, work, tally)

        if trace:
            metrics = per_layer_metrics(tr, times, traced, iters, cal)
        else:
            scaled = times[1]
            values = {
                "wall_s": statistics.median(scaled),
                "work_per_s": sum(inv.work for inv in rounds) * len(scaled) / sum(scaled),
                "setup_s": statistics.median(setup_scaled),
                "peak_rss_mb": peak_rss_mb,
                "pass_frac": 1.0 - tally.failed / tally.attempted,
            }
            metrics = {key: _metric(values[key], unit) for key, unit in END_TO_END}
        result = {"correct": tally.failed == 0, "attempted": tally.attempted,
                  "failed": tally.failed, "metrics": metrics}
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "size": size, "environment": environment(name, size),
                  "argv": [inv.argv for inv in rounds], "cal_ref_s": CAL_REF_S,
                  "round_raw_s": times[0], "round_s": times[1],
                  "traced_round_raw_s": traced[0], "traced_round_s": traced[1],
                  "setup_raw_s": setup_raw, "setup_s": setup_scaled,
                  "calibration_s": cal.samples, "iters_to_tol": iters,
                  "failures": tally.reasons, "result": result}
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark of the blockprec CLI.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    result, record = bench(args.workload, args.seed, args.seconds, args.trace, args.size)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for reason in record["failures"]:
        print(f"perfbench: check failed: {reason}", file=sys.stderr)
    print("perfbench env: " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
