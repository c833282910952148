"""Command-line experiment runner.

Subcommands: ``gen`` (synthetic curvature matrices), ``spectral``
(eigenvalue distributions and repartitioning estimates), ``solve``
(preconditioned descent runs with convergence traces), ``sweep``
(closed-form rate grids). Every subcommand is deterministic given its
flags; all randomness derives from the mandatory --seed. Emitted CSV
files start with a provenance comment carrying the full invocation.

Exit codes: 0 success, 2 invalid arguments, 3 numerical failure,
4 I/O or parse error.
"""

import argparse
import json
import os
import shlex
import sys

import numpy as np

from . import data, objectives, solver, spectral
from .errors import (
    BlockprecError,
    DivergenceError,
    EnumerationCapError,
    InvalidArgumentError,
    LibsvmParseError,
    LineSearchError,
    SingularBlockError,
    UnsupportedLossError,
)
from .seeding import check_seed, derive_seed

THREADS_ENV = "BLOCKPREC_THREADS"

# Seed-derivation tags, one namespace per purpose.
_TAG_LABELS = 101
_TAG_LINEAR = 102


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as InvalidArgumentError, so main() prints one line and exits 2."""

    def error(self, message):
        raise InvalidArgumentError(message)

    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        # argparse parses "--flag=--" to [], skipping the flag's type and choices.
        for name, value in vars(parsed).items():
            if isinstance(value, list):
                self.error(f"argument --{name.replace('_', '-')}: expected one argument")
        return parsed


def _add_common(p, needs_seed=True):
    p.add_argument("--seed", type=int,
                   help="base seed; mandatory, there is no wall-clock seeding"
                   if needs_seed else "ignored (kept for config-file symmetry)")
    p.add_argument("--out", type=str,
                   help="output path prefix")
    p.add_argument("--threads", type=int, default=os.environ.get(THREADS_ENV, "1"),
                   help=f"worker threads (default: ${THREADS_ENV} or 1)")
    p.add_argument("--config", type=str,
                   help="JSON file supplying any flag; explicit flags override it")


def build_parser():
    parser = _Parser(
        prog="blockprec",
        description="Block-diagonal preconditioned descent and its spectral analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic curvature matrix")
    p.add_argument("--kind", choices=["uniform", "separable", "randomcorr"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int,
                   help="number of blocks (separable kind only)")
    p.add_argument("--alpha", type=float)
    p.add_argument("--factor", action="store_true",
                   help="also write the symmetric square root A with A^T A = Q")
    _add_common(p)

    p = sub.add_parser("spectral", help="eigenvalue distribution across partitionings")
    p.add_argument("--q", type=str,
                   help="matrix file written by gen")
    p.add_argument("--dataset", type=str,
                   help="LIBSVM file; uses Q = A^T A + lambda-reg I")
    p.add_argument("--k", type=int)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--exact", action="store_true",
                   help="enumerate all partitionings instead of sampling")
    p.add_argument("--closed-form", action="store_true",
                   help="include closed-form values (uniform-kind matrices only)")
    p.add_argument("--lambda-reg", type=float, default=1.0)
    p.add_argument("--normalize", action="store_true",
                   help="scale dataset columns to unit L2 norm first")
    _add_common(p)

    p = sub.add_parser("solve", help="run preconditioned descent and emit traces")
    p.add_argument("--objective", choices=["quadratic", "ridge", "logistic"])
    p.add_argument("--q", type=str)
    p.add_argument("--dataset", type=str)
    p.add_argument("--k", type=int)
    p.add_argument("--scheme", choices=["static", "dynamic", "both"],
                   default="both")
    p.add_argument("--model", choices=list(objectives.CURVATURE_MODELS),
                   default=objectives.EXACT_HESSIAN)
    p.add_argument("--step", choices=["fixed", "armijo"], default="fixed")
    p.add_argument("--eta", type=float,
                   help="fixed step size (default 1/K)")
    p.add_argument("--c1", type=float, default=0.3)
    p.add_argument("--shrink", type=float, default=0.5)
    p.add_argument("--max-backtracks", type=int, default=50)
    p.add_argument("--t", type=int, default=50, help="iteration budget")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--reg", type=float, default=0.0,
                   help="L2 regularization weight lambda")
    p.add_argument("--jitter", type=float, default=0.0,
                   help="diagonal jitter added to blocks before factorization")
    p.add_argument("--normalize", action="store_true",
                   help="scale dataset columns to unit L2 norm first")
    _add_common(p)

    p = sub.add_parser("sweep", help="closed-form rates over a (K, alpha) grid")
    p.add_argument("--n", type=int)
    p.add_argument("--k-grid", type=str,
                   help="comma-separated block counts, each dividing n")
    p.add_argument("--alpha-grid", type=str,
                   help="comma-separated correlation strengths in [0, 1)")
    _add_common(p, needs_seed=False)

    return parser


def _parse(parser, argv):
    """Parse argv with the flags of its --config JSON file placed in front of it.

    Config values thus pass the same argparse types as flags, explicit
    flags override them, and $BLOCKPREC_THREADS is the --threads default.
    """
    args = parser.parse_args(argv)
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise LibsvmParseError(f"bad JSON config {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise InvalidArgumentError(f"config {args.config} must hold a JSON object")
        tokens = []
        for key, value in loaded.items():
            flag = "--" + key.replace("_", "-")
            if key.replace("-", "_") not in vars(args) or key == "command":
                raise InvalidArgumentError(
                    f"config key {key!r} is not a flag of the {args.command} subcommand")
            if value is True:
                tokens.append(flag)
            elif value is not False and value is not None:
                tokens.append(f"{flag}={value}")
        try:
            args = parser.parse_args(
                [args.command, *tokens, *argv[argv.index(args.command) + 1:]])
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"config {args.config}: {exc}") from None
    if args.seed is not None:
        check_seed(args.seed)
    if args.threads < 1:
        raise InvalidArgumentError(
            f"--threads (or ${THREADS_ENV}) must be positive, got {args.threads}")
    return args


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            raise InvalidArgumentError(f"{flag} is required for '{args.command}'")


def _ensure_parent(path):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _invocation(argv):
    return "blockprec " + shlex.join(argv)


def cmd_gen(args, argv):
    _require(args, "kind", "n", "alpha", "out", "seed")
    meta = {"kind": args.kind, "n": args.n, "alpha": args.alpha,
            "seed": args.seed, "invocation": _invocation(argv)}
    if args.kind == "uniform":
        q = data.gen_uniform_q(args.n, args.alpha)
    elif args.kind == "separable":
        _require(args, "k")
        q = data.gen_separable_q(args.n, args.k, args.alpha)
        meta["k"] = args.k
    else:
        q = data.gen_random_corr_q(args.n, args.alpha, args.seed)
        meta["note"] = ("off-diagonals ~ N(alpha, (alpha/2)^2); shifted and rescaled "
                        "to unit diagonal if the raw draw was not SPD")
    _ensure_parent(args.out)
    data.save_q(args.out + ".q", q, meta)
    if args.factor:
        a = data.factor_sqrt(q)
        data.save_q(args.out + ".a", a, {**meta, "content": "symmetric square root of Q"})
    return 0


def _read_input(args, logistic_labels):
    """(Q, sidecar metadata, None) from --q, or (None, None, Dataset) from --dataset.

    Exactly one of the two flags must be given; --normalize scales the
    dataset's columns to unit norm.
    """
    if (args.q is None) == (args.dataset is None):
        raise InvalidArgumentError("exactly one of --q or --dataset is required")
    if args.q is not None:
        return (*data.load_q(args.q), None)
    ds = data.read_libsvm(args.dataset, logistic_labels=logistic_labels)
    return None, None, data.normalize_columns(ds) if args.normalize else ds


def cmd_spectral(args, argv):
    _require(args, "k", "out", "seed")
    if not 0.0 <= args.lambda_reg < np.inf:
        raise InvalidArgumentError(
            f"--lambda-reg must be non-negative and finite, got {args.lambda_reg}")
    q, meta, ds = _read_input(args, False)
    if ds is not None:
        q = objectives.gram_matrix(ds.a) + args.lambda_reg * np.eye(ds.n_features)
        meta = {"kind": "dataset", "path": args.dataset, "lambda_reg": args.lambda_reg}
    closed = None
    if args.closed_form:
        if not meta or meta.get("kind") != "uniform":
            raise InvalidArgumentError(
                "--closed-form needs a matrix generated with 'gen --kind uniform'")
        alpha = meta.get("alpha")
        if type(alpha) not in (int, float):
            raise InvalidArgumentError(
                f"--closed-form needs a numeric sidecar alpha, got {alpha!r}")
        if np.max(np.abs(q - data.gen_uniform_q(q.shape[0], alpha))) > 1e-12:
            raise InvalidArgumentError(
                f"--closed-form: the matrix is not uniform with its sidecar's alpha = {alpha!r}")
        closed = spectral.uniform_closed_form(q.shape[0], args.k, float(alpha))
    report = spectral.build_report(q, args.k, n_samples=args.samples, seed=args.seed,
                                   exact=args.exact, closed_form=closed,
                                   threads=args.threads)
    _ensure_parent(args.out)
    with open(args.out + ".json", "w", encoding="ascii") as fh:
        report.write_json(fh)
    with open(args.out + "_samples.csv", "w", encoding="ascii") as fh:
        report.write_samples_csv(fh, comment=_invocation(argv))
    return 0


def _build_objective(args):
    if args.objective == "quadratic" and args.dataset is not None:
        raise InvalidArgumentError("the quadratic objective needs --q, not --dataset")
    q, _, ds = _read_input(args, args.objective == "logistic")
    if ds is None:
        if args.objective == "quadratic":
            rng = np.random.default_rng(derive_seed(args.seed, _TAG_LINEAR))
            return objectives.Quadratic(q, rng.standard_normal(q.shape[0]))
        a = data.factor_sqrt(q)
        y = data.gen_labels(a, "gaussian", derive_seed(args.seed, _TAG_LABELS))
        if args.objective == "logistic":
            y = np.where(y >= 0.0, 1.0, -1.0)
            return objectives.logistic(a, y, args.reg)
        return objectives.ridge(a, y, args.reg)
    if args.objective == "logistic":
        return objectives.logistic(ds.a, ds.y, args.reg)
    return objectives.ridge(ds.a, ds.y, args.reg)


def _write_scheme_outputs(out, scheme, config, traces, invocation):
    with open(f"{out}_{scheme}_runs.csv", "w", encoding="ascii") as fh:
        solver.write_traces_csv(fh, traces, comment=invocation)
    with open(f"{out}_{scheme}.json", "w", encoding="ascii") as fh:
        solver.write_traces_json(fh, config, traces)
    if not traces:
        return
    horizon = min(len(t) for t in traces)
    subopts = np.array([t.subopts[:horizon] for t in traces])
    with open(f"{out}_{scheme}_agg.csv", "w", encoding="ascii") as fh:
        fh.write(f"# {invocation}\n")
        fh.write("t,subopt_min,subopt_median,subopt_max\n")
        lo = subopts.min(axis=0)
        med = np.median(subopts, axis=0)
        hi = subopts.max(axis=0)
        for t in range(horizon):
            fh.write(f"{t},{float(lo[t])!r},{float(med[t])!r},{float(hi[t])!r}\n")


def cmd_solve(args, argv):
    _require(args, "objective", "k", "out", "seed")
    obj = _build_objective(args)
    if args.step == "fixed":
        step = solver.FixedStep(args.eta)
    else:
        step = solver.ArmijoStep(args.c1, args.shrink, args.max_backtracks)
    schemes = [args.scheme] if args.scheme in (solver.STATIC, solver.DYNAMIC) \
        else [solver.STATIC, solver.DYNAMIC]
    invocation = _invocation(argv)
    _ensure_parent(args.out)
    for scheme in schemes:
        config = solver.SolverConfig(
            k_blocks=args.k, scheme=scheme, seed=args.seed, n_iters=args.t,
            model=args.model, step=step, jitter=args.jitter)
        try:
            traces = solver.run_repeats(obj, config, args.repeats, threads=args.threads)
        except DivergenceError as exc:
            if exc.traces:
                _write_scheme_outputs(args.out, scheme, config, exc.traces, invocation)
            raise
        _write_scheme_outputs(args.out, scheme, config, traces, invocation)
    return 0


def _parse_grid(text, kind, convert):
    try:
        values = [convert(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidArgumentError(f"bad {kind} grid {text!r}") from None
    if not values:
        raise InvalidArgumentError(f"empty {kind} grid")
    return values


def cmd_sweep(args, argv):
    _require(args, "n", "k_grid", "alpha_grid", "out")
    ks = _parse_grid(args.k_grid, "K", int)
    alphas = _parse_grid(args.alpha_grid, "alpha", float)
    for k in ks:
        if k < 1 or args.n % k != 0:
            raise InvalidArgumentError(f"grid K={k} does not divide n={args.n}")
    for alpha in alphas:
        if not 0.0 <= alpha < 1.0:
            raise InvalidArgumentError(f"grid alpha={alpha} outside [0, 1)")
    _ensure_parent(args.out)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(f"# {_invocation(argv)}\n")
        fh.write("n,K,alpha,epsilon,rho_static,rho_dynamic\n")
        for k in ks:
            for alpha in alphas:
                form = spectral.uniform_closed_form(args.n, k, alpha)
                fh.write(f"{args.n},{k},{alpha!r},{form.epsilon!r},"
                         f"{form.rho_static!r},{form.rho_dynamic!r}\n")
    return 0


_COMMANDS = {"gen": cmd_gen, "spectral": cmd_spectral, "solve": cmd_solve,
             "sweep": cmd_sweep}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse(parser, argv)
        return _COMMANDS[args.command](args, argv)
    except SystemExit as exc:  # argparse after printing -h/--help
        return exc.code
    except (SingularBlockError, DivergenceError, LineSearchError) as exc:
        print(f"blockprec: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (LibsvmParseError, UnicodeDecodeError) as exc:
        print(f"blockprec: parse error: {exc}", file=sys.stderr)
        return 4
    except (InvalidArgumentError, UnsupportedLossError, EnumerationCapError) as exc:
        print(f"blockprec: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except BlockprecError as exc:
        print(f"blockprec: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"blockprec: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
