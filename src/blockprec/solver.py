"""Block-diagonal preconditioned gradient descent.

Runs x_{t+1} = x_t - eta * Q_P^{-1} grad f(x_t) where Q_P is the
block-diagonal mask of the curvature model, with either one fixed
partitioning for the whole run (static) or a fresh random partitioning
per iteration (dynamic repartitioning). Step sizes are either fixed
(default 1/K, matching the convergence analysis) or chosen by Armijo
backtracking.
"""

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import objectives
from .data import _comment_line
from .errors import DivergenceError, InvalidArgumentError, LineSearchError
from .partition import BlockCholesky, Partitioning, sample_uniform_partition
from .seeding import _check_integer, check_seed, derive_seed, map_ordered

STATIC = "static"
DYNAMIC = "dynamic"

SCHEMES = (STATIC, DYNAMIC)


@dataclass(frozen=True)
class FixedStep:
    """Constant step size. ``eta=None`` means the analysis default 1/K."""

    eta: float | None = None

    def __post_init__(self):
        if self.eta is not None:
            if not 0.0 < self.eta < np.inf:
                raise InvalidArgumentError(f"step size must be positive and finite, got {self.eta}")
            object.__setattr__(self, "eta", float(self.eta))

    def resolve(self, k_blocks: int) -> float:
        return 1.0 / k_blocks if self.eta is None else self.eta


@dataclass(frozen=True)
class ArmijoStep:
    """Backtracking line search with sufficient-decrease constant c1."""

    c1: float = 0.3
    shrink: float = 0.5
    max_backtracks: int = 50

    def __post_init__(self):
        if not 0.0 < self.c1 < 1.0:
            raise InvalidArgumentError(f"c1 must lie in (0, 1), got {self.c1}")
        if not 0.0 < self.shrink < 1.0:
            raise InvalidArgumentError(f"shrink must lie in (0, 1), got {self.shrink}")
        object.__setattr__(self, "c1", float(self.c1))
        object.__setattr__(self, "shrink", float(self.shrink))
        backtracks = _check_integer(self.max_backtracks, "max_backtracks")
        if backtracks < 1:
            raise InvalidArgumentError("max_backtracks must be at least 1")
        object.__setattr__(self, "max_backtracks", backtracks)


@dataclass(frozen=True)
class SolverConfig:
    """Full description of a solver run.

    ``seed`` is the partition seed for the static scheme and the base seed
    for per-iteration reseeding in the dynamic scheme. Runs start at x = 0.
    """

    k_blocks: int
    scheme: str = DYNAMIC
    seed: int = 0
    n_iters: int = 50
    model: str = objectives.EXACT_HESSIAN
    step: "FixedStep | ArmijoStep" = field(default_factory=FixedStep)

    def __post_init__(self):
        for name in ("k_blocks", "seed", "n_iters"):  # stored as Python ints
            object.__setattr__(self, name, _check_integer(getattr(self, name), name))
        if self.k_blocks < 1:
            raise InvalidArgumentError("k_blocks must be positive")
        if self.scheme not in SCHEMES:
            raise InvalidArgumentError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        check_seed(self.seed)
        if self.n_iters < 0:
            raise InvalidArgumentError("n_iters must be non-negative")
        objectives._check_model(self.model)

    def to_json_dict(self):
        step = {"kind": "fixed", "eta": self.step.eta} if isinstance(self.step, FixedStep) \
            else {"kind": "armijo", "c1": self.step.c1, "shrink": self.step.shrink,
                  "max_backtracks": self.step.max_backtracks}
        return {
            "k_blocks": self.k_blocks,
            "scheme": self.scheme,
            "seed": self.seed,
            "n_iters": self.n_iters,
            "model": self.model,
            "step": step,
        }


@dataclass
class ConvergenceTrace:
    """Per-iteration record of a run: f(x_t), f(x_t) - f*, ||grad f(x_t)||.

    Arrays have length n_iters + 1 (entry 0 is the starting point).
    ``seeds`` holds the partition seed used at each iteration.
    """

    fvals: np.ndarray
    subopts: np.ndarray
    gradnorms: np.ndarray
    seeds: list
    x_final: np.ndarray
    f_star: float
    config: SolverConfig

    def __len__(self):
        return self.fvals.size

    def to_json_dict(self):
        return {
            "config": self.config.to_json_dict(),
            "f_star": self.f_star,
            "fvals": [float(v) for v in self.fvals],
            "subopts": [float(v) for v in self.subopts],
            "gradnorms": [float(v) for v in self.gradnorms],
            "seeds": [int(s) for s in self.seeds],
            "x_final": [float(v) for v in self.x_final],
        }


def armijo_step_size(obj, x, fx: float, g, d, c1: float, shrink: float,
                     max_backtracks: int) -> float:
    """Largest beta in {1, shrink, shrink^2, ...} passing the Armijo test.

    The test is f(x + beta d) <= f(x) + c1 * beta * g^T d, where ``fx`` and
    ``g`` are f(x) and grad f(x), which the caller has already evaluated. At
    most ``max_backtracks`` candidates are tried. d must be a descent
    direction or zero, as at an exact optimum, where beta = 1 passes with
    equality.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    if not d.any():
        return 1.0
    slope = float(np.asarray(g, dtype=float) @ d)
    if slope >= 0.0:
        raise InvalidArgumentError(
            f"not a descent direction (grad^T d = {slope:.3e} >= 0)")
    beta = 1.0
    for _ in range(max_backtracks):
        if obj.value(x + beta * d) <= fx + c1 * beta * slope:
            return beta
        beta *= shrink
    raise LineSearchError(
        f"no step satisfied the Armijo test within {max_backtracks} backtracks")


def _check_blocks(obj, config):
    if config.k_blocks > obj.n:
        raise InvalidArgumentError(
            f"k must satisfy 1 <= k <= n, got k={config.k_blocks}, n={obj.n}")


def run(obj, config: SolverConfig) -> ConvergenceTrace:
    """Execute one solver run and record its convergence trace.

    A run is its list of partition seeds: ``config.seed`` at every step
    (static) or ``derive_seed(config.seed, t)`` at step t (dynamic). A step
    draws a partitioning only when its seed differs from the last step's,
    and factors the objective's ``block_curvature`` (one batched Cholesky
    per stack, no n x n curvature) only when the partitioning changed or
    the curvature is not constant. A drawn partitioning carries its block
    layout, and the stacks are factored without ``BlockCholesky``'s entry
    pass: each is a principal block of a matrix validated when the
    objective took it, or symmetric by construction, and a block that fails
    its Cholesky still raises the public constructor's error. Each iterate
    is recorded by one ``obj.evaluate(x)`` call, which gives its value,
    suboptimality and gradient from one product with H or one margin pass;
    Armijo steps reuse that value and gradient. A non-finite value aborts
    the run with a DivergenceError carrying the partial trace.
    """
    n = obj.n
    t_max = config.n_iters
    _check_blocks(obj, config)
    x = np.zeros(n)
    _, f_star = obj.optimum()

    seeds = [config.seed] * t_max if config.scheme == STATIC \
        else [derive_seed(config.seed, t) for t in range(t_max)]
    eta = config.step.resolve(config.k_blocks) if isinstance(config.step, FixedStep) else None
    refactor = not obj.curvature_is_constant(config.model)

    fvals = np.empty(t_max + 1)
    subopts = np.empty(t_max + 1)
    gradnorms = np.empty(t_max + 1)

    def record(t):
        """Record iterate t and return its gradient."""
        fvals[t], subopts[t], grad = obj.evaluate(x)
        gradnorms[t] = np.linalg.norm(grad)
        if not np.isfinite(fvals[t]):
            partial = ConvergenceTrace(fvals[:t + 1].copy(), subopts[:t + 1].copy(),
                                       gradnorms[:t + 1].copy(), seeds[:t], x.copy(),
                                       f_star, config)
            raise DivergenceError(f"objective became non-finite at iteration {t}", partial)
        return grad

    grad = record(0)
    for t in range(t_max):
        new_part = t == 0 or seeds[t] != seeds[t - 1]
        if new_part:
            part = sample_uniform_partition(n, config.k_blocks, seeds[t])
        if new_part or refactor:
            chol = BlockCholesky._factored(obj.block_curvature(x, part, config.model), part)
        d = -chol.solve(grad)
        if eta is not None:
            x = x + eta * d
        else:
            beta = armijo_step_size(obj, x, fvals[t], grad, d, config.step.c1,
                                    config.step.shrink, config.step.max_backtracks)
            x = x + beta * d
        grad = record(t + 1)

    return ConvergenceTrace(fvals, subopts, gradnorms, seeds, x, f_star, config)


def run_repeats(obj, config: SolverConfig, repeats: int, threads: int = 1):
    """Run ``repeats`` independent traces with per-repeat seeds.

    Repeat r uses seed derive_seed(config.seed, r) under the configured
    scheme, so a static/dynamic pair built from the same base config sees
    matched seeds. Results are ordered by repeat index regardless of the
    thread count. If repeat r diverges, the DivergenceError's ``traces``
    holds the traces of repeats 0..r-1 followed by the partial trace of r.
    """
    if _check_integer(repeats, "repeats") < 1:
        raise InvalidArgumentError("repeats must be positive")
    if _check_integer(threads, "threads") < 1:
        raise InvalidArgumentError(f"threads must be at least 1, got {threads}")
    _check_blocks(obj, config)
    configs = [replace(config, seed=derive_seed(config.seed, r))
               for r in range(repeats)]
    # Fill the objective's lazy caches (optimum, Gram) before threads share it.
    # Singleton blocks, so this gathers n entries and copies no n x n matrix.
    obj.optimum()
    if obj.curvature_is_constant(config.model):
        obj.block_curvature(np.zeros(obj.n), Partitioning(np.arange(obj.n), obj.n), config.model)
    traces = []
    try:
        for trace in map_ordered(lambda c: run(obj, c), configs, threads):
            traces.append(trace)
    except DivergenceError as exc:
        exc.traces = traces + exc.traces
        raise
    return traces


def write_traces_csv(fh, traces, comment: str | None = None):
    """Write traces as CSV with header run,t,fval,subopt,gradnorm, after a one-line ``comment``."""
    if comment is not None:
        fh.write(_comment_line(comment))
    fh.write("run,t,fval,subopt,gradnorm\n")
    for run_idx, trace in enumerate(traces):
        for t in range(len(trace)):
            fh.write(f"{run_idx},{t},{float(trace.fvals[t])!r},{float(trace.subopts[t])!r},"
                     f"{float(trace.gradnorms[t])!r}\n")


def write_traces_json(fh, config: SolverConfig, traces):
    """Write traces plus the generating config as JSON."""
    json.dump({"config": config.to_json_dict(),
               "traces": [t.to_json_dict() for t in traces]},
              fh, indent=2, sort_keys=True)
    fh.write("\n")
