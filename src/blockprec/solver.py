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
from .errors import DivergenceError, InvalidArgumentError, LineSearchError
from .partition import BlockCholesky, sample_uniform_partition
from .seeding import check_seed, derive_seed, map_ordered

STATIC = "static"
DYNAMIC = "dynamic"

SCHEMES = (STATIC, DYNAMIC)


@dataclass(frozen=True)
class FixedStep:
    """Constant step size. ``eta=None`` means the analysis default 1/K."""

    eta: float | None = None

    def __post_init__(self):
        if self.eta is not None and self.eta <= 0.0:
            raise InvalidArgumentError(f"step size must be positive, got {self.eta}")

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
        if self.max_backtracks < 1:
            raise InvalidArgumentError("max_backtracks must be at least 1")


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
    jitter: float = 0.0

    def __post_init__(self):
        if self.k_blocks < 1:
            raise InvalidArgumentError("k_blocks must be positive")
        if self.scheme not in SCHEMES:
            raise InvalidArgumentError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        check_seed(self.seed)
        if self.n_iters < 0:
            raise InvalidArgumentError("n_iters must be non-negative")
        if self.model not in objectives.CURVATURE_MODELS:
            raise InvalidArgumentError(f"unknown curvature model {self.model!r}")

    def to_json_dict(self):
        step = {"kind": "fixed", "eta": self.step.eta} if isinstance(self.step, FixedStep) \
            else {"kind": "armijo", "c1": self.step.c1, "shrink": self.step.shrink,
                  "max_backtracks": self.step.max_backtracks}
        return {
            "k_blocks": self.k_blocks,
            "scheme": self.scheme,
            "seed": int(self.seed),
            "n_iters": self.n_iters,
            "model": self.model,
            "step": step,
            "jitter": self.jitter,
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


def armijo_step_size(obj, x, d, c1: float, shrink: float, max_backtracks: int) -> float:
    """Largest beta in {1, shrink, shrink^2, ...} passing the Armijo test.

    The test is f(x + beta d) <= f(x) + c1 * beta * grad f(x)^T d. At most
    ``max_backtracks`` candidates are tried; d must be a descent direction.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    slope = float(obj.gradient(x) @ d)
    if slope >= 0.0:
        raise InvalidArgumentError(
            f"not a descent direction (grad^T d = {slope:.3e} >= 0)")
    fx = obj.value(x)
    beta = 1.0
    for _ in range(max_backtracks):
        if obj.value(x + beta * d) <= fx + c1 * beta * slope:
            return beta
        beta *= shrink
    raise LineSearchError(
        f"no step satisfied the Armijo test within {max_backtracks} backtracks")


def run(obj, config: SolverConfig) -> ConvergenceTrace:
    """Execute one solver run and record its convergence trace.

    The static scheme draws a single partitioning from ``config.seed`` and
    keeps it for all iterations; the dynamic scheme derives a fresh seed
    (and partitioning) per iteration from the base seed. Deterministic
    given the config. A non-finite objective value aborts the run with a
    DivergenceError carrying the partial trace.
    """
    n = obj.n
    t_max = config.n_iters
    x = np.zeros(n)
    _, f_star = obj.optimum()

    if config.scheme == STATIC:
        seeds = [int(config.seed)] * t_max
        static_part = sample_uniform_partition(n, config.k_blocks, config.seed)
    else:
        seeds = [derive_seed(config.seed, t) for t in range(t_max)]
        static_part = None

    eta = config.step.resolve(config.k_blocks) if isinstance(config.step, FixedStep) else None
    cached_chol = None
    if static_part is not None and obj.curvature_is_constant(config.model):
        cached_chol = BlockCholesky(obj.curvature(x, config.model), static_part,
                                    jitter=config.jitter)

    fvals = np.empty(t_max + 1)
    subopts = np.empty(t_max + 1)
    gradnorms = np.empty(t_max + 1)

    def record(t):
        fvals[t] = obj.value(x)
        subopts[t] = obj.suboptimality(x)
        gradnorms[t] = np.linalg.norm(obj.gradient(x))
        if not np.isfinite(fvals[t]):
            partial = ConvergenceTrace(fvals[:t + 1].copy(), subopts[:t + 1].copy(),
                                       gradnorms[:t + 1].copy(), seeds[:t], x.copy(),
                                       f_star, config)
            raise DivergenceError(f"objective became non-finite at iteration {t}", partial)

    record(0)
    for t in range(t_max):
        part = static_part if static_part is not None \
            else sample_uniform_partition(n, config.k_blocks, seeds[t])
        chol = cached_chol if cached_chol is not None \
            else BlockCholesky(obj.curvature(x, config.model), part, jitter=config.jitter)
        d = -chol.solve(obj.gradient(x))
        if eta is not None:
            x = x + eta * d
        else:
            beta = armijo_step_size(obj, x, d, config.step.c1, config.step.shrink,
                                    config.step.max_backtracks)
            x = x + beta * d
        record(t + 1)

    return ConvergenceTrace(fvals, subopts, gradnorms, seeds, x, f_star, config)


def run_repeats(obj, config: SolverConfig, repeats: int, threads: int = 1):
    """Run ``repeats`` independent traces with per-repeat seeds.

    Repeat r uses seed derive_seed(config.seed, r) under the configured
    scheme, so a static/dynamic pair built from the same base config sees
    matched seeds. Results are ordered by repeat index regardless of the
    thread count. If repeat r diverges, the DivergenceError's ``traces``
    holds the traces of repeats 0..r-1 followed by the partial trace of r.
    """
    if repeats < 1:
        raise InvalidArgumentError("repeats must be positive")
    configs = [replace(config, seed=derive_seed(config.seed, r))
               for r in range(repeats)]
    # Fill the objective's lazy caches (optimum, Gram) before threads share it.
    obj.optimum()
    if obj.curvature_is_constant(config.model):
        obj.curvature(np.zeros(obj.n), config.model)
    traces = []
    try:
        for trace in map_ordered(lambda c: run(obj, c), configs, threads):
            traces.append(trace)
    except DivergenceError as exc:
        exc.traces = traces + exc.traces
        raise
    return traces


def write_traces_csv(fh, traces, comment: str | None = None):
    """Write traces as CSV with header run,t,fval,subopt,gradnorm."""
    if comment is not None:
        fh.write(f"# {comment}\n")
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
