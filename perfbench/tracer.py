"""Outside-in tracing of the blockprec public API.

``Tracer.install()`` replaces every public function and public method of
the layer modules with a wrapper that records a span (name, parent span,
run id, start, end). A function imported into another module with
``from .x import name`` is a second reference to the same object, so the
wrapper is installed in every ``blockprec`` namespace that holds it.
``uninstall()`` puts every original back. Nothing inside ``src/`` knows it
is being traced.

Spans live in memory for one run (one round of CLI invocations) and are
folded into per-name totals when the run closes. Self time is a span's
duration minus the durations of its child spans. Parents are tracked per
thread, so a span opened on a worker thread of a pool is a root on that
thread and the submitting span's self time includes the wait for it.
"""

import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("seeding", "partition", "spectral", "solver", "objectives", "data", "cli")

# Methods of the objective classes are reported under the objective
# interface ("objectives.value"), not per class; BlockCholesky's
# constructor is its factorization.
_OBJECTIVE_CLASSES = ("Quadratic", "Glm")
_ALIASES = {"partition.BlockCholesky.__init__": "partition.BlockCholesky.factorize"}

_MARK = "__perfbench_original__"


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    run: int
    name: str
    start: float
    end: float


def _factorize_flops(args, kwargs):
    """Sum of n_k^3 / 3 over the blocks of a BlockCholesky(q, part) call."""
    part = args[2] if len(args) > 2 else kwargs["part"]
    sizes = np.bincount(part.assignment).astype(float)
    return "partition.factorize.flops", float(np.sum(sizes ** 3) / 3.0)


def _solver_iterations(args, kwargs):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return "solver.iterations", config.n_iters


# Counts recorded at a boundary from the call's arguments.
_COUNTERS = {"partition.BlockCholesky.factorize": _factorize_flops,
             "solver.run": _solver_iterations}


def _public_callables(module):
    """(owner, attribute, span name) for the public API defined in ``module``."""
    layer = module.__name__.rsplit(".", 1)[1]
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            if issubclass(obj, BaseException):
                continue
            prefix = layer if attr in _OBJECTIVE_CLASSES else f"{layer}.{attr}"
            for meth, fn in sorted(vars(obj).items()):
                if callable(fn) and (not meth.startswith("_") or meth == "__init__") \
                        and not isinstance(fn, (classmethod, staticmethod, type)):
                    name = f"{prefix}.{meth}"
                    if meth == "__init__" and name not in _ALIASES:
                        continue
                    yield obj, meth, _ALIASES.get(name, name)
        elif callable(obj):
            yield module, attr, f"{layer}.{attr}"


class Tracer:
    """Span recorder that wraps the public API of the blockprec layers."""

    def __init__(self):
        self.run_id = 0
        self.spans = []
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.run_self = []      # per closed run: {name: self seconds}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = iter(range(1, sys.maxsize)).__next__
        self._patches = []

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap the public API in every loaded blockprec namespace."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "blockprec" or n.startswith("blockprec.")) and m is not None]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"blockprec.{layer}"]
            for owner, attr, name in _public_callables(module):
                original = vars(owner)[attr]
                wrapper = self._wrap(name, original)
                wrapped[id(original)] = (original, wrapper)
                self._patch(owner, attr, wrapper)
        # Re-exports: ``from .partition import BlockCholesky`` and friends.
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans = self.spans
        local = self._local
        next_id = self._next_id
        counter = _COUNTERS.get(name)
        counters = self.counters
        lock = self._lock
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next_id()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(span_id, parent, tracer.run_id, name, start, end))
                if counter is not None:
                    key, amount = counter(args, kwargs)
                    with lock:
                        counters[key] += amount

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        setattr(traced, _MARK, fn)
        return traced

    # -- aggregation ----------------------------------------------------

    def close_run(self):
        """Fold the current run's spans into per-name counts and self times."""
        by_id = {s.id: s for s in self.spans}
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        run_self = defaultdict(float)
        for s in self.spans:
            own = (s.end - s.start) - child_time[s.id]
            self.calls[s.name] += 1
            run_self[s.name] += own
            if s.name == "partition.BlockCholesky.factorize" and _under(s, by_id, "solver.run"):
                self.counters["solver.run_factorizations"] += 1
        self.run_self.append(dict(run_self))
        self.counters["trace.spans"] += len(self.spans)
        self.spans.clear()
        self.run_id += 1



def _under(span, by_id, ancestor_name):
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == ancestor_name:
            return True
        parent = by_id.get(parent.parent)
    return False


def leftover_wrappers():
    """Names in loaded blockprec modules that still hold a tracing wrapper."""
    found = []
    for modname, module in sorted(sys.modules.items()):
        if module is None or not (modname == "blockprec" or modname.startswith("blockprec.")):
            continue
        for attr, obj in vars(module).items():
            if hasattr(obj, _MARK):
                found.append(f"{modname}.{attr}")
            if isinstance(obj, type) and obj.__module__.startswith("blockprec"):
                found.extend(f"{modname}.{attr}.{meth}" for meth, fn in vars(obj).items()
                             if hasattr(fn, _MARK))
    return found
