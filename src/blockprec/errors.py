"""Exception types shared across the library.

The CLI maps these onto exit codes: invalid arguments -> 2, numerical
failures -> 3, I/O and parse errors -> 4.
"""


class BlockprecError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(BlockprecError, ValueError):
    """An argument violates a documented precondition."""


class EnumerationCapError(BlockprecError):
    """The number of partitionings to enumerate exceeds the configured cap."""


class SingularBlockError(BlockprecError):
    """A principal block is not positive definite, so its factorization failed.

    Attributes:
        block: index of the offending block.
    """

    def __init__(self, block, message=None):
        self.block = block
        super().__init__(message or f"block {block} is not positive definite")


class LineSearchError(BlockprecError):
    """Backtracking exhausted its budget without satisfying the Armijo test."""


class DivergenceError(BlockprecError):
    """The objective became non-finite during a run.

    Attributes:
        trace: the partial ConvergenceTrace recorded before the abort.
        traces: every trace of the batch up to the abort, in run order,
            ending with ``trace``; ``run_repeats`` prepends the repeats
            that completed before the diverging one.
    """

    def __init__(self, message, trace=None):
        self.trace = trace
        self.traces = [] if trace is None else [trace]
        super().__init__(message)


class UnsupportedLossError(BlockprecError):
    """The requested quantity is undefined for this loss function."""


class LibsvmParseError(BlockprecError, ValueError):
    """Malformed LIBSVM input.

    Attributes:
        lineno: 1-based line number of the offending line, when known.
    """

    def __init__(self, message, lineno=None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
