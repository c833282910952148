"""Block-diagonal preconditioned gradient descent with coordinate repartitioning.

The library implements the preconditioned update x <- x - eta Q_P^{-1} grad f(x)
where Q_P is a block-diagonal mask of a curvature matrix, with either a
fixed coordinate partitioning or a fresh random one per iteration, and
the spectral machinery (exact, enumerated, Monte Carlo, and closed-form)
that predicts the convergence rates of both variants.
"""

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
from .partition import (
    BlockCholesky,
    Partitioning,
    block_mask,
    check_symmetric_matrix,
    diagonal_blocks,
    enumerate_partitions,
    partition_count,
    sample_uniform_partition,
)
from .objectives import (
    EXACT_HESSIAN,
    SMOOTHNESS_BOUND,
    Glm,
    Quadratic,
    logistic,
    ridge,
)
from .solver import (
    ArmijoStep,
    ConvergenceTrace,
    FixedStep,
    SolverConfig,
    armijo_step_size,
    run,
    run_repeats,
)
from .spectral import (
    SpectralReport,
    UniformClosedForm,
    build_report,
    expected_lambda_exact,
    expected_lambda_mc,
    lambda_min_precond,
    rate_general,
    rate_glm,
    rate_quadratic,
    separable_toy,
    uniform_closed_form,
)
from .data import (
    Dataset,
    factor_sqrt,
    gen_labels,
    gen_random_corr_q,
    gen_separable_q,
    gen_uniform_q,
    load_q,
    normalize_columns,
    read_libsvm,
    save_q,
    write_libsvm,
)
from .seeding import derive_seed

__version__ = "0.1.0"
