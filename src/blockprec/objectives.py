"""Objective functions: quadratic, ridge regression, logistic regression.

Each objective exposes its value, gradient, ``evaluate`` (value,
suboptimality and gradient together, from one product with H or one margin
pass, which is how the solver records an iterate), the diagonal blocks of a
curvature-model matrix under a partitioning (all the solver factors; the
one-block partitioning gives the whole matrix), and its optimum.
Curvature comes in two flavours: the exact Hessian (which depends on the
iterate for logistic loss) and an iterate-independent smoothness bound
gamma_ell * A^T A. Regularized objectives fold lambda/2 ||x||^2 into the
value and lambda * I into the curvature.
"""

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.special import expit

from .errors import BlockprecError, InvalidArgumentError, UnsupportedLossError
from .partition import Partitioning, check_symmetric_matrix, diagonal_blocks

EXACT_HESSIAN = "exact_hessian"
SMOOTHNESS_BOUND = "smoothness_bound"

CURVATURE_MODELS = (EXACT_HESSIAN, SMOOTHNESS_BOUND)

SQUARED = "squared"
LOGISTIC = "logistic"

# Smoothness constants of the scalar losses (Lipschitz constants of their
# gradients): 1 for squared loss, 1/4 for logistic.
LOSS_GAMMA = {SQUARED: 1.0, LOGISTIC: 0.25}
# PL constants, where known. Logistic loss has no established value here.
LOSS_MU = {SQUARED: 1.0, LOGISTIC: None}


def gram_matrix(a):
    """Dense symmetrized A^T A of a dense array or scipy.sparse matrix A."""
    gram = a.T @ a
    gram = np.asarray(gram.todense() if scipy.sparse.issparse(gram) else gram, dtype=float)
    return 0.5 * (gram + gram.T)


def _check_x(x, n):
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise InvalidArgumentError(f"x has shape {x.shape}, expected ({n},)")
    return x


def _check_model(model):
    if model not in CURVATURE_MODELS:
        raise InvalidArgumentError(
            f"unknown curvature model {model!r}; expected one of {CURVATURE_MODELS}")


class Quadratic:
    """f(x) = 1/2 x^T H x - c^T x with H symmetric positive definite.

    Value and gradient are taken in the error form of ``evaluate``, from
    the one product H (x - x*): f - f* does not cancel, and all three
    agree bit for bit.
    """

    def __init__(self, h, c):
        self.h = check_symmetric_matrix(h)
        self.c = np.asarray(c, dtype=float)
        if self.c.shape != (self.h.shape[0],):
            raise InvalidArgumentError(
                f"c has shape {self.c.shape}, expected ({self.h.shape[0]},)")
        try:
            factor = scipy.linalg.cho_factor(self.h, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError:
            raise InvalidArgumentError("H must be positive definite") from None
        x_star = scipy.linalg.cho_solve(factor, self.c, check_finite=False)
        self._optimum = (x_star, float(0.5 * x_star @ (self.h @ x_star) - self.c @ x_star))

    @property
    def n(self) -> int:
        return self.c.size

    def value(self, x) -> float:
        return self.evaluate(x)[0]

    def gradient(self, x):
        return self.evaluate(x)[2]

    def evaluate(self, x):
        """(f(x), f(x) - f*, grad f(x)) = (f* + 1/2 d^T h, 1/2 d^T h, h), d = x - x*, h = H d."""
        d = _check_x(x, self.n) - self._optimum[0]
        h = self.h @ d
        subopt = 0.5 * float(d @ h)
        return self._optimum[1] + subopt, subopt, h

    def block_curvature(self, x, part, model=EXACT_HESSIAN):
        """Diagonal blocks of H, one stack per block size: ``diagonal_blocks(H, part)``."""
        _check_x(x, self.n)
        _check_model(model)
        return diagonal_blocks(self.h, part)

    def curvature_is_constant(self, model) -> bool:
        """Whether ``block_curvature(x, part, model)`` is the same for every x: always, H's."""
        _check_model(model)
        return True

    def optimum(self):
        """Minimizer and minimum value, from the Cholesky factor that validated H."""
        return self._optimum


class Glm:
    """Generalized linear model f(x) = ell(A x) + lambda/2 ||x||^2.

    ``loss`` is "squared" (ridge regression, ell(v) = 1/2 ||v - y||^2) or
    "logistic" (ell(v) = sum_i log(1 + exp(-y_i v_i)), labels in {-1, +1}).
    A may be dense or scipy.sparse. For logistic loss a column-major copy
    of A (CSC when A is sparse) is kept, from which ``block_curvature``
    densifies the column slice A[:, P_k] one row chunk at a time. A dense
    chunk holds at most stored(A) entries (``a.nnz`` when A is sparse,
    ``a.size`` when dense) or one row, so the exact Hessian's memory,
    including the one-block Hessians of the Newton reference solve behind
    the logistic optimum, grows with the entries A stores, not with m x n.
    """

    def __init__(self, a, y, loss: str, lam: float = 0.0):
        if loss not in (SQUARED, LOGISTIC):
            raise InvalidArgumentError(f"unknown loss {loss!r}")
        if not 0.0 <= lam < np.inf:
            raise InvalidArgumentError(f"lambda must be non-negative and finite, got {lam}")
        self.a = a if scipy.sparse.issparse(a) else np.asarray(a, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.a.ndim != 2 or self.a.shape[0] != self.y.size:
            raise InvalidArgumentError(
                f"A has shape {self.a.shape} but y has length {self.y.size}")
        if loss == LOGISTIC and not np.all(np.isin(self.y, (-1.0, 1.0))):
            raise InvalidArgumentError("logistic labels must lie in {-1, +1}")
        self.loss = loss
        self.lam = float(lam)
        self.gamma_loss = LOSS_GAMMA[loss]
        self.mu_loss = LOSS_MU[loss]
        self._gram = None
        self._optimum = None
        # Column-major A, sliced per block by the exact logistic Hessian only.
        self._columns = None
        if loss == LOGISTIC:
            self._columns = self.a.tocsc() if scipy.sparse.issparse(self.a) \
                else np.asfortranarray(self.a)

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def m(self) -> int:
        return self.a.shape[0]

    def _margins(self, x):
        return np.asarray(self.a @ x, dtype=float).ravel()

    def gram(self):
        """Dense A^T A, computed once."""
        if self._gram is None:
            self._gram = gram_matrix(self.a)
        return self._gram

    def _value_at(self, x, v) -> float:
        """f(x) from the margins v = A x."""
        reg = 0.5 * self.lam * float(x @ x)
        if self.loss == SQUARED:
            r = v - self.y
            return 0.5 * float(r @ r) + reg
        # log(1 + exp(-y v)) evaluated stably for margins of any size
        return float(np.sum(np.logaddexp(0.0, -self.y * v))) + reg

    def _gradient_at(self, x, v):
        """grad f(x) from the margins v = A x."""
        if self.loss == SQUARED:
            g = np.asarray(self.a.T @ (v - self.y), dtype=float).ravel()
        else:
            g = -np.asarray(self.a.T @ (self.y * expit(-self.y * v)), dtype=float).ravel()
        return g + self.lam * x

    def value(self, x) -> float:
        x = _check_x(x, self.n)
        return self._value_at(x, self._margins(x))

    def gradient(self, x):
        x = _check_x(x, self.n)
        return self._gradient_at(x, self._margins(x))

    def evaluate(self, x):
        """(f(x), f(x) - f*, grad f(x)) from one margin pass v = A x.

        f - f* is the cancellation-free 1/2 ||A d||^2 + lambda/2 ||d||^2,
        d = x - x*, for squared loss (a second product) and f(x) - f* for
        logistic loss.
        """
        x = _check_x(x, self.n)
        v = self._margins(x)
        fx = self._value_at(x, v)
        x_star, f_star = self.optimum()
        if self.loss == SQUARED:
            d = x - x_star
            r = self._margins(d)
            subopt = 0.5 * float(r @ r) + 0.5 * self.lam * float(d @ d)
        else:
            subopt = fx - f_star
        return fx, subopt, self._gradient_at(x, v)

    def _hessian_weights(self, x):
        """Row weights sigma(1 - sigma) of the exact logistic Hessian A^T D A at x."""
        sig = expit(self.y * self._margins(x))
        return sig * (1.0 - sig)

    def curvature_is_constant(self, model) -> bool:
        """Whether ``block_curvature(x, part, model)`` is the same for every x.

        Its blocks are those of gamma_ell A^T A + lambda I, except for the
        exact Hessian of logistic loss, which weights the rows of A by the
        iterate.
        """
        _check_model(model)
        return self.loss == SQUARED or model == SMOOTHNESS_BOUND

    def block_curvature(self, x, part, model=EXACT_HESSIAN):
        """Diagonal blocks of the curvature model at x, one (K_s, s, s) stack per block size.

        The model is gamma_ell A^T A + lambda I (constant) or the exact
        Hessian A^T diag(w) A + lambda I. The stacks follow ``part.stacks()``,
        as those of ``diagonal_blocks`` do. Constant curvature takes the
        cached Gram's stacks and forms gamma_ell G[P_k, P_k] + lambda I once
        per stack. The exact logistic Hessian takes one margin pass for the
        weights w and sums each block B_k^T B_k, B_k = sqrt(w) o A[:, P_k],
        into its slot of a zeroed stack over row chunks of B_k, then adds
        lambda I per stack. A chunk has as many rows as keep its dense slice
        within stored(A) entries, and at least one; a block whose m x n_k
        slice fits is one chunk, taken whole from the column-major copy of A.
        """
        x = _check_x(x, self.n)
        if self.curvature_is_constant(model):
            return [self.gamma_loss * stack + self.lam * np.eye(stack.shape[1])
                    for stack in diagonal_blocks(self.gram(), part)]
        if part.n != self.n:
            raise InvalidArgumentError(
                f"partitioning over {part.n} coordinates does not match n = {self.n}")
        root_w = np.sqrt(self._hessian_weights(x))[:, None]
        columns = self._columns
        stored = columns.nnz if scipy.sparse.issparse(columns) else columns.size
        stacks = []
        for _, idx in part.stacks():
            size = idx.shape[1]
            step = max(stored // size, 1)  # rows per chunk
            stack = np.zeros((len(idx), size, size))
            for cols_idx, block in zip(idx, stack):
                for lo in range(0, self.m, step):
                    rows = columns if step >= self.m else columns[lo:lo + step]
                    cols = rows[:, cols_idx]  # a fresh copy, scaled in place
                    cols = cols.toarray() if scipy.sparse.issparse(cols) else cols
                    cols *= root_w[lo:lo + step]
                    block += cols.T @ cols
            stack += self.lam * np.eye(size)
            stacks.append(stack)
        return stacks

    def optimum(self):
        """Minimizer and minimum value.

        Squared loss uses the closed-form SPD solve of the normal
        equations. Logistic loss (lambda > 0 required) runs a damped
        Newton reference solve down to the rounding resolution of f and
        caches the result.
        """
        if self._optimum is None:
            if self.loss == SQUARED:
                # gamma_ell = 1, so the one block is G + lambda I
                h = self.block_curvature(
                    np.zeros(self.n), Partitioning(np.zeros(self.n, dtype=np.intp), 1))[0][0]
                rhs = np.asarray(self.a.T @ self.y, dtype=float).ravel()
                try:
                    factor = scipy.linalg.cho_factor(h, lower=True, check_finite=False)
                except scipy.linalg.LinAlgError as exc:
                    raise InvalidArgumentError(
                        "A^T A + lambda I is singular; the ridge optimum needs "
                        "lambda > 0 or a full-column-rank A") from exc
                x_star = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
            else:
                if self.lam <= 0.0:
                    raise UnsupportedLossError(
                        "the logistic minimizer may not exist without regularization; "
                        "set lambda > 0")
                x_star = self._newton_reference()
            self._optimum = (x_star, float(self.value(x_star)))
        return self._optimum

    def _newton_reference(self, rtol=1e-14, max_iter=200):
        # Near the optimum f(x) - f* is about half the Newton decrement
        # g^T H^{-1} g. Once that is below rtol * |f|, which f cannot resolve
        # (or no damped step lowers f any more, which happens only there),
        # one last full step is taken.
        whole = Partitioning(np.zeros(self.n, dtype=np.intp), 1)
        x = np.zeros(self.n)
        fx = self.value(x)
        for _ in range(max_iter):
            g = self.gradient(x)
            h = self.block_curvature(x, whole, EXACT_HESSIAN)[0][0]
            factor = scipy.linalg.cho_factor(h, lower=True, check_finite=False)
            step = scipy.linalg.cho_solve(factor, g, check_finite=False)
            if float(g @ step) <= rtol * max(1.0, abs(fx)):
                return x - step
            t = 1.0
            for _ in range(60):
                f_new = self.value(x - t * step)
                if f_new < fx:
                    break
                t *= 0.5
            else:
                return x - step
            x, fx = x - t * step, f_new
        raise BlockprecError(
            f"Newton reference solve did not converge in {max_iter} iterations")


def ridge(a, y, lam=0.0):
    """Ridge regression objective 1/2 ||Ax - y||^2 + lambda/2 ||x||^2."""
    return Glm(a, y, SQUARED, lam)


def logistic(a, y, lam=0.0):
    """L2-regularized logistic regression with labels in {-1, +1}."""
    return Glm(a, y, LOGISTIC, lam)
