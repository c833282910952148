"""Objective functions: quadratic, ridge regression, logistic regression.

Each objective exposes its value, gradient, a curvature-model matrix used
for preconditioning (in full, or only the diagonal blocks of a
partitioning, which is all the solver factors), and its optimum.
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
from .partition import check_symmetric_matrix, diagonal_blocks

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
    """f(x) = 1/2 x^T H x - c^T x with H symmetric positive definite."""

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
        self._optimum = (x_star, float(self.value(x_star)))

    @property
    def n(self) -> int:
        return self.c.size

    def value(self, x) -> float:
        x = _check_x(x, self.n)
        return 0.5 * x @ (self.h @ x) - self.c @ x

    def gradient(self, x):
        x = _check_x(x, self.n)
        return self.h @ x - self.c

    def curvature(self, x, model=EXACT_HESSIAN):
        _check_x(x, self.n)
        _check_model(model)
        return self.h

    def block_curvature(self, x, part, model=EXACT_HESSIAN):
        """Diagonal blocks H[P_k, P_k] of ``curvature(x, model)``, in ``part.blocks()`` order."""
        _check_x(x, self.n)
        _check_model(model)
        return diagonal_blocks(self.h, part)

    def curvature_is_constant(self, model) -> bool:
        """Whether ``curvature(x, model)`` is the same for every x: always, it is H."""
        _check_model(model)
        return True

    def optimum(self):
        """Minimizer and minimum value, from the Cholesky factor that validated H."""
        return self._optimum

    def suboptimality(self, x) -> float:
        """f(x) - f*, evaluated as the error quadratic form.

        1/2 (x - x*)^T H (x - x*) equals f(x) - f* exactly and avoids the
        cancellation of subtracting two nearly equal objective values.
        """
        x_star, _ = self.optimum()
        d = _check_x(x, self.n) - x_star
        return 0.5 * float(d @ (self.h @ d))


class Glm:
    """Generalized linear model f(x) = ell(A x) + lambda/2 ||x||^2.

    ``loss`` is "squared" (ridge regression, ell(v) = 1/2 ||v - y||^2) or
    "logistic" (ell(v) = sum_i log(1 + exp(-y_i v_i)), labels in {-1, +1}).
    A may be dense or scipy.sparse. The full curvature A^T D A never
    densifies A. For logistic loss a column-major copy of A (CSC when A is
    sparse) is kept, from which ``block_curvature`` densifies one m x n_k
    column slice A[:, P_k] at a time.
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

    def value(self, x) -> float:
        x = _check_x(x, self.n)
        v = self._margins(x)
        reg = 0.5 * self.lam * float(x @ x)
        if self.loss == SQUARED:
            r = v - self.y
            return 0.5 * float(r @ r) + reg
        # log(1 + exp(-y v)) evaluated stably for margins of any size
        return float(np.sum(np.logaddexp(0.0, -self.y * v))) + reg

    def gradient(self, x):
        x = _check_x(x, self.n)
        v = self._margins(x)
        if self.loss == SQUARED:
            g = np.asarray(self.a.T @ (v - self.y), dtype=float).ravel()
        else:
            g = -np.asarray(self.a.T @ (self.y * expit(-self.y * v)), dtype=float).ravel()
        return g + self.lam * x

    def _hessian_weights(self, x):
        """Row weights sigma(1 - sigma) of the exact logistic Hessian A^T D A at x."""
        sig = expit(self.y * self._margins(x))
        return sig * (1.0 - sig)

    def curvature_is_constant(self, model) -> bool:
        """Whether ``curvature(x, model)`` is the same for every x.

        It is gamma_ell A^T A + lambda I, except for the exact Hessian of
        logistic loss, which weights the rows of A by the iterate.
        """
        _check_model(model)
        return self.loss == SQUARED or model == SMOOTHNESS_BOUND

    def curvature(self, x, model=EXACT_HESSIAN):
        x = _check_x(x, self.n)
        reg = self.lam * np.eye(self.n)
        if self.curvature_is_constant(model):
            return self.gamma_loss * self.gram() + reg
        weights = self._hessian_weights(x)[:, None]
        if scipy.sparse.issparse(self.a):
            q = np.asarray((self.a.T @ self.a.multiply(weights)).todense(), dtype=float)
        else:
            q = self.a.T @ (weights * self.a)
        return 0.5 * (q + q.T) + reg

    def block_curvature(self, x, part, model=EXACT_HESSIAN):
        """Diagonal blocks of ``curvature(x, model)``, in ``part.blocks()`` order.

        Constant curvature slices the cached Gram: gamma_ell G[P_k, P_k] + lambda I.
        The exact logistic Hessian takes one margin pass for the weights w and
        forms each block as B_k^T B_k + lambda I with B_k = sqrt(w) o A[:, P_k],
        so beyond the column-major copy of A it holds one dense m x n_k slice.
        """
        x = _check_x(x, self.n)
        if self.curvature_is_constant(model):
            return [self.gamma_loss * block + self.lam * np.eye(block.shape[0])
                    for block in diagonal_blocks(self.gram(), part)]
        if part.n != self.n:
            raise InvalidArgumentError(
                f"partitioning over {part.n} coordinates does not match n = {self.n}")
        root_w = np.sqrt(self._hessian_weights(x))[:, None]
        blocks = []
        for idx in part.blocks():
            cols = self._columns[:, idx]  # a fresh copy, scaled in place
            cols = cols.toarray() if scipy.sparse.issparse(cols) else cols
            cols *= root_w
            blocks.append(cols.T @ cols + self.lam * np.eye(idx.size))
        return blocks

    def optimum(self):
        """Minimizer and minimum value.

        Squared loss uses the closed-form SPD solve of the normal
        equations. Logistic loss (lambda > 0 required) runs a damped
        Newton reference solve down to the rounding resolution of f and
        caches the result.
        """
        if self._optimum is None:
            if self.loss == SQUARED:
                h = self.gram() + self.lam * np.eye(self.n)
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
        x = np.zeros(self.n)
        fx = self.value(x)
        for _ in range(max_iter):
            g = self.gradient(x)
            h = self.curvature(x, EXACT_HESSIAN)
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

    def suboptimality(self, x) -> float:
        """f(x) - f*, via the error quadratic form for squared loss."""
        x = _check_x(x, self.n)
        x_star, f_star = self.optimum()
        if self.loss == SQUARED:
            d = x - x_star
            r = np.asarray(self.a @ d, dtype=float).ravel()
            return 0.5 * float(r @ r) + 0.5 * self.lam * float(d @ d)
        return self.value(x) - f_star


def ridge(a, y, lam=0.0):
    """Ridge regression objective 1/2 ||Ax - y||^2 + lambda/2 ||x||^2."""
    return Glm(a, y, SQUARED, lam)


def logistic(a, y, lam=0.0):
    """L2-regularized logistic regression with labels in {-1, +1}."""
    return Glm(a, y, LOGISTIC, lam)
