"""Test oracles, the references no ``pexprk`` command runs: phi at a real
scalar in decimal arithmetic, a validated dense phi_k(A) v, coefficients at
a scalar, the full Gray-Scott Jacobian, a dense semilinear problem with a
DOP853 reference, and an independently coded classical Runge-Kutta method.
"""

import decimal
import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.sparse

from pexprk.coeffexpr import Const, CoefficientExpr, Phi, Prod, Scale, Sum, ZMul
from pexprk.operators import LinearOperator
from pexprk.phi import MAX_PHI_INDEX, PhiEvaluationError, _augmented, _check_square, expm_dense
from pexprk.problems import GrayScottModel, gs_unpartitioned
from pexprk.steppers import SplitProblem

# Below this magnitude the truncated float series is within two ulps; above
# it the residual form, evaluated in decimal arithmetic with enough digits to
# absorb its cancellation, is correctly rounded.
_SERIES_CUTOFF = 0.5
_SERIES_TERMS = 25


def phi_scalar(k: int, z: float) -> float:
    """Evaluate phi_k(z) for a real scalar z: correctly rounded for |z| >= 0.5,
    within two ulps below."""
    if not isinstance(k, (int, np.integer)) or k < 0 or k > MAX_PHI_INDEX:
        raise ValueError(f"phi index must be an integer in [0, {MAX_PHI_INDEX}], got {k}")
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"phi argument must be finite, got {z}")
    if k == 0:
        try:
            return math.exp(z)
        except OverflowError:
            raise PhiEvaluationError(f"phi_0({z!r}) overflows") from None
    if abs(z) < _SERIES_CUTOFF:
        acc = 0.0
        for i in reversed(range(_SERIES_TERMS)):
            acc = acc * z + 1.0 / math.factorial(k + i)
        return acc
    # (e^z - sum_{j<k} z^j / j!) / z^k; Decimal(z) is exact, and 60 digits
    # leave over 50 after the worst cancellation (|z| = 0.5, k = 8)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = decimal.Decimal(z)
        partial = sum(x**j / math.factorial(j) for j in range(k))
        out = float((x.exp() - partial) / x**k)
    if not math.isfinite(out):
        raise PhiEvaluationError(f"phi_{k}({z!r}) overflows")
    return out


def phi_dense_times_vector(p: int, a: np.ndarray, v: np.ndarray) -> list[np.ndarray]:
    """Columns phi_k(A) v for k = 1..p via one validated augmented exponential."""
    a = _check_square(a)
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    n = a.shape[0]
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"vector length {v.shape} does not match matrix dimension {n}")
    e = expm_dense(_augmented(p, a, v))
    return [e[:n, n + j].copy() for j in range(p)]


def eval_scalar(expr: CoefficientExpr, z: float) -> float:
    """Evaluate the coefficient at a real scalar argument."""
    if isinstance(expr, Phi):
        return phi_scalar(expr.k, expr.c * z)
    if isinstance(expr, Const):
        return expr.r
    if isinstance(expr, Scale):
        return expr.r * eval_scalar(expr.child, z)
    if isinstance(expr, Sum):
        return sum(eval_scalar(ch, z) for ch in expr.children)
    if isinstance(expr, Prod):
        return eval_scalar(expr.left, z) * eval_scalar(expr.right, z)
    if isinstance(expr, ZMul):
        return z * eval_scalar(expr.child, z)
    raise TypeError(f"not a coefficient expression: {expr!r}")


def gs_full_jacobian(m: GrayScottModel, u: np.ndarray) -> LinearOperator:
    """The full Jacobian at u: the unsplit system's operator."""
    return gs_unpartitioned(m).build_operators(u)[0]


@dataclass
class SemilinearOracle:
    """Small dense semilinear test problem u' = L u + eps * sin(u).

    The linear part is a random dense matrix with spectrum shifted into the
    left half-plane; the reference solution comes from a high-order adaptive
    integration at tight tolerance, independent of the exponential steppers.
    """

    dim: int
    matrix: np.ndarray
    eps: float
    u0: np.ndarray

    def g(self, u):
        return self.eps * np.sin(u)

    def f(self, u):
        return self.matrix @ u + self.g(u)

    def jacobian(self, u) -> LinearOperator:
        return LinearOperator(self.matrix + self.eps * np.diag(np.cos(u)))

    def problem(self) -> SplitProblem:
        return SplitProblem((self.f,), (self.jacobian,))

    def split_linear_nonlinear(self) -> SplitProblem:
        """Two-way split: the linear term and the smooth remainder."""
        return SplitProblem(
            (lambda u: self.matrix @ u, self.g),
            (
                lambda u: LinearOperator(self.matrix),
                lambda u: LinearOperator(scipy.sparse.diags(self.eps * np.cos(u)), symmetric=True),
            ),
        )

    def split_all_explicit(self) -> SplitProblem:
        """Two-way split whose operators have no entries (fully explicit
        treatment)."""
        base = self.split_linear_nonlinear()
        zero = lambda u: LinearOperator(scipy.sparse.csr_matrix((self.dim, self.dim)))  # noqa: E731
        return SplitProblem(base.f_parts, (zero, zero))

    def reference(self, t: float) -> np.ndarray:
        sol = scipy.integrate.solve_ivp(
            lambda _t, u: self.f(u),
            (0.0, t),
            self.u0,
            method="DOP853",
            rtol=1e-13,
            atol=1e-13,
            dense_output=False,
        )
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        return sol.y[:, -1]


def oracle_semilinear(dim: int, seed: int, eps: float = 0.1) -> SemilinearOracle:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    shift = np.max(np.real(np.linalg.eigvals(raw))) + 1.0
    matrix = raw - shift * np.eye(dim)
    u0 = rng.uniform(-1.0, 1.0, size=dim)
    return SemilinearOracle(dim=dim, matrix=matrix, eps=eps, u0=u0)


# The values the exponential coefficients take at z = 0 (phi_k -> 1/k!),
# worked out by hand; classical_rk_step shares no code with the package.
CLASSICAL_TABLES = {
    2: (
        [0.0, 1.0],
        [[0.0, 0.0], [1.0, 0.0]],
        [0.5, 0.5],
    ),
    3: (
        [0.0, 2.0 / 3.0, 2.0 / 3.0],
        [[0.0] * 3, [2.0 / 3.0, 0.0, 0.0], [1.0 / 3.0, 1.0 / 3.0, 0.0]],
        [0.25, 0.0, 0.75],
    ),
    4: (
        [0.0, 0.5, 0.5, 1.0, 0.5],
        [
            [0.0] * 5,
            [0.5, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0, 0.0],
            [0.25, 0.125, 0.125, 0.0, 0.0],
        ],
        [1.0 / 6.0, 0.0, 0.0, 1.0 / 6.0, 2.0 / 3.0],
    ),
}


def classical_rk_step(order, f, y, h):
    _, a, b = CLASSICAL_TABLES[order]
    s = len(b)
    k = []
    for i in range(s):
        yi = y + h * sum((a[i][j] * k[j] for j in range(i)), start=np.zeros_like(y))
        k.append(f(yi))
    return y + h * sum((b[j] * k[j] for j in range(s)), start=np.zeros_like(y))
