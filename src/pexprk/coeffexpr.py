"""Symbolic coefficient functions of exponential Runge-Kutta methods.

A coefficient is an expression tree over the node set

    Phi(k, c)    phi_k(c z), k >= 1
    Const(r)     r * identity
    Scale(r, e)  r * e(z)
    Sum(...)     e_1(z) + e_2(z) + ...
    Prod(f, g)   f(z) * g(z), composition order preserved
    ZMul(e)      z * e(z)

Trees can be evaluated two ways: at a small dense matrix Z, or -- the
production path -- applied to a vector through the matrix-free Krylov
engine without ever materializing phi of the operator.  Only Butcher-form
coefficients are applied that way: Phi, Const, Scale and Sum, the nodes of
the a_ij/b_j and of the steppers' phi_1 terms.  Prod and ZMul, which the
expanded transformed trees add, are evaluated only at dense matrices.
Derived trees are built by the constructors ``scale``, ``add``, ``mul`` and
``zmul``, which fold as they build: zero terms and factors vanish, constant
factors and nested scales multiply out, unit scales and one-term sums drop,
and sums flatten.  No phi identities are rewritten, so structural
comparisons of transformed coefficients stay deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .krylov import EvalContext, KrylovConfig, phi_times_vector, require_converged
from .operators import LinearOperator
from .phi import phi_dense_matrices


class CoefficientExpr:
    """Base node; subclasses are frozen dataclasses, so they compare and hash
    structurally and serve as their own memo keys."""

    def __str__(self):
        raise NotImplementedError


@dataclass(frozen=True)
class Phi(CoefficientExpr):
    k: int
    c: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"phi index must be >= 1, got {self.k}")
        if not 0.0 < self.c <= 1.0:
            raise ValueError(f"abscissa scale must be in (0, 1], got {self.c}")

    def __str__(self):
        return f"phi({self.k}, {self.c!r})"


@dataclass(frozen=True)
class Const(CoefficientExpr):
    r: float

    def __str__(self):
        return f"const({self.r!r})"


@dataclass(frozen=True)
class Scale(CoefficientExpr):
    r: float
    child: CoefficientExpr

    def __str__(self):
        return f"scale({self.r!r}, {self.child})"


@dataclass(frozen=True)
class Sum(CoefficientExpr):
    children: tuple

    def __init__(self, *children):
        object.__setattr__(self, "children", children)

    def __str__(self):
        return "sum(" + ", ".join(str(ch) for ch in self.children) + ")"


@dataclass(frozen=True)
class Prod(CoefficientExpr):
    left: CoefficientExpr
    right: CoefficientExpr

    def __str__(self):
        return f"prod({self.left}, {self.right})"


@dataclass(frozen=True)
class ZMul(CoefficientExpr):
    child: CoefficientExpr

    def __str__(self):
        return f"zmul({self.child})"


ZERO = Const(0.0)


def is_zero(expr) -> bool:
    return expr is None or (isinstance(expr, Const) and expr.r == 0.0)


def max_phi_index(expr) -> int:
    """The largest k of the Phi nodes in a coefficient (0 if it has none)."""
    if isinstance(expr, Phi):
        return expr.k
    if isinstance(expr, (Scale, ZMul)):
        return max_phi_index(expr.child)
    if isinstance(expr, Sum):
        return max((max_phi_index(ch) for ch in expr.children), default=0)
    if isinstance(expr, Prod):
        return max(max_phi_index(expr.left), max_phi_index(expr.right))
    return 0


def scale(r: float, e) -> CoefficientExpr:
    """r * e, folded: a zero factor gives ZERO, a constant multiplies out,
    nested scales merge and r = 1 returns e."""
    if r == 0.0 or is_zero(e):
        return ZERO
    if isinstance(e, Const):
        return Const(r * e.r)
    if isinstance(e, Scale):
        return scale(r * e.r, e.child)
    return e if r == 1.0 else Scale(r, e)


def add(*terms) -> CoefficientExpr:
    """The sum of the terms, folded: zero (or None) terms drop, sums flatten
    one level, and no term or one term gives ZERO or that term."""
    flat = [
        child
        for term in terms
        for child in (term.children if isinstance(term, Sum) else (term,))
        if not is_zero(child)
    ]
    if len(flat) < 2:
        return flat[0] if flat else ZERO
    return Sum(*flat)


def mul(left, right) -> CoefficientExpr:
    """left * right, folded: a zero factor gives ZERO, a constant factor a scale."""
    if is_zero(left) or is_zero(right):
        return ZERO
    if isinstance(left, Const):
        return scale(left.r, right)
    if isinstance(right, Const):
        return scale(right.r, left)
    return Prod(left, right)


def zmul(e) -> CoefficientExpr:
    """z * e (ZERO for a zero e)."""
    return ZERO if is_zero(e) else ZMul(e)


def eval_dense(expr: CoefficientExpr, z_mat: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """Evaluate the coefficient at a small dense matrix argument Z = h L.

    A memo serves one Z: it holds phi_k(c Z) under its Phi node."""
    n = z_mat.shape[0]
    if isinstance(expr, Phi):
        memo = {} if memo is None else memo
        if expr not in memo:
            memo[expr] = phi_dense_matrices(expr.k, expr.c * z_mat)[expr.k - 1]
        return memo[expr]
    if isinstance(expr, Const):
        return expr.r * np.eye(n)
    if isinstance(expr, Scale):
        return expr.r * eval_dense(expr.child, z_mat, memo)
    if isinstance(expr, Sum):
        acc = np.zeros((n, n))
        for ch in expr.children:
            acc += eval_dense(ch, z_mat, memo)
        return acc
    if isinstance(expr, Prod):
        return eval_dense(expr.left, z_mat, memo) @ eval_dense(expr.right, z_mat, memo)
    if isinstance(expr, ZMul):
        return z_mat @ eval_dense(expr.child, z_mat, memo)
    raise TypeError(f"not a coefficient expression: {expr!r}")


def eval_coeff(
    expr: CoefficientExpr,
    L: LinearOperator,
    h: float,
    v: np.ndarray,
    cfg: KrylovConfig,
    ctx: EvalContext | None = None,
    p: int | None = None,
) -> np.ndarray:
    """Apply a Butcher-form expr(h L) to v matrix-free.

    Phi nodes go through the Krylov engine with tau = c * h, which evaluates
    phi_1 .. phi_p of each reduced matrix together (p defaults to each node's
    k).  A shared EvalContext serves (L, v) from one Arnoldi factorization
    across phi indices, and memoizes subtree applications in the pair's memo
    under (node, h, cfg.tol, cfg.m_max, p), everything the product depends on.
    """
    ctx = ctx if ctx is not None else EvalContext()
    v = np.asarray(v, dtype=float)  # one object, so the pair holds through the tree
    memo = ctx.pair_memo(L, v)
    key = (expr, h, cfg.tol, cfg.m_max, p)
    out = memo.get(key)
    if out is None:
        out = memo[key] = _eval_coeff_node(expr, L, h, v, cfg, ctx, p)
    return out


def _eval_coeff_node(expr, L, h, v, cfg, ctx, p):
    if isinstance(expr, Phi):
        tau = expr.c * h
        return require_converged(phi_times_vector(L, expr.k, tau, v, cfg, ctx=ctx, p=p), expr.k, tau, cfg)
    if isinstance(expr, Const):
        return expr.r * v
    if isinstance(expr, Scale):
        return expr.r * eval_coeff(expr.child, L, h, v, cfg, ctx, p)
    if isinstance(expr, Sum):
        acc = np.zeros_like(v)
        for ch in expr.children:
            acc = acc + eval_coeff(ch, L, h, v, cfg, ctx, p)
        return acc
    raise TypeError(f"not applied matrix-free: {expr} (only Phi, Const, Scale, Sum)")
