"""Symbolic coefficient functions of exponential Runge-Kutta methods.

A coefficient is an expression tree over the node set

    Phi(k, c)    phi_k(c z), k >= 1
    Const(r)     r * identity
    Scale(r, e)  r * e(z)
    Sum(...)     e_1(z) + e_2(z) + ...
    Prod(f, g)   f(z) * g(z), composition order preserved
    ZMul(e)      z * e(z)

Trees can be evaluated three ways: at a real scalar z, at a small dense
matrix Z, or -- the production path -- applied to a vector through the
matrix-free Krylov engine without ever materializing phi of the operator.
Only Butcher-form coefficients are applied that way: Phi, Const, Scale and
Sum, the nodes of the a_ij/b_j and of the steppers' phi_1 terms.  Prod and
ZMul, which the expanded transformed trees add, are evaluated only at
scalars and dense matrices (``dump-tableau`` and the tests' dense oracle).
Simplification is deliberately shallow (flattening sums, folding constant
scales); no phi identities are rewritten, so structural comparisons of
transformed coefficients stay deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .krylov import EvalContext, KrylovConfig, phi_times_vector, require_converged
from .operators import LinearOperator
from .phi import phi_dense_matrices, phi_scalar


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
        if len(children) == 1 and isinstance(children[0], tuple):
            children = children[0]
        object.__setattr__(self, "children", tuple(children))

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


def simplify(expr: CoefficientExpr) -> CoefficientExpr:
    """Flatten sums and fold constant scales; returns shared nodes unchanged."""
    if isinstance(expr, (Phi, Const)):
        return expr
    if isinstance(expr, Scale):
        child = simplify(expr.child)
        if expr.r == 0.0 or is_zero(child):
            return ZERO
        if isinstance(child, Const):
            return Const(expr.r * child.r)
        if isinstance(child, Scale):
            return simplify(Scale(expr.r * child.r, child.child))
        if expr.r == 1.0:
            return child
        if child is expr.child:
            return expr
        return Scale(expr.r, child)
    if isinstance(expr, Sum):
        flat = []
        changed = False
        for ch in expr.children:
            s = simplify(ch)
            changed = changed or s is not ch
            if is_zero(s):
                changed = True
                continue
            if isinstance(s, Sum):
                flat.extend(s.children)
                changed = True
            else:
                flat.append(s)
        if not flat:
            return ZERO
        if len(flat) == 1:
            return flat[0]
        return expr if not changed else Sum(tuple(flat))
    if isinstance(expr, Prod):
        left = simplify(expr.left)
        right = simplify(expr.right)
        if is_zero(left) or is_zero(right):
            return ZERO
        if isinstance(left, Const):
            return simplify(Scale(left.r, right))
        if isinstance(right, Const):
            return simplify(Scale(right.r, left))
        if left is expr.left and right is expr.right:
            return expr
        return Prod(left, right)
    if isinstance(expr, ZMul):
        child = simplify(expr.child)
        if is_zero(child):
            return ZERO
        if child is expr.child:
            return expr
        return ZMul(child)
    raise TypeError(f"not a coefficient expression: {expr!r}")


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


def phi_of_dense(k: int, z_mat: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """phi_k (k >= 1) of a small dense matrix, memoized per argument id."""
    key = (k, id(z_mat))
    if memo is not None and key in memo:
        return memo[key]
    out = phi_dense_matrices(k, z_mat)[k - 1]
    if memo is not None:
        memo[key] = out
    return out


def eval_dense(expr: CoefficientExpr, z_mat: np.ndarray, memo: dict | None = None) -> np.ndarray:
    """Evaluate the coefficient at a small dense matrix argument Z = h L."""
    n = z_mat.shape[0]
    if isinstance(expr, Phi):
        if memo is None:
            memo = {}
        scaled = memo.setdefault(("arg", expr.c, id(z_mat)), expr.c * z_mat)
        return phi_of_dense(expr.k, scaled, memo)
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
    k).  With a shared EvalContext, repeated subtree applications to the same
    vector are memoized (each entry holds its operator and vector, so their
    ids stay unique) and Arnoldi factorizations are reused across phi indices.
    """
    ctx = ctx if ctx is not None else EvalContext()
    memo_key = (expr, id(L), id(v))
    cached = ctx.memo.get(memo_key)
    if cached is not None:
        return cached[0]
    out = _eval_coeff_node(expr, L, h, v, cfg, ctx, p)
    ctx.memo[memo_key] = (out, L, v)
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
