"""Method catalog and the transformation between coefficient forms.

Three stiffly accurate exponential Runge-Kutta methods (orders 2, 3, 4) are
provided in Butcher form (c, a, b).  ``transform`` rewrites a method into the
equivalent form that consumes only full right-hand-side evaluations: with
A the strictly lower triangular stage-coefficient block, the formal inverse

    E(z) = (I + z A(z))^{-1} = sum_{j=0}^{s-2} (-z A(z))^j

is expanded symbolically (exact, since z A is nilpotent), giving

    alpha_{2:s,1} = E [c_i phi_1(c_i z)],   alpha_{2:s,2:s} = E A,
    beta_1 = phi_1 - z sum_j b_j alpha_{j,1},   beta_{2:s}^T = b_{2:s}^T E.

Products are built with the folding constructors ``mul`` and ``zmul``
(sums with ``add``), so they are recorded as Prod/ZMul nodes and never
evaluated here.  The expanded trees serve ``dump-tableau`` and the dense
oracles of the tests; the steppers take the Butcher form and apply E by
forward substitution (see ``steppers``), at the Krylov cost of the original
form rather than one solve per node of the much larger expanded trees.

``check_order_conditions`` evaluates the stiff order conditions up to order
four as dense-matrix residuals on random instances; the conditions must hold
for any matrices L, J, K, so random dense draws falsify violations with
overwhelming probability.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .coeffexpr import (
    Const,
    Phi,
    Scale,
    Sum,
    add,
    eval_dense,
    is_zero,
    max_phi_index,
    mul,
    scale,
    zmul,
)


@dataclass(frozen=True)
class ExprkTableau:
    """Butcher-form method: abscissae c, stage grid a, weights b."""

    s: int
    c: tuple
    a: tuple  # s x s, entries CoefficientExpr or None; strictly lower triangular
    b: tuple  # s entries
    design_order: int

    def __post_init__(self):
        if len(self.c) != self.s or len(self.a) != self.s or len(self.b) != self.s:
            raise ValueError("tableau arrays must all have length s")
        if self.c[0] != 0.0:
            raise ValueError("the first abscissa must be 0")
        for i, ci in enumerate(self.c[1:], start=1):
            if not 0.0 < ci <= 1.0:  # Phi's range for the scale of phi_1(c_i z)
                raise ValueError(f"abscissa c[{i}] must be in (0, 1], got {ci}")
        for i, row in enumerate(self.a):
            if len(row) != self.s:
                raise ValueError("stage grid must be s x s")
            for j, entry in enumerate(row):
                if j >= i and not is_zero(entry):
                    raise ValueError(f"stage grid must be strictly lower triangular (a[{i}][{j}])")
            if i >= 1 and row[0] is None:
                raise ValueError(f"a[{i}][0] must be present for every stage past the first")

    @cached_property
    def phi_max(self) -> int:
        """The largest phi index a step applies: that of the coefficients, and
        at least 1 for the phi_1 terms.  Computed once per tableau: a step
        passes it to every coefficient application."""
        return max(1, *(max_phi_index(e) for row in self.a for e in row), *map(max_phi_index, self.b))


@dataclass(frozen=True)
class TransformedTableau:
    """Full-rhs form: alpha grid and beta weights from the formal inverse."""

    s: int
    c: tuple
    alpha: tuple  # s x s, row 0 all None, strictly lower triangular
    beta: tuple   # s entries
    design_order: int

    def __post_init__(self):
        if any(not is_zero(e) for e in self.alpha[0]):
            raise ValueError("the first alpha row must vanish")
        for i, row in enumerate(self.alpha):
            for j, entry in enumerate(row):
                if j >= max(i, 1) and not is_zero(entry):
                    raise ValueError(f"alpha must be strictly lower triangular (a[{i}][{j}])")


def _grid(s, entries):
    """Build an s x s grid from {(i, j): expr} with None elsewhere."""
    return tuple(tuple(entries.get((i, j)) for j in range(s)) for i in range(s))


@lru_cache(maxsize=None)
def tableau_order2() -> ExprkTableau:
    phi1 = Phi(1, 1.0)
    phi2 = Phi(2, 1.0)
    return ExprkTableau(
        s=2,
        c=(0.0, 1.0),
        a=_grid(2, {(1, 0): phi1}),
        b=(Sum(phi1, Scale(-1.0, phi2)), phi2),
        design_order=2,
    )


@lru_cache(maxsize=None)
def tableau_order3() -> ExprkTableau:
    c2 = 2.0 / 3.0
    phi12 = Phi(1, c2)      # c3 == c2, so the stage-3 scaled nodes coincide
    phi22 = Phi(2, c2)
    a = _grid(3, {
        (1, 0): Scale(c2, phi12),
        (2, 0): Sum(Scale(2.0 / 3.0, phi12), Scale(-4.0 / (9.0 * c2), phi22)),
        (2, 1): Scale(4.0 / (9.0 * c2), phi22),
    })
    b = (
        Sum(Phi(1, 1.0), Scale(-1.5, Phi(2, 1.0))),
        Const(0.0),
        Scale(1.5, Phi(2, 1.0)),
    )
    return ExprkTableau(s=3, c=(0.0, c2, 2.0 / 3.0), a=a, b=b, design_order=3)


@lru_cache(maxsize=None)
def tableau_order4() -> ExprkTableau:
    half = 0.5
    phi1h = Phi(1, half)
    phi2h = Phi(2, half)
    phi3h = Phi(3, half)
    phi1f = Phi(1, 1.0)
    phi2f = Phi(2, 1.0)
    phi3f = Phi(3, 1.0)
    # the stage-5 coefficient pair is the standard companion choice; the
    # order-condition checker is its validation
    a52 = Sum(Scale(0.5, phi2h), Scale(-1.0, phi3f), Scale(0.25, phi2f), Scale(-0.5, phi3h))
    a54 = Sum(Scale(0.25, phi2h), Scale(-1.0, a52))
    a = _grid(5, {
        (1, 0): Scale(half, phi1h),
        (2, 0): Sum(Scale(half, phi1h), Scale(-1.0, phi2h)),
        (2, 1): phi2h,
        (3, 0): Sum(phi1f, Scale(-2.0, phi2f)),
        (3, 1): phi2f,
        (3, 2): phi2f,
        (4, 0): Sum(Scale(half, phi1h), Scale(-2.0, a52), Scale(-1.0, a54)),
        (4, 1): a52,
        (4, 2): a52,
        (4, 3): a54,
    })
    b = (
        Sum(phi1f, Scale(-3.0, phi2f), Scale(4.0, phi3f)),
        Const(0.0),
        Const(0.0),
        Sum(Scale(-1.0, phi2f), Scale(4.0, phi3f)),
        Sum(Scale(4.0, phi2f), Scale(-8.0, phi3f)),
    )
    return ExprkTableau(s=5, c=(0.0, half, half, 1.0, half), a=a, b=b, design_order=4)


def tableau(order: int) -> ExprkTableau:
    catalog = {2: tableau_order2, 3: tableau_order3, 4: tableau_order4}
    if order not in catalog:
        raise ValueError(f"no catalog method of order {order}")
    return catalog[order]()


def _sym_matmul(m1, m2):
    """Product of two symbolic matrices, lists of rows (absent entries are zero)."""
    return [[add(*map(mul, row, col)) for col in zip(*m2)] for row in m1]


def transform(t: ExprkTableau) -> TransformedTableau:
    """Rewrite a Butcher-form method into the full-rhs (alpha, beta) form."""
    s = t.s
    a_block = [row[1:] for row in t.a[1:]]  # the strict 2:s stage block
    neg_za = [[scale(-1.0, zmul(e)) for e in row] for row in a_block]

    # E = sum_{j=0}^{s-2} (-z A)^j, exact because z A is nilpotent
    e_mat = power = [[Const(1.0) if i == j else None for j in range(s - 1)] for i in range(s - 1)]
    for _ in range(s - 2):
        power = _sym_matmul(power, neg_za)
        e_mat = [list(map(add, e_row, p_row)) for e_row, p_row in zip(e_mat, power)]

    alpha_col1 = _sym_matmul(e_mat, [[scale(ci, Phi(1, ci))] for ci in t.c[1:]])
    alpha_block = _sym_matmul(e_mat, a_block)

    # beta_1 = phi_1 - z sum_{j>=2} b_j alpha_{j,1},  beta_{2:s}^T = b_{2:s}^T E
    b_row = [t.b[1:]]
    weighted = _sym_matmul(b_row, alpha_col1)[0][0]
    beta1 = add(Phi(1, 1.0), scale(-1.0, zmul(weighted)))
    beta_rest = _sym_matmul(b_row, e_mat)[0]

    alpha = [(None,) * s] + [
        (col[0], *(None if is_zero(e) else e for e in row)) for col, row in zip(alpha_col1, alpha_block)
    ]
    return TransformedTableau(
        s=s,
        c=t.c,
        alpha=tuple(alpha),
        beta=(beta1, *beta_rest),
        design_order=t.design_order,
    )


@lru_cache(maxsize=None)
def transformed(order: int) -> TransformedTableau:
    return transform(tableau(order))


CONDITION_ORDERS = {
    "1": 1, "2a": 2, "2b": 2, "3a": 3, "3b": 3, "4a": 4, "4b": 4, "4c": 4, "4d": 4,
}


def check_order_conditions(
    t: ExprkTableau, up_to: int, n: int = 6, seed: int = 0
) -> dict[str, float]:
    """Max-norm residuals of the stiff order conditions on random matrices.

    Draws dense L, J, K with entries in [-1, 1] (h = 1) and evaluates every
    condition of order <= up_to.  The stage defects are

        psi_{i,j} = sum_{k=2}^{j-1} a_{j,k}(hL) c_k^{i-1}/(i-1)! - c_j^i phi_i(c_j hL)

    and the stage consistency condition compares against c_i phi_1(c_i hL);
    both use the abscissa-scaled arguments under which the catalog methods
    are self-consistent.
    """
    if up_to > 4:
        raise ValueError("conditions are tabulated up to order four")
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    L = rng.uniform(-1, 1, size=(n, n))
    J = rng.uniform(-1, 1, size=(n, n))
    K = rng.uniform(-1, 1, size=(n, n))
    z = L  # h = 1
    memo: dict = {}

    def ev(expr):
        return eval_dense(expr, z, memo)

    s = t.s
    c = t.c
    b = [ev(t.b[j]) for j in range(s)]
    a = [[None if t.a[i][j] is None else ev(t.a[i][j]) for j in range(s)] for i in range(s)]

    def psi(i, j):
        # stage defect psi_i for (0-based) stage j
        acc = -(c[j] ** i) * ev(Phi(i, c[j]))
        for k in range(1, j):
            if a[j][k] is not None:
                acc = acc + a[j][k] * (c[k] ** (i - 1) / math.factorial(i - 1))
        return acc

    jmg = J - L
    residuals = {}
    residuals["1"] = sum(b) - ev(Phi(1, 1.0))
    residuals["2a"] = sum(b[j] * c[j] for j in range(1, s)) - ev(Phi(2, 1.0))
    residuals["2b"] = max(
        (
            np.max(np.abs(
                sum(a[i][j] for j in range(i) if a[i][j] is not None)
                - c[i] * ev(Phi(1, c[i]))
            ))
            for i in range(1, s)
        ),
    )
    if up_to >= 3:
        residuals["3a"] = sum(b[j] * (c[j] ** 2 / 2.0) for j in range(1, s)) - ev(Phi(3, 1.0))
        residuals["3b"] = sum(b[j] @ jmg @ psi(2, j) for j in range(1, s))
    if up_to >= 4:
        residuals["4a"] = sum(b[j] * (c[j] ** 3 / 6.0) for j in range(1, s)) - ev(Phi(4, 1.0))
        residuals["4b"] = sum(b[j] @ jmg @ psi(3, j) for j in range(1, s))
        acc = np.zeros((n, n))
        for j in range(1, s):
            inner = np.zeros((n, n))
            for k in range(1, j):
                if a[j][k] is not None:
                    inner = inner + a[j][k] @ jmg @ psi(2, k)
            acc = acc + b[j] @ jmg @ inner
        residuals["4c"] = acc
        residuals["4d"] = sum(b[j] * c[j] @ K @ psi(2, j) for j in range(1, s))

    return {
        label: float(np.max(np.abs(res))) if not np.isscalar(res) else float(abs(res))
        for label, res in residuals.items()
    }


def dump_tableau(t: ExprkTableau | TransformedTableau) -> str:
    """Stable text form, one line per entry, prefix notation."""
    lines = [f"s = {t.s}", f"order = {t.design_order}", "c = [" + ", ".join(repr(ci) for ci in t.c) + "]"]
    if isinstance(t, ExprkTableau):
        grid, grid_name, weights, weight_name = t.a, "a", t.b, "b"
    else:
        grid, grid_name, weights, weight_name = t.alpha, "alpha", t.beta, "beta"
    for i in range(t.s):
        for j in range(t.s):
            entry = grid[i][j]
            if entry is not None and not is_zero(entry):
                lines.append(f"{grid_name}[{i + 1}][{j + 1}] = {entry}")
    for j in range(t.s):
        lines.append(f"{weight_name}[{j + 1}] = {weights[j]}")
    return "\n".join(lines) + "\n"
