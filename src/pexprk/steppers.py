"""Exponential Runge-Kutta steppers: one forward-substitution core, two
residual rules, and the order-2 residual form.

The original form stages on the nonlinear remainder g = f - L y:
    Y_i     = y_n + h c_i phi_1(c_i hL) f(y_n) + h sum_{j<i} a_ij(hL) (g(Y_j) - g(y_n))
    y_{n+1} = y_n + h phi_1(hL) f(y_n)         + h sum_j    b_j(hL)  (g(Y_j) - g(y_n))
The transformed form, with the coefficients (alpha, beta) that
``tableaux.transform`` builds from the formal inverse E(z) = (I + z A(z))^{-1},
stages on the full right-hand side, and the partitioned form applies it
additively to a P-way split f = sum_p f_p, where matrix functions of each
partition operator L_p touch only that partition's f_p terms:
    U_i     = u_n + h sum_p [alpha_i1(hL_p) f_p(u_n) + sum_{j<i} alpha_ij(hL_p) (f_p(U_j) - f_p(u_n))]
    u_{n+1} = u_n + h sum_p [beta_1(hL_p)  f_p(u_n)  + sum_j    beta_j(hL_p)   (f_p(U_j) - f_p(u_n))]
No stepper expands E.  Per partition, (I + hL_p A(hL_p)) X^p =
c phi_1(c hL_p) f_p(u_n) + A(hL_p) d^p is solved row by row (forward
substitution, exact because z A is strictly lower triangular), and E = I - z E A
gives the update.  Both forms are thus one recursion, ``_forward_substitution``:
    X_i^p   = c_i phi_1(c_i hL_p) f_p(u_n) + sum_{j<i} a_ij(hL_p) r_{p,j}
    U_i     = u_n + h sum_p X_i^p
    u_{n+1} = u_n + h sum_p [phi_1(hL_p) f_p(u_n) + sum_j b_j(hL_p) r_{p,j}]
differing only in the stage residual r_{p,j}:

``step_exprk_original``   P = 1 (a single-partition problem) and
    r_j = g(Y_j) - g(y_n), one matvec L Y_j;
``step_pexprk``           r_{p,j} = f_p(U_j) - f_p(u_n) - h L_p X_j^p.  A zero
    operator (an explicitly treated partition: a matrix with no entries,
    ``LinearOperator.zero``) skips the L_p X matvec, its phi products are
    v / k!, and the partition reduces to the classical Runge-Kutta method;
    with P = 1 this is the unpartitioned transformed method.

A partition p may own only part of the state, its support S_p
(``SplitProblem.supports``): f_p and L_p then act on S_p's variables alone,
so X_i^p, r_{p,i} and every Krylov vector of the partition have |S_p|
entries, and each sum over p above adds X_i^p into the full state at S_p.
With full supports that is plain addition.

The recursion runs by vector, not by row (phipm's order, Niesen & Wright,
ACM TOMS 38(3), 2012): once f_p(u_n) or r_{p,j} is formed, every product on
it, in each later stage and in the update, is added into that row's sum, and
the vector's factorization and coefficient memo are dropped
(``EvalContext.clear``).  Each sum still adds its terms in row order (the
phi_1 term, then j ascending), and a step keeps one Krylov basis alive
instead of one per vector.  Each partition costs what one original-form step
costs: at order 4, 16 phi products on 5 Arnoldi factorizations, one per
vector f_p(u_n), r_{p,2}, ..., r_{p,5}.  phi_1(c hL) f(u_n) is applied as the
coefficient Phi(1, c), so the memo computes it once per distinct abscissa c.
The step passes its tableau's largest phi index p (3 at order 4) to the
Krylov engine, which evaluates phi_1 .. phi_p of a reduced matrix once per
(factorization, tau, m) and serves every sibling solve from it.

The products on f_p(u_n) meet cfg.tol relative to their own vector.  The
products on a stage residual meet a tolerance relative to the leading term
of the rows they feed: a row is accurate to cfg.tol ||f_p(u_n)|| at best,
and r_{p,j} is small next to f_p(u_n) (about 1e-8 of it in a default
grid-64 reference, 2e-6 to 7e-6 in the benchmark's grid-160 one), so its
products get cfg.tol ||f_p(u_n)|| / ||r_{p,j}||, clamped to [cfg.tol, 1e-3]
(``_residual_cfg``).  This follows phipm, which controls the error of the
whole combination sum_k phi_k(tau A) v_k rather than of each term, and
Hochbruck, Lubich & Selhofer (SISC 19(5), 1998), who set the Krylov
tolerance from what the step needs.  A zero residual takes no product.

``step_pexprk2_residual``   the order-2 partitioned method rewritten against
partition residuals g_p(U) - g_p(u_n) = f_p(U) - f_p(u_n) - L_p (U - u_n),
whose update couples the partition operators:
    u_{n+1} = u_n + h sum_p [prod_{p'!=p} phi_1(hL_p')] phi_1(hL_p) f_p(u_n)
                  + h sum_p phi_2(hL_p) (g_p(U_2) - g_p(u_n))
A zero operator skips its L_p (U - u_n) matvec here too.  The cross factor
phi_1(hL_p') of an operator on support S_p' solves only on the restriction
of its vector to S_p' and passes the rest through (phi_1(0) = 1), so under
disjoint supports it costs no matvec.  The phi_2 product on the residual
meets the stage residuals' tolerance, relative to ||f_p(u_n)||.

Each method is one step function.  With its tableau bound
(``original_stepper``, ``pexprk_stepper``) or as it stands
(``step_pexprk2_residual``) it has the stepper signature
(prob, u_n, h, cfg, ctx) that ``integrate_fixed`` calls.  The step builds
its partition operators frozen at u_n (``SplitProblem.build_operators``),
never rebuilding them within stages, and adds its own counters to
ctx.stats, matvecs included, so a direct call on a fresh context reports
what the step adds to an integration's.  Each matvec is counted where it is
made: the Krylov engine counts those that grow a factorization, and the step
those it makes itself (L y_n and L Y_i in the original form, L_p X in the
partitioned residual, L_p (U - u_n) in the residual form) through
``_matvec``.  All phi applications run matrix-free through the Krylov
engine, on the integration's one EvalContext (``krylov``).
"""

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .coeffexpr import Phi, eval_coeff, is_zero
from .krylov import EvalContext, KrylovConfig, KrylovError, KrylovStats, phi_times_vector, require_converged
from .operators import LinearOperator
from .phi import PhiEvaluationError, expm_dense
from .tableaux import ExprkTableau, tableau


class StepFailure(RuntimeError):
    """A phi product failed inside a stage; carries the stage context."""


class IntegrationFailure(RuntimeError):
    """A step failed during a fixed-step integration; carries the step index."""


_FULL = (slice(None),)  # the support of a partition that owns the whole state


@dataclass
class SplitProblem:
    """A P-way additively partitioned autonomous system u' = sum_p f_p(u).

    ``supports[p]`` holds the state indices partition p owns (default
    ``slice(None)``, the whole state).  ``f_parts[p]`` maps the full state to
    the rows of f_p on its support, and ``operator_builders[p]`` maps a state
    u_n to the frozen linear operator L_p of that partition on its support
    (a matrix with no entries, the zero operator, for an explicitly treated
    partition).  f_p is zero off its support, and the full right-hand side is
    the sum of the parts.  A single-partition problem serves the
    unpartitioned forms.
    """

    f_parts: tuple
    operator_builders: tuple
    supports: tuple | None = None

    def __post_init__(self):
        self.f_parts = tuple(self.f_parts)
        self.operator_builders = tuple(self.operator_builders)
        if len(self.f_parts) != len(self.operator_builders) or not self.f_parts:
            raise ValueError("need one operator builder per right-hand-side part")
        self.supports = tuple(self.supports or _FULL * len(self.f_parts))
        if len(self.supports) != len(self.f_parts):
            raise ValueError("need one support per right-hand-side part")

    @property
    def partitions(self) -> int:
        return len(self.f_parts)

    def build_operators(self, u: np.ndarray) -> list[LinearOperator]:
        return [build(u) for build in self.operator_builders]


_EVAL_ERRORS = (PhiEvaluationError, KrylovError)


def _apply_coeff(expr, L, h, v, cfg, ctx, where, phi_max):
    try:
        return eval_coeff(expr, L, h, v, cfg, ctx, p=phi_max)
    except _EVAL_ERRORS as exc:
        raise StepFailure(f"{where}: {exc}") from exc


def _phi(L, k, tau, v, cfg, ctx, where):
    try:
        w = require_converged(phi_times_vector(L, k, tau, v, cfg, ctx=ctx), k, tau, cfg)
    except _EVAL_ERRORS as exc:
        raise StepFailure(f"{where}: {exc}") from exc
    ctx.clear()  # each residual-form product is on a fresh vector: drop its factorization
    return w


# The loosest tolerance a stage-residual product is given.  It binds only
# where cfg.tol ||f_p(u_n)|| > _RESIDUAL_TOL_CAP ||r||, and there the
# product's error, below the cap relative to the product, is still below
# what the row allows, so the cap never costs a row accuracy.  It keeps the
# phi_1 surrogate where it estimates the error: the surrogate is the leading
# term of the error series, which dominates the rest only while the error is
# small, and a tolerance near 1 would accept a product wrong by half its
# size.  The cost is small: on a 40-variable semilinear oracle whose
# nonlinear term is 1e-9 to 1e-15 of its linear one, an order-4 step takes
# 68 Krylov dimensions at 1e-3, against 46 with no cap and 104 at 1e-6.
# The Gray-Scott studies and references never reach it: their residual
# tolerances stay below 3e-9 and 6e-8.
_RESIDUAL_TOL_CAP = 1e-3


def _scaled_norm(v) -> float:
    """||v||, with v scaled by its largest entry first, so that no square
    overflows: finite whenever the norm itself is.  0 for v = 0, and inf or
    NaN for a non-finite v.  The sum is numpy's own loop, not BLAS ddot,
    for the reasons ``krylov._dot`` gives: no BLAS threading, and no
    overflow warning, though here the scaling already keeps every square
    and the sum finite."""
    scale = float(np.max(np.abs(v)))
    if not 0.0 < scale < math.inf:
        return scale
    w = v / scale
    return scale * math.sqrt(float(np.einsum("i,i->", w, w)))


def _residual_cfg(cfg: KrylovConfig, f_norm: float, r_norm: float) -> KrylovConfig:
    """The Krylov settings of the products on a stage residual of norm r_norm
    in a row led by the phi_1 term on f_p(u_n), of norm f_norm.  The row's
    leading term meets cfg.tol relative to f_p(u_n), so a residual product
    needs only tolerance cfg.tol f_norm / r_norm relative to itself; it gets
    that, clamped to [cfg.tol, max(cfg.tol, _RESIDUAL_TOL_CAP)], or cfg.tol
    itself when a norm is zero or not finite."""
    if not (0.0 < f_norm < math.inf and 0.0 < r_norm < math.inf):
        return cfg
    return replace(cfg, tol=max(cfg.tol, min(cfg.tol * (f_norm / r_norm), _RESIDUAL_TOL_CAP)))


def _matvec(L, v, ctx):
    """L v, a matvec the step makes itself, counted in ctx.stats."""
    ctx.stats.matvecs += 1
    return L.apply(v)


def _forward_substitution(t, ops, fns, residual, supports, u_n, h, cfg, ctx):
    """One step of the recursion in the module docstring, by vector, on the
    partition operators ops, with f_p(u_n) = fns[p] and r_{p,i} =
    residual(p, U_i, X_i^p), all on partition p's support.  A row's sum (a
    stage's X^p or the update's) enters the full state at its support
    (total[support] = total[support] + x), plain addition for full supports.
    A stage residual that overflows fails the step, naming its stage and
    partition, without a floating-point warning.  The products on f_p(u_n)
    meet cfg.tol; those on r_{p,j} meet the tolerance of ``_residual_cfg``,
    relative to the row's leading term, and a zero r_{p,j} takes no product."""
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    rows = [(t.c[i], t.a[i], f"stage {i + 1}", f"coefficient a[{i + 1}]") for i in range(1, t.s)]
    rows.append((1.0, t.b, "update", "weight b"))
    parts = range(len(ops))
    x = [[None] * len(rows) for _ in parts]  # x[p][k]: row k's sum on partition p so far
    vs = fns  # column j's vectors: f_p(u_n) for j = 0, then r_{p,j+1}, which rows k >= j consume
    f_norms = [_scaled_norm(f) for f in fns]
    for j in range(len(rows)):
        if j:
            total = np.zeros_like(u_n)
            for p in parts:
                total[supports[p]] = total[supports[p]] + x[p][j - 1]
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                u_j = u_n + h * total
                vs = [residual(p, u_j, x[p][j - 1]) for p in parts]
            for p in parts:
                if not np.all(np.isfinite(vs[p])):
                    raise StepFailure(f"stage {j + 1}, partition {p + 1}: non-finite stage residual")
        for p in parts:
            vcfg = cfg  # the products on f_p(u_n) meet cfg.tol
            if j:
                r_norm = _scaled_norm(vs[p])
                if not r_norm:
                    continue  # a zero residual adds nothing to any row
                vcfg = _residual_cfg(cfg, f_norms[p], r_norm)
            for k, (c, coeffs, row, name) in enumerate(rows[j:], j):
                where = f"{row}, partition {p + 1}"
                if not j:
                    x[p][k] = c * _apply_coeff(Phi(1, c), ops[p], h, vs[p], vcfg, ctx, f"{where}, phi_1 term",
                                               t.phi_max)
                elif not is_zero(coeffs[j]):
                    x[p][k] = x[p][k] + _apply_coeff(coeffs[j], ops[p], h, vs[p], vcfg, ctx,
                                                     f"{where}, {name}[{j + 1}]", t.phi_max)
            ctx.clear()  # this vector's factorization and memo entries
    acc = np.zeros_like(u_n)
    for p in parts:
        acc[supports[p]] = acc[supports[p]] + x[p][-1]
    return u_n + h * acc


def step_exprk_original(
    t: ExprkTableau,
    prob: SplitProblem,
    y_n: np.ndarray,
    h: float,
    cfg: KrylovConfig,
    ctx: EvalContext | None = None,
) -> np.ndarray:
    if prob.partitions != 1:
        raise ValueError("the original form takes a single-partition problem")
    ctx = ctx if ctx is not None else EvalContext()
    (L,) = ops = prob.build_operators(y_n)
    f = prob.f_parts[0]
    fn = f(y_n)
    gn = fn - _matvec(L, y_n, ctx)

    def residual(p, y_i, x):
        return f(y_i) - _matvec(L, y_i, ctx) - gn  # g(Y_i) - g(y_n), g = f - L y

    return _forward_substitution(t, ops, [fn], residual, _FULL, y_n, h, cfg, ctx)


def step_pexprk(
    t: ExprkTableau,
    prob: SplitProblem,
    u_n: np.ndarray,
    h: float,
    cfg: KrylovConfig,
    ctx: EvalContext | None = None,
) -> np.ndarray:
    ctx = ctx if ctx is not None else EvalContext()
    ops = prob.build_operators(u_n)
    fns = [fp(u_n) for fp in prob.f_parts]

    def residual(p, u_i, x):
        r = prob.f_parts[p](u_i) - fns[p]
        if not ops[p].zero:
            r -= h * _matvec(ops[p], x, ctx)
        return r

    return _forward_substitution(t, ops, fns, residual, prob.supports, u_n, h, cfg, ctx)


def step_pexprk2_residual(
    prob: SplitProblem,
    u_n: np.ndarray,
    h: float,
    cfg: KrylovConfig,
    ctx: EvalContext | None = None,
) -> np.ndarray:
    """Order-2 partitioned step written against partition residuals.

    Each cross term phi_1(hL_p') acts on partition p's stage term, a vector
    of the full state.  An operator on support S applies a phi function to the
    restriction to S only: phi_k(hL_S) v = E phi_k(hL) v|_S + (v - E v|_S) / k!,
    E the embedding of S, since phi_k(0) = 1/k!.  So the restriction takes
    the Krylov solve, and the rest of the term passes through; under disjoint
    supports the restriction is zero and the solve costs no matvec.
    """
    if prob.partitions != 2:
        raise ValueError("the residual form is implemented for exactly two partitions")
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    ctx = ctx if ctx is not None else EvalContext()
    ops = prob.build_operators(u_n)
    fns = [fp(u_n) for fp in prob.f_parts]
    supports = prob.supports

    stage_terms = []
    for p in range(2):
        term = np.zeros_like(u_n)
        term[supports[p]] = _phi(ops[p], 1, h, fns[p], cfg, ctx, f"stage 2, partition {p + 1}")
        stage_terms.append(term)
    u_2 = u_n + h * (stage_terms[0] + stage_terms[1])
    du = u_2 - u_n

    out = u_n.copy()
    for p in range(2):
        other = supports[1 - p]
        crossed = stage_terms[p].copy()  # phi_1(0) = 1 off the other support
        crossed[other] = _phi(
            ops[1 - p], 1, h, stage_terms[p][other], cfg, ctx, f"update, cross term, partition {p + 1}"
        )
        residual = prob.f_parts[p](u_2) - fns[p]
        if not ops[p].zero:
            residual -= _matvec(ops[p], du[supports[p]], ctx)
        out = out + h * crossed
        r_norm = _scaled_norm(residual)
        if r_norm:  # a zero residual adds nothing
            out[supports[p]] = out[supports[p]] + h * _phi(
                ops[p], 2, h, residual, _residual_cfg(cfg, _scaled_norm(fns[p]), r_norm), ctx,
                f"update, residual term, partition {p + 1}",
            )
    return out


# a step function with its tableau bound: (prob, u, h, cfg, ctx) -> u_next

Stepper = Callable[[SplitProblem, np.ndarray, float, KrylovConfig, EvalContext], np.ndarray]


def original_stepper(order: int) -> Stepper:
    return partial(step_exprk_original, tableau(order))


def pexprk_stepper(order: int) -> Stepper:
    return partial(step_pexprk, tableau(order))


@dataclass
class IntegrationResult:
    state: np.ndarray
    stats: KrylovStats = field(default_factory=KrylovStats)


def integrate_fixed(
    stepper: Stepper,
    prob: SplitProblem,
    u0: np.ndarray,
    t0: float,
    tf: float,
    n_steps: int,
    cfg: KrylovConfig,
) -> IntegrationResult:
    """Apply the stepper n_steps times with constant h = (tf - t0) / n_steps.

    Partition operators are rebuilt at each step start by the stepper.  The
    run has one EvalContext, its Krylov workspace, to which each step adds
    its counters.  Any step failure aborts the integration with the step
    index attached.
    """
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    h = (tf - t0) / n_steps
    u = np.asarray(u0, dtype=float).copy()
    ctx = EvalContext()
    for step_index in range(n_steps):
        try:
            u = stepper(prob, u, h, cfg, ctx)
        except StepFailure as exc:
            raise IntegrationFailure(f"step {step_index + 1}/{n_steps}: {exc}") from exc
        if not np.all(np.isfinite(u)):
            raise IntegrationFailure(f"step {step_index + 1}/{n_steps}: state diverged (non-finite)")
    return IntegrationResult(state=u, stats=ctx.stats)


def stability_matrix_spectral_radius(L1, L2, h: float) -> float:
    """Spectral radius of e^{h L1} + e^{h L2} - I, the two-partition
    exponential-Euler propagation matrix; a radius <= 1 + eps is the proxy
    for power-boundedness.  Dense diagnostic for small operators only: the
    dimension is checked before either operator is materialized.
    """
    L1, L2 = (L if isinstance(L, LinearOperator) else LinearOperator(np.asarray(L, dtype=float))
              for L in (L1, L2))
    if L1.dim != L2.dim:
        raise ValueError("operators must be of equal dimension")
    if L1.dim > 200:
        raise ValueError("stability diagnostic is restricted to dimension <= 200")
    m = expm_dense(h * L1.to_dense()) + expm_dense(h * L2.to_dense()) - np.eye(L1.dim)
    return float(np.max(np.abs(np.linalg.eigvals(m))))
