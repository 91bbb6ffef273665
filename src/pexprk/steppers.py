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

``step_exprk_original``   P = 1 and r_j = g(Y_j) - g(y_n), one matvec L Y_j;
``step_pexprk``           r_{p,j} = f_p(U_j) - f_p(u_n) - h L_p X_j^p.  A zero
    operator (an explicitly treated partition) skips the L_p X matvec and
    reduces to the classical Runge-Kutta method; with P = 1 this is the
    unpartitioned transformed method.

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

``step_pexprk2_residual``   the order-2 partitioned method rewritten against
partition residuals g_p(U) - g_p(u_n) = f_p(U) - f_p(u_n) - L_p (U - u_n),
whose update couples the partition operators:
    u_{n+1} = u_n + h sum_p [prod_{p'!=p} phi_1(hL_p')] phi_1(hL_p) f_p(u_n)
                  + h sum_p phi_2(hL_p) (g_p(U_2) - g_p(u_n))
A zero operator skips its L_p (U - u_n) matvec here too.  The cross factor
phi_1(hL_p') of an operator on support S_p' solves only on the restriction
of its vector to S_p' and passes the rest through (phi_1(0) = 1), so under
disjoint supports it costs no matvec.

Partition operators are frozen at u_n and rebuilt each step, never within
stages.  All phi applications run matrix-free through the Krylov engine.
"""

from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    (possibly a zero operator for explicitly treated partitions).  f_p is zero
    off its support, and the full right-hand side is the sum of the parts.
    """

    dim: int
    f_parts: tuple
    operator_builders: tuple
    name: str = ""
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
        return require_converged(phi_times_vector(L, k, tau, v, cfg, ctx=ctx), k, tau, cfg)
    except _EVAL_ERRORS as exc:
        raise StepFailure(f"{where}: {exc}") from exc


def _forward_substitution(t, ops, fns, residual, supports, u_n, h, cfg, ctx):
    """One step of the recursion in the module docstring, by vector, on the
    partition operators ops, with f_p(u_n) = fns[p] and r_{p,i} =
    residual(p, U_i, X_i^p), all on partition p's support.  A row's sum (a
    stage's X^p or the update's) enters the full state at its support
    (total[support] = total[support] + x), plain addition for full supports.
    A stage residual that overflows fails the step, naming its stage and
    partition, without a floating-point warning."""
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    ctx = ctx if ctx is not None else EvalContext()
    rows = [(t.c[i], t.a[i], f"stage {i + 1}", f"coefficient a[{i + 1}]") for i in range(1, t.s)]
    rows.append((1.0, t.b, "update", "weight b"))
    parts = range(len(ops))
    x = [[None] * len(rows) for _ in parts]  # x[p][k]: row k's sum on partition p so far
    vs = fns  # column j's vectors: f_p(u_n) for j = 0, then r_{p,j+1}, which rows k >= j consume
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
            for k, (c, coeffs, row, name) in enumerate(rows[j:], j):
                where = f"{row}, partition {p + 1}"
                if not j:
                    x[p][k] = c * _apply_coeff(Phi(1, c), ops[p], h, vs[p], cfg, ctx, f"{where}, phi_1 term",
                                               t.phi_max)
                elif not is_zero(coeffs[j]):
                    x[p][k] = x[p][k] + _apply_coeff(coeffs[j], ops[p], h, vs[p], cfg, ctx,
                                                     f"{where}, {name}[{j + 1}]", t.phi_max)
            ctx.clear()  # this vector's factorization and memo entries
    acc = np.zeros_like(u_n)
    for p in parts:
        acc[supports[p]] = acc[supports[p]] + x[p][-1]
    return u_n + h * acc


def step_exprk_original(
    t: ExprkTableau,
    L: LinearOperator,
    f: Callable[[np.ndarray], np.ndarray],
    y_n: np.ndarray,
    h: float,
    cfg: KrylovConfig,
    ctx: EvalContext | None = None,
) -> np.ndarray:
    fn = f(y_n)
    gn = fn - L.apply(y_n)

    def residual(p, y_i, x):
        return f(y_i) - L.apply(y_i) - gn  # g(Y_i) - g(y_n), g = f - L y

    return _forward_substitution(t, [L], [fn], residual, _FULL, y_n, h, cfg, ctx)


def step_pexprk(
    t: ExprkTableau,
    prob: SplitProblem,
    u_n: np.ndarray,
    h: float,
    cfg: KrylovConfig,
    ctx: EvalContext | None = None,
    ops: Sequence[LinearOperator] | None = None,
) -> np.ndarray:
    ops = list(ops) if ops is not None else prob.build_operators(u_n)
    fns = [fp(u_n) for fp in prob.f_parts]

    def residual(p, u_i, x):
        r = prob.f_parts[p](u_i) - fns[p]
        if ops[p].kind != "zero":
            r -= h * ops[p].apply(x)
        return r

    return _forward_substitution(t, ops, fns, residual, prob.supports, u_n, h, cfg, ctx)


def step_pexprk2_residual(
    prob: SplitProblem,
    u_n: np.ndarray,
    h: float,
    cfg: KrylovConfig,
    ctx: EvalContext | None = None,
    ops: Sequence[LinearOperator] | None = None,
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
    ops = list(ops) if ops is not None else prob.build_operators(u_n)
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
        if ops[p].kind != "zero":
            residual -= ops[p].apply(du[supports[p]])
        out = out + h * crossed
        out[supports[p]] = out[supports[p]] + h * _phi(
            ops[p], 2, h, residual, cfg, ctx, f"update, residual term, partition {p + 1}"
        )
    return out


# stepper factories with a uniform (prob, u, h, cfg, ctx) -> u_next signature

Stepper = Callable[[SplitProblem, np.ndarray, float, KrylovConfig, EvalContext], np.ndarray]


def _stepper(run) -> Stepper:
    """The stepper around run(prob, ops, u, h, cfg, ctx): it builds the
    partition operators frozen at u_n and writes their tallies, the step's
    only matvec count (Krylov plus direct applies), to ctx.stats."""

    def step(prob, u, h, cfg, ctx):
        ops = prob.build_operators(u)
        out = run(prob, ops, u, h, cfg, ctx)
        ctx.stats.matvecs = sum(op.matvecs for op in ops)
        return out

    return step


def original_stepper(order: int) -> Stepper:
    t = tableau(order)

    def run(prob, ops, u, h, cfg, ctx):
        if prob.partitions != 1:
            raise ValueError("the unpartitioned forms take a single-partition problem")
        return step_exprk_original(t, ops[0], prob.f_parts[0], u, h, cfg, ctx)

    return _stepper(run)


def pexprk_stepper(order: int) -> Stepper:
    t = tableau(order)
    return _stepper(lambda prob, ops, u, h, cfg, ctx: step_pexprk(t, prob, u, h, cfg, ctx, ops=ops))


def residual2_stepper() -> Stepper:
    return _stepper(lambda prob, ops, u, h, cfg, ctx: step_pexprk2_residual(prob, u, h, cfg, ctx, ops=ops))


@dataclass
class IntegrationResult:
    state: np.ndarray
    t_final: float
    steps: int
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

    Partition operators are rebuilt at each step start by the stepper.  Any
    step failure aborts the integration with the step index attached.
    """
    if n_steps < 1:
        raise ValueError(f"need at least one step, got {n_steps}")
    h = (tf - t0) / n_steps
    u = np.asarray(u0, dtype=float).copy()
    total = KrylovStats()
    for step_index in range(n_steps):
        ctx = EvalContext()
        try:
            u = stepper(prob, u, h, cfg, ctx)
        except StepFailure as exc:
            raise IntegrationFailure(f"step {step_index + 1}/{n_steps}: {exc}") from exc
        total.merge(ctx.stats)
        if not np.all(np.isfinite(u)):
            raise IntegrationFailure(f"step {step_index + 1}/{n_steps}: state diverged (non-finite)")
    return IntegrationResult(state=u, t_final=tf, steps=n_steps, stats=total)


def unpartitioned_problem(dim, f, jacobian_builder, name="") -> SplitProblem:
    """Single-partition wrapper so the uniform steppers cover all forms."""
    return SplitProblem(dim=dim, f_parts=(f,), operator_builders=(jacobian_builder,), name=name)


def stability_matrix_spectral_radius(L1, L2, h: float) -> float:
    """Spectral radius of e^{h L1} + e^{h L2} - I, the two-partition
    exponential-Euler propagation matrix; a radius <= 1 + eps is the proxy
    for power-boundedness.  Dense diagnostic for small operators only.
    """
    m1 = L1.to_dense() if isinstance(L1, LinearOperator) else np.asarray(L1, dtype=float)
    m2 = L2.to_dense() if isinstance(L2, LinearOperator) else np.asarray(L2, dtype=float)
    if m1.shape != m2.shape or m1.shape[0] != m1.shape[1]:
        raise ValueError("operators must be square and of equal dimension")
    if m1.shape[0] > 200:
        raise ValueError("stability diagnostic is restricted to dimension <= 200")
    m = expm_dense(h * m1) + expm_dense(h * m2) - np.eye(m1.shape[0])
    return float(np.max(np.abs(np.linalg.eigvals(m))))
