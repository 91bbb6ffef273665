"""Adaptive Krylov approximation of phi_k(tau * L) v.

An incremental Arnoldi factorization of (L, v) is built with one classical
Gram-Schmidt pass per step, and the product is approximated in the reduced
space,

    phi_k(tau L) v ~= ||v|| * V_M * phi_k(tau H_M) e_1,

with phi_k(tau H_M) e_1 read from the block phi_j(tau H_M) e_1, j = 1 .. p,
kept per (tau, M): from one augmented exponential (Sidje, Expokit, ACM TOMS
24(1), 1998), or from H_M's eigendecomposition on the Lanczos path below.

The factorization carries a running upper bound, ``loss``, on
||I - V^T V|| of its basis, and takes a second Gram-Schmidt pass only when
the bound would otherwise pass _ORTH_BOUND = 2^-26 = sqrt(eps).  If the
basis V_j has loss eta and a pass takes w to w' (norms ||w||, h), then
||V_j^T w'|| <= (eta + eps (j + 1)) ||w||: the loss carried through plus
the pass's rounding, modelled as eps per basis column (the usual estimate;
the worst case carries a factor n).  Appending w' / h adds at most twice
that over h to the bound, once for the new off-diagonal entries and once
for the new column's normalization.  After a second pass,
||V_j^T w''|| <= eta (eta + eps (j + 1)) ||w|| + eps (j + 1) h.  The bound
grows by a factor 1 + 2 ||w|| / h per step, so short factorizations take no
second pass and long ones (m up to 100 on stiff operators) take it on
nearly every step after about the tenth.  sqrt(eps) is semi-orthogonality:
Simon (Math. Comp. 42, 1984) showed that a Lanczos basis kept orthogonal to
that level gives a reduced matrix equal, to working precision, to the
projection of L onto an orthonormal basis of the same Krylov space.  The
bound is pessimistic: on the Gray-Scott Jacobians the measured loss stays
at or below 1.2e-13 up to m = 100, where the bound is near 1e-8.

A caller that will ask for several phi indices on one factorization passes
the largest, p: each block then holds phi_1 .. phi_p, so every sibling solve
reads its column instead of evaluating again (the phi-combination idea of
phipm, Niesen & Wright, ACM TOMS 38(3), 2012, and KIOPS, Gaudreault,
Rainwater & Tokman, JCP 372, 2018).

An operator declared ``symmetric`` gets the three-term Lanczos recurrence
instead: O(n) work per step rather than O(n m), and a tridiagonal
H_M = Q diag(lam) Q^T whose block of columns is Q (phi_j(tau lam) * Q^T e_1):
one O(M^3) eigendecomposition per M, then O(M^2 p) per (tau, M).  The
declaration alone picks the path; H_M is never inspected for symmetry.  The
basis is not reorthogonalized; Lanczos approximations of matrix functions
stay accurate when orthogonality is lost (Druskin, Greenbaum & Knizhnerman,
SISC 19(1), 1998; Hochbruck & Lubich, SINUM 34(5), 1997).

The error is estimated only at pre-determined check indices, from m=2 on,
spaced so that each check costs roughly as much as all preceding checks
combined, and only through the phi_1 surrogate

    est = |tau| * h_{M+1,M} * |e_M^T phi_1(tau H_M) e_1| / ||phi_k(tau H_M) e_1||,

the leading term of the error integral for the phi_1 product, which is
conservative for the faster-converging higher phi indices.  A product
converges once est is at most the tolerance its caller gives it, cfg.tol:
the steppers give the products on f_p(u_n) the run's tolerance, and those on
a stage residual a tolerance relative to the leading term of the row it
feeds, cfg.tol ||f_p(u_n)|| / ||r||, clamped (``steppers._residual_cfg``).
There is no
sub-stepping in tau: a product that does not converge by m_max is returned
with ``converged=False``.  A non-finite vector, basis or approximation
raises KrylovError; the estimate's norm is taken with scaling, so a finite
result whose squared norm overflows still gets a finite estimate.  The
engine counts solves, Krylov dimensions and the matvecs that grow a
factorization; a stepper counts the applies it makes itself.

An ``EvalContext`` is the workspace of one integration: it adds up the
run's counters and holds one (operator, vector) pair at a time, with that
pair's factorization and coefficient memo.  The steppers apply every product
on a Krylov vector while it is live and then release it (phipm's order), so
one pair is all a step needs.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import LinearOperator
from .phi import MAX_PHI_INDEX, phi_array, phi_cols_e1


def _gs_pass(basis, w):
    """One classical Gram-Schmidt pass: w -= basis (basis^T w), in place;
    returns the coefficients basis^T w."""
    coeffs = basis.T @ w
    w -= basis @ coeffs
    return coeffs


def _dot(x, y) -> float:
    """x^T y by numpy's own loop rather than BLAS ddot, which OpenBLAS splits
    over its threads at basis lengths.  On a shared 2-core machine, right
    after the single-threaded CSR matvec, the 1814 Arnoldi norms of a grid-160
    reference took 0.41 s at two BLAS threads in one measurement, against
    0.05 s at one; this loop takes about 0.09 s at either.  It also keeps an
    overflowing norm silent: where x @ x and np.dot warn "overflow encountered"
    (entries near 1e200), einsum returns inf quietly, so the non-finite check
    that follows raises the named KrylovError rather than a RuntimeWarning."""
    return float(np.einsum("i,i->", x, y))


def _norm(w) -> float:
    return math.sqrt(_dot(w, w))


_BREAKDOWN_RTOL = 1e-14
_EPS = float(np.finfo(float).eps)
# ceiling on the Arnoldi basis's running loss-of-orthogonality bound: sqrt(eps),
# semi-orthogonality (see the module docstring)
_ORTH_BOUND = 2.0**-26


class KrylovError(RuntimeError):
    """Breakdown of the Krylov process (non-finite basis entries), or a
    product that did not converge where its caller needs it to."""


@lru_cache(maxsize=8)
def check_schedule(m_max: int) -> tuple[int, ...]:
    """Error-check indices with roughly cost-doubling spacing.

    Counting from m=1, the next index is the smallest m whose O(m^3)
    reduced-space evaluation costs at least as much as every earlier index
    combined; the schedule is capped and terminated at m_max.  Checks start
    at m = min(2, m_max): a check at m=1 practically never passes, and a
    lucky breakdown at m=1 is still evaluated there, since phi_times_vector
    caps each check at the dimension the factorization reached.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    schedule = [1]
    total = 1
    while schedule[-1] < m_max:
        m = schedule[-1] + 1
        while m**3 < total and m < m_max:
            m += 1
        schedule.append(m)
        total += m**3
    return tuple(schedule[1:] or schedule)


@dataclass
class KrylovConfig:
    """Relative tolerance and largest Krylov dimension; the error checks run
    at ``check_schedule(m_max)``."""

    tol: float = 1e-12
    m_max: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {self.m_max}")


@dataclass
class KrylovResult:
    approximation: np.ndarray
    dim_used: int
    est_error: float
    converged: bool


@dataclass
class KrylovStats:
    matvecs: int = 0  # operator applies: factorization growth and the steps' own
    krylov_dim_total: int = 0
    solves: int = 0

    def merge(self, other: "KrylovStats"):
        self.matvecs += other.matvecs
        self.krylov_dim_total += other.krylov_dim_total
        self.solves += other.solves


class EvalContext:
    """The Krylov workspace of one integration, serving one (operator,
    vector) pair at a time.

    It holds the pair's Arnoldi factorization, shared by every phi product on
    the pair -- the basis is independent of the phi index and of tau -- and
    its coefficient memo.  Asking for another pair drops the last one's
    factorization and memo; holding the pair itself keeps its identity
    unambiguous.  The stats add up over the context's lifetime.
    """

    def __init__(self):
        self.stats = KrylovStats()
        self.clear()

    def pair_memo(self, op: LinearOperator, v: np.ndarray) -> dict:
        """The coefficient memo of (op, v), restarted for a new pair."""
        if self._op is not op or self._v is not v:
            self.clear()
            self._op, self._v = op, v
        return self._memo

    def arnoldi_state(self, op: LinearOperator, v: np.ndarray, m_max: int) -> "_ArnoldiState":
        self.pair_memo(op, v)
        self._state = self._state or _ArnoldiState(op, v, m_max)
        return self._state

    def clear(self):
        """Drop the pair, its factorization and its memo; the stats stay."""
        self._op = self._v = self._state = None
        self._memo = {}


class _ArnoldiState:
    """Incrementally extensible Arnoldi factorization of (L, v); Lanczos
    when L is declared symmetric."""

    def __init__(self, op: LinearOperator, v: np.ndarray, m_max: int):
        self.op = op
        self.symmetric = op.symmetric
        self.n = op.dim
        self.m_max = min(m_max, self.n)
        self.vnorm = _norm(v)
        if not math.isfinite(self.vnorm):
            raise KrylovError(f"non-finite Krylov vector (norm {self.vnorm:.3g})")
        cap = min(16, self.n)
        # column-major storage: every slice V[:, :j] stays BLAS-friendly
        self.V = np.empty((self.n, cap + 1), order="F")
        self.H = np.zeros((cap + 1, cap))
        if self.vnorm > 0.0:
            self.V[:, 0] = v / self.vnorm
        self.m = 0
        # upper bound on ||I - V^T V|| over the basis built so far (Arnoldi
        # only); the first column carries its normalization's rounding,
        # measured at up to 4 eps on grid-160 vectors
        self.loss = 8.0 * _EPS
        self.breakdown = False
        self.scale = 0.0
        self._eig: dict = {}  # per-dimension eigendecompositions of the Lanczos H
        self._phi: dict = {}  # per (tau, m): p and phi_1 .. phi_p of tau H_m

    def _grow(self, cap: int):
        old = self.V.shape[1] - 1
        # aggressive growth, capped at the configured maximum dimension:
        # repeated large copies of the basis cost more than spare columns
        new_cap = min(max(cap, 8 * old), max(self.m_max, cap), self.n)
        V = np.empty((self.n, new_cap + 1), order="F")
        V[:, : old + 1] = self.V
        H = np.zeros((new_cap + 1, new_cap))
        H[: old + 1, :old] = self.H
        self.V, self.H = V, H

    def extend(self, m_target: int):
        if self.breakdown or m_target <= self.m:
            return
        m_target = min(m_target, self.n)
        if m_target > self.V.shape[1] - 1:
            self._grow(m_target)
        while self.m < m_target and not self.breakdown:
            j = self.m
            w = self.op.apply(self.V[:, j])
            if self.symmetric:
                # Lanczos: w = L v_j - beta_{j-1} v_{j-1}, alpha_j = v_j^T w,
                # w -= alpha_j v_j; H is filled symmetrically, column by column
                beta_prev = 0.0
                if j > 0:
                    beta_prev = float(self.H[j, j - 1])
                    w -= beta_prev * self.V[:, j - 1]
                    self.H[j - 1, j] = beta_prev
                alpha = _dot(self.V[:, j], w)
                w -= alpha * self.V[:, j]
                h_next = _norm(w)
                if not (math.isfinite(alpha) and math.isfinite(h_next)):
                    raise KrylovError("non-finite entries in the Lanczos recurrence")
                self.H[j, j] = alpha
                # ||L v_j|| by Pythagoras, to within the basis's loss
                w_norm = math.sqrt(beta_prev * beta_prev + alpha * alpha + h_next * h_next)
            else:
                # classical Gram-Schmidt, and a second pass only when
                # loss + 2 off / h_next would pass _ORTH_BOUND (module
                # docstring; multiplied out, so h_next = 0 takes the pass).
                # off bounds ||V_j^T w|| after the last pass
                basis = self.V[:, : j + 1]
                rounding = _EPS * (j + 1)
                coeffs = _gs_pass(basis, w)
                h_next = _norm(w)
                # ||L v_j|| by Pythagoras, to within the basis's loss
                w_norm = math.sqrt(float(coeffs @ coeffs) + h_next * h_next)
                off = (self.loss + rounding) * w_norm
                if 2.0 * off > (_ORTH_BOUND - self.loss) * h_next:
                    coeffs += _gs_pass(basis, w)
                    off = self.loss * off + rounding * h_next
                    h_next = _norm(w)
                if not math.isfinite(h_next) or not np.all(np.isfinite(coeffs)):
                    raise KrylovError("non-finite entries in the Arnoldi basis")
                self.H[: j + 1, j] = coeffs
            self.scale = max(self.scale, w_norm)
            self.H[j + 1, j] = h_next
            self.m = j + 1
            if h_next <= _BREAKDOWN_RTOL * max(self.scale, 1e-300):
                # (near-)invariant subspace reached: the reduced problem is exact
                self.breakdown = True
            else:
                np.divide(w, h_next, out=self.V[:, j + 1])
                if not self.symmetric:
                    self.loss += 2.0 * off / h_next

    def _eigendecomposition(self, m: int):
        """Eigendecomposition (lam, Q) of the symmetric tridiagonal H_m that
        Lanczos fills for a declared-symmetric L.  One O(m^3) factorization
        per m serves every tau: each (tau, m) then costs O(m^2 p) in
        _phi_columns instead of one augmented exponential.  numpy's eigh,
        not scipy's tridiagonal solver: the two wheels load separate
        OpenBLAS builds (see phi._expm_pade13)."""
        if m not in self._eig:
            self._eig[m] = np.linalg.eigh(self.H[:m, :m])
        return self._eig[m]

    def _phi_columns(self, p: int, tau: float, m: int) -> np.ndarray:
        """The m x p block of columns phi_j(tau H_m) e_1, j = 1 .. p (at least
        p of them), computed once per (tau, m): from one augmented exponential
        on the Arnoldi path, as Q (phi_j(tau lam) * Q^T e_1) from H_m's
        eigendecomposition on the Lanczos path."""
        entry = self._phi.get((tau, m))
        if entry is None or entry[0] < p:
            if self.symmetric:
                lam, q = self._eigendecomposition(m)
                with np.errstate(over="ignore"):  # an overflow fails the finiteness check instead
                    arg = tau * lam
                vals = phi_array(p, arg)
                if not np.all(np.isfinite(vals)):
                    raise KrylovError(f"phi evaluation overflowed (spectral radius {np.max(np.abs(arg)):.3g})")
                cols = q @ (vals * q[0, :, None])
            else:
                with np.errstate(over="ignore"):  # an overflow fails phi_cols_e1's check instead
                    arg = tau * self.H[:m, :m]
                cols = phi_cols_e1(p, arg)
            entry = (p, cols)
            self._phi[(tau, m)] = entry
        return entry[1]

    def reduced_phi(self, k: int, tau: float, m: int, p: int | None = None) -> tuple[np.ndarray, float]:
        """phi_k(tau H_m) e_1 and the phi_1-surrogate relative error estimate.

        Evaluated at an explicit dimension m <= self.m so that results do not
        depend on how far a shared factorization happens to have been built.
        phi_1 .. phi_p (p >= k, default k) are evaluated together and kept, so
        a sibling solve of index up to p at the same (tau, m) reuses them.
        """
        cols = self._phi_columns(k if p is None else max(p, k), tau, m)
        w_red = cols[:, k - 1]
        if self.breakdown and m == self.m:
            return w_red, 0.0
        h_next = self.H[m, m - 1]
        # hypot scales: the squared norm of a finite w_red can overflow, and
        # an infinite denominator would pass any tolerance
        denom = max(math.hypot(*w_red), 1e-300)
        return w_red, abs(tau * h_next * cols[m - 1, 0]) / denom


def phi_times_vector(
    L: LinearOperator,
    k: int,
    tau: float,
    v: np.ndarray,
    cfg: KrylovConfig,
    ctx: EvalContext | None = None,
    p: int | None = None,
) -> KrylovResult:
    """Approximate phi_k(tau * L) v to relative tolerance cfg.tol.

    Each reduced evaluation computes phi_1 .. phi_p (p >= k, default k) of
    the reduced matrix and keeps them on the shared Arnoldi state, so that
    solves of other indices up to p on (L, v) at the same tau reuse them.
    At tau = 0, or on an operator with no entries (``L.zero``), the product
    is phi_k(0) v = v / k!, with no Krylov dimension and no matvec.  Both
    recurrences take k and p up to MAX_PHI_INDEX, the largest index
    ``phi_array`` is tabulated for.
    """
    if k < 1:
        raise ValueError(f"phi index must be >= 1 for the Krylov route, got {k}")
    top = max(k, p or k)
    if top > MAX_PHI_INDEX:
        raise ValueError(f"phi index must be <= MAX_PHI_INDEX = {MAX_PHI_INDEX}, got {top}")
    ctx = ctx if ctx is not None else EvalContext()
    v = np.asarray(v, dtype=float)
    if v.shape != (L.dim,):
        raise ValueError(f"vector of shape {v.shape} does not match operator dim {L.dim}")
    if tau == 0.0 or L.zero:
        w = v / math.factorial(k)
        return _record(ctx, KrylovResult(w, 0, 0.0, True))

    state = ctx.arnoldi_state(L, v, cfg.m_max)
    if state.vnorm == 0.0:
        return _record(ctx, KrylovResult(np.zeros(L.dim), 0, 0.0, True))

    w_red = None
    est = math.inf
    converged = False
    m_used = 0
    for m_target in check_schedule(cfg.m_max):
        m_before = state.m
        state.extend(m_target)
        ctx.stats.matvecs += state.m - m_before  # one apply per new basis column
        m_eval = min(m_target, state.m)
        if m_eval <= m_used:
            break  # the factorization cannot grow any further
        m_used = m_eval
        w_red, est = state.reduced_phi(k, tau, m_eval, p)
        if est <= cfg.tol:
            converged = True
            break

    with np.errstate(over="ignore", invalid="ignore"):  # the check below names an overflow
        w = state.V[:, :m_used] @ (state.vnorm * w_red)
    if not np.all(np.isfinite(w)):
        raise KrylovError(f"phi_{k}({tau:g} L) v overflowed (||v|| = {state.vnorm:.3g}, m = {m_used})")
    return _record(ctx, KrylovResult(w, m_used, est, converged))


def require_converged(res: KrylovResult, k: int, tau: float, cfg: KrylovConfig) -> np.ndarray:
    """The approximation of a phi_k(tau L) v product; KrylovError if it did
    not converge within cfg.m_max."""
    if not res.converged:
        raise KrylovError(
            f"phi_{k}({tau:g} L) v did not converge within m_max={cfg.m_max} "
            f"(estimated error {res.est_error:.3g}, tol {cfg.tol:g})"
        )
    return res.approximation


def _record(ctx: EvalContext, result: KrylovResult) -> KrylovResult:
    ctx.stats.krylov_dim_total += result.dim_used
    ctx.stats.solves += 1
    return result
