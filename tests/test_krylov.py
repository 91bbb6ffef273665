import math
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from pexprk import krylov
from pexprk.coeffexpr import Phi, Scale, Sum, eval_coeff
from pexprk.krylov import (
    _ORTH_BOUND,
    EvalContext,
    KrylovConfig,
    KrylovError,
    _ArnoldiState,
    check_schedule,
    phi_times_vector,
)
from pexprk.operators import LinearOperator
from pexprk.phi import MAX_PHI_INDEX
from pexprk.problems import TIMESPAN, GrayScottModel, gs_initial, gs_partition, gs_rhs

from oracles import gs_full_jacobian, phi_dense_times_vector, phi_scalar


def stable_dense(rng, n, shift=2.0):
    """Random dense matrix with spectrum shifted into the left half-plane."""
    a = rng.uniform(-1, 1, size=(n, n))
    return a - (np.max(np.real(np.linalg.eigvals(a))) + shift) * np.eye(n)


def symmetric_stable(rng, n, spread=20.0):
    """Random symmetric matrix with eigenvalues in [-spread, 0]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q * -rng.uniform(0.0, spread, size=n)) @ q.T


def declared_symmetric(a):
    """A LinearOperator declared symmetric on an exactly symmetric copy of a."""
    return LinearOperator(0.5 * (a + a.T), symmetric=True)


def dense_phi_reference(k, tau, a, v):
    return phi_dense_times_vector(k, tau * a, v)[k - 1]


def gray_scott_operator(kind, n, spacing, part=0):
    """An undeclared Gray-Scott operator at the initial state and the vector
    a step applies it to: the full Jacobian with the right-hand side, or a
    space part's sub-block with its rows of the right-hand side.  spacing is
    "unit" or "1/n"."""
    model = GrayScottModel(n=n, spacing=1.0 if spacing == "unit" else 1.0 / n)
    u = gs_initial(model)
    if kind == "full":
        return gs_full_jacobian(model, u), gs_rhs(model, u)
    split = gs_partition(model, "space")
    return split.operator_builders[part](u), split.f_parts[part](u)


class TestCheckSchedule:
    def test_m_max_4(self):
        # the m=1 check is skipped: nothing short of a breakdown stops there
        assert check_schedule(4) == (2, 3, 4)
        assert check_schedule(2) == (2,)

    def test_m_max_1(self):
        assert check_schedule(1) == (1,)

    def test_m_max_30_shape(self):
        sched = check_schedule(30)
        assert sched[0] == 2 and sched[-1] == 30
        assert all(b > a for a, b in zip(sched, sched[1:]))
        # tail spacing approaches the cost-doubling ratio 2^(1/3)
        ratios = [b / a for a, b in zip(sched[-4:-1], sched[-3:])]
        for r in ratios[:-1]:  # last hop is the cap at m_max
            assert 1.1 <= r <= 1.45

    def test_rule_is_cost_doubling(self):
        # counted from m=1, the index the schedule skips
        sched = (1,) + check_schedule(50)
        total = 0
        for prev, nxt in zip(sched, sched[1:]):
            total += prev**3
            if nxt < 50:
                assert nxt**3 >= total
                assert (nxt - 1) ** 3 < total or nxt == prev + 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            check_schedule(0)

    def test_cached_and_immutable(self):
        # every caller shares the cached value, so it must be a tuple
        sched = check_schedule(30)
        assert isinstance(sched, tuple)
        assert check_schedule(30) is sched


class TestKrylovConfig:
    @pytest.mark.parametrize("field, value", [("tol", 0.0), ("tol", -1e-12), ("tol", np.inf), ("tol", np.nan),
                                              ("m_max", 0)])
    def test_rejects_settings_out_of_range(self, field, value):
        # tol positive and finite (an infinite tol would pass every product
        # at its first check), m_max at least 1
        with pytest.raises(ValueError, match=field):
            KrylovConfig(**{field: value})


class TestPhiTimesVector:
    def test_scaled_identity_converges_at_m1(self):
        cfg = KrylovConfig(tol=1e-12, m_max=20)
        op = LinearOperator(scipy.sparse.diags(np.full(10, -3.0)), symmetric=True)
        rng = np.random.default_rng(0)
        v = rng.uniform(-1, 1, size=10)
        for k in [1, 2, 4]:
            res = phi_times_vector(op, k, 0.7, v, cfg)
            assert res.converged and res.dim_used == 1
            assert np.allclose(res.approximation, phi_scalar(k, -2.1) * v, rtol=1e-12)

    def test_zero_vector_short_circuits(self):
        cfg = KrylovConfig()
        op = LinearOperator(np.eye(4))
        ctx = EvalContext()
        res = phi_times_vector(op, 1, 0.5, np.zeros(4), cfg, ctx=ctx)
        assert res.converged and res.dim_used == 0 and ctx.stats.matvecs == 0
        assert np.array_equal(res.approximation, np.zeros(4))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("matrix", [np.zeros((4, 4)), scipy.sparse.csr_matrix((4, 4))], ids=["dense", "csr"])
    def test_zero_operator_short_circuits(self, k, matrix):
        # a matrix that stores no entries: phi_k(0) v = v / k!, exactly
        cfg = KrylovConfig()
        v = np.arange(1.0, 5.0)
        op = LinearOperator(matrix)
        ctx = EvalContext()
        res = phi_times_vector(op, k, 0.3, v, cfg, ctx=ctx)
        assert op.zero and res.converged and res.dim_used == 0
        assert ctx.stats.matvecs == 0 and ctx.stats.krylov_dim_total == 0
        assert np.array_equal(res.approximation, v / math.factorial(k))

    def test_invariant_subspace_exact(self):
        # v supported on one 3x3 block: exact at M = 3 via lucky breakdown
        rng = np.random.default_rng(5)
        blocks = [rng.uniform(-1, 1, size=(3, 3)) for _ in range(3)]
        op = LinearOperator(scipy.linalg.block_diag(*blocks))
        v = np.zeros(9)
        v[3:6] = rng.uniform(-1, 1, size=3)
        cfg = KrylovConfig(tol=1e-12, m_max=30)
        res = phi_times_vector(op, 2, 0.9, v, cfg)
        assert res.converged and res.dim_used <= 3
        ref = dense_phi_reference(2, 0.9, op.to_dense(), v)
        assert np.linalg.norm(res.approximation - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_lucky_breakdown_diagonal(self):
        op = LinearOperator(scipy.sparse.diags(np.full(6, -2.5)), symmetric=True)
        v = np.ones(6)
        res = phi_times_vector(op, 1, 1.0, v, KrylovConfig(tol=1e-12, m_max=10))
        assert res.converged and res.dim_used == 1 and res.est_error == 0.0

    def test_monotone_refinement(self):
        rng = np.random.default_rng(77)
        a = stable_dense(rng, 30)
        v = rng.uniform(-1, 1, size=30)
        ref = dense_phi_reference(1, 0.5, a, v)
        errs = []
        for tol in [1e-4, 1e-6, 1e-8, 1e-10, 1e-12]:
            res = phi_times_vector(LinearOperator(a), 1, 0.5, v, KrylovConfig(tol=tol, m_max=40))
            errs.append(np.linalg.norm(res.approximation - ref))
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse + 1e-15

    def test_nonconvergence_reported(self):
        rng = np.random.default_rng(8)
        a = stable_dense(rng, 40, shift=1.0) * 500.0
        v = rng.uniform(-1, 1, size=40)
        res = phi_times_vector(LinearOperator(a), 1, 1.0, v, KrylovConfig(tol=1e-12, m_max=5))
        assert not res.converged
        assert res.dim_used == 5
        assert res.est_error > 1e-12

    def test_orthonormal_basis_and_arnoldi_relation(self):
        rng = np.random.default_rng(21)
        a = stable_dense(rng, 35)
        v = rng.uniform(-1, 1, size=35)
        op = LinearOperator(a)
        ctx = EvalContext()
        res = phi_times_vector(op, 1, 0.4, v, KrylovConfig(tol=1e-8, m_max=30), ctx=ctx)
        state = ctx.arnoldi_state(op, v, 30)
        m = res.dim_used
        V, H = state.V[:, :m], state.H[:m, :m]
        assert np.max(np.abs(V.T @ V - np.eye(m))) <= 1e-10
        lhs = a @ V
        rhs = V @ H + state.H[m, m - 1] * np.outer(state.V[:, m], np.eye(m)[m - 1])
        denom = np.linalg.norm(lhs)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * denom

    def test_phi_index_limit_on_both_recurrences(self):
        # phi_array, which the Lanczos path reads, is tabulated up to
        # MAX_PHI_INDEX: both paths give that index, and reject the next as
        # k or as p
        d = -np.linspace(0.5, 5.0, 10)
        v = np.linspace(1.0, 2.0, 10)
        ops = LinearOperator(np.diag(d), symmetric=True), LinearOperator(np.diag(d))
        cfg = KrylovConfig(tol=1e-12, m_max=10)
        want = np.array([phi_scalar(MAX_PHI_INDEX, 0.5 * x) for x in d]) * v
        rejected = f"must be <= MAX_PHI_INDEX = {MAX_PHI_INDEX}, got {MAX_PHI_INDEX + 1}"
        for op in ops:
            res = phi_times_vector(op, MAX_PHI_INDEX, 0.5, v, cfg)
            assert res.converged
            assert np.linalg.norm(res.approximation - want) <= 1e-12 * np.linalg.norm(want), op.symmetric
            for k, p in ((MAX_PHI_INDEX + 1, None), (1, MAX_PHI_INDEX + 1)):
                with pytest.raises(ValueError, match=rejected):
                    phi_times_vector(op, k, 0.5, v, cfg, p=p)

    def test_rejects_k0_and_mismatch(self):
        with pytest.raises(ValueError):
            phi_times_vector(LinearOperator(np.zeros((3, 3))), 0, 1.0, np.zeros(3), KrylovConfig())
        with pytest.raises(ValueError):
            phi_times_vector(LinearOperator(np.zeros((3, 3))), 1, 1.0, np.zeros(4), KrylovConfig())


class TestSurrogateErrorEstimate:
    """The phi_1 surrogate estimate against the true error of phi_k, k = 1..3,
    on both recurrences: Arnoldi on a dense nonsymmetric matrix, Lanczos on a
    declared-symmetric one."""

    @pytest.mark.parametrize("recurrence, n, m_max",
                             [("arnoldi", 40, 39), ("lanczos", 40, 39), ("lanczos", 200, 80)],
                             ids=["arnoldi-40", "lanczos-40", "lanczos-200"])
    def test_estimate_bounds_true_error(self, recurrence, n, m_max):
        tau = 0.5
        checked = {1: 0, 2: 0, 3: 0}
        for seed in range(5):
            rng = np.random.default_rng(seed)
            if recurrence == "arnoldi":
                op = LinearOperator(stable_dense(rng, n))
            else:
                op = declared_symmetric(symmetric_stable(rng, n))
            a = op.matrix.toarray()
            v = rng.uniform(-1, 1, size=n)
            state = _ArnoldiState(op, v, m_max)
            state.extend(m_max)
            if recurrence == "lanczos":
                # H is filled as an exactly symmetric tridiagonal
                t = state.H[: state.m, : state.m]
                assert np.array_equal(t, t.T) and np.array_equal(t, np.triu(np.tril(t, 1), -1))
            refs = {k: dense_phi_reference(k, tau, a, v) for k in checked}
            for m in range(2, state.m):
                for k, ref in refs.items():
                    w_red, est = state.reduced_phi(k, tau, m)
                    if est > 1e-6:
                        continue
                    true = np.linalg.norm(state.vnorm * (state.V[:, :m] @ w_red) - ref) / np.linalg.norm(ref)
                    # below ~1e-13 the true error is rounding, which the
                    # estimate of the truncation error does not bound
                    assert true <= max(est, 1e-13), (seed, m, k, true, est)
                    checked[k] += est >= 1e-12
            # Arnoldi takes the augmented exponential at every m, Lanczos an
            # eigendecomposition of its tridiagonal
            assert set(state._eig) == (set(range(2, state.m)) if recurrence == "lanczos" else set())
        assert min(checked.values()) >= 10, checked

    @pytest.mark.parametrize("spacing", ["unit", "1/n"])
    @pytest.mark.parametrize("kind, part", [("full", 0), ("space", 0), ("space", 1)],
                             ids=["full", "space-1", "space-2"])
    def test_converged_solves_meet_tol_on_gray_scott(self, kind, part, spacing):
        # dense truth at grid 16: every solve converges within m_max = 100,
        # and its true relative error is within its tolerance
        op, v = gray_scott_operator(kind, 16, spacing, part)
        a = op.matrix.toarray()
        for tau in (TIMESPAN / 2, TIMESPAN / 16, TIMESPAN / 128):
            refs = phi_dense_times_vector(3, tau * a, v)
            for tol in (1e-8, 1e-12):
                ctx = EvalContext()
                for k, ref in enumerate(refs, start=1):
                    res = phi_times_vector(op, k, tau, v, KrylovConfig(tol=tol, m_max=100), ctx=ctx)
                    assert res.converged, (tau, tol, k)
                    true = np.linalg.norm(res.approximation - ref) / np.linalg.norm(ref)
                    assert true <= tol, (tau, tol, k, true)


class TestOrthogonality:
    """The Arnoldi basis's loss of orthogonality ||I - V^T V|| against the
    running bound the factorization keeps and against _ORTH_BOUND."""

    @staticmethod
    def case(name):
        if name == "dense":
            rng = np.random.default_rng(2)
            return LinearOperator(stable_dense(rng, 200)), rng.uniform(-1, 1, size=200)
        kind, n, spacing = name.split("-", 2)
        return gray_scott_operator(kind, int(n), spacing)

    @pytest.mark.parametrize("name", ["full-16-unit", "full-16-1/n", "full-32-unit", "full-32-1/n",
                                      "space-32-unit", "space-32-1/n", "dense"])
    def test_loss_within_bound_at_every_m(self, name):
        op, v = self.case(name)
        m_max = 100
        state = _ArnoldiState(op, v, m_max)
        bounds = [state.loss]  # bounds[m] covers the m + 1 columns after m steps
        for m in range(1, m_max + 1):
            state.extend(m)
            assert state.m == m and not state.breakdown
            bounds.append(state.loss)
        basis = state.V[:, : m_max + 1]
        gram = basis.T @ basis
        for m, bound in enumerate(bounds):
            loss = np.linalg.norm(np.eye(m + 1) - gram[: m + 1, : m + 1], 2)
            assert loss <= bound <= _ORTH_BOUND, (m, loss, bound)

    def test_second_pass_only_where_the_bound_needs_it(self, monkeypatch):
        # stiff full Jacobian: the first steps take one pass each, and the
        # fallback second pass runs once the bound nears _ORTH_BOUND
        op, v = self.case("full-32-1/n")
        passes = []
        original = krylov._gs_pass
        monkeypatch.setattr(krylov, "_gs_pass", lambda basis, w: passes.append(1) or original(basis, w))
        state = _ArnoldiState(op, v, 100)
        state.extend(5)
        assert len(passes) == 5
        state.extend(100)
        assert state.m == 100 and len(passes) > 150


class TestLanczos:
    """Declared-symmetric operators run the three-term recurrence."""

    def test_lanczos_relation_and_agreement_with_arnoldi(self):
        rng = np.random.default_rng(3)
        a = symmetric_stable(rng, 60)
        lanczos_op = declared_symmetric(a)
        arnoldi_op = LinearOperator(lanczos_op.matrix)
        v = rng.uniform(-1, 1, size=60)
        cfg = KrylovConfig(tol=1e-12, m_max=60)
        ctx = EvalContext()
        lanczos = phi_times_vector(lanczos_op, 2, 0.4, v, cfg, ctx=ctx)
        arnoldi = phi_times_vector(arnoldi_op, 2, 0.4, v, cfg)
        assert lanczos.converged and arnoldi.converged
        diff = np.linalg.norm(lanczos.approximation - arnoldi.approximation)
        assert diff <= 1e-12 * np.linalg.norm(arnoldi.approximation)
        # one matvec per dimension, and L V_m = V_m T_m + beta_m v_{m+1} e_m^T
        state = ctx.arnoldi_state(lanczos_op, v, cfg.m_max)
        m = state.m
        assert ctx.stats.matvecs == m
        V = state.V[:, :m]
        rhs = V @ state.H[:m, :m] + state.H[m, m - 1] * np.outer(state.V[:, m], np.eye(m)[m - 1])
        assert np.linalg.norm(a @ V - rhs) <= 1e-12 * np.linalg.norm(a @ V)

    def test_undeclared_symmetric_matrix_never_calls_eigh(self):
        # the declaration alone picks the path, at every m including m = 1
        rng = np.random.default_rng(4)
        declared = declared_symmetric(symmetric_stable(rng, 50))
        undeclared = LinearOperator(declared.matrix)
        v = rng.uniform(-1, 1, size=50)
        cfg = KrylovConfig(tol=1e-12, m_max=50)
        ctx = EvalContext()
        for k in (1, 2, 3):
            got = phi_times_vector(undeclared, k, 0.4, v, cfg, ctx=ctx)
            want = phi_times_vector(declared, k, 0.4, v, cfg)
            assert got.converged and want.converged
            diff = np.linalg.norm(got.approximation - want.approximation)
            assert diff <= 1e-12 * np.linalg.norm(want.approximation), k
        state = ctx.arnoldi_state(undeclared, v, cfg.m_max)
        assert state.m > 1 and not state._eig

    def test_lucky_breakdown(self):
        # v in a 3-dimensional invariant subspace: exact at m = 3
        a = np.diag([-1.0, -1.0, -2.0, -2.0, -3.0, -3.0])
        v = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        op = LinearOperator(a, symmetric=True)
        res = phi_times_vector(op, 1, 1.0, v, KrylovConfig(tol=1e-12, m_max=6))
        assert res.converged and res.dim_used == 3 and res.est_error == 0.0
        want = np.array([phi_scalar(1, lam) for lam in np.diag(a)]) * v
        assert np.allclose(res.approximation, want, rtol=1e-13, atol=0.0)

    def test_non_finite_recurrence_raises(self):
        # ||L v||^2 overflows: beta is not finite
        op = LinearOperator(np.diag([1e200, -1e200]), symmetric=True)
        with np.errstate(over="ignore"), pytest.raises(KrylovError):
            phi_times_vector(op, 1, 1.0, np.ones(2), KrylovConfig())


class TestReducedPhiColumns:
    """Both recurrences read phi_k(tau H_m) e_1 and the estimate's phi_1 entry
    from one kept block of columns per (tau, m).  On a declared-symmetric
    Gray-Scott operator at the study's (tau, k), the Lanczos block matches the
    dense evaluation on its T_m and the Arnoldi path on an undeclared copy."""

    @pytest.mark.parametrize("split, part", [("species", 0), ("species", 1), ("physics", 0)],
                             ids=["species-a", "species-b", "diffusion"])
    def test_lanczos_matches_dense_and_arnoldi(self, split, part):
        model = GrayScottModel(n=16)
        u = gs_initial(model)
        problem = gs_partition(model, split)
        op, v = problem.operator_builders[part](u), problem.f_parts[part](u)
        assert op.symmetric
        # on a species block (n = 256) the undeclared copy breaks down at m = n
        m_max = op.dim if split == "species" else 64
        lanczos = _ArnoldiState(op, v, m_max)
        arnoldi = _ArnoldiState(LinearOperator(op.matrix), v, m_max)
        lanczos.extend(m_max)
        arnoldi.extend(m_max)
        assert arnoldi.m == m_max and arnoldi.breakdown == (split == "species")
        h = TIMESPAN / 2  # two study steps
        dims = {2, 3, 5, 8, 13, 64, m_max}
        for m in dims:
            t = lanczos.H[:m, :m]
            for tau in (h / 2, h):
                dense = phi_dense_times_vector(3, tau * t, np.eye(m)[0])
                for k in (1, 2, 3):
                    got, est = lanczos.reduced_phi(k, tau, m, p=3)
                    want, arnoldi_est = arnoldi.reduced_phi(k, tau, m, p=3)
                    scale = np.linalg.norm(dense[k - 1])
                    assert np.linalg.norm(got - dense[k - 1]) <= 1e-13 * scale, (m, tau, k)
                    assert np.linalg.norm(got - want) <= 1e-13 * scale, (m, tau, k)
                    dense_est = abs(tau * lanczos.H[m, m - 1] * dense[0][m - 1]) / scale
                    assert est == pytest.approx(dense_est, rel=1e-8, abs=1e-15), (m, tau, k)
                    assert (arnoldi_est == 0.0) == (arnoldi.breakdown and m == arnoldi.m), (m, tau, k)
        # one eigendecomposition per m, one block of columns per (tau, m)
        assert len(lanczos._eig) == len(dims) and len(lanczos._phi) == 2 * len(dims)

    def test_overflowing_phi_raises(self):
        state = _ArnoldiState(LinearOperator(np.diag([800.0, -1.0]), symmetric=True), np.ones(2), 2)
        state.extend(2)
        with pytest.raises(KrylovError, match=r"phi evaluation overflowed \(spectral radius 800\)"):
            state.reduced_phi(1, 1.0, 2)


class TestOverflowingNorm:
    """phi_k(460 L) v with L's eigenvalues spread over [-1, 1]: the reduced
    result's entries reach about e^460 = 1e200, so their squared norm
    overflows though they are finite.  No warning may escape
    (filterwarnings = error)."""

    def operator_and_vector(self, symmetric):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(30, 30)))
        lam = np.linspace(-1.0, 1.0, 30)
        a = (q * lam) @ q.T
        v = q @ np.ones(30) / np.sqrt(30)
        op = declared_symmetric(a) if symmetric else LinearOperator(a)
        return op, v, q, lam

    @pytest.mark.parametrize("m_max", [10, 30])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("symmetric", [False, True], ids=["arnoldi", "lanczos"])
    def test_estimate_stays_finite(self, symmetric, k, m_max):
        # an infinite norm in the estimate's denominator gave est = 0, so the
        # product "converged" at the first check with a wrong result
        op, v, q, lam = self.operator_and_vector(symmetric)
        res = phi_times_vector(op, k, 460.0, v, KrylovConfig(tol=1e-12, m_max=m_max))
        want = q @ (np.array([phi_scalar(k, 460.0 * x) for x in lam]) * (q.T @ v))
        if m_max < 30:
            assert not res.converged and res.dim_used == m_max and res.est_error > 1e-12
        else:
            assert res.dim_used == 30
        if res.converged:
            assert np.max(np.abs(res.approximation - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("symmetric", [False, True], ids=["arnoldi", "lanczos"])
    def test_non_finite_approximation_raises(self, symmetric):
        # ||v|| e^460 overflows: a failure, not a converged inf
        op, v, _, _ = self.operator_and_vector(symmetric)
        with pytest.raises(KrylovError, match=r"phi_1\(460 L\) v overflowed"):
            phi_times_vector(op, 1, 460.0, 1e120 * v, KrylovConfig(tol=1e-12, m_max=30))

    def test_non_finite_vector_raises(self):
        op, v, _, _ = self.operator_and_vector(False)
        for bad in (np.inf, np.nan):
            v[3] = bad
            with pytest.raises(KrylovError, match="non-finite Krylov vector"):
                phi_times_vector(op, 1, 1.0, v, KrylovConfig())


class TestSharedFactorization:
    def test_cache_reuses_matvecs_and_matches_fresh(self):
        rng = np.random.default_rng(99)
        a = stable_dense(rng, 30)
        op = LinearOperator(a)
        v = rng.uniform(-1, 1, size=30)
        cfg = KrylovConfig(tol=1e-10, m_max=40)

        fresh = [phi_times_vector(op, k, 0.3, v, cfg).approximation for k in (1, 2, 3)]

        ctx = EvalContext()
        first = phi_times_vector(op, 1, 0.3, v, cfg, ctx=ctx)
        after_first = ctx.stats.matvecs
        second = phi_times_vector(op, 2, 0.3, v, cfg, ctx=ctx)
        third = phi_times_vector(op, 3, 0.3, v, cfg, ctx=ctx)
        # identical results whether or not the factorization was shared
        assert np.array_equal(first.approximation, fresh[0])
        assert np.array_equal(second.approximation, fresh[1])
        assert np.array_equal(third.approximation, fresh[2])
        # higher phi indices converge no later, so no new matvecs are needed
        assert ctx.stats.matvecs == after_first
        assert ctx.stats.solves == 3

    @pytest.mark.parametrize("symmetric", [False, True], ids=["arnoldi", "lanczos"])
    def test_one_reduced_evaluation_per_tau_and_m(self, monkeypatch, symmetric):
        # with p = 3, the solves of phi_1, phi_2 and phi_3 on one factorization
        # evaluate each (tau, m) they visit once, and agree with p = k solves
        rng = np.random.default_rng(5)
        a = symmetric_stable(rng, 40) if symmetric else stable_dense(rng, 40)
        op = declared_symmetric(a) if symmetric else LinearOperator(a)
        v = rng.uniform(-1, 1, size=40)
        cfg = KrylovConfig(tol=1e-12, m_max=40)
        fresh = {(k, tau): phi_times_vector(op, k, tau, v, cfg).approximation
                 for k in (1, 2, 3) for tau in (0.2, 0.4)}
        name = "phi_array" if symmetric else "phi_cols_e1"
        evaluations = []
        original = getattr(krylov, name)
        monkeypatch.setattr(krylov, name, lambda p, z: evaluations.append(p) or original(p, z))
        ctx = EvalContext()
        for (k, tau), want in fresh.items():
            got = phi_times_vector(op, k, tau, v, cfg, ctx=ctx, p=3).approximation
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (k, tau)
        assert evaluations == [3] * len(ctx.arnoldi_state(op, v, cfg.m_max)._phi)
        # sharing the factorization alone, each index evaluates again
        shared = len(evaluations)
        ctx = EvalContext()
        for k, tau in fresh:
            phi_times_vector(op, k, tau, v, cfg, ctx=ctx)
        assert len(evaluations) - shared > shared

    def test_direct_call_evaluates_its_own_index(self, monkeypatch):
        rng = np.random.default_rng(6)
        op = LinearOperator(stable_dense(rng, 20))
        seen = []
        original = krylov.phi_cols_e1
        monkeypatch.setattr(krylov, "phi_cols_e1", lambda p, z: seen.append(p) or original(p, z))
        phi_times_vector(op, 2, 0.3, rng.uniform(-1, 1, size=20), KrylovConfig())
        assert seen and set(seen) == {2}

    def test_block_diagonal_phi_identity(self):
        # phi of a block-diagonal operator acts block by block
        rng = np.random.default_rng(11)
        mats = [rng.uniform(-1, 1, size=(4, 4)) for _ in range(3)]
        op = LinearOperator(scipy.linalg.block_diag(*mats))
        v = rng.uniform(-1, 1, size=12)
        h = 0.6
        cfg = KrylovConfig(tol=1e-13, m_max=30)
        for k in [1, 2, 3]:
            whole = phi_times_vector(op, k, h, v, cfg).approximation
            per_block = np.concatenate(
                [dense_phi_reference(k, h, m, v[4 * i: 4 * i + 4]) for i, m in enumerate(mats)]
            )
            assert np.linalg.norm(whole - per_block) <= 1e-11 * max(1.0, np.linalg.norm(per_block))


class TestWorkspace:
    """An EvalContext serves one (operator, vector) pair at a time: its
    factorization, and its coefficient memo keyed by everything a product
    depends on."""

    EXPR = Sum(Phi(1, 0.5), Scale(-2.0, Phi(2)))

    def problem(self, seed=7, n=30):
        rng = np.random.default_rng(seed)
        return LinearOperator(stable_dense(rng, n)), rng.uniform(-1, 1, size=n), rng.uniform(-1, 1, size=n)

    def test_second_h_equals_a_fresh_product(self):
        op, v, _ = self.problem()
        cfg = KrylovConfig(tol=1e-12, m_max=40)
        ctx = EvalContext()
        eval_coeff(self.EXPR, op, 0.3, v, cfg, ctx, p=2)
        got = eval_coeff(self.EXPR, op, 0.7, v, cfg, ctx, p=2)
        assert np.array_equal(got, eval_coeff(self.EXPR, op, 0.7, v, cfg, p=2))

    def test_tighter_tolerance_equals_a_fresh_product(self):
        op, v, _ = self.problem()
        loose, tight = KrylovConfig(tol=1e-4, m_max=40), KrylovConfig(tol=1e-12, m_max=40)
        ctx = EvalContext()
        eval_coeff(self.EXPR, op, 0.5, v, loose, ctx, p=2)
        got = eval_coeff(self.EXPR, op, 0.5, v, tight, ctx, p=2)
        assert np.array_equal(got, eval_coeff(self.EXPR, op, 0.5, v, tight, p=2))

    def test_second_pair_drops_the_first(self):
        op, v, w = self.problem()
        cfg = KrylovConfig(tol=1e-12, m_max=40)
        ctx = EvalContext()
        first = eval_coeff(self.EXPR, op, 0.5, v, cfg, ctx, p=2)
        assert eval_coeff(self.EXPR, op, 0.5, v, cfg, ctx, p=2) is first  # the pair's memo
        state = weakref.ref(ctx.arnoldi_state(op, v, cfg.m_max))
        second = eval_coeff(self.EXPR, op, 0.5, w, cfg, ctx, p=2)
        assert state() is None
        assert np.array_equal(second, eval_coeff(self.EXPR, op, 0.5, w, cfg, p=2))
        assert np.array_equal(eval_coeff(self.EXPR, op, 0.5, v, cfg, ctx, p=2), first)
        assert ctx.stats.solves == 6  # two per pair, the memo hit excepted

    @pytest.mark.parametrize("convert", [list, lambda v: v.astype(np.float32)], ids=["list", "float32"])
    def test_converted_vector_is_one_pair_through_the_tree(self, convert, monkeypatch):
        op, v, _ = self.problem()
        states = weakref.WeakSet()
        arnoldi_state = EvalContext.arnoldi_state

        def counted(ctx, *args):
            state = arnoldi_state(ctx, *args)
            states.add(state)
            return state

        monkeypatch.setattr(EvalContext, "arnoldi_state", counted)
        ctx = EvalContext()
        got = eval_coeff(self.EXPR, op, 0.5, convert(v), KrylovConfig(), ctx, p=2)
        assert len(states) == 1
        assert np.array_equal(got, eval_coeff(self.EXPR, op, 0.5, np.asarray(convert(v), dtype=float),
                                              KrylovConfig(), p=2))
