import math

import numpy as np
import pytest

from pexprk import coeffexpr, steppers
from pexprk.coeffexpr import Phi, Scale, Sum, eval_dense
from pexprk.harness import RunConfig, build_study
from pexprk.krylov import EvalContext, KrylovConfig, KrylovError, KrylovStats
from pexprk.operators import LinearOperator
from pexprk.phi import expm_dense
from pexprk.problems import (
    PARTITION_NAMES,
    TIMESPAN,
    gs_default,
    gs_initial,
    gs_partition,
    gs_unpartitioned,
)
from pexprk.steppers import (
    IntegrationFailure,
    SplitProblem,
    StepFailure,
    integrate_fixed,
    original_stepper,
    pexprk_stepper,
    step_exprk_original,
    step_pexprk,
    step_pexprk2_residual,
    stability_matrix_spectral_radius,
)
from pexprk.tableaux import tableau, transformed

TIGHT = KrylovConfig(tol=1e-13, m_max=60)


from oracles import classical_rk_step, oracle_semilinear, phi_dense_times_vector, phi_scalar
from supports import embedded_problem


def step_original(t, L, f, y, h, cfg):
    """One original-form step on the single-partition problem (L, f)."""
    return step_exprk_original(t, SplitProblem((f,), (lambda u: L,)), y, h, cfg)


def step_transformed(t, L, f, y, h, cfg):
    """One step of the unpartitioned transformed method: step_pexprk with P = 1."""
    return step_pexprk(t, SplitProblem((f,), (lambda u: L,)), y, h, cfg)


def frozen(prob, ops):
    """prob with its operators fixed to the pre-built ops, so the caller
    knows their identities."""
    return SplitProblem(prob.f_parts, tuple(lambda u, op=op: op for op in ops), supports=prob.supports)


@pytest.fixture
def applies(monkeypatch):
    """The operators that LinearOperator.apply is called on, in call order.
    Each call must leave the operator's attributes as they were."""
    seen = []
    apply = LinearOperator.apply

    def spy(op, v):
        before = dict(vars(op))
        out = apply(op, v)
        assert vars(op).keys() == before.keys() and all(vars(op)[k] is before[k] for k in before)
        seen.append(op)
        return out

    monkeypatch.setattr(LinearOperator, "apply", spy)
    return seen


def dense_partitioned_step(tt, mats, f_parts, y, h):
    """Independent oracle: the partitioned transformed step with every
    coefficient alpha/beta evaluated as a dense matrix function of each
    partition's Z_p = h L_p."""
    zs = [h * m for m in mats]
    fns = [fp(y) for fp in f_parts]
    d = {}
    for i in range(1, tt.s):
        acc = np.zeros_like(y)
        for p, z in enumerate(zs):
            acc = acc + eval_dense(tt.alpha[i][0], z) @ fns[p]
            for j in range(1, i):
                if tt.alpha[i][j] is not None:
                    acc = acc + eval_dense(tt.alpha[i][j], z) @ d[(p, j)]
        for p, fp in enumerate(f_parts):
            d[(p, i)] = fp(y + h * acc) - fns[p]
    acc = np.zeros_like(y)
    for p, z in enumerate(zs):
        acc = acc + eval_dense(tt.beta[0], z) @ fns[p]
        for j in range(1, tt.s):
            acc = acc + eval_dense(tt.beta[j], z) @ d[(p, j)]
    return y + h * acc


def dense_transformed_step(tt, a, f, y, h):
    """The dense oracle with P = 1."""
    return dense_partitioned_step(tt, [a], [f], y, h)


class TestOriginalForm:
    def test_scalar_affine_exact(self):
        # u' = lam*u + 1 has one-step solution e^{lam h} u0 + h phi_1(lam h)
        lam, h, u0 = -2.0, 0.1, 1.0
        L = LinearOperator([[lam]], symmetric=True)
        f = lambda u: lam * u + 1.0  # noqa: E731
        got = step_original(tableau(2), L, f, np.array([u0]), h, TIGHT)
        expected = math.exp(lam * h) * u0 + h * phi_scalar(1, lam * h)
        assert got[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_linear_problem_is_exact(self, order):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(10, 10)) / 3.0
        a -= (np.max(np.real(np.linalg.eigvals(a))) + 1.0) * np.eye(10)
        y0 = rng.uniform(-1, 1, size=10)
        h = 0.3
        L = LinearOperator(a)
        got = step_original(tableau(order), L, lambda u: a @ u, y0, h, TIGHT)
        assert np.allclose(got, expm_dense(h * a) @ y0, rtol=1e-11, atol=1e-13)

    def test_small_h_consistency(self):
        orc = oracle_semilinear(8, seed=3)
        h = 1e-5
        y = orc.u0
        got = step_original(tableau(3), orc.jacobian(y), orc.f, y, h, TIGHT)
        assert np.linalg.norm(got - y - h * orc.f(y)) <= 1e-8

    def test_rejects_bad_h(self):
        # h <= 0, in the original form and in the residual form, which
        # checks h itself
        with pytest.raises(ValueError):
            step_original(tableau(2), LinearOperator(np.zeros((1, 1))), lambda u: u, np.zeros(1), 0.0, TIGHT)
        orc = oracle_semilinear(5, seed=1)
        for h in (0.0, -0.1):
            with pytest.raises(ValueError, match="step size must be positive"):
                step_pexprk2_residual(orc.split_linear_nonlinear(), orc.u0, h, TIGHT)

    def test_rejects_a_split_problem(self):
        orc = oracle_semilinear(5, seed=1)
        with pytest.raises(ValueError, match="single-partition"):
            step_exprk_original(tableau(2), orc.split_linear_nonlinear(), orc.u0, 0.1, TIGHT)


class TestTransformedEquivalence:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_transformed_linear_exact(self, order):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(8, 8)) / 3.0 - 2.0 * np.eye(8)
        y0 = rng.uniform(-1, 1, size=8)
        got = step_transformed(tableau(order), LinearOperator(a), lambda u: a @ u, y0, 0.4, TIGHT)
        assert np.allclose(got, expm_dense(0.4 * a) @ y0, rtol=1e-11, atol=1e-13)

    def test_zero_operator_degenerates_to_classical(self):
        orc = oracle_semilinear(9, seed=5)
        h = 0.02
        for order in (2, 3, 4):
            got = step_transformed(tableau(order), LinearOperator(np.zeros((9, 9))), orc.f, orc.u0, h, TIGHT)
            ref = classical_rk_step(order, orc.f, orc.u0, h)
            assert np.linalg.norm(got - ref) <= 1e-13 * max(1.0, np.linalg.norm(ref))


class TestPartitionedForm:
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_single_partition_collapses_to_transformed(self, order):
        orc = oracle_semilinear(10, seed=7)
        prob = orc.problem()
        h = 0.04
        a = step_pexprk(tableau(order), prob, orc.u0, h, TIGHT)
        b = dense_transformed_step(transformed(order), orc.jacobian(orc.u0).to_dense(), orc.f, orc.u0, h)
        assert np.linalg.norm(a - b) <= 1e-12 * max(1.0, np.linalg.norm(b))

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("shape", ["implicit", "imex", "explicit"])
    def test_forward_substitution_matches_transformed_trees(self, order, shape, applies):
        # two partitions with non-commuting operators (the linear term and
        # the Jacobian of the remainder); imex zeroes the second, explicit both
        orc = oracle_semilinear(10, seed=19)
        base = orc.split_linear_nonlinear()
        zero = lambda u: LinearOperator(np.zeros((orc.dim, orc.dim)))  # noqa: E731
        builders = {
            "implicit": base.operator_builders,
            "imex": (base.operator_builders[0], zero),
            "explicit": (zero, zero),
        }[shape]
        prob = SplitProblem(base.f_parts, builders)
        h = 0.04
        ops = prob.build_operators(orc.u0)
        got = step_pexprk(tableau(order), frozen(prob, ops), orc.u0, h, TIGHT)
        assert not any(op.zero for op in applies)  # a zero operator takes no matvec
        mats = [op.to_dense() for op in ops]
        want = dense_partitioned_step(transformed(order), mats, base.f_parts, orc.u0, h)
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))

    def test_commuting_diagonal_closed_form(self):
        # two diagonal partitions: the order-2 stage and update evaluate to
        # the scalar expansion U2 = u + h sum phi1(h l_p) l_p u, etc.
        l1 = np.array([-2.0, -0.5])
        l2 = np.array([-1.0, -3.0])
        u0 = np.array([1.0, -0.7])
        h = 0.2
        prob = SplitProblem(
            (lambda u: l1 * u, lambda u: l2 * u),
            (lambda u: LinearOperator(np.diag(l1), symmetric=True),
             lambda u: LinearOperator(np.diag(l2), symmetric=True)),
        )
        got = step_pexprk(tableau(2), prob, u0, h, TIGHT)
        phi1 = lambda z: phi_scalar(1, z)  # noqa: E731
        phi2 = lambda z: phi_scalar(2, z)  # noqa: E731
        expected = np.empty(2)
        for i in range(2):
            z1, z2 = h * l1[i], h * l2[i]
            u2 = u0[i] + h * (phi1(z1) * l1[i] + phi1(z2) * l2[i]) * u0[i]
            beta1 = lambda z: 2 * phi1(z) - phi1(z) ** 2  # noqa: E731
            expected[i] = (
                u0[i]
                + h * (beta1(z1) * l1[i] + beta1(z2) * l2[i]) * u0[i]
                + h * (phi2(z1) * l1[i] + phi2(z2) * l2[i]) * (u2 - u0[i])
            )
        assert np.allclose(got, expected, rtol=1e-12)

    def test_residual_form_all_explicit_matches_direct(self):
        orc = oracle_semilinear(7, seed=13)
        prob = orc.split_all_explicit()
        h = 0.05
        a = step_pexprk(tableau(2), prob, orc.u0, h, TIGHT)
        b = step_pexprk2_residual(prob, orc.u0, h, TIGHT)
        assert np.linalg.norm(a - b) <= 1e-13

    @pytest.mark.parametrize("step", [step_pexprk2_residual, pexprk_stepper(2)], ids=["residual", "partitioned"])
    def test_never_applies_a_zero_operator(self, step, applies):
        # an explicitly treated partition's operator, a matrix with no
        # entries, takes no matvec: not on L_p (U - u_n), nor on L_p X
        model = gs_default(n=8)
        prob = gs_partition(model, "imex")
        u0 = gs_initial(model)
        ops = prob.build_operators(u0)
        assert [op.zero for op in ops] == [False, True]
        step(frozen(prob, ops), u0, 1e-3, TIGHT, EvalContext())
        assert ops[1] not in applies and ops[0] in applies

    @pytest.mark.parametrize("name", ["species", "space"])
    def test_residual_form_on_disjoint_supports(self, name):
        # each cross term's restriction to the other support is zero: its
        # solve takes no matvec and no Krylov dimension, where the same parts
        # embedded in the full state take one of each (an m = 1 breakdown)
        model = gs_default(n=16)
        u0 = gs_initial(model)
        cfg = KrylovConfig()
        prob = gs_partition(model, name)
        own, embedded = (
            integrate_fixed(step_pexprk2_residual, p, u0, 0.0, 0.01, 1, cfg)
            for p in (prob, embedded_problem(prob))
        )
        assert np.linalg.norm(own.state - embedded.state) <= 1e-15 * np.linalg.norm(embedded.state)
        assert own.stats.matvecs == embedded.stats.matvecs - 2
        assert own.stats.krylov_dim_total == embedded.stats.krylov_dim_total - 2
        assert own.stats.solves == embedded.stats.solves

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("name", ["species", "space"])
    def test_parts_on_supports_match_embedded_parts(self, name, order):
        # the same Krylov spaces in fewer variables: the same work, and the
        # same state up to rounding
        model = gs_default(n=16)
        u0 = gs_initial(model)
        cfg = KrylovConfig()
        prob = gs_partition(model, name)
        own, embedded = (
            integrate_fixed(pexprk_stepper(order), p, u0, 0.0, TIMESPAN / 4, 2, cfg)
            for p in (prob, embedded_problem(prob))
        )
        assert np.linalg.norm(own.state - embedded.state) <= 1e-14 * np.linalg.norm(embedded.state)
        assert own.stats == embedded.stats

    def test_split_problem_needs_one_builder_and_one_support_per_part(self):
        f, build = (lambda u: u), (lambda u: LinearOperator(np.eye(2)))
        with pytest.raises(ValueError, match="one operator builder per right-hand-side part"):
            SplitProblem((f, f), (build,))
        with pytest.raises(ValueError, match="one support per right-hand-side part"):
            SplitProblem((f, f), (build, build), supports=(slice(0, 1),))

    def test_residual_form_requires_two_partitions(self):
        orc = oracle_semilinear(5, seed=1)
        with pytest.raises(ValueError):
            step_pexprk2_residual(orc.problem(), orc.u0, 0.1, TIGHT)


class TestIntegrateFixed:
    def test_one_step_equals_stepper_call(self):
        orc = oracle_semilinear(8, seed=11)
        prob = orc.problem()
        res = integrate_fixed(pexprk_stepper(2), prob, orc.u0, 0.0, 0.1, 1, TIGHT)
        direct = step_pexprk(tableau(2), prob, orc.u0, 0.1, TIGHT)
        assert np.array_equal(res.state, direct)
        assert res.stats.matvecs > 0

    @pytest.mark.parametrize(
        "step, stepper, split",
        [
            (step_exprk_original, original_stepper(4), None),
            (step_pexprk, pexprk_stepper(4), None),
            (step_pexprk, pexprk_stepper(4), "species"),
            (step_pexprk2_residual, step_pexprk2_residual, "species"),
        ],
        ids=["orig-full", "tran-full", "part-species", "residual-species"],
    )
    def test_direct_step_reports_the_integration_counters(self, step, stepper, split):
        # each step builds its own operators and adds its own counters, so a
        # direct call counts what an integration step counts
        model = gs_default(n=8)
        prob = gs_unpartitioned(model) if split is None else gs_partition(model, split)
        u0, h, cfg = gs_initial(model), 0.01, KrylovConfig()
        ctx = EvalContext()
        tab = () if step is step_pexprk2_residual else (tableau(4),)
        direct = step(*tab, prob, u0, h, cfg, ctx)
        res = integrate_fixed(stepper, prob, u0, 0.0, h, 1, cfg)
        assert np.array_equal(direct, res.state)
        assert ctx.stats == res.stats and res.stats.matvecs > 0

    @pytest.mark.parametrize(
        "step, stepper, split",
        [
            (step_exprk_original, original_stepper(4), None),
            (step_pexprk, pexprk_stepper(4), "species"),
            (step_pexprk2_residual, step_pexprk2_residual, "space"),
        ],
        ids=["orig-full", "part-species", "residual-space"],
    )
    def test_integration_adds_up_its_steps_counters(self, step, stepper, split):
        # one context serves the whole run, and each step adds its counters
        model = gs_default(n=8)
        prob = gs_unpartitioned(model) if split is None else gs_partition(model, split)
        u, h, cfg = gs_initial(model), 0.01, KrylovConfig()
        tab = () if step is step_pexprk2_residual else (tableau(4),)
        res = integrate_fixed(stepper, prob, u, 0.0, 4 * h, 4, cfg)
        total = KrylovStats()
        for _ in range(4):
            ctx = EvalContext()
            u = step(*tab, prob, u, h, cfg, ctx)
            total.merge(ctx.stats)
        assert np.array_equal(u, res.state)
        assert total == res.stats and total.solves > 0

    @pytest.mark.parametrize(
        "stepper", [original_stepper(3), pexprk_stepper(3), step_pexprk2_residual], ids=["orig", "part", "residual"]
    )
    def test_shared_operator_reports_each_steps_matvecs(self, stepper):
        # a step counts the applies it makes, so a builder that returns one
        # operator every step reports what a builder of a fresh operator per
        # step does
        rng = np.random.default_rng(0)
        a = rng.normal(size=(9, 9)) / 3.0 - 2.0 * np.eye(9)
        u0 = rng.uniform(-1, 1, size=9)
        mats = [np.tril(a), np.triu(a, 1)] if stepper is step_pexprk2_residual else [a]
        f_parts = [lambda u, mat=mat: mat @ u for mat in mats]
        shared = [lambda u, op=LinearOperator(mat): op for mat in mats]
        fresh = [lambda u, mat=mat: LinearOperator(mat) for mat in mats]
        runs = [integrate_fixed(stepper, SplitProblem(f_parts, builders), u0, 0.0, 1.0, 4, TIGHT)
                for builders in (shared, fresh)]
        assert np.array_equal(runs[0].state, runs[1].state)
        assert runs[0].stats == runs[1].stats and runs[0].stats.matvecs > 0

    @pytest.mark.parametrize("stepper", [pexprk_stepper(3), step_pexprk2_residual], ids=["part", "residual"])
    def test_operator_serving_two_partitions_counts_once(self, stepper):
        # each apply counts once, so one operator built for both halves of a
        # split reports what two operators do
        rng = np.random.default_rng(0)
        a = rng.normal(size=(9, 9)) / 3.0 - 2.0 * np.eye(9)
        u0 = rng.uniform(-1, 1, size=9)
        f_parts = [lambda u: (a / 2) @ u] * 2
        one = LinearOperator(a / 2)
        runs = [integrate_fixed(stepper, SplitProblem(f_parts, builders), u0, 0.0, 1.0, 4, TIGHT)
                for builders in ([lambda u: one] * 2, [lambda u: LinearOperator(a / 2)] * 2)]
        assert np.array_equal(runs[0].state, runs[1].state)
        assert runs[0].stats == runs[1].stats and runs[0].stats.matvecs > 0

    @pytest.mark.parametrize(
        "stepper, case",
        [
            (original_stepper(4), "full"),
            (pexprk_stepper(4), "full"),
            (pexprk_stepper(4), "species"),
            (step_pexprk2_residual, "species"),
            (original_stepper(3), "shared-operator"),
            (pexprk_stepper(3), "shared-operators"),
            (step_pexprk2_residual, "shared-operators"),
            (pexprk_stepper(3), "one-operator-two-partitions"),
            (step_pexprk2_residual, "one-operator-two-partitions"),
        ],
        ids=["orig-full", "tran-full", "part-species", "residual-species", "orig-shared-operator",
             "part-shared-operators", "residual-shared-operators", "part-one-operator-two-partitions",
             "residual-one-operator-two-partitions"],
    )
    def test_matvecs_count_every_apply(self, stepper, case, applies):
        # every apply, in the Krylov engine or in the step itself, is counted
        # once, by the code that makes it, and leaves its operator as it was;
        # the last five cases take the builders of the two tests above
        if case in ("full", "species"):
            model = gs_default(n=8)
            u0, tf = gs_initial(model), 0.02
            prob = gs_unpartitioned(model) if case == "full" else gs_partition(model, case)
        else:
            rng = np.random.default_rng(0)
            a = rng.normal(size=(9, 9)) / 3.0 - 2.0 * np.eye(9)
            u0, tf = rng.uniform(-1, 1, size=9), 1.0
            mats = {"shared-operator": [a], "shared-operators": [np.tril(a), np.triu(a, 1)]}.get(case, [a / 2] * 2)
            shared = [lambda u, op=LinearOperator(mat): op for mat in mats]
            builders = [shared[0]] * 2 if case == "one-operator-two-partitions" else shared
            prob = SplitProblem([lambda u, mat=mat: mat @ u for mat in mats], builders)
        res = integrate_fixed(stepper, prob, u0, 0.0, tf, 2, KrylovConfig())
        assert len(applies) == res.stats.matvecs > 0

    @pytest.mark.parametrize("make", [original_stepper, pexprk_stepper])
    def test_linear_many_steps_exact(self, make):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(9, 9)) / 3.0 - 1.5 * np.eye(9)
        u0 = rng.uniform(-1, 1, size=9)
        prob = SplitProblem((lambda u: a @ u,), (lambda u: LinearOperator(a),))
        res = integrate_fixed(make(3), prob, u0, 0.0, 1.0, 5, TIGHT)
        assert np.allclose(res.state, expm_dense(a) @ u0, rtol=1e-10, atol=1e-13)

    def test_order3_convergence_on_oracle(self):
        orc = oracle_semilinear(12, seed=21)
        prob = orc.problem()
        ref = orc.reference(1.0)
        errs = []
        for n_steps in (8, 16):
            res = integrate_fixed(pexprk_stepper(3), prob, orc.u0, 0.0, 1.0, n_steps, TIGHT)
            errs.append(np.linalg.norm(res.state - ref))
        ratio = errs[0] / errs[1]
        assert 6.0 <= ratio <= 10.5

    def test_failure_carries_step_index(self):
        # an explicit treatment of a very stiff linear part blows up: the
        # overflowing stage residual fails the step, and no warning escapes
        a = np.diag([-1e80, -2e80])
        prob = SplitProblem(
            (lambda u: a @ u,),
            (lambda u: LinearOperator(np.zeros((2, 2))),),
        )
        with pytest.raises(IntegrationFailure, match=r"^step 2/3: stage 2, partition 1: non-finite stage residual$"):
            integrate_fixed(pexprk_stepper(2), prob, np.ones(2), 0.0, 1.0, 3, TIGHT)

    def test_rejects_no_steps_and_a_non_finite_state(self):
        orc = oracle_semilinear(5, seed=1)
        with pytest.raises(ValueError, match="at least one step, got 0"):
            integrate_fixed(pexprk_stepper(2), orc.problem(), orc.u0, 0.0, 1.0, 0, TIGHT)

        def diverging(prob, u, h, cfg, ctx):
            return np.full_like(u, np.nan)

        with pytest.raises(IntegrationFailure, match=r"^step 1/2: state diverged \(non-finite\)$"):
            integrate_fixed(diverging, orc.problem(), orc.u0, 0.0, 1.0, 2, TIGHT)

    def test_nonconvergence_surfaces_with_stage_context(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(30, 30)) * 50.0
        a -= (np.max(np.real(np.linalg.eigvals(a))) + 1.0) * np.eye(30)
        cfg = KrylovConfig(tol=1e-13, m_max=4)
        u0 = rng.uniform(size=30)
        # both forms run one core, so their failures name stage and partition alike
        for step in (step_transformed, step_original):
            with pytest.raises(StepFailure, match=r"^stage 2, partition 1, phi_1 term: .*did not converge"):
                step(tableau(2), LinearOperator(a), lambda u: a @ u, u0, 0.5, cfg)

    @pytest.mark.parametrize(
        "coefficient, p, label",
        [(lambda t: t.a[2][1], 1, "stage 3, partition 2, coefficient a[3][2]"),
         (lambda t: t.b[3], 0, "update, partition 1, weight b[4]")],
        ids=["a32-on-r2", "b4"],
    )
    def test_failure_names_the_consuming_coefficient(self, coefficient, p, label, monkeypatch):
        # a product applied as soon as its vector is formed still fails under
        # the label of the stage or update that consumes it
        t = tableau(4)
        target = coefficient(t)
        model = gs_default(n=8)
        prob = gs_partition(model, "species")
        u0 = gs_initial(model)
        ops = prob.build_operators(u0)
        apply = steppers.eval_coeff

        def failing(expr, L, *args, **kwargs):
            if expr is target and L is ops[p]:
                raise KrylovError("forced")
            return apply(expr, L, *args, **kwargs)

        monkeypatch.setattr(steppers, "eval_coeff", failing)
        with pytest.raises(StepFailure) as failure:
            step_pexprk(t, frozen(prob, ops), u0, 1e-3, TIGHT)
        assert str(failure.value) == f"{label}: forced"


    @pytest.mark.parametrize("call, label", list(enumerate([
        "stage 2, partition 1", "stage 2, partition 2",
        "update, cross term, partition 1", "update, residual term, partition 1",
        "update, cross term, partition 2", "update, residual term, partition 2",
    ])))
    def test_residual_form_failure_names_its_product(self, call, label, monkeypatch):
        # the residual form's products in the order it makes them; the one
        # that fails names its term and partition, and the integration the step
        calls = []
        product = steppers.phi_times_vector

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == call + 1:
                raise KrylovError("forced")
            return product(*args, **kwargs)

        monkeypatch.setattr(steppers, "phi_times_vector", failing)
        model = gs_default(n=8)
        prob, u0 = gs_partition(model, "physics"), gs_initial(model)
        with pytest.raises(StepFailure) as failure:
            step_pexprk2_residual(prob, u0, 1e-3, TIGHT)
        assert str(failure.value) == f"{label}: forced"
        calls.clear()
        with pytest.raises(IntegrationFailure) as failure:
            integrate_fixed(step_pexprk2_residual, prob, u0, 0.0, 1e-3, 1, TIGHT)
        assert str(failure.value) == f"step 1/1: {label}: forced"


class TestResidualTolerance:
    """The tolerance of the products on a stage residual over its whole
    range: cfg.tol ||f_p(u_n)|| / ||r||, clamped to [cfg.tol, the cap], from
    norms taken with scaling."""

    CFG = KrylovConfig(tol=1e-12)

    @pytest.mark.parametrize("f_norm", [0.0, math.inf, math.nan])
    def test_zero_or_non_finite_leading_norm_keeps_cfg_tol(self, f_norm):
        assert steppers._residual_cfg(self.CFG, f_norm, 1e-6) is self.CFG

    @pytest.mark.parametrize("r_norm", [math.inf, math.nan])
    def test_non_finite_residual_norm_keeps_cfg_tol(self, r_norm):
        assert steppers._residual_cfg(self.CFG, 1.0, r_norm) is self.CFG

    @pytest.mark.parametrize("tol", [1e-12, 1e-2])
    @pytest.mark.parametrize("ratio", [1.0, 3.0, 1e10, 1e300])  # ||r|| / ||f_p(u_n)||
    def test_ratio_above_one_never_tightens_below_cfg_tol(self, tol, ratio):
        # a cfg.tol above the cap stays too: the cap only loosens
        assert steppers._residual_cfg(KrylovConfig(tol=tol), 1.0, ratio).tol == tol

    def test_ratio_between_the_bounds_scales_cfg_tol(self):
        cfg = steppers._residual_cfg(self.CFG, 2.0, 1e-4)
        assert cfg.tol == pytest.approx(2e-8, rel=1e-15) and cfg.m_max == self.CFG.m_max

    @pytest.mark.parametrize("f_norm, r_norm", [(1.0, 1e-10), (1.0, 1e-300), (1e308, 5e-324)])
    def test_tiny_ratio_stops_at_the_cap(self, f_norm, r_norm):
        # cfg.tol f_norm / r_norm may overflow to inf: no warning, still the cap
        assert steppers._residual_cfg(self.CFG, f_norm, r_norm).tol == steppers._RESIDUAL_TOL_CAP

    def test_scaled_norm_of_entries_near_the_largest_float(self):
        # their squares overflow; the scaled norm is finite and warns of nothing
        v = np.array([1e308, -1e308, 5e307])
        assert steppers._scaled_norm(v) == pytest.approx(math.hypot(*v), rel=1e-15)
        assert math.isfinite(steppers._scaled_norm(v))
        assert steppers._residual_cfg(self.CFG, steppers._scaled_norm(v), 1.0).tol == steppers._RESIDUAL_TOL_CAP

    def test_scaled_norm_of_zero_tiny_and_non_finite_vectors(self):
        assert steppers._scaled_norm(np.zeros(4)) == 0.0
        assert steppers._scaled_norm(np.full(4, 5e-324)) == pytest.approx(1e-323)
        assert steppers._scaled_norm(np.array([1.0, np.inf])) == math.inf
        assert math.isnan(steppers._scaled_norm(np.array([1.0, np.nan])))

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_zero_residual_takes_no_product(self, order, monkeypatch):
        # f = A y with L = A, applied by the same CSR product: every stage
        # residual g(Y_j) - g(y_n) is exactly zero, so the only products are
        # the phi_1 terms on f(y_n), one per distinct abscissa
        rng = np.random.default_rng(4)
        a = rng.normal(size=(10, 10)) / 3.0 - 2.0 * np.eye(10)
        L = LinearOperator(a)
        prob = SplitProblem((lambda u: L.matrix @ u,), (lambda u: L,))
        vectors = []  # every vector a factorization starts from
        arnoldi_state = EvalContext.arnoldi_state

        def recorded(ctx, op, v, m_max):
            vectors.append(v)
            return arnoldi_state(ctx, op, v, m_max)

        monkeypatch.setattr(EvalContext, "arnoldi_state", recorded)
        ctx, t = EvalContext(), tableau(order)
        y0 = rng.uniform(-1, 1, size=10)
        got = step_exprk_original(t, prob, y0, 0.3, TIGHT, ctx)
        assert np.allclose(got, expm_dense(0.3 * a) @ y0, rtol=1e-11, atol=1e-13)
        assert ctx.stats.solves == len({*t.c[1:], 1.0}) == len(vectors)
        assert all(np.any(v) for v in vectors)

    def test_zero_residual_takes_no_product_in_the_residual_form(self):
        # a constant right-hand side on zero operators: each partition's
        # residual is exactly zero, so a step makes the two stage and the two
        # cross products only
        c = np.random.default_rng(5).uniform(size=4)
        prob = SplitProblem((lambda u: c,) * 2, (lambda u: LinearOperator(np.zeros((4, 4))),) * 2,
                            supports=(slice(0, 4), slice(4, 8)))
        ctx = EvalContext()
        got = step_pexprk2_residual(prob, np.zeros(8), 0.5, TIGHT, ctx)
        assert np.allclose(got, 0.5 * np.concatenate([c, c]), rtol=1e-15)
        assert ctx.stats.solves == 4


# the ten (form, partition) cells of the study matrix, each at orders 2-4,
# and the order-2 residual form on each split
LEDGER_CASES = [
    (*cell, order)
    for cell in [("orig", "none"), ("tran", "none"),
                 *(("tran", p) for p in PARTITION_NAMES), *(("part", p) for p in PARTITION_NAMES)]
    for order in (2, 3, 4)
] + [("residual", p, 2) for p in PARTITION_NAMES]


def fixed_dimension_product(ctx, L, k, tau, v, m):
    """phi_k(tau L) v at Krylov dimension m (or the breakdown's), with no
    error check, from ctx's own factorization of (L, v): the ledger's truth
    at run scale.  The first m columns of a factorization do not depend on
    how far it is built, so one factorization serves every product on v."""
    state = ctx.arnoldi_state(L, v, m)
    if state.vnorm == 0.0:
        return np.zeros_like(v)
    state.extend(m)
    m = min(m, state.m)
    w_red, _ = state.reduced_phi(k, tau, m)
    return state.V[:, :m] @ (state.vnorm * w_red)


def apply_tree(expr, v, phi_product):
    """expr applied to v, with phi_product(k, c) = phi_k(c hL) v for each phi node."""
    if isinstance(expr, Phi):
        return phi_product(expr.k, expr.c)
    if isinstance(expr, Scale):
        return expr.r * apply_tree(expr.child, v, phi_product)
    if isinstance(expr, Sum):
        return sum(apply_tree(child, v, phi_product) for child in expr.children)
    return expr.r * v  # a Const


class TestAccuracyLedger:
    """Every phi product of an integration against its operator's phi, and
    every row's summed residual-product error against the row's leading term.

    PRODUCT_C: a product stops once its phi_1-surrogate estimate, relative to
    the product, is at most the tolerance it was given; the surrogate is the
    leading term of the error series and is conservative for phi_k, k >= 2
    (``krylov``'s docstring), so the true error should stay below that
    tolerance.  ROW_C: a residual product's tolerance aims its error at
    cfg.tol ||f_p(u_n)||, the error the row's phi_1 term is allowed, so a
    row's residual terms together should stay within that budget.  Both are
    1.  Over the two-step grid-8 cases, checked against dense phi, the
    largest ratios measured are 0.081 for products and 0.035 for rows; over
    the run-scale cases, checked against Krylov products of larger
    dimension, they are given at RUN_SCALE_CASES."""

    PRODUCT_C = 1.0
    ROW_C = 1.0

    def ledger(self, monkeypatch, stepper, prob, u0, t0, tf, n_steps, kcfg):
        """Integrates n_steps, returning every phi product as (L, k, tau, v,
        tol, dim_used, approximation) and every coefficient application as
        (where, expr, L, h, v, out)."""
        products, terms = [], []
        phi, apply = coeffexpr.phi_times_vector, steppers._apply_coeff

        def phi_spy(L, k, tau, v, kcfg, ctx=None, p=None):
            res = phi(L, k, tau, v, kcfg, ctx=ctx, p=p)
            products.append((L, k, tau, v, kcfg.tol, res.dim_used, res.approximation))
            return res

        def apply_spy(expr, L, h, v, kcfg, ctx, where, phi_max):
            out = apply(expr, L, h, v, kcfg, ctx, where, phi_max)
            terms.append((where, expr, L, h, v, out))
            return out

        monkeypatch.setattr(coeffexpr, "phi_times_vector", phi_spy)
        monkeypatch.setattr(steppers, "phi_times_vector", phi_spy)
        monkeypatch.setattr(steppers, "_apply_coeff", apply_spy)
        integrate_fixed(stepper, prob, u0, t0, tf, n_steps, kcfg)
        return products, terms

    def check(self, products, terms, kcfg, exact_product, exact_term, residual_form=False):
        """Asserts each product within PRODUCT_C times its tolerance and each
        row's residual terms within ROW_C kcfg.tol ||f_p(u_n)||, with
        exact_product(L, k, tau, v, dim_used) and exact_term(expr, L, h, v)
        as the truth.  Returns the rows, each as ||f_p(u_n)|| followed by
        its residual terms' errors."""

        def norm(v):
            return float(np.linalg.norm(v))

        # each product within C times its tolerance, relative to itself; the
        # first vector on an operator is its f_p(u_n), and only the stage
        # residuals get the residual tolerance
        leading = {}
        for L, k, tau, v, tol, dim_used, approx in products:
            f_p = leading.setdefault(id(L), v)
            on_residual = k == 2 if residual_form else v is not f_p
            want = steppers._residual_cfg(kcfg, steppers._scaled_norm(f_p), steppers._scaled_norm(v)).tol
            assert tol == (want if on_residual else kcfg.tol)
            error = norm(approx - exact_product(L, k, tau, v, dim_used))
            assert error <= self.PRODUCT_C * tol * norm(approx), (k, tau)
            if residual_form and k == 2:  # the update row's one residual term
                assert error <= self.ROW_C * kcfg.tol * norm(f_p)

        # each row's residual terms together within C cfg.tol ||f_p(u_n)||
        rows, current = [], {}
        for where, expr, L, h, v, out in terms:
            row = tuple(where.split(", ")[:2])  # the stage or update, and the partition
            if where.endswith("phi_1 term"):
                current[row] = [norm(v)]
                rows.append(current[row])
            else:
                current[row].append(norm(out - exact_term(expr, L, h, v)))
        for f_norm, *errors in rows:
            assert sum(errors) <= self.ROW_C * kcfg.tol * f_norm
        return rows

    @pytest.mark.parametrize("form, partition, order", LEDGER_CASES,
                             ids=["-".join(map(str, case)) for case in LEDGER_CASES])
    def test_products_and_rows_within_their_tolerances(self, form, partition, order, monkeypatch):
        residual_form = form == "residual"
        cfg = RunConfig(grid=8, form="part" if residual_form else form, partition=partition, order=order)
        _, prob, stepper, u0 = build_study(cfg)
        products, terms = self.ledger(monkeypatch, step_pexprk2_residual if residual_form else stepper,
                                      prob, u0, cfg.t0, cfg.tf, 2, cfg.krylov())
        dense = {}  # per operator (held, so ids stay unique): its matrix

        def exact(expr, L, h, v):
            """expr(hL) v from one dense augmented exponential per phi node."""
            if id(L) not in dense:
                dense[id(L)] = (L, L.to_dense())
            return apply_tree(expr, v, lambda k, c: phi_dense_times_vector(k, c * h * dense[id(L)][1], v)[-1])

        rows = self.check(products, terms, cfg.krylov(), lambda L, k, tau, v, m: exact(Phi(k), L, tau, v),
                          exact, residual_form)
        assert residual_form or len(rows) == prob.partitions * tableau(order).s * 2

    # the unsplit order-4 transformed step where its residual tolerances are
    # loosest: (grid, T/h, steps, tol), and the largest product and row
    # ratios measured.  The grid-64 reference's worst product is an
    # f_p(u_n) one whose error, 1.8e-16 of the product, is its rounding; its
    # worst residual product is at 1.3e-4
    RUN_SCALE_CASES = [
        (64, 2048, 6, 1e-13),   # the grid-64 reference; 0.0018 and 5.1e-5
        (64, 64, 3, 1e-12),     # a grid-64 study row; 0.031 and 0.026
        (160, 32, 3, 1e-13),    # the grid-160 reference; 0.011 and 0.015
    ]

    @pytest.mark.parametrize("grid, steps_per_span, n_steps, tol", RUN_SCALE_CASES,
                             ids=[f"grid{g}-T/{d}" for g, d, _, _ in RUN_SCALE_CASES])
    def test_run_scale_products_and_rows_within_their_tolerances(self, grid, steps_per_span, n_steps, tol,
                                                                 monkeypatch):
        # dense phi is out of reach here; the truth is the same product at 20
        # more Krylov dimensions, and each residual term at dimension 30
        cfg = RunConfig(grid=grid, form="tran", order=4, tf=n_steps * TIMESPAN / steps_per_span, krylov_tol=tol)
        _, prob, stepper, u0 = build_study(cfg)
        products, terms = self.ledger(monkeypatch, stepper, prob, u0, cfg.t0, cfg.tf, n_steps, cfg.krylov())

        # products on one vector come one after another, so a context, which
        # holds one (operator, vector) pair, builds each vector's truth once
        product_ctx, term_ctx = EvalContext(), EvalContext()

        def exact_term(expr, L, h, v):
            return apply_tree(expr, v, lambda k, c: fixed_dimension_product(term_ctx, L, k, c * h, v, 30))

        rows = self.check(
            products, terms, cfg.krylov(),
            lambda L, k, tau, v, m: fixed_dimension_product(product_ctx, L, k, tau, v, m + 20), exact_term)
        assert len(rows) == tableau(4).s * n_steps


class TestStabilityDiagnostic:
    """Criterion 9 checks the closed forms; these, what it does not."""

    def test_accepts_operators(self):
        got = stability_matrix_spectral_radius(
            LinearOperator([[-2.0]], symmetric=True), LinearOperator(np.zeros((1, 1))), 0.5
        )
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_rejects_unequal_or_large_operators_before_materializing_them(self, monkeypatch):
        dense = []
        to_dense = LinearOperator.to_dense
        monkeypatch.setattr(LinearOperator, "to_dense", lambda op: dense.append(op) or to_dense(op))
        with pytest.raises(ValueError, match="equal dimension"):
            stability_matrix_spectral_radius(LinearOperator(np.eye(2)), LinearOperator(np.eye(3)), 0.1)
        big = LinearOperator(np.eye(201))
        with pytest.raises(ValueError, match="dimension <= 200"):
            stability_matrix_spectral_radius(big, big, 0.1)
        assert not dense
