import math

import numpy as np
import pytest

from pexprk import steppers
from pexprk.coeffexpr import eval_dense
from pexprk.krylov import KrylovConfig, KrylovError
from pexprk.operators import SparseOperator, ZeroOperator
from pexprk.phi import expm_dense, phi_scalar
from pexprk.problems import TIMESPAN, gs_default, gs_initial, gs_partition, oracle_semilinear
from pexprk.steppers import (
    IntegrationFailure,
    SplitProblem,
    StepFailure,
    integrate_fixed,
    original_stepper,
    pexprk_stepper,
    residual2_stepper,
    step_exprk_original,
    step_pexprk,
    step_pexprk2_residual,
    stability_matrix_spectral_radius,
    unpartitioned_problem,
)
from pexprk.tableaux import tableau, transformed

TIGHT = KrylovConfig(tol=1e-13, m_max=60)


from classical_rk import classical_rk_step
from supports import embedded_problem


def step_transformed(t, L, f, y, h, cfg):
    """One step of the unpartitioned transformed method: step_pexprk with P = 1."""
    return step_pexprk(t, unpartitioned_problem(L.dim, f, lambda u: L), y, h, cfg)


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
        L = SparseOperator([[lam]], symmetric=True)
        f = lambda u: lam * u + 1.0  # noqa: E731
        got = step_exprk_original(tableau(2), L, f, np.array([u0]), h, TIGHT)
        expected = math.exp(lam * h) * u0 + h * phi_scalar(1, lam * h)
        assert got[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_linear_problem_is_exact(self, order):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(10, 10)) / 3.0
        a -= (np.max(np.real(np.linalg.eigvals(a))) + 1.0) * np.eye(10)
        y0 = rng.uniform(-1, 1, size=10)
        h = 0.3
        L = SparseOperator(a)
        got = step_exprk_original(tableau(order), L, lambda u: a @ u, y0, h, TIGHT)
        assert np.allclose(got, expm_dense(h * a) @ y0, rtol=1e-11, atol=1e-13)

    def test_small_h_consistency(self):
        orc = oracle_semilinear(8, seed=3)
        h = 1e-5
        y = orc.u0
        got = step_exprk_original(tableau(3), orc.jacobian(y), orc.f, y, h, TIGHT)
        assert np.linalg.norm(got - y - h * orc.f(y)) <= 1e-8

    def test_rejects_bad_h(self):
        with pytest.raises(ValueError):
            step_exprk_original(tableau(2), ZeroOperator(1), lambda u: u, np.zeros(1), 0.0, TIGHT)


class TestTransformedEquivalence:
    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_original_equals_transformed(self, order, seed):
        orc = oracle_semilinear(12, seed=seed)
        L = orc.jacobian(orc.u0)
        h = 0.05
        a = step_exprk_original(tableau(order), L, orc.f, orc.u0, h, TIGHT)
        b = step_transformed(tableau(order), L, orc.f, orc.u0, h, TIGHT)
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_transformed_linear_exact(self, order):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(8, 8)) / 3.0 - 2.0 * np.eye(8)
        y0 = rng.uniform(-1, 1, size=8)
        got = step_transformed(tableau(order), SparseOperator(a), lambda u: a @ u, y0, 0.4, TIGHT)
        assert np.allclose(got, expm_dense(0.4 * a) @ y0, rtol=1e-11, atol=1e-13)

    def test_zero_operator_degenerates_to_classical(self):
        orc = oracle_semilinear(9, seed=5)
        h = 0.02
        for order in (2, 3, 4):
            got = step_transformed(tableau(order), ZeroOperator(9), orc.f, orc.u0, h, TIGHT)
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
    def test_forward_substitution_matches_transformed_trees(self, order, shape):
        # two partitions with non-commuting operators (the linear term and
        # the Jacobian of the remainder); imex zeroes the second, explicit both
        orc = oracle_semilinear(10, seed=19)
        base = orc.split_linear_nonlinear()
        zero = lambda u: ZeroOperator(orc.dim)  # noqa: E731
        builders = {
            "implicit": base.operator_builders,
            "imex": (base.operator_builders[0], zero),
            "explicit": (zero, zero),
        }[shape]
        prob = SplitProblem(orc.dim, base.f_parts, builders)
        h = 0.04
        ops = prob.build_operators(orc.u0)
        got = step_pexprk(tableau(order), prob, orc.u0, h, TIGHT, ops=ops)
        # densified from fresh operators: to_dense advances the matvec tally
        mats = [op.to_dense() for op in prob.build_operators(orc.u0)]
        want = dense_partitioned_step(transformed(order), mats, base.f_parts, orc.u0, h)
        assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want))
        assert all(op.matvecs == 0 for op in ops if op.kind == "zero")

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_all_zero_operators_degenerate_to_classical(self, order):
        orc = oracle_semilinear(11, seed=9)
        prob = orc.split_all_explicit()
        h = 0.03
        got = step_pexprk(tableau(order), prob, orc.u0, h, TIGHT)
        ref = classical_rk_step(order, orc.f, orc.u0, h)
        assert np.linalg.norm(got - ref) <= 1e-13 * max(1.0, np.linalg.norm(ref))

    def test_commuting_diagonal_closed_form(self):
        # two diagonal partitions: the order-2 stage and update evaluate to
        # the scalar expansion U2 = u + h sum phi1(h l_p) l_p u, etc.
        l1 = np.array([-2.0, -0.5])
        l2 = np.array([-1.0, -3.0])
        u0 = np.array([1.0, -0.7])
        h = 0.2
        prob = SplitProblem(
            2,
            (lambda u: l1 * u, lambda u: l2 * u),
            (lambda u: SparseOperator(np.diag(l1), symmetric=True),
             lambda u: SparseOperator(np.diag(l2), symmetric=True)),
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

    def test_residual_form_matches_direct_small_grid(self):
        model = gs_default(n=16)
        prob = gs_partition(model, "physics")
        u0 = gs_initial(model)
        h = 1e-3
        cfg = KrylovConfig(tol=1e-13, m_max=80)
        direct = step_pexprk(tableau(2), prob, u0, h, cfg)
        resid = step_pexprk2_residual(prob, u0, h, cfg)
        assert np.linalg.norm(direct - resid) <= 1e-9 * np.linalg.norm(direct)

    def test_residual_form_all_explicit_matches_direct(self):
        orc = oracle_semilinear(7, seed=13)
        prob = orc.split_all_explicit()
        h = 0.05
        a = step_pexprk(tableau(2), prob, orc.u0, h, TIGHT)
        b = step_pexprk2_residual(prob, orc.u0, h, TIGHT)
        assert np.linalg.norm(a - b) <= 1e-13

    def test_residual_form_never_applies_a_zero_operator(self):
        # an explicitly treated partition's L_p (U - u_n) is zero and takes no matvec
        model = gs_default(n=8)
        prob = gs_partition(model, "imex")
        u0 = gs_initial(model)
        ops = prob.build_operators(u0)
        assert [op.kind for op in ops] == ["sparse", "zero"]
        step_pexprk2_residual(prob, u0, 1e-3, TIGHT, ops=ops)
        assert ops[1].matvecs == 0 and ops[0].matvecs > 0

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
            integrate_fixed(residual2_stepper(), p, u0, 0.0, 0.01, 1, cfg)
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

    def test_residual_form_requires_two_partitions(self):
        orc = oracle_semilinear(5, seed=1)
        with pytest.raises(ValueError):
            step_pexprk2_residual(orc.problem(), orc.u0, 0.1, TIGHT)

    def test_species_split_equals_blockdiag_transformed(self):
        from pexprk.problems import gs_unpartitioned

        model = gs_default(n=8)
        u0 = gs_initial(model)
        cfg = KrylovConfig(tol=1e-13, m_max=100)
        h = 1e-3
        part = step_pexprk(tableau(2), gs_partition(model, "species"), u0, h, cfg)
        prob = gs_unpartitioned(model, jacobian="block", partition="species")
        blocked = step_pexprk(tableau(2), prob, u0, h, cfg)
        assert np.linalg.norm(part - blocked) <= 1e-12 * np.linalg.norm(blocked)


class TestIntegrateFixed:
    def test_one_step_equals_stepper_call(self):
        orc = oracle_semilinear(8, seed=11)
        prob = orc.problem()
        res = integrate_fixed(pexprk_stepper(2), prob, orc.u0, 0.0, 0.1, 1, TIGHT)
        direct = step_pexprk(tableau(2), prob, orc.u0, 0.1, TIGHT)
        assert np.array_equal(res.state, direct)
        assert res.steps == 1 and res.stats.matvecs > 0

    @pytest.mark.parametrize("make", [original_stepper, pexprk_stepper])
    def test_linear_many_steps_exact(self, make):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(9, 9)) / 3.0 - 1.5 * np.eye(9)
        u0 = rng.uniform(-1, 1, size=9)
        prob = unpartitioned_problem(9, lambda u: a @ u, lambda u: SparseOperator(a))
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
            2,
            (lambda u: a @ u,),
            (lambda u: ZeroOperator(2),),
        )
        with pytest.raises(IntegrationFailure, match=r"^step 2/3: stage 2, partition 1: non-finite stage residual$"):
            integrate_fixed(pexprk_stepper(2), prob, np.ones(2), 0.0, 1.0, 3, TIGHT)

    def test_nonconvergence_surfaces_with_stage_context(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(30, 30)) * 50.0
        a -= (np.max(np.real(np.linalg.eigvals(a))) + 1.0) * np.eye(30)
        cfg = KrylovConfig(tol=1e-13, m_max=4)
        u0 = rng.uniform(size=30)
        # both forms run one core, so their failures name stage and partition alike
        for step in (step_transformed, step_exprk_original):
            with pytest.raises(StepFailure, match=r"^stage 2, partition 1, phi_1 term: .*did not converge"):
                step(tableau(2), SparseOperator(a), lambda u: a @ u, u0, 0.5, cfg)

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
            step_pexprk(t, prob, u0, 1e-3, TIGHT, ops=ops)
        assert str(failure.value) == f"{label}: forced"


class TestStabilityDiagnostic:
    def test_zero_operators(self):
        assert stability_matrix_spectral_radius(np.zeros((3, 3)), np.zeros((3, 3)), 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_closed_form(self):
        a, b, h = 1.3, 0.4, 0.9
        got = stability_matrix_spectral_radius(np.diag([-a, -a]), np.diag([-b, -b]), h)
        expected = math.exp(-h * a) + math.exp(-h * b) - 1.0
        assert got == pytest.approx(expected, abs=1e-12)
        assert got < 1.0

    def test_unstable_case_flagged(self):
        got = stability_matrix_spectral_radius(np.diag([-10.0]), np.diag([1.0]), 1.0)
        expected = math.exp(-10.0) + math.e - 1.0
        assert got == pytest.approx(expected, abs=1e-12)
        assert got > 1.0

    def test_accepts_operators(self):
        got = stability_matrix_spectral_radius(
            SparseOperator([[-2.0]], symmetric=True), ZeroOperator(1), 0.5
        )
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)
