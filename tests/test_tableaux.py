import math

import numpy as np
import pytest

from pexprk.coeffexpr import (
    Const,
    Phi,
    Prod,
    Scale,
    Sum,
    ZMul,
    eval_coeff,
    eval_dense,
    eval_scalar,
    max_phi_index,
    simplify,
)
from pexprk.krylov import KrylovConfig
from pexprk.operators import SparseOperator, ZeroOperator
from pexprk.phi import phi_scalar
from pexprk.tableaux import (
    check_order_conditions,
    dump_tableau,
    tableau,
    tableau_order2,
    tableau_order3,
    tableau_order4,
    transform,
    transformed,
)

C23 = 2.0 / 3.0


class TestExpressions:
    def test_simplify_flattens_and_folds(self):
        e = Sum(Sum(Phi(1), Const(0.0)), Scale(2.0, Scale(3.0, Phi(2))))
        s = simplify(e)
        assert s == Sum(Phi(1), Scale(6.0, Phi(2)))
        assert simplify(Prod(Const(1.0), Phi(1))) is Phi(1) or simplify(Prod(Const(1.0), Phi(1))) == Phi(1)
        assert simplify(Prod(Const(0.0), Phi(1))) == Const(0.0)
        assert simplify(Scale(1.0, Phi(3))) == Phi(3)

    def test_structural_equality_and_keys(self):
        assert Phi(2, 0.5) == Phi(2, 0.5)
        assert hash(Phi(2, 0.5)) == hash(Phi(2, 0.5))
        assert Phi(2, 0.5) != Phi(2, 1.0)
        # nodes are their own memo keys: equal trees hash alike, signed zeros too
        tree = Sum(Scale(0.0, Phi(1, 0.5)), Prod(Phi(2), ZMul(Const(1.0))))
        twin = Sum(Scale(-0.0, Phi(1, 0.5)), Prod(Phi(2), ZMul(Const(1.0))))
        assert tree == twin and hash(tree) == hash(twin)

    def test_invalid_nodes_rejected(self):
        # phi_0 has no node: every coefficient of the catalog and of transform is k >= 1
        with pytest.raises(ValueError, match=">= 1"):
            Phi(0, 1.0)
        with pytest.raises(ValueError):
            Phi(-1, 1.0)
        with pytest.raises(ValueError):
            Phi(1, 0.0)
        with pytest.raises(ValueError):
            Phi(1, 1.5)

    def test_eval_scalar_composition(self):
        # z * phi_2(z) = phi_1(z) - 1
        z = 0.7
        got = eval_scalar(ZMul(Phi(2)), z)
        assert got == pytest.approx(phi_scalar(1, z) - 1.0, rel=1e-13)
        got = eval_scalar(Prod(Phi(1), Phi(1, 0.5)), z)
        assert got == pytest.approx(phi_scalar(1, z) * phi_scalar(1, 0.5 * z), rel=1e-13)

    def test_eval_dense_matches_scalar_on_diagonal(self):
        z = np.diag([0.3, -1.2, 2.0])
        expr = Sum(Phi(1), Scale(-1.0, ZMul(Prod(Phi(2), Phi(1, 0.5)))))
        got = eval_dense(expr, z)
        for i, lam in enumerate([0.3, -1.2, 2.0]):
            assert got[i, i] == pytest.approx(eval_scalar(expr, lam), rel=1e-13)


class TestEvalCoeff:
    def test_const_identity(self):
        v = np.arange(4.0)
        out = eval_coeff(Const(1.0), ZeroOperator(4), 0.1, v, KrylovConfig())
        assert np.array_equal(out, v)

    @pytest.mark.parametrize(
        "build, error, match",
        [
            (lambda: Prod(Phi(1), Phi(2)), TypeError, "not applied matrix-free"),
            (lambda: ZMul(Phi(1)), TypeError, "not applied matrix-free"),
            # phi_0 never reaches the Krylov engine: no node can hold k = 0
            (lambda: Phi(0, 1.0), ValueError, ">= 1"),
            (lambda: transformed(2).beta[0], TypeError, "not applied matrix-free"),
        ],
        ids=["prod", "zmul", "phi0", "beta1-tree"],
    )
    def test_rejects_non_butcher_nodes(self, build, error, match):
        # the expanded transformed trees are evaluated only at scalars and dense matrices
        v = np.arange(1.0, 5.0)
        with pytest.raises(error, match=match):
            eval_coeff(build(), SparseOperator(-np.eye(4), symmetric=True), 0.1, v, KrylovConfig())


class TestCatalog:
    def test_order2_values(self):
        t = tableau_order2()
        assert t.s == 2 and t.c == (0.0, 1.0) and t.design_order == 2
        assert eval_scalar(t.b[1], 0.0) == pytest.approx(0.5)
        assert eval_scalar(t.b[0], 0.0) == pytest.approx(0.5)
        assert eval_scalar(t.a[1][0], 1.0) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_order3_values(self):
        t = tableau_order3()
        assert t.s == 3 and t.c == (0.0, C23, C23)
        assert eval_scalar(t.b[2], 0.0) == pytest.approx(0.75)
        assert eval_scalar(t.a[2][1], 0.0) == pytest.approx(1.0 / 3.0)
        # stage consistency at z=0 reduces to sum_j a_ij(0) = c_i
        assert eval_scalar(t.a[2][0], 0.0) + eval_scalar(t.a[2][1], 0.0) == pytest.approx(C23)

    def test_order4_values(self):
        t = tableau_order4()
        assert t.s == 5 and t.c == (0.0, 0.5, 0.5, 1.0, 0.5)
        assert eval_scalar(t.b[0], 0.0) == pytest.approx(1.0 / 6.0)
        assert eval_scalar(t.b[4], 0.0) == pytest.approx(2.0 / 3.0)
        assert eval_scalar(t.b[1], 0.0) == 0.0 and eval_scalar(t.b[2], 0.0) == 0.0
        # a_{5,2} == a_{5,3} and the companion relation a_{5,4} = phi_{2,5}/4 - a_{5,2}
        for z in (-0.8, 0.4):
            a52 = eval_scalar(t.a[4][1], z)
            assert eval_scalar(t.a[4][2], z) == a52
            assert eval_scalar(t.a[4][3], z) == pytest.approx(
                0.25 * phi_scalar(2, 0.5 * z) - a52, rel=1e-13
            )


    def test_largest_phi_index(self):
        assert [tableau(order).phi_max for order in (2, 3, 4)] == [2, 2, 3]
        assert max_phi_index(Sum(Scale(2.0, Phi(1, 0.5)), Prod(Phi(4, 1.0), ZMul(Phi(2, 1.0))))) == 4
        assert max_phi_index(Const(1.0)) == max_phi_index(None) == 0


class TestTransform:
    def test_order2_golden_structure(self):
        tt = transform(tableau_order2())
        assert tt.alpha[1][0] == Phi(1, 1.0)
        assert tt.beta[0] == Sum(Phi(1, 1.0), Scale(-1.0, ZMul(Prod(Phi(2, 1.0), Phi(1, 1.0)))))
        assert tt.beta[1] == Phi(2, 1.0)

    def test_order3_golden_structure(self):
        # hand-derived: E = I - zA on the trailing block, so
        #   alpha_{3,1} = (-z a_32)(c2 phi_{1,2}) + c3 phi_{1,3}
        #   beta_2 = b_3 (-z a_32),  beta_3 = b_3
        t = tableau_order3()
        tt = transform(t)
        a32 = t.a[2][1]
        c2phi = Scale(C23, Phi(1, C23))
        assert tt.alpha[1][0] == c2phi
        assert tt.alpha[2][0] == Sum(Prod(Scale(-1.0, ZMul(a32)), c2phi), c2phi)
        assert tt.alpha[2][1] == a32
        assert tt.beta[1] == Prod(t.b[2], Scale(-1.0, ZMul(a32)))
        assert tt.beta[2] == t.b[2]

    @pytest.mark.parametrize("z", [-1.0, 0.3])
    def test_order3_matches_printed_method(self, z):
        tt = transformed(3)
        p12 = phi_scalar(1, C23 * z)
        p23 = phi_scalar(2, C23 * z)
        p13 = p12
        phi1, phi2 = phi_scalar(1, z), phi_scalar(2, z)
        assert eval_scalar(tt.alpha[1][0], z) == pytest.approx(C23 * p12, rel=1e-12)
        assert eval_scalar(tt.alpha[2][0], z) == pytest.approx(
            (2.0 / 9.0) * (3 * p13 - 2 * z * p12 * p23), rel=1e-12
        )
        assert eval_scalar(tt.alpha[2][1], z) == pytest.approx(C23 * p23, rel=1e-12)
        assert eval_scalar(tt.beta[0], z) == pytest.approx(
            (1.0 / 3.0) * z * phi2 * (2 * z * p12 * p23 - 3 * p13) + phi1, rel=1e-12
        )
        assert eval_scalar(tt.beta[1], z) == pytest.approx(-z * phi2 * p23, rel=1e-12, abs=1e-15)
        assert eval_scalar(tt.beta[2], z) == pytest.approx(1.5 * phi2, rel=1e-12)

    @pytest.mark.parametrize("z", [-1.0, 0.3])
    def test_order4_matches_printed_method(self, z):
        # spot-check the transformed coefficients against the hand-expanded
        # printed form of the fourth-order method (numeric, not structural)
        tt = transformed(4)
        p12 = phi_scalar(1, 0.5 * z)
        p14 = phi_scalar(1, z)
        p23 = p25 = phi_scalar(2, 0.5 * z)
        p24 = phi_scalar(2, z)
        p34 = phi_scalar(3, z)
        p35 = phi_scalar(3, 0.5 * z)
        phi2, phi3 = p24, p34
        big = p24 + p25 - 2 * (2 * p34 + p35)
        checks = {
            (1, 0): 0.5 * p12,
            (2, 0): 0.5 * (p12 - z * p12 * p23),
            (3, 0): 0.5 * z * p24 * (p12 * (z * p23 - 1) - p12) + p14,
            (4, 0): (1 / 8) * (
                2 * z * p14 * big
                + z * p12 * (-p24 * (z * big + 1) - 2 * p25 + 4 * p34 + 2 * p35)
                + z * p12 * (z * p23 - 1) * (p24 * (z * big + 1) + 2 * (p25 - 2 * p34 - p35))
                + 4 * p12
            ),
            (2, 1): p23,
            (3, 1): (1 - z * p23) * p24,
            (3, 2): p24,
            (4, 1): -(1 / 4) * (z * p23 - 1) * (2 * (p25 - 2 * p34 - p35) + p24 * (z * big + 1)),
            (4, 2): (1 / 4) * (z * p24 * big + p24 + 2 * p25 - 4 * p34 - 2 * p35),
            (4, 3): (1 / 4) * (-p24 - p25 + 4 * p34 + 2 * p35),
        }
        for (i, j), expected in checks.items():
            assert eval_scalar(tt.alpha[i][j], z) == pytest.approx(expected, rel=1e-12, abs=1e-14)
        beta_checks = [
            p14 - 0.5 * z * (
                (phi2 - 2 * phi3) * (
                    2 * z * p14 * big
                    + z * p12 * (-p24 * (z * big + 1) - 2 * p25 + 4 * p34 + 2 * p35)
                    + z * p12 * (z * p23 - 1) * (p24 * (z * big + 1) + 2 * (p25 - 2 * p34 - p35))
                    + 4 * p12
                )
                - (phi2 - 4 * phi3) * (z * p24 * (p12 * (z * p23 - 1) - p12) + 2 * p14)
            ),
            (1 / 4) * z * (z * p23 - 1) * (
                4 * (phi2 - 2 * phi3) * (p24 * (z * big + 1) + 2 * (p25 - 2 * p34 - p35))
                - 4 * (phi2 - 4 * phi3) * p24
            ),
            z * (phi2 - 4 * phi3) * p24
            + z * (phi2 - 2 * phi3) * (-p24 * (z * big + 1) - 2 * p25 + 4 * p34 + 2 * p35),
            z * (phi2 - 2 * phi3) * big - phi2 + 4 * phi3,
            4 * (phi2 - 2 * phi3),
        ]
        for j, expected in enumerate(beta_checks):
            assert eval_scalar(tt.beta[j], z) == pytest.approx(expected, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_inverse_identity_dense(self, order):
        # (I + zA) E = I as dense block matrices on a random 8x8 argument
        rng = np.random.default_rng(100 + order)
        z = rng.uniform(-1, 1, size=(8, 8))
        t = tableau(order)
        tt = transform(t)
        size = t.s - 1
        n = 8
        memo = {}

        def block(expr):
            if expr is None:
                return np.zeros((n, n))
            return eval_dense(expr, z, memo)

        e_big = np.zeros((size * n, size * n))
        ipza = np.zeros((size * n, size * n))
        # E = (I - z alpha_{2:s,2:s}) is the inverse asserted by the rewrite;
        # equivalently (I + zA) E = I with E recovered from alpha = E A ... use
        # E = I + sum over alpha-block products: reconstruct E by the identity
        # E = I - z * alpha_block (proved by the formal inversion)
        for i in range(size):
            for j in range(size):
                a_entry = t.a[i + 1][j + 1]
                alpha_entry = tt.alpha[i + 1][j + 1]
                blk_a = block(a_entry)
                blk_alpha = block(alpha_entry)
                eye = np.eye(n) if i == j else np.zeros((n, n))
                ipza[i * n:(i + 1) * n, j * n:(j + 1) * n] = eye + z @ blk_a
                e_big[i * n:(i + 1) * n, j * n:(j + 1) * n] = eye - z @ blk_alpha
        assert np.max(np.abs(ipza @ e_big - np.eye(size * n))) <= 1e-12

    def test_rejects_non_strictly_lower(self):
        with pytest.raises(ValueError):
            tableau_order2().__class__(
                s=2, c=(0.0, 1.0),
                a=((None, Phi(1)), (Phi(1), None)),
                b=(Phi(1), Phi(2)),
                design_order=2,
            )

    @pytest.mark.parametrize("c", [(0.0, 0.0), (0.0, 1.5)])
    def test_rejects_abscissa_outside_unit_interval(self, c):
        # c_i, i >= 1, scales phi_1(c_i z), which Phi admits only in (0, 1]
        with pytest.raises(ValueError, match=r"abscissa c\[1\]"):
            tableau_order2().__class__(
                s=2, c=c,
                a=((None, None), (Phi(1), None)),
                b=(Phi(1), Phi(2)),
                design_order=2,
            )


WEAK_CONDITIONS = {3: {"3a"}, 4: {"4a", "4b"}}


class TestOrderConditions:
    def test_order2_all_conditions_tight(self):
        for seed in range(3):
            res = check_order_conditions(tableau_order2(), up_to=2, n=6, seed=seed)
            assert set(res) == {"1", "2a", "2b"}
            assert all(v <= 1e-12 for v in res.values()), res

    def test_order3_strict_conditions(self):
        res = check_order_conditions(tableau_order3(), up_to=3, n=6, seed=1)
        for label in ["1", "2a", "2b", "3b"]:
            assert res[label] <= 1e-10, (label, res[label])

    def test_order4_strict_conditions(self):
        res = check_order_conditions(tableau_order4(), up_to=4, n=6, seed=2)
        for label in ["1", "2a", "2b", "3a", "3b", "4c", "4d"]:
            assert res[label] <= 1e-10, (label, res[label])

    @pytest.mark.parametrize("order", [3, 4])
    def test_weak_conditions_hold_at_origin(self, order):
        # the catalog methods of order 3 and 4 satisfy these scalar
        # conditions only in the weakened sense: exactly at z = 0
        t = tableau(order)
        weights_z0 = [eval_scalar(bj, 0.0) for bj in t.b]
        if order == 3:
            lhs = sum(w * c**2 / 2.0 for w, c in zip(weights_z0, t.c))
            assert lhs == pytest.approx(1.0 / 6.0, abs=1e-14)  # phi_3(0)
        else:
            lhs = sum(w * c**3 / 6.0 for w, c in zip(weights_z0, t.c))
            assert lhs == pytest.approx(1.0 / 24.0, abs=1e-14)  # phi_4(0)

    @pytest.mark.parametrize("order", [3, 4])
    def test_weak_conditions_fail_strictly(self, order):
        # documents that the strict residuals of the weakened conditions are
        # genuinely nonzero for these methods (not a checker artifact)
        res = check_order_conditions(tableau(order), up_to=order, n=6, seed=3)
        for label in WEAK_CONDITIONS[order]:
            assert res[label] > 1e-4, (label, res[label])

    def test_order2_fails_order3_condition(self):
        # non-vacuity: the checker must flag a genuinely unsatisfied condition
        res = check_order_conditions(tableau_order2(), up_to=3, n=6, seed=0)
        assert res["3a"] > 0.01

    def test_deterministic_given_seed(self):
        a = check_order_conditions(tableau_order3(), up_to=3, n=6, seed=9)
        b = check_order_conditions(tableau_order3(), up_to=3, n=6, seed=9)
        assert a == b


class TestDump:
    def test_dump_is_stable_and_covers_entries(self):
        text1 = dump_tableau(tableau_order3())
        text2 = dump_tableau(tableau_order3())
        assert text1 == text2
        assert "a[2][1]" in text1 and "b[3]" in text1 and text1.startswith("s = 3")

    def test_dump_transformed(self):
        text = dump_tableau(transformed(2))
        assert "alpha[2][1] = phi(1, 1.0)" in text
        assert "beta[2] = phi(2, 1.0)" in text
