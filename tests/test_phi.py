import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg

from pexprk import phi
from pexprk.krylov import _ArnoldiState
from pexprk.phi import PhiEvaluationError, _augmented, expm, phi_array, phi_cols_e1, phi_dense_matrices
from pexprk.problems import TIMESPAN, GrayScottModel, gs_initial, gs_partition, gs_rhs

from oracles import gs_full_jacobian, phi_dense_times_vector, phi_scalar


def phi_series_scalar(k, z, terms=30):
    """Independent oracle: truncated series sum_i z^i / (k+i)!."""
    return sum(z**i / math.factorial(k + i) for i in range(terms))


def phi_exact_scalar(k, z):
    """Independent oracle in 50-digit arithmetic (series is cancellation-free there)."""
    with mp.workdps(50):
        return float(mp.nsum(lambda i: mp.mpf(z) ** i / mp.factorial(k + i), [0, mp.inf]))


def phi_fraction_series(k, z):
    """Independent oracle: the series sum_i z^i / (k+i)! summed exactly in
    rationals from the float z, truncated once the terms fall below 2^-200
    and shrink by more than half per term, then rounded once to float."""
    x = Fraction(z)
    term = Fraction(1, math.factorial(k))
    acc = Fraction(0)
    i = 0
    while i <= 2 * abs(z) + 1 or abs(term) * 2**200 > 1:
        acc += term
        i += 1
        term = term * x / (k + i)
    return float(acc)


def e1(n):
    out = np.zeros(n)
    out[0] = 1.0
    return out


def phi_series_matrix(k, a, terms=40):
    """Independent oracle: truncated series sum_i A^i / (k+i)!."""
    n = a.shape[0]
    term = np.eye(n)
    acc = np.zeros((n, n))
    for i in range(terms):
        acc += term / math.factorial(k + i)
        term = term @ a
    return acc


class TestPhiScalar:
    def test_phi0_at_zero(self):
        assert phi_scalar(0, 0.0) == 1.0

    def test_phi3_at_zero(self):
        assert phi_scalar(3, 0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_phi1_at_one_matches_series(self):
        # sum_{i=0}^{30} 1/(1+i)! = e - 1
        expected = phi_series_scalar(1, 1.0, terms=31)
        assert phi_scalar(1, 1.0) == pytest.approx(expected, rel=1e-14)
        assert phi_scalar(1, 1.0) == pytest.approx(1.7182818284590452, rel=1e-14)

    @pytest.mark.parametrize("k", range(0, 7))
    @pytest.mark.parametrize("z", [-20.0, -3.7, -0.49, -1e-3, 1e-3, 0.3, 2.5, 20.0])
    def test_matches_exact_oracle(self, k, z):
        # float64 series would cancel catastrophically at z = -20; the
        # 50-digit oracle does not.
        expected = phi_exact_scalar(k, z)
        assert phi_scalar(k, z) == pytest.approx(expected, rel=1e-13)

    def test_recurrence_property(self):
        # |phi_{k+1}(z) - (phi_k(z) - 1/k!)/z| small for z away from 0
        rng = np.random.default_rng(20240811)
        zs = rng.uniform(-20.0, 20.0, size=200)
        zs = zs[np.abs(zs) > 1e-3]
        for z in zs:
            for k in range(1, 7):
                lhs = phi_scalar(k + 1, z)
                rhs = (phi_scalar(k, z) - 1.0 / math.factorial(k)) / z
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_series_branch_near_zero(self):
        for k in range(1, 6):
            for z in [0.0, 1e-12, -1e-9, 0.49, -0.49]:
                assert phi_scalar(k, z) == pytest.approx(
                    phi_series_scalar(k, z, terms=40), rel=1e-14
                )

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_overflow_reported(self, k):
        # phi_0 overflows past z = 709.78, like every k >= 1 somewhat later
        assert math.isfinite(phi_scalar(k, 709.0))
        with pytest.raises(PhiEvaluationError):
            phi_scalar(k, 800.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            phi_scalar(1, float("nan"))
        with pytest.raises(ValueError):
            phi_scalar(1, float("inf"))
        with pytest.raises(ValueError):
            phi_scalar(-1, 1.0)
        with pytest.raises(ValueError):
            phi_scalar(9, 1.0)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_against_exact_series(self, k):
        # from |z| = 0.5 the residual form is correctly rounded (at 4.2464 an
        # augmented-matrix expm is off by 8.5e-13 for k = 1); below it the
        # float series is within two ulps
        mags = np.concatenate([np.geomspace(1e-3, 20.0, 30), [0.49, 0.5, 4.2464]])
        for z in np.concatenate([mags, -mags]):
            exact = phi_fraction_series(k, float(z))
            rtol = 2e-16 if abs(z) >= 0.5 else 4e-16
            assert abs(phi_scalar(k, z) - exact) <= rtol * abs(exact), (k, z)


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((2, 2))), np.eye(2), atol=1e-15)

    def test_diagonal(self):
        e = expm(np.diag([1.0, -2.0]))
        assert np.allclose(e, np.diag([math.e, math.exp(-2.0)]), rtol=1e-13)

    def test_nilpotent_hand_check(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(expm(a), np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)

    def test_inverse_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.uniform(-1, 1, size=(6, 6))
            a *= 5.0 / np.linalg.norm(a, 2)
            prod = expm(a) @ expm(-a)
            assert np.max(np.abs(prod - np.eye(6))) <= 1e-12

    def test_overflow_raises_without_warning(self):
        # the squaring phase overflows: a named failure, and no warning
        # (filterwarnings = error), whole matrices phi_k(A) included
        with pytest.raises(PhiEvaluationError, match=r"phi evaluation overflowed \(argument norm 1e\+06\)"):
            expm(np.diag([1e6, 1e6]))
        with pytest.raises(PhiEvaluationError, match="overflowed"):
            phi_dense_matrices(2, np.diag([1e6, 1e6]))

    @pytest.mark.parametrize("n", [6, 50, 200])
    def test_bordered_matrices_against_scipy(self, n, monkeypatch):
        # the bordered matrices, (p + 1) n on a side, behind check-order's
        # phi_1 .. phi_4 on its random L
        bordered = []

        def recorded(a):
            bordered.append((a, expm(a)))
            return bordered[-1][1]

        monkeypatch.setattr(phi, "expm", recorded)
        L = np.random.default_rng(0).uniform(-1, 1, size=(n, n))
        for p in range(1, 5):
            phi_dense_matrices(p, L)
        assert [a.shape[0] for a, _ in bordered] == [2 * n, 3 * n, 4 * n, 5 * n]
        for a, got in bordered:
            want = scipy.linalg.expm(a)
            assert norm1(got - want) <= 1e-13 * norm1(want), a.shape


class TestPhiDenseTimesE1:
    def test_zero_matrix(self):
        cols = phi_dense_times_vector(2, np.zeros((3, 3)), e1(3))
        assert np.allclose(cols[0], e1(3) * 1.0, atol=1e-15)
        assert np.allclose(cols[1], e1(3) * 0.5, atol=1e-15)

    def test_scalar_case(self):
        (w,) = phi_dense_times_vector(1, np.array([[1.0]]), e1(1))
        assert w[0] == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_random_5x5_matches_series(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, size=(5, 5))
        cols = phi_dense_times_vector(4, a, e1(5))
        for k in range(1, 5):
            expected = phi_series_matrix(k, a, terms=41) @ e1(5)
            assert np.max(np.abs(cols[k - 1] - expected)) <= 1e-12

    def test_matrix_recurrence_consistency(self):
        # column k agrees with phi_k(A) = (phi_{k-1}(A) - I/(k-1)!) A^{-1};
        # the shift keeps A well conditioned so repeated solves stay accurate
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, size=(6, 6)) + 3.0 * np.eye(6)
        assert np.linalg.cond(a) < 50
        cols = phi_dense_times_vector(4, a, e1(6))
        mats = [scipy.linalg.expm(a)]
        for k in range(1, 5):
            mats.append(np.linalg.solve(a.T, (mats[k - 1] - np.eye(6) / math.factorial(k - 1)).T).T)
        for k in range(1, 5):
            assert np.max(np.abs(cols[k - 1] - mats[k] @ e1(6))) <= 1e-10


def mp_expm(a):
    """Independent oracle: the matrix exponential in 30-digit arithmetic."""
    with mp.workdps(30):
        return np.array(mp.expm(mp.matrix(a.tolist())).tolist(), dtype=float)


def norm1(a):
    return float(np.abs(a).sum(axis=0).max())


def pade13_tolerance(a):
    """Relative 1-norm error allowed for expm(a): a few dozen rounding
    errors, plus eps ||A||_1, since the exponential's relative condition
    number is at least ||A|| (Van Loan, SINUM 14(6), 1977)."""
    return np.finfo(float).eps * (50 + norm1(a))


def stable_hessenberg(rng, n):
    """Upper Hessenberg matrix with rightmost eigenvalue at 0."""
    a = rng.normal(size=(n, n))
    return scipy.linalg.hessenberg(a - np.max(np.linalg.eigvals(a).real) * np.eye(n))


def stable_tridiagonal(rng, n):
    """Symmetric tridiagonal matrix with largest eigenvalue 0."""
    off = rng.normal(size=n - 1)
    t = np.diag(rng.normal(size=n)) + np.diag(off, 1) + np.diag(off, -1)
    return t - np.max(np.linalg.eigvalsh(t)) * np.eye(n)


def gray_scott_reduced_matrices():
    """tau H_m of the grid-16 Gray-Scott Jacobian (Arnoldi) and species block
    (Lanczos) at m = 10, both spacings and tau = T/128, T/16, T/2."""
    out = []
    for spacing in (1.0, 1.0 / 16):
        model = GrayScottModel(n=16, spacing=spacing)
        u = gs_initial(model)
        species = gs_partition(model, "species")
        for op, v in ((gs_full_jacobian(model, u), gs_rhs(model, u)),
                      (species.operator_builders[0](u), species.f_parts[0](u))):
            state = _ArnoldiState(op, v, 10)
            state.extend(10)
            out += [tau * state.H[:10, :10] for tau in (TIMESPAN / 128, TIMESPAN / 16, TIMESPAN / 2)]
    return out


class TestReducedExponential:
    """The one matrix exponential, behind every undeclared reduced evaluation,
    against mpmath, from 1-norm 1e-8 through the squaring threshold 5.37 to 1e3."""

    NORMS = (1e-8, 1e-4, 0.1, 1.0, 2.1, 5.37, 5.38, 30.0, 1e2, 1e3)

    def matrices(self):
        rng = np.random.default_rng(17)
        shapes = (stable_hessenberg(rng, 8), stable_tridiagonal(rng, 8))
        scaled = [shape * (target / norm1(shape)) for shape in shapes for target in self.NORMS]
        return scaled + gray_scott_reduced_matrices()

    def test_covers_the_whole_norm_range(self):
        gray_scott = [norm1(a) for a in gray_scott_reduced_matrices()]
        assert min(gray_scott) < 0.1 and 5.38 < max(gray_scott) and max(gray_scott) > 300

    def test_exponential_against_mpmath(self):
        for a in self.matrices():
            want = mp_expm(a)
            err = norm1(expm(a) - want) / norm1(want)
            assert err <= pade13_tolerance(a), (norm1(a), err)

    def test_phi_columns_against_mpmath(self):
        for a in self.matrices():
            n = a.shape[0]
            want = mp_expm(_augmented(3, a, np.eye(1, n)[0]))[:n, n:]
            err = norm1(phi_cols_e1(3, a) - want) / norm1(want)
            assert err <= pade13_tolerance(_augmented(3, a, np.eye(1, n)[0])), (norm1(a), err)

    def test_non_finite_norm_raises(self):
        # an overflowed tau H: no number of squarings brings it into range
        for a in (np.array([[np.inf, 0.0], [1.0, 1.0]]), np.array([[np.nan]])):
            with pytest.raises(PhiEvaluationError, match="overflowed"):
                phi_cols_e1(2, a)
        # finite entries whose column sum overflows: the same error, no warning
        with pytest.raises(PhiEvaluationError, match="overflowed"):
            phi_cols_e1(2, np.full((3, 3), 1e308))


    @pytest.mark.parametrize("z", [720.0, 800.0, 1e5], ids=["e720", "e800", "e1e5"])
    def test_overflowing_exponential_raises_without_warning(self, z):
        # a finite argument whose phi values overflow in the squaring phase:
        # the finiteness check names it, and no warning escapes
        with pytest.raises(PhiEvaluationError, match="overflowed"):
            phi_cols_e1(2, np.array([[z, 1.0], [0.0, -1.0]]))

class TestPhiArray:
    def test_against_exact_oracle(self):
        zs = np.array([-5e4, -8600.0, -300.0, -35.0, -5.0, -1.0, -0.51, -0.49,
                       -1e-8, 0.0, 0.3, 0.49, 0.51, 2.0, 30.0, 300.0])
        vals = phi_array(4, zs)
        with mp.workdps(60):
            for i, z in enumerate(zs):
                zm = mp.mpf(z)
                partial = mp.mpf(1)
                term = mp.mpf(1)
                for k in range(1, 5):
                    if z == 0.0:
                        ref = 1.0 / math.factorial(k)
                    else:
                        # residual form is exact at high precision
                        ref = float((mp.exp(zm) - partial) / zm**k)
                    assert vals[i, k - 1] == pytest.approx(ref, rel=5e-14), (z, k)
                    term *= zm / k
                    partial += term

    def test_matches_phi_scalar(self):
        zs = np.linspace(-40.0, 3.0, 57)
        vals = phi_array(6, zs)
        for i, z in enumerate(zs):
            for k in range(1, 7):
                assert vals[i, k - 1] == pytest.approx(phi_scalar(k, z), rel=1e-12)

    def test_sweep_against_phi_scalar(self):
        # a log grid over the whole range and a fine grid over the switch
        # region, both signs, plus each switch point |z| = 1 + k, the old
        # single switch point 0.5 and their float neighbours.  The residual
        # form cancels most just above its switch point (with one switch at
        # 0.5 it was off by 1.05e-14 at k = 3 and 3.9e-9 at k = 8)
        switches = [1.0 + k for k in range(1, 9)] + [0.5]
        near = [np.nextafter(s, d) for s in switches for d in (0.0, 100.0)]
        mags = np.concatenate([np.geomspace(1e-8, 700.0, 400), np.linspace(0.3, 10.0, 400), switches, near])
        zs = np.concatenate([mags, -mags])
        vals = phi_array(8, zs)
        for k in range(1, 9):
            for i, z in enumerate(zs):
                exact = phi_scalar(k, float(z))
                assert abs(vals[i, k - 1] - exact) <= 2e-15 * abs(exact), (k, z)


class TestPhiDenseMatrices:
    def test_against_series(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, size=(4, 4))
        mats = phi_dense_matrices(4, a)
        for k in range(1, 5):
            assert np.max(np.abs(mats[k - 1] - phi_series_matrix(k, a, terms=41))) <= 1e-13

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="need p >= 1, got 0"):
            phi_dense_matrices(0, np.eye(2))

    def test_rejects_a_nonsquare_or_non_finite_matrix(self):
        with pytest.raises(ValueError, match="square"):
            phi_dense_matrices(1, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="non-finite entries"):
            phi_dense_matrices(1, np.array([[0.0, np.nan], [0.0, 0.0]]))

    def test_consistent_with_e1_columns(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, size=(5, 5))
        cols = phi_dense_times_vector(3, a, e1(5))
        mats = phi_dense_matrices(3, a)
        for k in range(3):
            assert np.allclose(cols[k], mats[k][:, 0], atol=1e-13)
