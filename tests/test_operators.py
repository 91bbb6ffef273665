import numpy as np
import pytest
import scipy.sparse

from pexprk.operators import OperatorContractError, SparseOperator, ZeroOperator, laplacian_2d_periodic


def dense_laplacian_reference(n, d):
    """Independent oracle: assemble the periodic 5-point stencil entry by entry."""
    big = np.zeros((n * n, n * n))
    for iy in range(n):
        for ix in range(n):
            row = iy * n + ix
            big[row, row] = -4.0
            big[row, iy * n + (ix + 1) % n] += 1.0
            big[row, iy * n + (ix - 1) % n] += 1.0
            big[row, ((iy + 1) % n) * n + ix] += 1.0
            big[row, ((iy - 1) % n) * n + ix] += 1.0
    return big * d * n * n


def sample_operators(rng):
    a = rng.uniform(-1, 1, size=(4, 4))
    return [
        SparseOperator(a),
        SparseOperator(scipy.sparse.diags(rng.uniform(-2, 2, size=4)), symmetric=True),
        ZeroOperator(4),
    ]


class TestApplyContract:
    def test_zero_operator(self):
        v = np.arange(3.0)
        assert np.array_equal(ZeroOperator(3).apply(v), np.zeros(3))

    def test_diagonal(self):
        d = np.array([1.0, -2.0, 0.5])
        v = np.array([3.0, 4.0, 5.0])
        assert np.allclose(SparseOperator(scipy.sparse.diags(d), symmetric=True).apply(v), d * v)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(OperatorContractError):
            SparseOperator(np.eye(3)).apply(np.zeros(4))

    def test_linearity_all_kinds(self):
        rng = np.random.default_rng(3)
        for op in sample_operators(rng):
            u = rng.uniform(-1, 1, size=op.dim)
            v = rng.uniform(-1, 1, size=op.dim)
            alpha, beta = 0.37, -1.21
            lhs = op.apply(alpha * u + beta * v)
            rhs = alpha * op.apply(u) + beta * op.apply(v)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_matvec_counter_is_exact(self):
        op = SparseOperator(np.eye(2))
        assert op.matvecs == 0
        op.apply(np.zeros(2))
        assert op.matvecs == 1
        op.apply(np.zeros(2))
        assert op.matvecs == 2


class TestLaplacian:
    def test_constant_vector_maps_to_zero(self):
        op = laplacian_2d_periodic(5, 2.0)
        out = op.apply(np.full(25, 3.7))
        assert np.max(np.abs(out)) <= 1e-10

    def test_stencil_on_unit_vector(self):
        n = 4
        op = laplacian_2d_periodic(n, 1.0)
        e0 = np.zeros(n * n)
        e0[0] = 1.0
        out = op.apply(e0)
        scale = n * n  # 1/dx^2
        assert out[0] == pytest.approx(-4.0 * scale)
        for neighbor in [1, 3, 4, 12]:  # +x, -x (wrap), +y, -y (wrap)
            assert out[neighbor] == pytest.approx(1.0 * scale)
        assert np.count_nonzero(out) == 5

    def test_matches_entrywise_reference(self):
        n, d = 5, 1.3
        got = laplacian_2d_periodic(n, d).to_dense()
        assert np.max(np.abs(got - dense_laplacian_reference(n, d))) <= 1e-10

    def test_fourier_eigenvector(self):
        n, d = 8, 2.0
        op = laplacian_2d_periodic(n, d)
        ix = np.tile(np.arange(n), n)  # varies along x within each row
        v = np.cos(2 * np.pi * ix / n)
        lam = d * (2 * np.cos(2 * np.pi / n) - 2.0) * n * n
        assert np.max(np.abs(op.apply(v) - lam * v)) <= 1e-9 * abs(lam)

    def test_small_grid_rejected(self):
        with pytest.raises(OperatorContractError):
            laplacian_2d_periodic(2, 1.0)
