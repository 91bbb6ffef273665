import numpy as np
import pytest
import scipy.sparse

from pexprk.operators import OperatorContractError, SparseOperator, ZeroOperator


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
