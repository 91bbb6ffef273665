import numpy as np
import pytest
import scipy.sparse

from pexprk.operators import LinearOperator, OperatorContractError


def sample_operators(rng):
    a = rng.uniform(-1, 1, size=(4, 4))
    return [
        LinearOperator(a),
        LinearOperator(scipy.sparse.diags(rng.uniform(-2, 2, size=4)), symmetric=True),
        LinearOperator(np.zeros((4, 4))),
    ]


class TestApplyContract:
    def test_zero_operator(self):
        v = np.arange(3.0)
        assert np.array_equal(LinearOperator(np.zeros((3, 3))).apply(v), np.zeros(3))

    def test_diagonal(self):
        d = np.array([1.0, -2.0, 0.5])
        v = np.array([3.0, 4.0, 5.0])
        assert np.allclose(LinearOperator(scipy.sparse.diags(d), symmetric=True).apply(v), d * v)

    @pytest.mark.parametrize(
        "matrix, zero",
        [
            (np.zeros((3, 3)), True),
            (scipy.sparse.csr_matrix((3, 3)), True),
            (np.eye(3), False),
            # stored entries count, whatever their values
            (scipy.sparse.csr_matrix((np.zeros(3), np.arange(3), np.arange(4)), shape=(3, 3)), False),
        ],
        ids=["dense-zeros", "csr-no-entries", "identity", "csr-stored-zeros"],
    )
    def test_zero_when_no_entries_are_stored(self, matrix, zero):
        assert LinearOperator(matrix).zero is zero

    def test_rejects_a_non_square_matrix(self):
        with pytest.raises(OperatorContractError, match="square"):
            LinearOperator(np.zeros((2, 3)))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(OperatorContractError):
            LinearOperator(np.eye(3)).apply(np.zeros(4))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for op in sample_operators(rng):
            u = rng.uniform(-1, 1, size=op.dim)
            v = rng.uniform(-1, 1, size=op.dim)
            alpha, beta = 0.37, -1.21
            lhs = op.apply(alpha * u + beta * v)
            rhs = alpha * op.apply(u) + beta * op.apply(v)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))
