"""Matrix-free linear operators.

Carriers for the linear parts of split right-hand sides: zeros, and
compressed-row matrices (``SparseOperator``) for everything matrix-backed,
such as the diffusion matrix and the partition operators of the benchmark.
There are no composites: a sum of sparse operators is assembled as one
sparse matrix.  Operators are immutable: the code that applies one counts
its matvecs.  An operator may be declared ``symmetric`` where it is built;
the Krylov engine then runs the Lanczos recurrence on it, and only then.
The declaration is trusted, not checked.
"""

import numpy as np
import scipy.sparse


class OperatorContractError(ValueError):
    """A dimension mismatch or invalid construction argument."""


class LinearOperator:
    """Abstract matrix-free operator: a dimension plus apply-to-vector;
    ``symmetric`` declares that the matrix equals its transpose."""

    kind = "abstract"
    symmetric = False

    def __init__(self, dim: int):
        if dim < 0:
            raise OperatorContractError(f"operator dimension must be >= 0, got {dim}")
        self.dim = dim

    def apply(self, v: np.ndarray) -> np.ndarray:
        """L v as a fresh array, which the caller may overwrite: the Krylov
        engine orthogonalizes it in place."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise OperatorContractError(
                f"{self.kind} operator of dim {self.dim} applied to vector of shape {v.shape}"
            )
        return self._apply(v)

    def _apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense matrix (tests and small diagnostics only)."""
        out = np.empty((self.dim, self.dim))
        e = np.zeros(self.dim)
        for j in range(self.dim):
            e[j] = 1.0
            out[:, j] = self.apply(e)
            e[j] = 0.0
        return out


class SparseOperator(LinearOperator):
    """Compressed-sparse-row operator; O(nnz) apply.  ``symmetric=True``
    declares the matrix equal to its transpose (the caller's guarantee)."""

    kind = "sparse"

    def __init__(self, matrix, symmetric: bool = False):
        matrix = scipy.sparse.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise OperatorContractError(f"sparse operator needs a square matrix, got {matrix.shape}")
        super().__init__(matrix.shape[0])
        self.matrix = matrix
        self.symmetric = symmetric

    def _apply(self, v):
        return self.matrix @ v


class ZeroOperator(LinearOperator):
    kind = "zero"

    def _apply(self, v):
        return np.zeros_like(v)
