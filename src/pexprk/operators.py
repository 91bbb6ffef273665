"""Linear operators.

The linear part of each piece of a split right-hand side is one type,
``LinearOperator``: a square compressed-row matrix, such as the diffusion
matrix and the partition operators of the benchmark.  There are no
composites: a sum of operators is assembled as one sparse matrix.  A matrix
with no entries is the zero operator of an explicitly treated partition;
its ``zero`` flag, set at construction, lets the Krylov engine take
phi_k(0) v = v / k! and the steppers skip its matvecs.  Operators are
immutable: the code that applies one counts its matvecs.  An operator may
be declared ``symmetric`` where it is built; the Krylov engine then runs
the Lanczos recurrence on it, and only then.  The declaration is trusted,
not checked.
"""

import numpy as np
import scipy.sparse


class OperatorContractError(ValueError):
    """A dimension mismatch or invalid construction argument."""


class LinearOperator:
    """A square CSR matrix; O(nnz) apply.  ``symmetric=True`` declares the
    matrix equal to its transpose (the caller's guarantee); ``zero`` holds
    when the matrix stores no entries."""

    def __init__(self, matrix, symmetric: bool = False):
        matrix = scipy.sparse.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise OperatorContractError(f"operator needs a square matrix, got {matrix.shape}")
        self.matrix = matrix
        self.dim = matrix.shape[0]
        self.symmetric = symmetric
        self.zero = matrix.nnz == 0

    def apply(self, v: np.ndarray) -> np.ndarray:
        """L v as a fresh array, which the caller may overwrite: the Krylov
        engine orthogonalizes it in place."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise OperatorContractError(f"operator of dim {self.dim} applied to vector of shape {v.shape}")
        return self.matrix @ v

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense matrix (tests and small diagnostics only)."""
        return self.matrix.toarray()
