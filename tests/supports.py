"""Test helpers: split-problem parts placed back at their supports' positions
in the full state, which is how the species and space parts were stored
before they ran in their own variables."""

import numpy as np
import scipy.sparse

from pexprk.operators import SparseOperator
from pexprk.steppers import SplitProblem


def support_size(dim, support):
    return np.arange(dim)[support].size


def embed(dim, support, x):
    """A vector of the full state: x at the support, zero elsewhere."""
    out = np.zeros(dim)
    out[support] = x
    return out


def embedded_matrix(dim, support, op):
    """A part operator's matrix at its support's rows and columns (CSR)."""
    variables = np.arange(dim)[support]
    coo = op.matrix.tocoo()
    return scipy.sparse.csr_matrix((coo.data, (variables[coo.row], variables[coo.col])), shape=(dim, dim))


def embedded_problem(prob):
    """The same split with every part on the whole state: right-hand sides
    zero off their supports and operators embedded with their declarations."""

    def f_part(f, support):
        return lambda u: embed(prob.dim, support, f(u))

    def builder(build, support):
        def embedded(u):
            op = build(u)
            return SparseOperator(embedded_matrix(prob.dim, support, op), op.symmetric)

        return embedded

    return SplitProblem(
        prob.dim,
        tuple(map(f_part, prob.f_parts, prob.supports)),
        tuple(map(builder, prob.operator_builders, prob.supports)),
    )
