"""Partitioned exponential Runge-Kutta integrators.

Matrix-free stiff time integration built on an adaptive Krylov engine for
phi-function products, with methods of orders 2 to 4 in original,
transformed, and partitioned forms, a reaction-diffusion benchmark with four
splittings, and a convergence-study harness exposed through the ``pexprk``
command-line tool.
"""

from .coeffexpr import Const, Phi, Prod, Scale, Sum, ZMul, eval_coeff, eval_dense, eval_scalar
from .krylov import EvalContext, KrylovConfig, KrylovResult, default_check_schedule, phi_times_vector
from .operators import LinearOperator, SparseOperator, ZeroOperator, laplacian_2d_periodic
from .phi import expm_dense, phi_dense_matrices, phi_dense_times_vector, phi_scalar
from .problems import (
    DESK_GRID,
    PAPER_SCALE_GRID,
    TIMESPAN,
    GrayScottModel,
    gs_default,
    gs_initial,
    gs_partition,
    gs_rhs,
    gs_unpartitioned,
    oracle_semilinear,
)
from .steppers import (
    IntegrationFailure,
    SplitProblem,
    StepFailure,
    integrate_fixed,
    original_stepper,
    pexprk_stepper,
    stability_matrix_spectral_radius,
    step_exprk_original,
    step_pexprk,
    step_pexprk2_residual,
    unpartitioned_problem,
)
from .tableaux import (
    ExprkTableau,
    TransformedTableau,
    check_order_conditions,
    dump_tableau,
    tableau,
    tableau_order2,
    tableau_order3,
    tableau_order4,
    transform,
    transformed,
)
from .harness import (
    ConfigError,
    ConvergenceRow,
    NumericalFailure,
    RunConfig,
    emit_csv,
    estimate_order,
    parse_csv,
    reference_solution,
    run_convergence_study,
)

__version__ = "0.1.0"
