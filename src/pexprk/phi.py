"""Dense evaluation of the exponential integrator phi functions.

phi_0(z) = exp(z) and, for k >= 1,

    phi_k(z) = sum_{i>=0} z^i / (k + i)!,
    phi_{k+1}(z) = (phi_k(z) - 1/k!) / z,      phi_k(0) = 1/k!.

Small dense arguments only; large operators go through the Krylov engine,
whose reduced-space evaluations are ``phi_cols_e1`` (phi_k(A) e_1, k = 1..p,
from one augmented exponential, ``_augmented``) and ``phi_array`` (phi_k at
the entries of a vector).  ``phi_dense_matrices`` gives whole matrices
phi_k(A) for the order-condition checks.
"""

import math

import numpy as np

MAX_PHI_INDEX = 8
# the largest matrix side the dense diagnostics (the stability diagnostic,
# check-order) take: their exponentials cost O(n^2) memory and O(n^3) time,
# and check-order's phi_4 borders its matrix to 5n on a side
MAX_DENSE_DIM = 200

# phi_array sums the series for phi_k up to |z| = 1 + k, where 40 terms
# leave a truncation error far below rounding for every k <= MAX_PHI_INDEX.
# Column k - 1 of _SERIES_COEFFS holds 1 / (k + i)!, i = 0..39; of
# _PARTIAL_COEFFS, 1 / j! for j = 1..k - 1 (the residual's sum_{0<j<k} z^j/j!)
_ARRAY_SERIES_TERMS = 40
_SERIES_SWITCH = 1.0 + np.arange(1, MAX_PHI_INDEX + 1)
_INV_FACT = 1.0 / np.array([float(math.factorial(j)) for j in range(MAX_PHI_INDEX + _ARRAY_SERIES_TERMS)])
_SERIES_COEFFS = _INV_FACT[np.add.outer(np.arange(_ARRAY_SERIES_TERMS), np.arange(1, MAX_PHI_INDEX + 1))]
_PARTIAL_COEFFS = np.triu(np.tile(_INV_FACT[1:MAX_PHI_INDEX, None], MAX_PHI_INDEX), 1)


class PhiEvaluationError(ArithmeticError):
    """A matrix exponential overflowed or produced non-finite entries."""


def _check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def expm_dense(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a diagonal Pade approximant.

    Delegates to scipy.linalg.expm (degree-13 approximant with norm-based
    scaling); overflow or non-finite output is reported as an evaluation
    failure rather than returned.
    """
    import scipy.linalg  # here, not at module level: `pexprk run` never calls it (see _expm_pade13)

    a = _check_square(a)
    e = scipy.linalg.expm(a)
    if not np.all(np.isfinite(e)):
        raise PhiEvaluationError(
            f"matrix exponential produced non-finite entries (norm {np.linalg.norm(a, 1):.3g})"
        )
    return e


def _augmented(p: int, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The bordered matrix [[A, v e_1^T], [0, J_p]], J_p the p x p nilpotent
    upper shift: its exponential holds phi_1(A) v ... phi_p(A) v in the
    upper-right block."""
    n = a.shape[0]
    aug = np.zeros((n + p, n + p))
    aug[:n, :n] = a
    aug[:n, n] = v
    for i in range(p - 1):
        aug[n + i, n + i + 1] = 1.0
    return aug


# degree-13 diagonal Pade approximant with norm-based scaling; the hot
# reduced-space path.  It stays in numpy instead of calling scipy.linalg.expm:
# the numpy and scipy wheels each load their own OpenBLAS (scipy_openblas64
# 0.3.31 and scipy_openblas32 0.3.30), and on a 2-core Xeon with
# OPENBLAS_NUM_THREADS=2, routing the reduced exponential through scipy took
# the grid-160 benchmark reference from 4.4 to 22 s (at one thread, 3.5
# against 3.2 s).  scipy.linalg, and with it scipy's OpenBLAS, loads only when
# expm_dense is first called, which `pexprk run` never does.
def _expm_pade13(a):
    """Scaling-and-squaring exponential, lean path for the reduced-space
    evaluations inside the Krylov engine.  Its one validation: an argument
    whose 1-norm is not finite (overflowed or NaN) raises, since no scaling
    can bring it into range."""
    n = a.shape[0]
    # column sums accumulate row by row, in the order of a plain double loop
    with np.errstate(over="ignore"):  # an overflowing sum fails the check below
        norm1 = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm1):
        raise PhiEvaluationError(f"phi evaluation overflowed (argument norm {norm1:.3g})")
    squarings = 0
    if norm1 > 5.371920351148152:
        squarings = int(math.ceil(math.log2(norm1 / 5.371920351148152)))
        a = a * (0.5**squarings)
    eye = np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (1.0 * a6 + 16380.0 * a4 + 40840800.0 * a2)
        + 33522128640.0 * a6 + 10559470521600.0 * a4
        + 1187353796428800.0 * a2 + 32382376266240000.0 * eye
    )
    v = (
        a6 @ (182.0 * a6 + 960960.0 * a4 + 1323241920.0 * a2)
        + 670442572800.0 * a6 + 129060195264000.0 * a4
        + 7771770303897600.0 * a2 + 64764752532480000.0 * eye
    )
    r = np.linalg.solve(v - u, v + u)
    if squarings:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails phi_cols_e1's check instead
            for _ in range(squarings):
                r = r @ r
    return r


def phi_cols_e1(p: int, a: np.ndarray) -> np.ndarray:
    """An (n, p) array of columns phi_k(A) e_1, k = 1..p, from one augmented
    exponential; raises PhiEvaluationError on an argument of non-finite
    1-norm or on overflow, and performs no other validation."""
    n = a.shape[0]
    cols = _expm_pade13(_augmented(p, a, np.eye(1, n)[0]))[:n, n:]
    if not np.all(np.isfinite(cols)):
        raise PhiEvaluationError(
            f"phi evaluation overflowed (argument norm {np.linalg.norm(a, 1):.3g})"
        )
    return cols


def phi_array(p, z):
    """phi_k at every entry of a real vector z, k = 1..p, as a (len(z), p)
    array.  A series below |z| = 1 + k, where the exponential-residual form
    (e^z - sum_{j<k} z^j/j!) / z^k cancels; that form elsewhere.  Overflow
    gives non-finite entries, which callers check."""
    z = np.asarray(z, dtype=float)
    powers = np.empty((z.shape[0], _ARRAY_SERIES_TERMS - 1))
    powers[:] = z[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.multiply.accumulate(powers, axis=1, out=powers)   # z^1 .. z^39
        series = _SERIES_COEFFS[0, :p] + powers @ _SERIES_COEFFS[1:, :p]
        partial = 1.0 + powers[:, : p - 1] @ _PARTIAL_COEFFS[: p - 1, :p]
        residual = (np.exp(z)[:, None] - partial) / powers[:, :p]
    return np.where(np.abs(z)[:, None] < _SERIES_SWITCH[:p], series, residual)


def phi_dense_matrices(p: int, a: np.ndarray) -> list[np.ndarray]:
    """Full matrices [phi_1(A), ..., phi_p(A)] via a block-bordered exponential.

    Only for small arguments (order-condition checks, dense references);
    the bordered matrix has dimension (p + 1) * n.
    """
    a = _check_square(a)
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    n = a.shape[0]
    eye = np.eye(n)
    aug = np.zeros(((p + 1) * n, (p + 1) * n))
    aug[:n, :n] = a
    for i in range(p):
        aug[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = eye
    e = expm_dense(aug)
    return [e[:n, (j + 1) * n:(j + 2) * n].copy() for j in range(p)]
