"""Dense evaluation of the exponential integrator phi functions.

phi_0(z) = exp(z) and, for k >= 1,

    phi_k(z) = sum_{i>=0} z^i / (k + i)!,
    phi_{k+1}(z) = (phi_k(z) - 1/k!) / z,      phi_k(0) = 1/k!.

Everything above (Krylov engine, coefficient evaluation, order-condition
checks) is validated against this layer, so it favours accuracy over speed.
Small dense arguments only; large operators go through the Krylov engine.
phi_k(A) v, k = 1..p, comes from one augmented exponential (``_augmented``):
validated in ``phi_dense_times_vector``, lean for v = e_1 in ``phi_cols_e1``.
"""

import decimal
import math

import numpy as np

MAX_PHI_INDEX = 8

# Below this magnitude the truncated float series is within two ulps; above
# it the residual form, evaluated in decimal arithmetic with enough digits to
# absorb its cancellation, is correctly rounded.
_SERIES_CUTOFF = 0.5
_SERIES_TERMS = 25
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


def phi_scalar(k: int, z: float) -> float:
    """Evaluate phi_k(z) for a real scalar z: correctly rounded for |z| >= 0.5,
    within two ulps below."""
    if not isinstance(k, (int, np.integer)) or k < 0 or k > MAX_PHI_INDEX:
        raise ValueError(f"phi index must be an integer in [0, {MAX_PHI_INDEX}], got {k}")
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"phi argument must be finite, got {z}")
    if k == 0:
        try:
            return math.exp(z)
        except OverflowError:
            raise PhiEvaluationError(f"phi_0({z!r}) overflows") from None
    if abs(z) < _SERIES_CUTOFF:
        acc = 0.0
        for i in reversed(range(_SERIES_TERMS)):
            acc = acc * z + 1.0 / math.factorial(k + i)
        return acc
    # (e^z - sum_{j<k} z^j / j!) / z^k; Decimal(z) is exact, and 60 digits
    # leave over 50 after the worst cancellation (|z| = 0.5, k = 8)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = decimal.Decimal(z)
        partial = sum(x**j / math.factorial(j) for j in range(k))
        out = float((x.exp() - partial) / x**k)
    if not math.isfinite(out):
        raise PhiEvaluationError(f"phi_{k}({z!r}) overflows")
    return out


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


def phi_dense_times_vector(p: int, a: np.ndarray, v: np.ndarray) -> list[np.ndarray]:
    """Columns phi_k(A) v for k = 1..p via one validated augmented exponential."""
    a = _check_square(a)
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    n = a.shape[0]
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"vector length {v.shape} does not match matrix dimension {n}")
    e = expm_dense(_augmented(p, a, v))
    return [e[:n, n + j].copy() for j in range(p)]


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
    """Lean variant of phi_dense_times_vector for v = e_1: an (n, p) array of
    columns phi_k(A) e_1, k = 1..p; raises PhiEvaluationError on an argument
    of non-finite 1-norm or on overflow, and performs no other validation."""
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
