"""Benchmark problems.

The main benchmark is a two-species reaction-diffusion system on the
periodic unit square,

    a_t = d_a lap(a) - a b^2 + f (1 - a)
    b_t = d_b lap(b) + a b^2 - (f + k) b

discretized with the five-point stencil; the state is species-major (all of
a-bar, then all of b-bar, each row-major over the grid).  Four splittings of
the right-hand side are provided: by chemical species, by spatial subdomain,
by physical process, and the process split with the reaction treated
explicitly.  A small dense semilinear problem with a smooth nonlinearity
serves as the test oracle throughout.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.integrate
import scipy.sparse

from .operators import DenseOperator, SparseOperator, SumOperator, ZeroOperator, laplacian_2d_periodic
from .steppers import SplitProblem, unpartitioned_problem

TIMESPAN = 0.262144          # benchmark integration window [0, T]
PAPER_SCALE_GRID = 300       # full-scale grid side
DESK_GRID = 64               # default grid side for desk-scale studies

PARTITION_NAMES = ("species", "space", "physics", "imex")


@dataclass(frozen=True)
class GrayScottModel:
    """Discrete two-species model on an n x n periodic grid.

    ``spacing`` is the mesh width used in the diffusion stencil scale
    d / spacing**2.  The benchmark configuration uses unit lattice spacing
    (the convergence ladder h = T * 2^-j then spans the clean asymptotic
    regime of every method, which is what the reference experiments show);
    pass spacing = 1/n for the unit-square convention, which makes the
    diffusion much stiffer and brings in the splitting-induced order
    reduction of the partitioned schemes.
    """

    n: int
    d_a: float = 2.0
    d_b: float = 1.0
    feed: float = 0.04
    kill: float = 0.06
    spacing: float = 1.0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"grid side must be >= 3, got {self.n}")
        if min(self.d_a, self.d_b, self.feed, self.kill, self.spacing) <= 0:
            raise ValueError("all model parameters must be positive")

    @property
    def cells(self) -> int:
        return self.n * self.n

    @property
    def dim(self) -> int:
        return 2 * self.n * self.n

    def stencil_scale(self, d: float) -> float:
        return d / (self.spacing * self.spacing)


def gs_default(n: int = DESK_GRID) -> GrayScottModel:
    """The benchmark parameter set f=0.04, k=0.06, d_a=2, d_b=1."""
    return GrayScottModel(n=n)


@lru_cache(maxsize=16)
def _unit_stencil_csr(n: int):
    # plain periodic five-point stencil (the operator builder's unit-square
    # scaling divided back out)
    return laplacian_2d_periodic(n, 1.0).matrix * (1.0 / (n * n))


@lru_cache(maxsize=64)
def _scaled_stencil_csr(n: int, scale: float):
    return _unit_stencil_csr(n) * scale


def _laplacian_csr(m: GrayScottModel, d: float):
    return _scaled_stencil_csr(m.n, m.stencil_scale(d))


def gs_initial(m: GrayScottModel) -> np.ndarray:
    """Initial fields sampled at cell centers x = (ix + 1/2)/n, y = (iy + 1/2)/n."""
    n = m.n
    centers = (np.arange(n) + 0.5) / n
    x = np.tile(centers, n)        # varies within each grid row
    y = np.repeat(centers, n)      # constant along each grid row
    base = 0.4 + 0.1 * (x + y)
    a = base + 0.1 * np.sin(10.0 * x) * np.sin(20.0 * y)
    b = base + 0.1 * np.cos(10.0 * x) * np.cos(20.0 * y)
    return np.concatenate([a, b])


def _split_state(m: GrayScottModel, u: np.ndarray):
    if u.shape != (m.dim,):
        raise ValueError(f"state of shape {u.shape} does not match model dim {m.dim}")
    return u[: m.cells], u[m.cells:]


def gs_rhs(m: GrayScottModel, u: np.ndarray) -> np.ndarray:
    a, b = _split_state(m, u)
    lap_a = _laplacian_csr(m, m.d_a)
    lap_b = _laplacian_csr(m, m.d_b)
    ab2 = a * b * b
    da = lap_a @ a - ab2 + m.feed * (1.0 - a)
    db = lap_b @ b + ab2 - (m.feed + m.kill) * b
    return np.concatenate([da, db])


def _species_block_a(m: GrayScottModel, b: np.ndarray):
    # d/da of the a-equation: d_a lap - diag(b^2) - f I
    return _laplacian_csr(m, m.d_a) - scipy.sparse.diags(b * b + m.feed)


def _species_block_b(m: GrayScottModel, a: np.ndarray, b: np.ndarray):
    # d/db of the b-equation: d_b lap + 2 diag(a b) - (f + k) I
    return _laplacian_csr(m, m.d_b) + scipy.sparse.diags(2.0 * a * b - (m.feed + m.kill))


def _reaction_jacobian_csr(m: GrayScottModel, u: np.ndarray):
    a, b = _split_state(m, u)
    b2 = b * b
    ab = a * b
    return scipy.sparse.bmat(
        [
            [scipy.sparse.diags(-b2 - m.feed), scipy.sparse.diags(-2.0 * ab)],
            [scipy.sparse.diags(b2), scipy.sparse.diags(2.0 * ab - (m.feed + m.kill))],
        ],
        format="csr",
    )


def _diffusion_csr(m: GrayScottModel):
    return scipy.sparse.block_diag(
        [_laplacian_csr(m, m.d_a), _laplacian_csr(m, m.d_b)], format="csr"
    )


def gs_full_jacobian(m: GrayScottModel, u: np.ndarray) -> SparseOperator:
    return SparseOperator(_diffusion_csr(m) + _reaction_jacobian_csr(m, u))


def gs_partition_species(m: GrayScottModel) -> SplitProblem:
    """Two-way split by chemical species; each operator is its species'
    diagonal block of the Jacobian, with the other block zero."""
    cells = m.cells
    zero = scipy.sparse.csr_matrix((cells, cells))

    def f1(u):
        a, b = _split_state(m, u)
        out = np.zeros_like(u)
        out[:cells] = _laplacian_csr(m, m.d_a) @ a - a * b * b + m.feed * (1.0 - a)
        return out

    def f2(u):
        a, b = _split_state(m, u)
        out = np.zeros_like(u)
        out[cells:] = _laplacian_csr(m, m.d_b) @ b + a * b * b - (m.feed + m.kill) * b
        return out

    def build_l1(u):
        _, b = _split_state(m, u)
        return SparseOperator(scipy.sparse.block_diag((_species_block_a(m, b), zero), format="csr"))

    def build_l2(u):
        a, b = _split_state(m, u)
        return SparseOperator(scipy.sparse.block_diag((zero, _species_block_b(m, a, b)), format="csr"))

    return SplitProblem(m.dim, (f1, f2), (build_l1, build_l2), name="species")


def gs_space_permutation(m: GrayScottModel) -> np.ndarray:
    """Order variables by spatial subdomain (lower grid rows first), then species."""
    if m.n % 2 != 0:
        raise ValueError("spatial partitioning needs an even grid side")
    n, cells = m.n, m.cells
    lower = np.arange(cells).reshape(n, n)[: n // 2].ravel()
    upper = np.arange(cells).reshape(n, n)[n // 2:].ravel()
    return np.concatenate([lower, cells + lower, upper, cells + upper])


def gs_partition_space(m: GrayScottModel) -> SplitProblem:
    """Two-way split by spatial location (lower half / upper half of the grid).

    Each operator is the full Jacobian's principal sub-block on the
    subdomain's variables, kept at their positions in the full state: the
    entries whose row and column both lie in the subdomain.  The masked
    diffusion part is state independent and built once; a step adds only the
    subdomain's reaction entries, which couple the two species of a cell.
    """
    halves = np.split(gs_space_permutation(m), 2)
    inside = [np.isin(np.arange(m.dim), half) for half in halves]
    diffusion = _diffusion_csr(m).tocoo()

    def restrict(mask):
        def f(u):
            return np.where(mask, gs_rhs(m, u), 0.0)

        return f

    def builder(mask, half):
        keep = mask[diffusion.row] & mask[diffusion.col]
        masked_diffusion = scipy.sparse.csr_matrix(
            (diffusion.data[keep], (diffusion.row[keep], diffusion.col[keep])), shape=diffusion.shape
        )
        cells_a = half[: half.size // 2]   # the subdomain's a-variables, then its b-variables
        cells_b = half[half.size // 2:]
        rows = np.concatenate([cells_a, cells_a, cells_b, cells_b])
        cols = np.concatenate([cells_a, cells_b, cells_a, cells_b])

        def build(u):
            a, b = _split_state(m, u)
            a, b = a[cells_a], b[cells_a]
            b2 = b * b
            ab = a * b
            data = np.concatenate([-b2 - m.feed, -2.0 * ab, b2, 2.0 * ab - (m.feed + m.kill)])
            reaction = scipy.sparse.csr_matrix((data, (rows, cols)), shape=diffusion.shape)
            return SparseOperator(masked_diffusion + reaction)

        return build

    return SplitProblem(
        m.dim,
        [restrict(mask) for mask in inside],
        [builder(mask, half) for mask, half in zip(inside, halves)],
        name="space",
    )


def gs_partition_physics(m: GrayScottModel) -> SplitProblem:
    """Two-way split by physical process: diffusion and reaction."""

    def f_diffusion(u):
        a, b = _split_state(m, u)
        return np.concatenate([_laplacian_csr(m, m.d_a) @ a, _laplacian_csr(m, m.d_b) @ b])

    def f_reaction(u):
        a, b = _split_state(m, u)
        ab2 = a * b * b
        return np.concatenate([-ab2 + m.feed * (1.0 - a), ab2 - (m.feed + m.kill) * b])

    def build_diffusion(u):
        return SparseOperator(_diffusion_csr(m))

    def build_reaction(u):
        return SparseOperator(_reaction_jacobian_csr(m, u))

    return SplitProblem(m.dim, (f_diffusion, f_reaction), (build_diffusion, build_reaction), name="physics")


def gs_partition_imex(m: GrayScottModel) -> SplitProblem:
    """Process split with the reaction partition treated explicitly (L2 = 0)."""
    physics = gs_partition_physics(m)

    def build_zero(u):
        return ZeroOperator(m.dim)

    return SplitProblem(
        m.dim, physics.f_parts, (physics.operator_builders[0], build_zero), name="imex"
    )


def gs_partition(m: GrayScottModel, name: str) -> SplitProblem:
    builders = {
        "species": gs_partition_species,
        "space": gs_partition_space,
        "physics": gs_partition_physics,
        "imex": gs_partition_imex,
    }
    if name not in builders:
        raise ValueError(f"unknown partition {name!r}; expected one of {PARTITION_NAMES}")
    return builders[name](m)


def gs_unpartitioned(m: GrayScottModel, jacobian: str = "full", partition: str | None = None) -> SplitProblem:
    """Single-partition problem for the unpartitioned forms.

    ``jacobian='full'`` freezes the exact Jacobian; ``jacobian='block'``
    freezes the sum of a partition's operators (the block approximation that
    drops the couplings the partition drops).
    """
    if jacobian == "full":
        builder = lambda u: gs_full_jacobian(m, u)  # noqa: E731
    elif jacobian == "block":
        if partition is None:
            raise ValueError("the block Jacobian needs a partition to take blocks from")
        split = gs_partition(m, partition)

        def builder(u):
            return SumOperator(*[build(u) for build in split.operator_builders])

    else:
        raise ValueError(f"unknown jacobian kind {jacobian!r}")
    return unpartitioned_problem(m.dim, lambda u: gs_rhs(m, u), builder, name=f"gray-scott-{jacobian}")


@dataclass
class SemilinearOracle:
    """Small dense semilinear test problem u' = L u + eps * sin(u).

    The linear part is a random dense matrix with spectrum shifted into the
    left half-plane; the reference solution comes from a high-order adaptive
    integration at tight tolerance, independent of the exponential steppers.
    """

    dim: int
    matrix: np.ndarray
    eps: float
    u0: np.ndarray

    def g(self, u):
        return self.eps * np.sin(u)

    def f(self, u):
        return self.matrix @ u + self.g(u)

    def jacobian(self, u) -> DenseOperator:
        return DenseOperator(self.matrix + self.eps * np.diag(np.cos(u)))

    def problem(self) -> SplitProblem:
        return unpartitioned_problem(self.dim, self.f, self.jacobian, name="semilinear")

    def split_linear_nonlinear(self) -> SplitProblem:
        """Two-way split: the linear term and the smooth remainder."""
        return SplitProblem(
            self.dim,
            (lambda u: self.matrix @ u, self.g),
            (
                lambda u: DenseOperator(self.matrix),
                lambda u: DenseOperator(self.eps * np.diag(np.cos(u))),
            ),
            name="semilinear-split",
        )

    def split_all_explicit(self) -> SplitProblem:
        """Two-way split with both operators zero (fully explicit treatment)."""
        base = self.split_linear_nonlinear()
        zero = lambda u: ZeroOperator(self.dim)  # noqa: E731
        return SplitProblem(self.dim, base.f_parts, (zero, zero), name="semilinear-explicit")

    def reference(self, t: float) -> np.ndarray:
        sol = scipy.integrate.solve_ivp(
            lambda _t, u: self.f(u),
            (0.0, t),
            self.u0,
            method="DOP853",
            rtol=1e-13,
            atol=1e-13,
            dense_output=False,
        )
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        return sol.y[:, -1]


def oracle_semilinear(dim: int, seed: int, eps: float = 0.1) -> SemilinearOracle:
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) / np.sqrt(dim)
    shift = np.max(np.real(np.linalg.eigvals(raw))) + 1.0
    matrix = raw - shift * np.eye(dim)
    u0 = rng.uniform(-1.0, 1.0, size=dim)
    return SemilinearOracle(dim=dim, matrix=matrix, eps=eps, u0=u0)
