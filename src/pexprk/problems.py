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

The full Jacobian's sparsity pattern and diffusion values are built once
per model.  The full Jacobian, the species and space parts and their block
Jacobian each hold some of its entries, and ``_assemble`` builds them all:
it copies the operator's cached diffusion values and adds
``_reaction_values`` at the reaction entries among them.  Each species or
space part owns a support, the state indices of its variables: its
right-hand side returns only those rows, and its operator is the full
Jacobian's principal sub-block on them, so its Krylov solves run in the
part's own variables.  The physics and imex parts cover the whole state
(support ``slice(None)``); the physics reaction operator, which leaves the
diffusion out, has a pattern of its own.  Operators that are symmetric by
construction are declared so: the species sub-blocks (a Laplacian plus a
diagonal), the diffusion and sums of such operators.  The space sub-blocks,
the reaction operator and the full Jacobian carry the cross-species entries
-2ab and b^2 and are not.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse

from .operators import SparseOperator, ZeroOperator, laplacian_2d_periodic
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


def _equation_a(m: GrayScottModel, diffusion, a, b):
    """a_t at cells with values a, b, given the diffusion term there."""
    return diffusion - a * b * b + m.feed * (1.0 - a)


def _equation_b(m: GrayScottModel, diffusion, a, b):
    """b_t at cells with values a, b, given the diffusion term there."""
    return diffusion + a * b * b - (m.feed + m.kill) * b


_EQUATIONS = (_equation_a, _equation_b)


def gs_rhs(m: GrayScottModel, u: np.ndarray) -> np.ndarray:
    a, b = _split_state(m, u)
    return np.concatenate([
        _equation_a(m, _laplacian_csr(m, m.d_a) @ a, a, b),
        _equation_b(m, _laplacian_csr(m, m.d_b) @ b, a, b),
    ])


def _reaction_values(m: GrayScottModel, u: np.ndarray) -> np.ndarray:
    """The reaction Jacobian's entries [[-b^2 - f, -2ab], [b^2, 2ab - (f + k)]]
    as four blocks over the cells, row by row; cell i's lie in rows and
    columns i and cells + i.  The only place that writes them."""
    a, b = _split_state(m, u)
    b2 = b * b
    ab = a * b
    return np.concatenate([-b2 - m.feed, -2.0 * ab, b2, 2.0 * ab - (m.feed + m.kill)])


@lru_cache(maxsize=16)
def _diffusion_csr(m: GrayScottModel):
    """The block-diagonal diffusion matrix, which no state changes."""
    diffusion = scipy.sparse.block_diag(
        [_laplacian_csr(m, m.d_a), _laplacian_csr(m, m.d_b)], format="csr"
    )
    for array in (diffusion.data, diffusion.indices, diffusion.indptr):
        array.flags.writeable = False  # the cache hands these arrays to every caller
    return diffusion


def _csr(data, indices, indptr):
    size = indptr.size - 1
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(size, size))


@lru_cache(maxsize=16)
def _jacobian_structure(m: GrayScottModel) -> tuple:
    """The full Jacobian's entries (see ``_assemble``), which no state
    changes: the diffusion values on its sparsity pattern (stencil plus
    reaction entries, 0 at reaction-only ones), its CSR indices and indptr,
    and the slot of each _reaction_values entry."""
    dim, cells = m.dim, m.cells
    diffusion = _diffusion_csr(m).tocoo()
    a = np.arange(cells, dtype=np.int64)
    b = a + cells
    # flat keys row * dim + col: int64, as dim**2 overflows int32 from grid side 153
    diffusion_keys = diffusion.row.astype(np.int64) * dim + diffusion.col
    reaction_keys = np.concatenate([a, a, b, b]) * dim + np.concatenate([a, b, a, b])
    keys = np.sort(np.concatenate([diffusion_keys, reaction_keys]))
    # distinct keys by sort: numpy 2.4's hash-based np.union1d took 30x longer at grid 160
    keys = keys[np.diff(keys, prepend=-1) != 0]
    values = np.zeros(keys.size)
    values[np.searchsorted(keys, diffusion_keys)] = diffusion.data
    indptr = np.searchsorted(keys, np.arange(dim + 1, dtype=np.int64) * dim)
    slots = np.searchsorted(keys, reaction_keys)
    structure = (values, (keys % dim).astype(np.int32), indptr.astype(np.int32), slots)
    for array in structure:
        array.flags.writeable = False  # the cache hands these arrays to every caller
    return (*structure, slice(None))  # every reaction value lies on the pattern


def _assemble(m: GrayScottModel, entries: tuple, u: np.ndarray):
    """The CSR matrix of an operator whose entries lie on the full Jacobian's
    pattern and carry its values there.  ``entries`` holds the diffusion
    values at those positions, the CSR indices and indptr, and the reaction
    entries among them: their slots in the operator's data and their indices
    in ``_reaction_values``."""
    diffusion, indices, indptr, slots, reaction = entries
    data = diffusion.copy()
    data[slots] += _reaction_values(m, u)[reaction]
    return _csr(data, indices, indptr)


def gs_full_jacobian(m: GrayScottModel, u: np.ndarray) -> SparseOperator:
    return SparseOperator(_assemble(m, _jacobian_structure(m), u))


def _reaction_csr(m: GrayScottModel, u: np.ndarray):
    """The reaction Jacobian alone: in each row, the columns of the cell's a and b."""
    cell = np.arange(m.cells, dtype=np.int32)
    indices = np.tile(np.column_stack([cell, cell + m.cells]).ravel(), 2)
    indptr = np.arange(0, 2 * m.dim + 1, 2, dtype=np.int32)
    # row by row: the a-equation's d/da and d/db of each cell, then the b-equation's
    data = _reaction_values(m, u).reshape(2, 2, m.cells).transpose(0, 2, 1).ravel()
    return _csr(data, indices, indptr)


def _subblock_supports(m: GrayScottModel, name: str) -> tuple:
    """The state indices each part of the species or space split owns, in
    ascending order: the two halves of the species-major state as slices, or
    of ``gs_space_permutation`` as index arrays."""
    if name == "species":
        return (slice(0, m.cells), slice(m.cells, m.dim))
    return tuple(np.split(gs_space_permutation(m), 2))


def _gathered_entries(m: GrayScottModel, take, indices, indptr) -> tuple:
    """The entries (see ``_assemble``) of the operator made of the full
    Jacobian's entries at positions ``take``, with CSR indices and indptr."""
    diffusion, _, _, slots, _ = _jacobian_structure(m)
    local = np.full(diffusion.size, -1)  # each position's slot in the operator's data
    local[take] = np.arange(take.size)
    reaction = np.flatnonzero(local[slots] >= 0)
    entries = (diffusion[take], indices, indptr.astype(np.int32), local[slots[reaction]], reaction)
    for array in entries:
        array.flags.writeable = False  # the cache hands these arrays to every caller
    return entries


@lru_cache(maxsize=16)
def _subblock_entries(m: GrayScottModel, name: str) -> tuple:
    """The entries (see ``_assemble``) of the species or space split's two
    parts, the full Jacobian's principal sub-blocks on their supports in each
    part's own numbering, and of the block Jacobian, their union on the full
    state."""
    _, indices, indptr, _, _ = _jacobian_structure(m)
    rows = np.repeat(np.arange(m.dim), np.diff(indptr))
    parts, takes = [], []
    for support in _subblock_supports(m, name):
        local = np.full(m.dim, -1, dtype=np.int32)  # the support's own numbering
        local[support] = np.arange(local[support].size, dtype=np.int32)
        inside = local >= 0
        take = np.flatnonzero(inside[rows] & inside[indices])
        # the support is ascending, so the rows stay in CSR order
        starts = np.append(np.searchsorted(take, indptr[:-1][support]), take.size)
        parts.append(_gathered_entries(m, take, local[indices[take]], starts))
        takes.append(take)
    take = np.sort(np.concatenate(takes))
    return (*parts, _gathered_entries(m, take, indices[take], np.searchsorted(take, indptr)))


@lru_cache(maxsize=16)
def _subblock_rows(m: GrayScottModel, name: str) -> tuple:
    """Per part and species s it holds (0 for a, 1 for b): s, the part's cells
    of that species as a slice, and the species' diffusion stencil on those
    rows.  Both splits hold a contiguous range of cells of each species, so
    every gather is a view."""
    parts = []
    for support in _subblock_supports(m, name):
        variables = np.arange(m.dim)[support]
        rows = []
        for s, d in enumerate((m.d_a, m.d_b)):
            cells = variables[(variables >= s * m.cells) & (variables < (s + 1) * m.cells)] - s * m.cells
            if cells.size == 0:
                continue
            start, stop = int(cells[0]), int(cells[-1]) + 1
            if stop - start != cells.size:
                raise ValueError(f"{name} split: part cells are not contiguous")
            rows.append((s, slice(start, stop), _laplacian_csr(m, d)[start:stop]))
        parts.append(tuple(rows))
    return tuple(parts)


def _subblock_split(m: GrayScottModel, name: str) -> SplitProblem:
    """One part per support: the right-hand side's rows on the support, with
    ``gs_rhs``'s arithmetic, and the full Jacobian's principal sub-block on
    it, both in the support's own variables.  Each part assembles only its
    own sub-block's entries."""
    symmetric = name == "species"  # one species' stencil plus a diagonal

    def part(p):
        def f(u):
            state = a, b = _split_state(m, u)
            rows = [
                _EQUATIONS[s](m, stencil @ state[s], a[cells], b[cells])
                for s, cells, stencil in _subblock_rows(m, name)[p]
            ]
            return rows[0] if len(rows) == 1 else np.concatenate(rows)

        def build(u):
            return SparseOperator(_assemble(m, _subblock_entries(m, name)[p], u), symmetric)

        return f, build

    f_parts, builders = zip(*(part(p) for p in range(2)))
    return SplitProblem(m.dim, f_parts, builders, name=name, supports=_subblock_supports(m, name))


def gs_partition_species(m: GrayScottModel) -> SplitProblem:
    """Two-way split by chemical species: the a-variables, then the b-variables."""
    return _subblock_split(m, "species")


def gs_space_permutation(m: GrayScottModel) -> np.ndarray:
    """Order variables by spatial subdomain (lower grid rows first), then species."""
    if m.n % 2 != 0:
        raise ValueError("spatial partitioning needs an even grid side")
    n, cells = m.n, m.cells
    lower = np.arange(cells).reshape(n, n)[: n // 2].ravel()
    upper = np.arange(cells).reshape(n, n)[n // 2:].ravel()
    return np.concatenate([lower, cells + lower, upper, cells + upper])


def gs_partition_space(m: GrayScottModel) -> SplitProblem:
    """Two-way split by spatial location: both species of the lower half of the
    grid, then of the upper half."""
    return _subblock_split(m, "space")  # its supports reject an odd grid side


def gs_partition_physics(m: GrayScottModel) -> SplitProblem:
    """Two-way split by physical process: diffusion and reaction."""

    def f_diffusion(u):
        return _diffusion_csr(m) @ u

    def f_reaction(u):
        a, b = _split_state(m, u)
        return np.concatenate([_equation_a(m, 0.0, a, b), _equation_b(m, 0.0, a, b)])

    def build_diffusion(u):
        # a fresh operator around the cached matrix: each step's tally starts at 0
        return SparseOperator(_diffusion_csr(m), symmetric=True)

    def build_reaction(u):
        return SparseOperator(_reaction_csr(m, u))

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
    drops the couplings the partition drops).  The species and space blocks
    are assembled from the union of their parts' entries; the physics and
    imex operators, which cover the whole state, are added.
    """
    if jacobian == "full":
        builder = lambda u: gs_full_jacobian(m, u)  # noqa: E731
    elif jacobian == "block" and partition in ("species", "space"):
        _subblock_supports(m, partition)  # rejects an odd grid side now, not at the first step

        def builder(u):
            return SparseOperator(_assemble(m, _subblock_entries(m, partition)[2], u), partition == "species")

    elif jacobian == "block":
        if partition is None:
            raise ValueError("the block Jacobian needs a partition to take blocks from")
        split = gs_partition(m, partition)

        def builder(u):
            ops = [op for op in (build(u) for build in split.operator_builders) if op.kind != "zero"]
            matrices = [op.matrix for op in ops]
            # entrywise sums of exactly symmetric matrices are exactly symmetric
            symmetric = all(op.symmetric for op in ops)
            return SparseOperator(sum(matrices[1:], matrices[0]), symmetric)

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

    def jacobian(self, u) -> SparseOperator:
        return SparseOperator(self.matrix + self.eps * np.diag(np.cos(u)))

    def problem(self) -> SplitProblem:
        return unpartitioned_problem(self.dim, self.f, self.jacobian, name="semilinear")

    def split_linear_nonlinear(self) -> SplitProblem:
        """Two-way split: the linear term and the smooth remainder."""
        return SplitProblem(
            self.dim,
            (lambda u: self.matrix @ u, self.g),
            (
                lambda u: SparseOperator(self.matrix),
                lambda u: SparseOperator(scipy.sparse.diags(self.eps * np.cos(u)), symmetric=True),
            ),
            name="semilinear-split",
        )

    def split_all_explicit(self) -> SplitProblem:
        """Two-way split with both operators zero (fully explicit treatment)."""
        base = self.split_linear_nonlinear()
        zero = lambda u: ZeroOperator(self.dim)  # noqa: E731
        return SplitProblem(self.dim, base.f_parts, (zero, zero), name="semilinear-explicit")

    def reference(self, t: float) -> np.ndarray:
        import scipy.integrate  # here, not at module level: only this test oracle integrates

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
