"""Benchmark problems.

The main benchmark is a two-species reaction-diffusion system on the
periodic unit square,

    a_t = d_a lap(a) - a b^2 + f (1 - a)
    b_t = d_b lap(b) + a b^2 - (f + k) b

discretized with the five-point stencil; the state is species-major (all of
a-bar, then all of b-bar, each row-major over the grid).  A small dense
semilinear problem with a smooth nonlinearity serves as the test oracle.

Every split of the right-hand side is a row of ``_SPLITS``: per part, its
support (the state indices it owns), the terms it carries (diffusion,
reaction or both) and whether its operator is implicit.  The splits are by
species, by space (both species of the lower, then the upper half of the
grid), by physical process, and imex, the process split with its reaction
part explicit; the unsplit system is the one-part case.  One routine builds
each object from the table.  ``_part_rhs`` gives a part's right-hand side
on its support, run by run: each run lies in one species and reads its rows
of the one diffusion matrix as a view.  ``_operator`` gives the operator of
any set of parts at a state (a matrix with no entries for an explicit
part), numbered over the union of their supports, from the full Jacobian's
cached structure (``_gathered``); ``_assemble`` fills in its reaction
values per state.  So each part's Krylov solves run in its own variables,
``gs_rhs`` and ``gs_full_jacobian`` are the unsplit case, and
``gs_unpartitioned`` freezes the union of a split's implicit parts: a
partition's block Jacobian, or the full Jacobian for the unsplit system.
Every builder is a
``functools.partial`` of a module function, so every Gray-Scott problem
pickles.  An operator is declared symmetric, and so runs Lanczos, unless it
holds a cross-species reaction entry (-2ab or b^2).
"""

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import scipy.sparse

from .operators import LinearOperator
from .steppers import SplitProblem

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
    return _part_rhs(m, None, 0, u)


# The reaction Jacobian [[-b^2 - f, -2ab], [b^2, 2ab - (f + k)]] as four
# blocks, row by row, each a function of the model and of a and b at its cells;
# cell i's entries lie in rows and columns i and cells + i.
_REACTION_BLOCKS = (
    lambda m, a, b: -(b * b) - m.feed,
    lambda m, a, b: -2.0 * (a * b),
    lambda m, a, b: b * b,
    lambda m, a, b: 2.0 * (a * b) - (m.feed + m.kill),
)


def _reaction_values(m: GrayScottModel, u: np.ndarray, cells: tuple) -> np.ndarray:
    """The reaction Jacobian's entries at state u, block by block, each block
    at its cells ``cells[block]`` only (a slice or an ascending index array).
    The only place that writes them."""
    a, b = _split_state(m, u)
    return np.concatenate([block(m, a[c], b[c]) for block, c in zip(_REACTION_BLOCKS, cells)])


def _read_only(*arrays) -> tuple:
    for array in arrays:
        array.flags.writeable = False  # the caches hand these arrays to every caller
    return arrays


@lru_cache(maxsize=16)
def _diffusion_csr(m: GrayScottModel):
    """The diffusion matrix, which no state changes: block-diagonal, each
    species' periodic five-point stencil, its integer entries (grid nodes
    row-major) scaled once by d / spacing**2, so each row sums to exactly 0."""
    n = m.n
    ring = scipy.sparse.diags([1.0, 1.0, -2.0, 1.0, 1.0], [1 - n, -1, 0, 1, n - 1], shape=(n, n))  # 1D, periodic
    eye = scipy.sparse.identity(n)
    stencil = scipy.sparse.kron(eye, ring) + scipy.sparse.kron(ring, eye)
    diffusion = scipy.sparse.block_diag(
        [stencil * m.stencil_scale(m.d_a), stencil * m.stencil_scale(m.d_b)], format="csr"
    )
    _read_only(diffusion.data, diffusion.indices, diffusion.indptr)
    return diffusion


@lru_cache(maxsize=16)
def _jacobian_structure(m: GrayScottModel) -> tuple:
    """The full Jacobian's entries (see ``_assemble``), which no state
    changes: the diffusion values on its sparsity pattern (stencil plus
    reaction entries, 0 at reaction-only ones), its CSR indices and indptr,
    and the slot of each reaction entry, block by block."""
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
    structure = _read_only(values, (keys % dim).astype(np.int32), indptr.astype(np.int32), slots)
    return (*structure, (slice(None),) * 4)  # every reaction entry lies on the pattern


def _assemble(m: GrayScottModel, entries: tuple, u: np.ndarray):
    """The CSR matrix of an operator whose entries lie on the full Jacobian's
    pattern.  ``entries`` holds the operator's diffusion values there (the
    full Jacobian's, or zeros), the CSR indices and indptr, and the reaction
    entries among them: their slots in the operator's data and, per block of
    ``_reaction_values``, their cells.  Only those entries are computed."""
    diffusion, indices, indptr, slots, cells = entries
    data = diffusion.copy()
    data[slots] += _reaction_values(m, u, cells)
    size = indptr.size - 1
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=(size, size))


def gs_full_jacobian(m: GrayScottModel, u: np.ndarray) -> LinearOperator:
    return _operator(m, None, (0,), u)


# Every split as data, per part: its support, the state indices it owns ("all",
# species "a" or "b", or the "lower" or "upper" half of the grid); the terms it
# carries; whether its operator is implicit (else zero).  None is the unsplit system.
_BOTH = ("diffusion", "reaction")
_SPLITS = {
    None: (("all", _BOTH, True),),
    "species": (("a", _BOTH, True), ("b", _BOTH, True)),
    "space": (("lower", _BOTH, True), ("upper", _BOTH, True)),
    "physics": (("all", ("diffusion",), True), ("all", ("reaction",), True)),
    "imex": (("all", ("diffusion",), True), ("all", ("reaction",), False)),
}


def gs_space_permutation(m: GrayScottModel) -> np.ndarray:
    """Order variables by spatial subdomain (lower grid rows first), then species."""
    if m.n % 2 != 0:
        raise ValueError("spatial partitioning needs an even grid side")
    n, cells = m.n, m.cells
    lower = np.arange(cells).reshape(n, n)[: n // 2].ravel()
    upper = np.arange(cells).reshape(n, n)[n // 2:].ravel()
    return np.concatenate([lower, cells + lower, upper, cells + upper])


@lru_cache(maxsize=16)
def _parts(m: GrayScottModel, name) -> tuple:
    """Split ``name``'s parts as (support, terms, implicit), each support a
    slice or an ascending index array."""
    supports = {"all": slice(None), "a": slice(0, m.cells), "b": slice(m.cells, m.dim)}
    if any(key == "lower" for key, _, _ in _SPLITS[name]):  # rejects an odd grid side
        supports["lower"], supports["upper"] = _read_only(*np.split(gs_space_permutation(m), 2))
    return tuple((supports[key], terms, implicit) for key, terms, implicit in _SPLITS[name])


@lru_cache(maxsize=64)
def _row_blocks(m: GrayScottModel, name, p: int) -> tuple:
    """Part p's variables in runs of consecutive state indices, each within
    one species.  Per run: the diffusion matrix's rows of it, as a view of
    that matrix's arrays, the species' equation and the run's cells, as a
    slice."""
    support, _, _ = _parts(m, name)[p]
    variables = np.arange(m.dim)[support]
    breaks = np.flatnonzero((np.diff(variables) != 1) | (variables[1:] == m.cells)) + 1
    matrix, blocks = _diffusion_csr(m), []
    for run in np.split(variables, breaks):
        start, stop = int(run[0]), int(run[-1]) + 1
        first, last = matrix.indptr[start], matrix.indptr[stop]
        data, indices, indptr = matrix.data[first:last], matrix.indices[first:last], matrix.indptr[start:stop + 1]
        indptr = indptr - first if first else indptr
        rows = scipy.sparse.csr_matrix((data, indices, indptr), shape=(stop - start, m.dim))
        rows.data, rows.indices = data, indices  # scipy copies a view of less than half its base
        s = start // m.cells
        blocks.append((rows, _EQUATIONS[s], slice(start - s * m.cells, stop - s * m.cells)))
    return tuple(blocks)


def _part_rhs(m: GrayScottModel, name, p: int, u: np.ndarray) -> np.ndarray:
    """Part p of split ``name``: the terms it carries, on its support."""
    _, terms, _ = _parts(m, name)[p]
    a, b = _split_state(m, u)
    out = []
    for rows, equation, cells in _row_blocks(m, name, p):
        diffusion = rows @ u if "diffusion" in terms else 0.0
        out.append(equation(m, diffusion, a[cells], b[cells]) if "reaction" in terms else diffusion)
    return out[0] if len(out) == 1 else np.concatenate(out)


def _gather(m: GrayScottModel, chosen) -> tuple:
    """The entries (see ``_assemble``) of the operator made of the parts
    ``chosen``: the full Jacobian's entries whose row and column lie in a
    part's support and whose term that part carries, numbered over the union
    of their supports."""
    values, indices, indptr, slots, _ = _jacobian_structure(m)
    rows = np.repeat(np.arange(m.dim, dtype=np.int32), np.diff(indptr))
    on_reaction = np.zeros(values.size, dtype=bool)
    on_reaction[slots] = True
    diffusion, reaction = np.zeros((2, values.size), dtype=bool)
    union = np.zeros(m.dim, dtype=bool)
    for support, terms, _ in chosen:
        inside = np.zeros(m.dim, dtype=bool)
        inside[support] = True
        union |= inside
        own = inside[rows] & inside[indices]
        diffusion |= own & (values != 0) & ("diffusion" in terms)  # reaction-only entries hold 0
        reaction |= own & on_reaction & ("reaction" in terms)
    take = np.flatnonzero(diffusion | reaction)
    local = np.full(m.dim, -1, dtype=np.int32)  # the union's own numbering
    local[union] = np.arange(np.count_nonzero(union), dtype=np.int32)
    position = np.full(values.size, -1)  # each taken entry's slot in the operator's data
    position[take] = np.arange(take.size)
    held = np.flatnonzero(reaction[slots])  # ascending, so block by block
    blocks = np.split(held, np.searchsorted(held, np.arange(1, 4) * m.cells))
    # all of a block's cells as a slice: _reaction_values then takes views
    cells = tuple(slice(None) if c.size == m.cells else c - k * m.cells for k, c in enumerate(blocks))
    # the union is ascending, so its rows stay in CSR order
    starts = np.append(np.searchsorted(take, indptr[:-1][union]), take.size).astype(np.int32)
    data = np.where(diffusion[take], values[take], 0.0)
    return (*_read_only(data, local[indices[take]], starts, position[slots[held]]), cells)


@lru_cache(maxsize=64)
def _gathered(m: GrayScottModel, name, parts: tuple):
    """The builder of the operator made of split ``name``'s parts ``parts``:
    a function of the state.  The operator is declared symmetric unless it
    holds a cross-species reaction entry (-2ab or b^2).  On the whole state,
    both terms read the full Jacobian's structure, and the diffusion alone is
    the cached diffusion matrix itself."""
    chosen = [_parts(m, name)[p] for p in parts]
    terms = {term for _, carried, _ in chosen for term in carried}
    whole = all(isinstance(support, slice) and support == slice(None) for support, _, _ in chosen)
    if whole and terms == {"diffusion"}:  # one matrix, which no state changes
        return lambda u: LinearOperator(_diffusion_csr(m), True)
    entries = _jacobian_structure(m) if whole and terms == set(_BOTH) else _gather(m, chosen)
    symmetric = not any(np.arange(m.cells)[c].size for c in entries[4][1:3])
    return lambda u: LinearOperator(_assemble(m, entries, u), symmetric)


def _operator(m: GrayScottModel, name, parts: tuple, u: np.ndarray):
    """The operator of split ``name``'s parts ``parts`` frozen at u, numbered
    over the union of their supports; for an explicit part (which is built
    alone), a matrix of its support's size with no entries."""
    support, _, implicit = _parts(m, name)[parts[0]]
    if not implicit:
        size = len(range(m.dim)[support]) if isinstance(support, slice) else support.size
        return LinearOperator(scipy.sparse.csr_matrix((size, size)))
    return _gathered(m, name, parts)(u)


def _known(name: str) -> str:
    if name not in PARTITION_NAMES:
        raise ValueError(f"unknown partition {name!r}; expected one of {PARTITION_NAMES}")
    return name


def gs_partition(m: GrayScottModel, name: str) -> SplitProblem:
    """The two-way split ``name`` of ``_SPLITS``: each part's right-hand side
    and operator on its support, in the support's own variables."""
    parts = _parts(m, _known(name))
    return SplitProblem(
        [partial(_part_rhs, m, name, p) for p in range(len(parts))],
        [partial(_operator, m, name, (p,)) for p in range(len(parts))],
        supports=[support for support, _, _ in parts],
    )


def gs_unpartitioned(m: GrayScottModel, partition: str | None = None) -> SplitProblem:
    """Single-partition problem for the unpartitioned forms, freezing the
    Jacobian made of split ``partition``'s implicit parts: for a partition
    its block Jacobian (dropping the couplings the partition drops), for the
    unsplit system (None) the full Jacobian.
    """
    parts = _parts(m, partition if partition is None else _known(partition))
    chosen = tuple(p for p, (_, _, implicit) in enumerate(parts) if implicit)
    return SplitProblem((partial(gs_rhs, m),), (partial(_operator, m, partition, chosen),))


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

    def jacobian(self, u) -> LinearOperator:
        return LinearOperator(self.matrix + self.eps * np.diag(np.cos(u)))

    def problem(self) -> SplitProblem:
        return SplitProblem((self.f,), (self.jacobian,))

    def split_linear_nonlinear(self) -> SplitProblem:
        """Two-way split: the linear term and the smooth remainder."""
        return SplitProblem(
            (lambda u: self.matrix @ u, self.g),
            (
                lambda u: LinearOperator(self.matrix),
                lambda u: LinearOperator(scipy.sparse.diags(self.eps * np.cos(u)), symmetric=True),
            ),
        )

    def split_all_explicit(self) -> SplitProblem:
        """Two-way split whose operators have no entries (fully explicit
        treatment)."""
        base = self.split_linear_nonlinear()
        zero = lambda u: LinearOperator(scipy.sparse.csr_matrix((self.dim, self.dim)))  # noqa: E731
        return SplitProblem(base.f_parts, (zero, zero))

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
