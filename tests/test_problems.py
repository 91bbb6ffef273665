import hashlib
import math
import pickle
from functools import lru_cache, partial

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse

from pexprk import problems
from pexprk.krylov import KrylovConfig
from pexprk.operators import LinearOperator
from pexprk.phi import expm_dense
from pexprk.problems import (
    DESK_GRID,
    PAPER_SCALE_GRID,
    PARTITION_NAMES,
    TIMESPAN,
    GrayScottModel,
    _EQUATIONS,
    _diffusion_csr,
    _gathered,
    _parts,
    _row_blocks,
    gs_default,
    gs_initial,
    gs_partition,
    gs_rhs,
    gs_space_permutation,
    gs_unpartitioned,
)
from pexprk.harness import RunConfig, build_study
from pexprk.krylov import EvalContext, phi_times_vector
from pexprk.steppers import SplitProblem, integrate_fixed, pexprk_stepper, step_pexprk
from pexprk.tableaux import tableau

from oracles import gs_full_jacobian, oracle_semilinear
from supports import embed, embedded_matrix, support_size


def fd_jacobian(f, u, eps=1e-6):
    """Independent oracle: central finite differences, column by column."""
    n = u.size
    out = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        out[:, j] = (f(u + e) - f(u - e)) / (2 * eps)
    return out


@lru_cache(maxsize=None)
def stencil_entries(n):
    """Independent oracle: the periodic five-point stencil on an n x n grid
    with unit spacing and coefficient, assembled entry by entry, grid nodes
    row-major (flat index iy * n + ix).  Read-only arrays of the entries'
    rows, columns and values."""
    entries = []
    for iy in range(n):
        for ix in range(n):
            row = iy * n + ix
            entries.append((row, row, -4.0))
            for col in (iy * n + (ix + 1) % n, iy * n + (ix - 1) % n, ((iy + 1) % n) * n + ix, ((iy - 1) % n) * n + ix):
                entries.append((row, col, 1.0))
    arrays = tuple(np.array(column) for column in zip(*entries))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def reference_stencil(m, d):
    """One species' periodic five-point stencil scaled by d / spacing**2, as
    CSR with sorted indices, from the entrywise oracle."""
    rows, cols, values = stencil_entries(m.n)
    stencil = scipy.sparse.csr_matrix((values * m.stencil_scale(d), (rows, cols)), shape=(m.cells, m.cells))
    stencil.sort_indices()
    return stencil


def reference_jacobian_parts(m, u):
    """Reference assembly of the Jacobian's two terms: the block-diagonal
    diffusion and the reaction as a 2 x 2 block matrix of diagonals, as CSR."""
    a, b = u[: m.cells], u[m.cells:]
    b2 = b * b
    ab = a * b
    diffusion = scipy.sparse.block_diag(
        [reference_stencil(m, m.d_a), reference_stencil(m, m.d_b)], format="csr"
    )
    reaction = scipy.sparse.bmat(
        [
            [scipy.sparse.diags(-b2 - m.feed), scipy.sparse.diags(-2.0 * ab)],
            [scipy.sparse.diags(b2), scipy.sparse.diags(2.0 * ab - (m.feed + m.kill))],
        ],
        format="csr",
    )
    return diffusion, reaction


def reference_states(m):
    u0 = gs_initial(m)
    return u0, u0 + 0.05 * np.sin(np.arange(m.dim) * 0.37)


def assert_csr_equal(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def byte_symmetric(matrix):
    # CSR arrays of the matrix and of its transpose, both with sorted indices
    mat, tr = matrix.tocsr().copy(), matrix.T.tocsr()
    mat.sort_indices()
    tr.sort_indices()
    return all(getattr(mat, attr).tobytes() == getattr(tr, attr).tobytes() for attr in ("data", "indices", "indptr"))


def support_mask(m, support):
    return embed(m.dim, support, 1.0) == 1.0


def assert_masked_full_jacobian(m, prob, variable_sets):
    # reference construction: assemble the whole Jacobian, keep the entries
    # whose row and column both lie in the set; each part's operator, placed
    # at its support, must hold exactly those entries
    inside = [np.isin(np.arange(m.dim), variables) for variables in variable_sets]
    for support, mask in zip(prob.supports, inside):
        assert np.array_equal(support_mask(m, support), mask)
    for u in reference_states(m):
        diffusion, reaction = reference_jacobian_parts(m, u)
        jac = (diffusion + reaction).tocoo()
        for mask, build, support in zip(inside, prob.operator_builders, prob.supports):
            keep = mask[jac.row] & mask[jac.col]
            want = scipy.sparse.csr_matrix(
                (jac.data[keep], (jac.row[keep], jac.col[keep])), shape=jac.shape
            )
            op = build(u)
            assert op.dim == mask.sum()
            assert_csr_equal(embedded_matrix(m.dim, support, op), want)


@pytest.fixture(scope="module")
def small_model():
    return gs_default(n=8)


@pytest.fixture(scope="module")
def random_state(small_model):
    rng = np.random.default_rng(2024)
    return rng.uniform(0.1, 0.9, size=small_model.dim)


class TestModel:
    def test_default_parameters(self):
        m = gs_default()
        assert (m.feed, m.kill, m.d_a, m.d_b) == (0.04, 0.06, 2.0, 1.0)
        assert m.n == DESK_GRID

    def test_constants(self):
        assert TIMESPAN == 0.262144
        assert PAPER_SCALE_GRID == 300
        assert DESK_GRID == 64

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GrayScottModel(n=2)
        with pytest.raises(ValueError):
            GrayScottModel(n=8, feed=-1.0)


class TestDiffusionMatrix:
    """``_diffusion_csr``: each species' stencil on the block diagonal."""

    @pytest.mark.parametrize("n", [7, 8, 14, 27])
    @pytest.mark.parametrize("spacing", ["unit", "1/n"])
    def test_equals_entrywise_stencil_with_zero_row_sums(self, n, spacing):
        # the stencil's integer entries scaled once: exact at every grid side,
        # not only where 1/n**2 is a power of two
        m = GrayScottModel(n=n, spacing=1.0 if spacing == "unit" else 1.0 / n)
        got = _diffusion_csr(m)
        want = scipy.sparse.block_diag([reference_stencil(m, m.d_a), reference_stencil(m, m.d_b)], format="csr")
        for attr in ("data", "indices", "indptr"):
            assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes()
        # each row's exact sum, which no rounding of the summation hides
        assert all(math.fsum(row) == 0.0 for row in np.split(got.data, got.indptr[1:-1]))

    def test_constant_vector_maps_to_zero(self):
        # to the rounding of the row's running sum, on entries up to 8 * 3.7
        m = GrayScottModel(n=5)
        assert np.max(np.abs(_diffusion_csr(m) @ np.full(m.dim, 3.7))) <= 1e-13

    def test_stencil_on_unit_vector(self):
        m = GrayScottModel(n=4, spacing=0.25)
        for species, d in enumerate((m.d_a, m.d_b)):
            e0 = np.zeros(m.dim)
            e0[species * m.cells] = 1.0
            out = _diffusion_csr(m) @ e0
            scale = d * 16  # d / dx^2
            assert out[species * m.cells] == -4.0 * scale
            for neighbor in [1, 3, 4, 12]:  # +x, -x (wrap), +y, -y (wrap)
                assert out[species * m.cells + neighbor] == scale
            assert np.count_nonzero(out) == 5

    def test_matches_entrywise_reference(self):
        m = GrayScottModel(n=5, d_a=1.3, d_b=0.7, spacing=0.5)
        dense = np.zeros((m.cells, m.cells))
        rows, cols, values = stencil_entries(m.n)
        np.add.at(dense, (rows, cols), values)
        zero = np.zeros_like(dense)
        want = np.block([[dense * (1.3 / 0.25), zero], [zero, dense * (0.7 / 0.25)]])
        assert np.array_equal(_diffusion_csr(m).toarray(), want)

    def test_fourier_eigenvector(self):
        n = 8
        m = GrayScottModel(n=n, d_a=2.0, spacing=1.0 / n)
        ix = np.tile(np.arange(n), n)  # varies along x within each row
        v = np.concatenate([np.cos(2 * np.pi * ix / n), np.zeros(m.cells)])
        lam = m.d_a * (2 * np.cos(2 * np.pi / n) - 2.0) * n * n
        assert np.max(np.abs(_diffusion_csr(m) @ v - lam * v)) <= 1e-9 * abs(lam)

    def test_small_grid_rejected(self):
        # the five-point stencil needs three nodes a side: at n = 2 the
        # periodic neighbours on either side coincide
        with pytest.raises(ValueError, match="grid side must be >= 3"):
            GrayScottModel(n=2)


class TestInitialState:
    def test_formula_values_at_cell_centers(self):
        m = gs_default(n=4)
        u = gs_initial(m)
        for iy in range(4):
            for ix in range(4):
                x, y = (ix + 0.5) / 4, (iy + 0.5) / 4
                base = 0.4 + 0.1 * (x + y)
                assert u[iy * 4 + ix] == pytest.approx(
                    base + 0.1 * math.sin(10 * x) * math.sin(20 * y), abs=1e-15
                )
                assert u[16 + iy * 4 + ix] == pytest.approx(
                    base + 0.1 * math.cos(10 * x) * math.cos(20 * y), abs=1e-15
                )

    def test_formula_limits_at_origin(self):
        # the expressions themselves: a-field -> 0.4, b-field -> 0.5 at (0, 0)
        a0 = 0.4 + 0.1 * (0 + 0) + 0.1 * math.sin(0.0) * math.sin(0.0)
        b0 = 0.4 + 0.1 * (0 + 0) + 0.1 * math.cos(0.0) * math.cos(0.0)
        assert a0 == pytest.approx(0.4) and b0 == pytest.approx(0.5)

    def test_range_on_desk_grid(self):
        u = gs_initial(gs_default(n=64))
        assert np.all(np.isfinite(u))
        assert u.min() > 0.0 and u.max() <= 0.7


class TestRhs:
    def test_constant_state_is_pure_reaction(self, small_model):
        a0, b0 = 0.3, 0.6
        m = small_model
        u = np.concatenate([np.full(m.cells, a0), np.full(m.cells, b0)])
        out = gs_rhs(m, u)
        da = -a0 * b0**2 + m.feed * (1 - a0)
        db = a0 * b0**2 - (m.feed + m.kill) * b0
        assert np.allclose(out[: m.cells], da, atol=1e-10)
        assert np.allclose(out[m.cells:], db, atol=1e-10)

    def test_trivial_equilibrium(self, small_model):
        m = small_model
        u = np.concatenate([np.ones(m.cells), np.zeros(m.cells)])
        assert np.max(np.abs(gs_rhs(m, u))) <= 1e-12

    def test_full_jacobian_matches_finite_differences(self, small_model, random_state):
        m = small_model
        analytic = gs_full_jacobian(m, random_state).to_dense()
        numeric = fd_jacobian(lambda u: gs_rhs(m, u), random_state)
        assert np.max(np.abs(analytic - numeric)) <= 1e-6

    @pytest.mark.parametrize("n", [16, 160])
    def test_full_jacobian_and_reaction_operator_equal_reference_assembly(self, n):
        # grid 160 puts the flat entry keys row * dim + col past int32
        m = gs_default(n=n)
        reaction_op = gs_partition(m, "physics").operator_builders[1]
        for u in reference_states(m):
            diffusion, reaction = reference_jacobian_parts(m, u)
            assert_csr_equal(gs_full_jacobian(m, u).matrix, diffusion + reaction)
            assert_csr_equal(reaction_op(u).matrix, reaction)

    def test_length_mismatch(self, small_model):
        with pytest.raises(ValueError):
            gs_rhs(small_model, np.zeros(5))


class TestPartitions:
    @pytest.mark.parametrize("n", [16, 160])
    def test_physics_diffusion_is_fresh_operator_on_block_diagonal(self, n):
        m = gs_default(n=n)
        build = gs_partition(m, "physics").operator_builders[0]
        u0, u1 = reference_states(m)
        first, second = build(u0), build(u1)
        want, _ = reference_jacobian_parts(m, u0)
        for attr in ("data", "indices", "indptr"):
            assert getattr(first.matrix, attr).tobytes() == getattr(want, attr).tobytes()
        assert second is not first  # a new operator per step

    @pytest.mark.parametrize("name", ["species", "space", "physics", "imex"])
    def test_parts_sum_to_full_rhs(self, small_model, name):
        m = small_model
        prob = gs_partition(m, name)
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = rng.uniform(0.05, 0.95, size=m.dim)
            full = gs_rhs(m, u)
            total = sum(embed(m.dim, s, f(u)) for f, s in zip(prob.f_parts, prob.supports))
            assert np.linalg.norm(total - full) <= 1e-13 * np.linalg.norm(full)

    def test_species_operators_match_finite_differences(self, small_model, random_state):
        m = small_model
        prob = gs_partition(m, "species")
        for p, support in enumerate(prob.supports):
            analytic = embedded_matrix(m.dim, support, prob.operator_builders[p](random_state)).toarray()
            numeric = fd_jacobian(lambda u: embed(m.dim, support, prob.f_parts[p](u)), random_state)
            # the species operator keeps only the own-species block
            mask = np.zeros((m.dim, m.dim))
            sl = slice(0, m.cells) if p == 0 else slice(m.cells, m.dim)
            mask[sl, sl] = 1.0
            assert np.max(np.abs(analytic - numeric * mask)) <= 1e-6

    def test_species_block_sum_matches_jacobian_diagonal(self, small_model, random_state):
        m = small_model
        prob = gs_partition(m, "species")
        total = sum(
            embedded_matrix(m.dim, support, build(random_state)).toarray()
            for build, support in zip(prob.operator_builders, prob.supports)
        )
        full = fd_jacobian(lambda u: gs_rhs(m, u), random_state)
        blocked = np.zeros_like(full)
        blocked[: m.cells, : m.cells] = full[: m.cells, : m.cells]
        blocked[m.cells:, m.cells:] = full[m.cells:, m.cells:]
        assert np.max(np.abs(total - blocked)) <= 1e-6

    def test_species_operator_annihilates_other_block(self, small_model, random_state):
        m = small_model
        prob = gs_partition(m, "species")
        v = np.zeros(m.dim)
        v[m.cells:] = 1.0  # supported on the b-field
        op = prob.operator_builders[0](random_state)
        assert op.dim == m.cells  # the a-variables alone
        out = embedded_matrix(m.dim, prob.supports[0], op) @ v
        assert np.max(np.abs(out)) == 0.0

    def test_space_permutation_is_bijection(self, small_model):
        perm = gs_space_permutation(small_model)
        assert np.array_equal(np.sort(perm), np.arange(small_model.dim))

    def test_space_operators_are_jacobian_subblocks(self, small_model, random_state):
        m = small_model
        perm = gs_space_permutation(m)
        jac = gs_full_jacobian(m, random_state).to_dense()
        permuted = jac[np.ix_(perm, perm)]
        half = m.dim // 2
        prob = gs_partition(m, "space")
        for p, window in enumerate([slice(0, half), slice(half, m.dim)]):
            dense = embedded_matrix(m.dim, prob.supports[p], prob.operator_builders[p](random_state)).toarray()
            idx = perm[window]
            expected = np.zeros_like(dense)
            expected[np.ix_(idx, idx)] = permuted[window, window]
            assert np.max(np.abs(dense - expected)) <= 1e-10

    @pytest.mark.parametrize("n", [16, 160])
    def test_space_operators_equal_masked_full_jacobian(self, n):
        m = gs_default(n=n)
        assert_masked_full_jacobian(m, gs_partition(m, "space"), np.split(gs_space_permutation(m), 2))

    @pytest.mark.parametrize("n", [16, 160])
    def test_species_operators_equal_masked_full_jacobian(self, n):
        m = gs_default(n=n)
        assert_masked_full_jacobian(m, gs_partition(m, "species"), np.split(np.arange(m.dim), 2))

    @pytest.mark.parametrize("n", [16, 160])
    @pytest.mark.parametrize("name", ["species", "space"])
    def test_subblock_parts_equal_masked_full_rhs(self, n, name):
        # each part evaluates only its own rows, with gs_rhs's arithmetic
        m = gs_default(n=n)
        prob = gs_partition(m, name)
        for u in reference_states(m):
            full = gs_rhs(m, u)
            for f, support in zip(prob.f_parts, prob.supports):
                rows = f(u)
                assert rows.size == support_size(m.dim, support)
                assert embed(m.dim, support, rows).tobytes() == np.where(support_mask(m, support), full, 0.0).tobytes()

    @pytest.mark.parametrize("n", [16, 160])
    @pytest.mark.parametrize("spacing", ["unit", "1/n"])
    def test_physics_parts_bytes(self, n, spacing):
        # the two processes written out by hand, one species at a time
        m = GrayScottModel(n=n, spacing=1.0 if spacing == "unit" else 1.0 / n)
        f_diffusion, f_reaction = gs_partition(m, "physics").f_parts
        for u in reference_states(m):
            a, b = u[: m.cells], u[m.cells:]
            ab2 = a * b * b
            diffusion = np.concatenate([reference_stencil(m, m.d_a) @ a, reference_stencil(m, m.d_b) @ b])
            reaction = np.concatenate([-ab2 + m.feed * (1.0 - a), ab2 - (m.feed + m.kill) * b])
            assert f_diffusion(u).tobytes() == diffusion.tobytes()
            assert f_reaction(u).tobytes() == reaction.tobytes()

    @pytest.mark.parametrize("n", [16, 160])
    @pytest.mark.parametrize("spacing", ["unit", "1/n"])
    def test_symmetry_declarations(self, n, spacing):
        # every part's and block's declaration is its matrix's byte symmetry
        m = GrayScottModel(n=n, spacing=1.0 if spacing == "unit" else 1.0 / n)
        for u in reference_states(m):
            ops = [gs_full_jacobian(m, u)]
            for name in PARTITION_NAMES:
                ops += [op for op in gs_partition(m, name).build_operators(u) if not op.zero]
                ops += gs_unpartitioned(m, name).build_operators(u)
            declared = [op.symmetric for op in ops]
            assert declared == [byte_symmetric(op.matrix) for op in ops]
            # the species parts and block, the physics and imex diffusion and
            # the imex block
            assert sum(declared) == 6

    @pytest.mark.parametrize("name", ["species", "physics", "imex"])
    def test_stiff_lanczos_matches_arnoldi(self, name):
        # unit-square spacing (h lambda down to about -300): the declared
        # operators run Lanczos, their undeclared copies Arnoldi
        m = GrayScottModel(n=12, spacing=1.0 / 12)
        prob = gs_partition(m, name)

        def undeclared(build):
            def rebuilt(u):
                op = build(u)
                return LinearOperator(op.matrix) if op.symmetric else op

            return rebuilt

        plain = SplitProblem(
            prob.f_parts, tuple(map(undeclared, prob.operator_builders)), supports=prob.supports
        )
        assert any(op.symmetric for op in prob.build_operators(gs_initial(m)))
        cfg = KrylovConfig(tol=1e-12, m_max=100)
        lanczos, arnoldi = (
            integrate_fixed(pexprk_stepper(4), p, gs_initial(m), 0.0, TIMESPAN, 2, cfg).state
            for p in (prob, plain)
        )
        assert np.linalg.norm(lanczos - arnoldi) <= 1e-12 * np.linalg.norm(arnoldi)

    @pytest.mark.parametrize("n", [16, 160])
    def test_subblock_supports_are_disjoint_and_cover_the_state(self, n):
        m = gs_default(n=n)
        for name in ("species", "space"):
            masks = [support_mask(m, support) for support in gs_partition(m, name).supports]
            assert len(masks) == 2 and np.all(masks[0] != masks[1])

    def test_other_problems_have_full_supports(self, small_model):
        m = small_model
        orc = oracle_semilinear(6, seed=0)
        problems = [
            gs_partition(m, "physics"),
            gs_partition(m, "imex"),
            gs_unpartitioned(m),
            *(gs_unpartitioned(m, name) for name in PARTITION_NAMES),
            orc.problem(),
            orc.split_linear_nonlinear(),
            orc.split_all_explicit(),
        ]
        for i, prob in enumerate(problems):
            assert prob.supports == (slice(None),) * prob.partitions, f"problem {i}"

    @pytest.mark.parametrize("name", ["species", "space"])
    def test_part_operators_and_krylov_bases_have_support_size(self, small_model, random_state, name):
        m = small_model
        prob = gs_partition(m, name)
        cfg = KrylovConfig(tol=1e-12, m_max=30)
        for f, op, support in zip(prob.f_parts, prob.build_operators(random_state), prob.supports):
            size = support_size(m.dim, support)
            assert size == m.dim // 2 and op.dim == size
            ctx = EvalContext()
            v = f(random_state)
            res = phi_times_vector(op, 1, 0.5, v, cfg, ctx=ctx)
            assert res.converged and res.approximation.shape == (size,)
            assert ctx.arnoldi_state(op, v, cfg.m_max).V.shape[0] == size

    @pytest.mark.parametrize("n", [16, 160])
    @pytest.mark.parametrize("name", PARTITION_NAMES)
    def test_block_jacobian_equals_sum_of_embedded_parts(self, n, name):
        # byte-equal to scipy's sum of the non-zero parts' operators placed at
        # their supports: for physics the full Jacobian, for imex the diffusion
        m = gs_default(n=n)
        split = gs_partition(m, name)
        block = gs_unpartitioned(m, name).operator_builders[0]
        for u in reference_states(m):
            parts = [
                embedded_matrix(m.dim, s, op)
                for s, op in zip(split.supports, split.build_operators(u))
                if not op.zero
            ]
            want = sum(parts[1:], parts[0])
            got = block(u)
            assert got.symmetric == (name in ("species", "imex"))
            for attr in ("data", "indices", "indptr"):
                assert getattr(got.matrix, attr).tobytes() == getattr(want, attr).tobytes()

    def test_build_study_leaves_subblock_entries_uncomputed(self):
        # the supports come from the species halves and gs_space_permutation;
        # the parts' and the block's entries wait for the first operator build
        _gathered.cache_clear()
        for partition in ("species", "space"):
            build_study(RunConfig(grid=16, partition=partition, form="part"))
            build_study(RunConfig(grid=16, partition=partition, form="tran"))
        assert _gathered.cache_info().currsize == 0

    @pytest.mark.parametrize("name, held", [
        # per build, the reaction entries computed, in cells: the unsplit and
        # physics reaction operators hold all four blocks, a species part one
        # diagonal block, a space part all four on half the cells; the
        # diffusion-only and explicit parts compute none
        (None, [4]), ("species", [1, 1]), ("space", [2, 2]), ("physics", [4]), ("imex", []),
    ])
    def test_build_computes_only_the_reaction_entries_it_holds(self, name, held, monkeypatch):
        m = gs_default(n=8)
        computed = []
        reaction_values = problems._reaction_values

        def counted(*args):
            values = reaction_values(*args)
            computed.append(values.size)
            return values

        monkeypatch.setattr(problems, "_reaction_values", counted)
        (gs_unpartitioned(m) if name is None else gs_partition(m, name)).build_operators(gs_initial(m))
        assert computed == [k * m.cells for k in held]

    @pytest.mark.parametrize("n", [16, 160])
    def test_part_rhs_rows_are_views_of_the_diffusion_matrix(self, n):
        # each run lies in one species, its rows are that species' rows of
        # the diffusion matrix, and the runs cover the part's support in order
        m = gs_default(n=n)
        matrix = _diffusion_csr(m)
        for name in (None, *PARTITION_NAMES):
            for p, (support, _, _) in enumerate(_parts(m, name)):
                runs, variables = _row_blocks(m, name, p), []
                for rows, equation, cells in runs:
                    assert np.shares_memory(rows.data, matrix.data)
                    assert np.shares_memory(rows.indices, matrix.indices)
                    assert 0 <= cells.start < cells.stop <= m.cells
                    offset = _EQUATIONS.index(equation) * m.cells
                    want = matrix[offset + cells.start: offset + cells.stop]
                    for attr in ("data", "indices", "indptr"):
                        assert np.array_equal(getattr(rows, attr), getattr(want, attr))
                    variables.append(np.arange(cells.start, cells.stop) + offset)
                assert np.array_equal(np.concatenate(variables), np.arange(m.dim)[support])
                if name in (None, "physics"):
                    assert len(runs) == 2

    # sha256 of each part's right-hand side and operator CSR (data, indices,
    # indptr), each block Jacobian's, gs_rhs's and gs_full_jacobian's at grid
    # 8 and gs_initial: a change in how they are built must keep these bytes,
    # or say why they moved
    ASSEMBLY_DIGESTS = {
        "gs_rhs": "f4add2bb2c9df4968b212732a1ad71399f6ecb6d3e49081572bab626ddfe60ae",
        "gs_full_jacobian": "84f10ef6e0a57a7cfe5ed57006956976ca26c84277a6c7240a081138d8efbd1c",
        "species[0].rhs": "b19d8ddf63ece3b549b2c25b8d67d2aa3340b761e6f73331053675c9aabf5f83",
        "species[0].operator": "a9946ef3ed6bec806b60fdda788faeda0729990ba12ee1e0390acdd29e78a430",
        "species[1].rhs": "ab7ec871bab6a0f593aeb138a5caf956ad7dc7f67da8dc8c8d2b746fe3504ab4",
        "species[1].operator": "ca55452194841548f5c492e0ad1f40312e19f0f8aea954e1d0c2c1d47b60cfa0",
        "species.block": "1145d329f16c24da574ee31f6e057165de73dd2db9aa096b8478185e97f372e8",
        "space[0].rhs": "250c9529d1a01bcf79c45799f1790ddaf8248691d4c9f065966918e4a78a0242",
        "space[0].operator": "de5c5308f44b57931bdb96191b446610c7142cf2da2dfb74d206fffe3c68f365",
        "space[1].rhs": "36e35e48831a92f9a423a77e7a7292b723170fd50e3ab867a3ae1a646b52dba8",
        "space[1].operator": "971f66a64aae37d473cab05273f0cbdd60a7682402dbbb134824f9fd70a99060",
        "space.block": "b4235b033d1dd2d9ef5bd1c651a67450db97ed2141807e679dba88e882702997",
        "physics[0].rhs": "8acb69642c3971241c446c9fb6018f43389c877f2722dce41c834efb5a3aadef",
        "physics[0].operator": "fcaaf42fd451dd09fc49467c38ae829c974e7e51ccee32b9590c07382dcf2633",
        "physics[1].rhs": "064467dcb88b3700ab177e0e724b4796109680e3abc2018e7db21205ed7a89ec",
        "physics[1].operator": "08b2ad41dfb44565a08c030f606e63d06d5221fc5e9ee16bf664defdda9153a0",
        "physics.block": "84f10ef6e0a57a7cfe5ed57006956976ca26c84277a6c7240a081138d8efbd1c",
        "imex[0].rhs": "8acb69642c3971241c446c9fb6018f43389c877f2722dce41c834efb5a3aadef",
        "imex[0].operator": "fcaaf42fd451dd09fc49467c38ae829c974e7e51ccee32b9590c07382dcf2633",
        "imex[1].rhs": "064467dcb88b3700ab177e0e724b4796109680e3abc2018e7db21205ed7a89ec",
        "imex.block": "fcaaf42fd451dd09fc49467c38ae829c974e7e51ccee32b9590c07382dcf2633",
    }

    def test_assembly_digests_pinned(self):
        def digest(*arrays):
            h = hashlib.sha256()
            for array in arrays:
                h.update(array.tobytes())
            return h.hexdigest()

        def csr(op):
            return digest(op.matrix.data, op.matrix.indices, op.matrix.indptr)

        m = gs_default(n=8)
        u = gs_initial(m)
        got = {"gs_rhs": digest(gs_rhs(m, u)), "gs_full_jacobian": csr(gs_full_jacobian(m, u))}
        for name in PARTITION_NAMES:
            split = gs_partition(m, name)
            for p, (f, op) in enumerate(zip(split.f_parts, split.build_operators(u))):
                got[f"{name}[{p}].rhs"] = digest(f(u))
                if not op.zero:
                    got[f"{name}[{p}].operator"] = csr(op)
            got[f"{name}.block"] = csr(gs_unpartitioned(m, name).build_operators(u)[0])
        assert got == self.ASSEMBLY_DIGESTS

    def test_space_requires_even_grid(self):
        with pytest.raises(ValueError):
            gs_partition(gs_default(n=7), "space")

    def test_physics_diffusion_state_independent(self, small_model, random_state):
        m = small_model
        prob = gs_partition(m, "physics")
        d1 = prob.operator_builders[0](random_state).to_dense()
        d2 = prob.operator_builders[0](np.roll(random_state, 3)).to_dense()
        assert np.array_equal(d1, d2)

    def test_physics_reaction_matches_finite_differences(self, small_model, random_state):
        m = small_model
        prob = gs_partition(m, "physics")
        analytic = prob.operator_builders[1](random_state).to_dense()
        numeric = fd_jacobian(prob.f_parts[1], random_state)
        assert np.max(np.abs(analytic - numeric)) <= 1e-6

    def test_imex_zero_operator_and_shared_parts(self, small_model, random_state):
        m = small_model
        imex = gs_partition(m, "imex")
        physics = gs_partition(m, "physics")
        explicit = imex.operator_builders[1](random_state)
        assert explicit.zero and explicit.dim == m.dim
        for p in range(2):
            assert np.array_equal(imex.f_parts[p](random_state), physics.f_parts[p](random_state))

    def test_imex_small_step_consistency(self, small_model):
        m = small_model
        u0 = gs_initial(m)
        h = 1e-7
        got = step_pexprk(tableau(2), gs_partition(m, "imex"), u0, h, KrylovConfig(tol=1e-13, m_max=60))
        taylor = u0 + h * gs_rhs(m, u0)
        assert np.linalg.norm(got - taylor) <= 10 * h**2 * np.linalg.norm(gs_rhs(m, u0)) * 100

    def test_unknown_partition_rejected(self, small_model):
        for build in (gs_partition, gs_unpartitioned):
            with pytest.raises(ValueError, match="unknown partition 'bogus'"):
                build(small_model, "bogus")


class TestUnpartitioned:
    def test_block_jacobian_drops_species_coupling(self, small_model, random_state):
        m = small_model
        full = gs_unpartitioned(m).build_operators(random_state)[0].to_dense()
        block = gs_unpartitioned(m, "species").build_operators(random_state)[0].to_dense()
        coupling = full.copy()
        coupling[: m.cells, : m.cells] = 0.0
        coupling[m.cells:, m.cells:] = 0.0
        assert np.max(np.abs((full - block) - coupling)) <= 1e-10

    def test_unsplit_system_freezes_the_full_jacobian(self):
        # no partition is the one-part row of the splits: its implicit part
        # is the whole system, so its operator is gs_full_jacobian's, byte for byte
        m = gs_default(n=16)
        prob = gs_unpartitioned(m)
        assert prob.partitions == 1
        for u in reference_states(m):
            assert_csr_equal(prob.operator_builders[0](u).matrix, gs_full_jacobian(m, u).matrix)
            assert prob.f_parts[0](u).tobytes() == gs_rhs(m, u).tobytes()


class TestPickling:
    @pytest.mark.parametrize(
        "form, partition",
        [("tran", None), *((form, name) for form in ("part", "tran") for name in PARTITION_NAMES)],
    )
    def test_problem_round_trip_integrates_identically(self, form, partition):
        # every builder is a partial of a module function, so the problem
        # pickles, and its copy integrates to the same bytes and counters
        m = gs_default(n=8)
        prob = gs_partition(m, partition) if form == "part" else gs_unpartitioned(m, partition)
        assert all(isinstance(fn, partial) for fn in (*prob.f_parts, *prob.operator_builders))
        copy = pickle.loads(pickle.dumps(prob))
        runs = [integrate_fixed(pexprk_stepper(4), q, gs_initial(m), 0.0, TIMESPAN / 8, 2, KrylovConfig())
                for q in (prob, copy)]
        assert np.array_equal(runs[0].state, runs[1].state)
        assert runs[0].stats == runs[1].stats and runs[0].stats.matvecs > 0


class TestSemilinearOracle:
    def test_linear_case_matches_expm(self):
        orc = oracle_semilinear(10, seed=4, eps=0.0)
        got = orc.reference(0.8)
        assert np.allclose(got, expm_dense(0.8 * orc.matrix) @ orc.u0, atol=1e-10)

    def test_spectrum_is_stable(self):
        orc = oracle_semilinear(20, seed=5)
        assert np.max(np.real(np.linalg.eigvals(orc.matrix))) < 0.0

    def test_self_convergence_order3(self):
        orc = oracle_semilinear(10, seed=6)
        prob = orc.problem()
        ref = orc.reference(1.0)
        cfg = KrylovConfig(tol=1e-13, m_max=40)
        errs = [
            np.linalg.norm(
                integrate_fixed(pexprk_stepper(3), prob, orc.u0, 0.0, 1.0, n, cfg).state - ref
            )
            for n in (10, 20)
        ]
        assert 6.0 <= errs[0] / errs[1] <= 10.5

    def test_scalar_variation_of_constants(self):
        # u' = lam u + eps sin(u): fixed-point iteration on the integral form
        # u(t) = e^{lam t} u0 + int_0^t e^{lam (t-s)} eps sin(u(s)) ds
        orc = oracle_semilinear(1, seed=8)
        lam = orc.matrix[0, 0]
        t_end = 1.0
        ts = np.linspace(0.0, t_end, 2001)
        u = np.exp(lam * ts) * orc.u0[0]
        for _ in range(60):
            integrand = np.exp(-lam * ts) * orc.eps * np.sin(u)
            integral = scipy.integrate.cumulative_simpson(integrand, x=ts, initial=0.0)
            u_new = np.exp(lam * ts) * (orc.u0[0] + integral)
            delta = np.max(np.abs(u_new - u))
            u = u_new
            if delta < 1e-15:
                break
        assert abs(u[-1] - orc.reference(t_end)[0]) <= 1e-8
