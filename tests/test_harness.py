import itertools
import math
import multiprocessing
import os
import subprocess
import re
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import pexprk
from pexprk import cli, harness
from pexprk.cli import _build_parser, _config_from_args
from pexprk.harness import (
    FORMS,
    ConfigError,
    ConvergenceRow,
    NumericalFailure,
    RunConfig,
    build_study,
    discrete_l2,
    emit_csv,
    estimate_order,
    parse_csv,
    reference_solution,
    rows_data_equal,
    run_convergence_study,
    study_model,
)
from pexprk.krylov import EvalContext, KrylovConfig
from pexprk.operators import LinearOperator
from pexprk.phi import expm_dense
from pexprk.problems import PAPER_SCALE_GRID, PARTITION_NAMES, gs_rhs, gs_unpartitioned
from pexprk.steppers import SplitProblem, integrate_fixed, pexprk_stepper, step_pexprk2_residual


def make_rows(errors, h0=0.5):
    return [ConvergenceRow(h=h0 * 2.0**-i, error_l2=e) for i, e in enumerate(errors)]


def config_from(*flags) -> RunConfig:
    """The RunConfig `pexprk run` builds from its flags."""
    return _config_from_args(_build_parser().parse_args(["run", *flags]))


# the (form, partition) cells of the study matrix
STUDY_CELLS = (
    {("orig", "none"), ("tran", "none")}
    | {("tran", p) for p in PARTITION_NAMES}
    | {("part", p) for p in PARTITION_NAMES}
)


class TestRunConfig:
    def test_step_sizes_follow_dyadic_ladder(self):
        cfg = RunConfig()
        assert cfg.steps == (2, 4, 8, 16, 32, 64)
        expected = [0.131072, 0.065536, 0.032768, 0.016384, 0.008192, 0.004096]
        assert np.allclose([(cfg.tf - cfg.t0) / n for n in cfg.steps], expected, rtol=1e-15)

    def test_explicit_steps_override(self):
        # either step flag replaces RunConfig's default ladder; neither keeps it
        assert config_from("--steps", "2,6,10").steps == (2, 6, 10)
        assert config_from("--steps-pow2", "1:3").steps == (2, 4, 8)
        assert config_from().steps == RunConfig().steps

    def test_label_convention(self):
        assert RunConfig(form="part", partition="species", order=3).label().startswith("pexprks_tran_order_3")
        assert RunConfig(form="orig", order=2).label().startswith("exprks_orig_order_2")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(partition="rows"),
            dict(order=5),
            dict(form="part"),  # partition defaults to none
            dict(form="x"),
            dict(form="orig", partition="species"),
            dict(tf=0.0),
            dict(krylov_tol=-1.0),
            dict(steps=(4, 2)),
            dict(steps=()),
            dict(grid=2),
            dict(grid=33, partition="space", form="part"),
            dict(grid=33, partition="space", form="tran"),
            dict(steps=(0, 2)),
            dict(grid="64"),
            dict(order=True),
            dict(krylov_tol="1e-12"),
            dict(tf=None),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RunConfig(**kwargs).validate()

    def test_build_study_forms(self):
        for form, partition in [("part", "physics"), ("tran", "none"), ("orig", "none")]:
            cfg = RunConfig(grid=8, form=form, partition=partition)
            model, problem, stepper, u0 = build_study(cfg)
            assert u0.shape == (model.dim,)
            assert problem.partitions == (2 if form == "part" else 1)

    def test_odd_grid_without_the_space_split_accepted(self):
        RunConfig(grid=33, form="tran").validate()
        RunConfig(grid=33, partition="species", form="part").validate()

    @pytest.mark.parametrize(
        "form, partition",
        list(itertools.product(FORMS, ("none",) + PARTITION_NAMES)),
    )
    def test_validate_accepts_exactly_the_study_cells(self, form, partition):
        cfg = RunConfig(grid=8, form=form, partition=partition)
        if (form, partition) in STUDY_CELLS:
            cfg.validate()
        else:
            # the message names the flag that would be ignored, or the missing one
            with pytest.raises(ConfigError, match="--partition|requires a partition"):
                cfg.validate()


class TestDerivedJacobian:
    """The frozen Jacobian follows from the form and the partition: it is
    no setting, and each cell keeps the label and metadata it had when it
    was one."""

    # per cell at order 2: its label and its metadata's jacobian
    CELL_LABELS = {
        ("orig", "none"): ("exprks_orig_order_2", "full"),
        ("tran", "none"): ("exprks_tran_order_2_full_jacobian", "full"),
        ("tran", "species"): ("exprks_tran_order_2_block_jacobian", "block"),
        ("tran", "space"): ("exprks_tran_order_2_block_jacobian", "block"),
        ("tran", "physics"): ("exprks_tran_order_2_block_jacobian", "block"),
        ("tran", "imex"): ("exprks_tran_order_2_block_jacobian", "block"),
        ("part", "species"): ("pexprks_tran_order_2_full_jacobian", "full"),
        ("part", "space"): ("pexprks_tran_order_2_full_jacobian", "full"),
        ("part", "physics"): ("pexprks_tran_order_2_full_jacobian", "full"),
        ("part", "imex"): ("pexprks_tran_order_2_full_jacobian", "full"),
    }

    def test_jacobian_is_no_setting(self):
        # neither a field, a constructor argument nor assignable
        assert "jacobian" not in {f.name for f in fields(RunConfig)}
        with pytest.raises(TypeError):
            RunConfig(jacobian="block")
        cfg = RunConfig(form="tran", partition="species")
        with pytest.raises(AttributeError):
            cfg.jacobian = "full"
        assert cfg.jacobian == "block"

    @pytest.mark.parametrize("cell", list(CELL_LABELS), ids=["-".join(cell) for cell in CELL_LABELS])
    def test_run_writes_the_cell_label_and_jacobian(self, cell, tmp_path, capsys):
        # `pexprk run` on the cell's form and partition alone writes its
        # label and jacobian comments into the study CSV
        form, partition = cell
        out = tmp_path / "study.csv"
        argv = ["run", "--grid", "8", "--form", form, "--partition", partition, "--steps", "1", "--out", str(out)]
        assert cli.main(argv) == 0, capsys.readouterr().err
        rows, metadata = parse_csv(out)
        assert len(rows) == 1 and not rows[0].failed
        assert (metadata["label"], metadata["jacobian"]) == self.CELL_LABELS[cell]

    def test_tran_on_physics_gives_the_rows_of_tran_on_none(self):
        # the physics split's two implicit parts sum to the full Jacobian
        full, physics = (RunConfig(grid=8, form="tran", partition=p, steps=(1, 2)) for p in ("none", "physics"))
        reference = reference_solution(full)
        rows = [run_convergence_study(cfg, reference).rows for cfg in (full, physics)]
        assert rows_data_equal(*rows)
        states = []
        for cfg in (full, physics):
            _, problem, stepper, u0 = build_study(cfg)
            states.append(integrate_fixed(stepper, problem, u0, cfg.t0, cfg.tf, 2, cfg.krylov()).state.tobytes())
        assert states[0] == states[1]


class TestEstimateOrder:
    def test_halving_ratios(self):
        rows = make_rows([4.0, 1.0])
        assert estimate_order(rows) == [None, 2.0]
        rows = make_rows([8.0, 1.0])
        assert estimate_order(rows)[1] == 3.0

    def test_failed_rows_break_the_chain(self):
        rows = make_rows([8.0, 2.0, 1.0])
        rows[1].failed = True
        orders = estimate_order(rows)
        assert orders == [None, None, None]

    def test_orders_attached_to_rows(self):
        rows = make_rows([16.0, 4.0, 1.0])
        estimate_order(rows)
        assert rows[1].observed_order == 2.0 and rows[2].observed_order == 2.0

    def test_zero_error_has_no_order(self):
        # an exact row gives no ratio, on either side of it
        assert estimate_order(make_rows([0.0, 1e-17])) == [None, None]
        assert estimate_order(make_rows([1e-17, 0.0, 1e-17])) == [None, None, None]


class TestRowsDataEqual:
    ROW = dict(h=0.1, error_l2=1.5e-7, observed_order=2.0, matvecs=120, krylov_dims=340, wall_ms=7.5)

    @pytest.mark.parametrize(
        "change",
        [dict(h=0.1000000001), dict(error_l2=1.5000000000000002e-7), dict(matvecs=121),
         dict(krylov_dims=341), dict(observed_order=2.0000000000000004), dict(observed_order=None)],
        ids=["h", "error_l2", "matvecs", "krylov_dims", "order", "order-none"],
    )
    def test_a_changed_data_column_differs(self, change):
        row, changed = ConvergenceRow(**self.ROW), ConvergenceRow(**{**self.ROW, **change})
        assert not rows_data_equal([row], [changed]) and not rows_data_equal([changed], [row])

    def test_wall_time_is_ignored(self):
        assert rows_data_equal([ConvergenceRow(**self.ROW)], [ConvergenceRow(**{**self.ROW, "wall_ms": 99.0})])

    def test_failed_row_equals_itself(self):
        # NaN errors compare by repr, so a failed row equals itself
        row = ConvergenceRow(h=0.025, failed=True)
        assert rows_data_equal([row], [row]) and rows_data_equal([row], [ConvergenceRow(h=0.025, failed=True)])

    def test_length_differs(self):
        assert not rows_data_equal([ConvergenceRow(**self.ROW)], [])


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rows = [
            ConvergenceRow(h=0.1, error_l2=1.2345678901234e-07, observed_order=None,
                           matvecs=123, krylov_dims=456, wall_ms=7.5),
            ConvergenceRow(h=0.05, error_l2=3.0864197253086e-08, observed_order=1.9999999999,
                           matvecs=222, krylov_dims=890, wall_ms=9.25),
            ConvergenceRow(h=0.025, failed=True),
        ]
        path = tmp_path / "study.csv"
        emit_csv(rows, {"grid": 8, "label": "demo"}, path)
        parsed, metadata = parse_csv(path)
        assert metadata["grid"] == "8"
        assert len(parsed) == 3
        for a, b in zip(rows[:2], parsed[:2]):
            assert repr(a.h) == repr(b.h)
            assert repr(a.error_l2) == repr(b.error_l2)
            assert a.observed_order == b.observed_order or repr(a.observed_order) == repr(b.observed_order)
            assert (a.matvecs, a.krylov_dims) == (b.matvecs, b.krylov_dims)
            assert repr(a.wall_ms) == repr(b.wall_ms)
        assert parsed[2].failed and math.isnan(parsed[2].error_l2)

    def test_header_and_columns(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], {"seed": 0}, path)
        text = path.read_text()
        lines = text.strip().splitlines()
        assert lines[-1] == "h,error_l2,observed_order,matvecs,krylov_dims,wall_ms"
        assert any(line.startswith("# seed = 0") for line in lines)
        assert any(line.startswith("# generated_at") for line in lines)
        # comments alone are no rows; another header is no study CSV
        path.write_text("# seed = 0\n\n")
        assert parse_csv(path) == ([], {"seed": "0"})
        path.write_text("h,error\n0.1,1e-3\n")
        with pytest.raises(ValueError, match="unexpected CSV columns"):
            parse_csv(path)


@pytest.fixture(scope="module")
def small_cfg():
    return RunConfig(grid=8, partition="species", order=2, form="part", steps=(2, 4, 8))


@pytest.fixture(scope="module")
def small_study(small_cfg):
    return run_convergence_study(small_cfg)


class TestStudy:
    def test_rows_and_metadata(self, small_cfg, small_study):
        rows = small_study.rows
        assert [r.h for r in rows] == [(small_cfg.tf - small_cfg.t0) / n for n in small_cfg.steps]
        assert all(not r.failed for r in rows)
        assert all(r.matvecs > 0 and r.krylov_dims > 0 for r in rows)
        assert rows[0].observed_order is None
        assert small_study.metadata["label"] == small_cfg.label()
        assert small_study.reference.gap < 1e-2 * small_study.min_error() or (
            small_study.reference.gap < small_study.reference.roundoff_floor()
        )

    def test_errors_decrease(self, small_study):
        errors = [r.error_l2 for r in small_study.rows]
        assert errors == sorted(errors, reverse=True)

    def test_deterministic_given_config(self, small_cfg, small_study):
        again = run_convergence_study(small_cfg)
        assert rows_data_equal(small_study.rows, again.rows)

    def test_reference_on_linear_problem_matches_expm(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(12, 12)) / 3.0 - 1.5 * np.eye(12)
        u0 = rng.uniform(-1, 1, size=12)
        prob = SplitProblem((lambda u: a @ u,), (lambda u: LinearOperator(a),))
        cfg = RunConfig(grid=8, t0=0.0, tf=1.0, steps=(2, 4, 8))
        ref = reference_solution(cfg, problem=prob, u0=u0)
        exact = expm_dense(a) @ u0
        assert discrete_l2(ref.state - exact) <= 1e-11
        assert ref.n_steps == 8 * 32
        # an injected problem brings its initial state
        with pytest.raises(ValueError, match="needs an initial state"):
            reference_solution(cfg, problem=prob)

    @pytest.mark.parametrize("grid", [8, 16, 32, 64])
    def test_reference_lies_within_its_gap_of_dop853(self, grid):
        # an explicit adaptive order-8 method, at scipy's tolerance floor
        # (100 eps), shares nothing with the exponential reference
        import scipy.integrate  # here, not at module level: not on the run path

        cfg = RunConfig(grid=grid, steps=(1, 2))
        ref = reference_solution(cfg)
        model, u0 = study_model(cfg)
        sol = scipy.integrate.solve_ivp(lambda _t, u: gs_rhs(model, u), (cfg.t0, cfg.tf), u0,
                                        method="DOP853", rtol=2.3e-14, atol=2.3e-14)
        assert sol.success, sol.message
        assert discrete_l2(ref.state - sol.y[:, -1]) <= max(ref.gap, ref.roundoff_floor())

    def test_rows_do_not_depend_on_blas_threads(self):
        # at two BLAS threads this row's error_l2 differed in its last digits
        threads = harness._openblas_threads()
        if threads is None:
            pytest.skip("numpy's OpenBLAS has no thread-count setter here")
        get, set_ = threads
        before = get()
        cfg = RunConfig(grid=96, form="orig", order=4, steps=(1,))
        ref = reference_solution(cfg)
        studies = []
        try:
            for count in (1, 2):
                set_(count)
                studies.append(run_convergence_study(cfg, ref))
                assert get() == count
        finally:
            set_(before)
        assert rows_data_equal(*(study.rows for study in studies))

    def test_gate_violation_raises(self, small_cfg, small_study):
        import dataclasses

        bad_ref = dataclasses.replace(small_study.reference, gap=1.0)
        with pytest.raises(NumericalFailure, match="gate"):
            run_convergence_study(small_cfg, reference=bad_ref)

    def test_zero_krylov_dims_for_all_explicit(self):
        # an imex-style run where even the diffusion operator is zeroed
        from pexprk.problems import gs_default, gs_initial, gs_partition
        from pexprk.steppers import SplitProblem, integrate_fixed, pexprk_stepper
        from pexprk.krylov import KrylovConfig

        m = gs_default(n=8)
        base = gs_partition(m, "physics")
        prob = SplitProblem(
            base.f_parts, tuple(lambda u: LinearOperator(np.zeros((m.dim, m.dim))) for _ in range(2))
        )
        res = integrate_fixed(
            pexprk_stepper(2), prob, gs_initial(m), 0.0, 0.01, 4, KrylovConfig()
        )
        assert res.stats.krylov_dim_total == 0


# Work counters (matvecs, krylov_dim_total, solves) and the discrete L2 norm
# of the final state for two steps of h = T/2 on grid 16, per
# (form, partition) and order.  A refactor that claims to reproduce
# the study rows must reproduce these.
GOLDEN = {
    ("orig", "none"): {
        2: ((54, 50, 4), 0.49871565492501324),
        3: ((74, 90, 8), 0.4987157212401996),
        4: ((126, 334, 32), 0.49871571629035877),
    },
    ("tran", "none"): {
        2: ((52, 50, 4), 0.49871565492501324),
        3: ((72, 90, 8), 0.4987157212401996),
        4: ((124, 334, 32), 0.49871571629035877),
    },
    ("tran", "species"): {
        2: ((52, 50, 4), 0.49871221386579967),
        3: ((76, 94, 8), 0.49871559645071606),
        4: ((130, 348, 32), 0.49871572176745393),
    },
    ("tran", "space"): {
        2: ((58, 56, 4), 0.4987519531907184),
        3: ((79, 97, 8), 0.4987178581393905),
        4: ((148, 393, 32), 0.4987158221269866),
    },
    ("tran", "physics"): {
        2: ((52, 50, 4), 0.49871565492501324),
        3: ((72, 90, 8), 0.4987157212401996),
        4: ((124, 334, 32), 0.49871571629035877),
    },
    ("tran", "imex"): {
        2: ((52, 50, 4), 0.49871644877779525),
        3: ((76, 94, 8), 0.4987157286364669),
        4: ((124, 336, 32), 0.4987157171731135),
    },
    ("part", "species"): {
        2: ((94, 90, 8), 0.4987122138657996),
        3: ((138, 170, 16), 0.49871559645071606),
        4: ((228, 628, 64), 0.49871572176745393),
    },
    ("part", "space"): {
        2: ((113, 109, 8), 0.4987519531907184),
        3: ((158, 194, 16), 0.4987178581393906),
        4: ((296, 768, 64), 0.4987158221269866),
    },
    ("part", "physics"): {
        2: ((76, 72, 8), 0.49871538195465587),
        3: ((112, 136, 16), 0.49871575213470387),
        4: ((204, 524, 64), 0.4987157166988749),
    },
    ("part", "imex"): {
        2: ((52, 50, 8), 0.49871522293512066),
        3: ((76, 94, 16), 0.49871574868089863),
        4: ((136, 354, 64), 0.4987157168435433),
    },
}
ORDERS = (2, 3, 4)
# the same for the order-2 residual form (step_pexprk2_residual) on each split
GOLDEN_RESIDUAL = {
    "species": ((94, 90, 12), 0.4987122138657996),
    "space": ((113, 109, 12), 0.4987519531907184),
    "physics": ((103, 99, 12), 0.49871538195465587),
    "imex": ((65, 63, 12), 0.49871522293512066),
}


def golden_run(form, partition, order, stepper=None):
    """The golden integration of one case: (its problem, its result).  A
    stepper, if given, replaces the case's own on the case's problem."""
    cfg = RunConfig(grid=16, form=form, partition=partition, order=order)
    _, problem, study_stepper, u0 = build_study(cfg)
    return problem, integrate_fixed(stepper or study_stepper, problem, u0, cfg.t0, cfg.tf, 2, cfg.krylov())


def probe_problem(nan_operator_in=(), f_fault=None):
    """u' = a u on 12 variables, for the reference's two runs: "fine" in this
    process and "coarse" in its forked child.  The runs named in
    nan_operator_in get a NaN operator, so their first phi product fails;
    f_fault(run), if given, is called at every right-hand-side evaluation."""
    rng = np.random.default_rng(14)
    a = rng.normal(size=(12, 12)) / 3.0 - 1.5 * np.eye(12)
    parent = os.getpid()

    def run():
        return "fine" if os.getpid() == parent else "coarse"

    def f(u):
        if f_fault is not None:
            f_fault(run())
        return a @ u

    def build(u):
        return LinearOperator(a * np.nan if run() in nan_operator_in else a)

    return SplitProblem((f,), (build,)), rng.uniform(-1, 1, size=12)


PROBE_CFG = RunConfig(grid=8, t0=0.0, tf=1.0, steps=(1,))  # 32 fine and 16 coarse steps


class TwoArgumentError(Exception):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


class TestConcurrentReference:
    """The coarse reference run goes to a forked child while this process
    runs the fine one."""

    def test_matches_the_runs_one_after_the_other(self):
        cfg = RunConfig(grid=12, steps=(1,))
        ref = reference_solution(cfg)
        model, u0 = study_model(cfg)
        problem = gs_unpartitioned(model)
        kcfg = KrylovConfig(tol=harness.REFERENCE_TOL)  # the reference's own settings
        with harness._one_blas_thread():
            fine, coarse = (integrate_fixed(pexprk_stepper(4), problem, u0, cfg.t0, cfg.tf, n, kcfg)
                            for n in (32, 16))
        assert ref.state.tobytes() == fine.state.tobytes()
        assert repr(ref.gap) == repr(discrete_l2(fine.state - coarse.state))
        assert (ref.stats.matvecs, ref.stats.solves, ref.stats.krylov_dim_total) == (
            fine.stats.matvecs + coarse.stats.matvecs,
            fine.stats.solves + coarse.stats.solves,
            fine.stats.krylov_dim_total + coarse.stats.krylov_dim_total,
        )

    def test_both_runs_at_one_blas_thread(self, monkeypatch):
        threads = harness._openblas_threads()
        if threads is None:
            pytest.skip("numpy's OpenBLAS has no thread-count setter here")
        get, set_ = threads
        before = get()

        def one_thread(run):
            if get() != 1:
                raise AssertionError(f"the {run} run has {get()} BLAS threads")

        # discrete_l2 is a BLAS ddot, whose bits depend on the thread count
        l2, l2_threads = harness.discrete_l2, []

        def l2_spy(v):
            l2_threads.append(get())
            return l2(v)

        set_(2)
        try:
            two = get()
            reference_solution(PROBE_CFG, *probe_problem(f_fault=one_thread))
            assert get() == two
            monkeypatch.setattr(harness, "discrete_l2", l2_spy)
            run_convergence_study(RunConfig(grid=8, steps=(1,)))
            assert get() == two
        finally:
            set_(before)
        assert l2_threads == [1, 1, 1]  # the reference gap, the one row, the gate's floor

    def test_without_an_openblas_setter_the_runs_leave_blas_alone(self, monkeypatch):
        # where numpy bundles no OpenBLAS with a thread-count setter, the
        # reference runs at whatever thread count BLAS has, to the same state
        want = reference_solution(PROBE_CFG, *probe_problem())
        monkeypatch.setattr(harness, "_openblas_threads", lambda: None)
        got = reference_solution(PROBE_CFG, *probe_problem())
        assert got.state.tobytes() == want.state.tobytes() and repr(got.gap) == repr(want.gap)

    @pytest.mark.parametrize(
        "failing, step", [({"fine"}, "1/32"), ({"coarse"}, "1/16"), ({"fine", "coarse"}, "1/32")],
        ids=["fine", "coarse", "both"],
    )
    def test_failure_names_its_run_step(self, failing, step):
        with pytest.raises(NumericalFailure) as info:
            reference_solution(PROBE_CFG, *probe_problem(nan_operator_in=failing))
        assert str(info.value) == (f"reference integration failed: step {step}: stage 2, partition 1, "
                                   "phi_1 term: non-finite entries in the Arnoldi basis")

    def test_child_exception_reaches_the_parent(self):
        def fault(run):
            if run == "coarse":
                raise LookupError("no such entry")

        with pytest.raises(LookupError, match="^no such entry$") as info:
            reference_solution(PROBE_CFG, *probe_problem(f_fault=fault))
        # the child's traceback rides along as the cause
        assert "raised in the coarse reference run" in str(info.value.__cause__)
        assert "LookupError: no such entry" in str(info.value.__cause__)

    def test_child_warning_turned_error_reaches_the_parent(self):
        def fault(run):
            if run == "coarse":
                np.float64(1e308) * np.float64(10.0)  # filterwarnings = error raises it

        with pytest.raises(RuntimeWarning, match="overflow encountered in scalar multiply"):
            reference_solution(PROBE_CFG, *probe_problem(f_fault=fault))

    def test_child_exception_that_cannot_be_rebuilt(self):
        def fault(run):
            if run == "coarse":
                raise TwoArgumentError("bad entry", "row 3")

        with pytest.raises(RuntimeError, match="^TwoArgumentError: bad entry at row 3$"):
            reference_solution(PROBE_CFG, *probe_problem(f_fault=fault))

    def test_child_that_dies_without_a_result(self):
        def fault(run):
            if run == "coarse":
                os._exit(7)

        with pytest.raises(RuntimeError, match="^the coarse reference run ended with exit code 7 and sent no result$"):
            reference_solution(PROBE_CFG, *probe_problem(f_fault=fault))

    @pytest.mark.parametrize("case", ["success", "coarse-failure", "parent-exception"])
    def test_child_is_joined(self, case, monkeypatch):
        started = []
        start = multiprocessing.process.BaseProcess.start

        def record(process):
            start(process)
            started.append(process)

        def fault(run):
            if run == "fine" and case == "parent-exception":
                raise KeyError("in the parent")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", record)
        problem, u0 = probe_problem({"coarse"} if case == "coarse-failure" else (), fault)
        try:
            reference_solution(PROBE_CFG, problem, u0)
        except (NumericalFailure, KeyError):
            assert case != "success"
        [child] = started
        assert child.exitcode is not None and not child.is_alive()
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):  # reaped: no zombie left
            os.waitpid(child.pid, os.WNOHANG)


class TestGoldenCounts:
    """Each case checks every catalog order."""

    @pytest.mark.parametrize(
        "form, partition", list(GOLDEN), ids=["-".join(case) for case in GOLDEN]
    )
    def test_counts_and_final_norm(self, form, partition):
        for order in ORDERS:
            _, res = golden_run(form, partition, order)
            counts, norm = GOLDEN[(form, partition)][order]
            assert (res.stats.matvecs, res.stats.krylov_dim_total, res.stats.solves) == counts, order
            assert discrete_l2(res.state) == pytest.approx(norm, rel=1e-12, abs=0.0), order

    @pytest.mark.parametrize("partition", list(GOLDEN_RESIDUAL))
    def test_residual_form_counts_and_final_norm(self, partition):
        _, res = golden_run("part", partition, 2, step_pexprk2_residual)
        counts, norm = GOLDEN_RESIDUAL[partition]
        assert (res.stats.matvecs, res.stats.krylov_dim_total, res.stats.solves) == counts
        assert discrete_l2(res.state) == pytest.approx(norm, rel=1e-12, abs=0.0)

    def test_solves_per_partition_equal_original_form(self):
        # forward substitution costs each partition the original form's solves
        for order in ORDERS:
            _, orig = golden_run("orig", "none", order)
            for case in GOLDEN:
                problem, res = golden_run(*case, order)
                assert res.stats.solves == problem.partitions * orig.stats.solves, (case, order)

    def test_one_live_factorization_per_step(self, monkeypatch):
        # each vector's products are all applied, and its factorization
        # dropped, before the next vector's factorization starts
        states, live = weakref.WeakSet(), []
        arnoldi_state = EvalContext.arnoldi_state

        def counted(ctx, *args):
            state = arnoldi_state(ctx, *args)
            states.add(state)
            live.append(len(states))
            return state

        monkeypatch.setattr(EvalContext, "arnoldi_state", counted)
        runs = [(*case, order, None) for case in GOLDEN for order in ORDERS]
        runs += [("part", partition, 2, step_pexprk2_residual) for partition in GOLDEN_RESIDUAL]
        for run in runs:
            live.clear()
            golden_run(*run)
            assert max(live) == 1, run[:3]


class TestCli:
    """One subprocess test per subcommand covers the console wiring, and one
    more what `pexprk run` imports; the configuration and exit-code cases
    call ``cli.main`` in this process."""

    def run_python(self, *args):
        # the subprocess imports the same pexprk as this test, installed or not
        source = str(Path(pexprk.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    def run_cli(self, *args):
        return self.run_python("-m", "pexprk.cli", *args)

    @pytest.fixture
    def main(self, capsys):
        """cli.main(argv) in this process, as the subprocess result's fields:
        returncode, stdout and stderr.  An exception other than argparse's
        exit propagates and fails the test, as a traceback would."""

        def call(*args):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            return subprocess.CompletedProcess(args, code, out, err)

        return call

    # every usage and configuration error: (id, argv, what stderr says);
    # {tmp} is the test's temporary directory, which holds cfg.json
    EXIT_2 = [
        ("part-without-partition", ("run", "--form", "part"), "configuration error"),
        ("part-none", ("run", "--form", "part", "--partition", "none"), "configuration error"),
        ("orig-species", ("run", "--form", "orig", "--partition", "species"), "configuration error"),
        ("orig-space", ("run", "--form", "orig", "--partition", "space"), "configuration error"),
        ("odd-grid-space-part", ("run", "--grid", "33", "--partition", "space", "--form", "part", "--steps", "1"),
         "even grid side"),
        ("odd-grid-space-tran", ("run", "--grid", "33", "--partition", "space", "--form", "tran", "--steps", "1"),
         "even grid side"),
        # a shorthand with its long form is an argparse usage error, even
        # where both name the same grid
        ("paper-scale-grid", ("run", "--paper-scale", "--grid", "32"), "not allowed with argument"),
        ("paper-scale-grid-300", ("run", "--paper-scale", "--grid", "300"), "not allowed with argument"),
        ("steps-twice", ("run", "--steps", "1", "--steps-pow2", "1:3"), "not allowed with argument"),
        ("steps-pow2-from-0", ("run", "--steps-pow2", "0:3"), "configuration error"),
        # argparse types the plain flags; the run parses the step list and
        # the time span itself
        ("grid-float", ("run", "--grid", "64.0"), "invalid int value"),
        ("tol-text", ("run", "--krylov-tol", "abc"), "invalid float value"),
        ("steps-float", ("run", "--steps", "2.5"), "configuration error"),
        ("steps-bool", ("run", "--grid", "8", "--steps", "true,2"), "configuration error"),
        ("tspan-one-value", ("run", "--tspan", "1"), "two values separated by ':'"),
        ("tspan-text", ("run", "--tspan", "a:1"), "bad tspan 'a:1'"),
        ("tol-inf", ("run", "--grid", "8", "--steps", "1,2", "--krylov-tol", "inf"), "must be finite"),
        ("tol-nan", ("run", "--grid", "8", "--steps", "1,2", "--krylov-tol", "nan"), "must be finite"),
        ("tf-inf", ("run", "--grid", "8", "--steps", "1,2", "--tspan", "0:inf"), "must be finite"),
        ("t0-nan", ("run", "--grid", "8", "--steps", "1,2", "--tspan", "nan:1"), "must be finite"),
        # the out path is checked before the study runs
        ("out-missing-dir", ("run", "--grid", "8", "--steps", "1,2", "--out", "{tmp}/missing/study.csv"),
         "configuration error"),
        ("out-dir", ("run", "--grid", "8", "--steps", "1,2", "--out", "{tmp}"), "configuration error"),
        ("out-empty", ("run", "--grid", "8", "--steps", "1,2", "--out", ""), "configuration error"),
        # flags are the only source: there is no config file to read, and no
        # --jacobian, which the form and the partition decide
        ("config-file", ("run", "--config", "{tmp}/cfg.json"), "unrecognized arguments: --config"),
        ("jacobian-flag", ("run", "--form", "tran", "--partition", "species", "--jacobian", "block"),
         "unrecognized arguments: --jacobian block"),
        ("size-0", ("check-order", "--order", "2", "--size", "0"), "configuration error"),
        ("size-neg", ("check-order", "--order", "2", "--size", "-1"), "configuration error"),
        ("size-over-limit", ("check-order", "--order", "2", "--size", "201"), "configuration error"),
        ("seed-neg", ("check-order", "--order", "2", "--seed", "-1"), "configuration error"),
    ]

    @pytest.mark.parametrize("argv, message", [case[1:] for case in EXIT_2], ids=[case[0] for case in EXIT_2])
    def test_usage_or_configuration_error_exits_2(self, argv, message, main, tmp_path, monkeypatch):
        # with its message and no traceback, and a run computes no reference
        def no_reference(*args, **kwargs):
            raise AssertionError("the reference was computed")

        monkeypatch.setattr(harness, "reference_solution", no_reference)
        (tmp_path / "cfg.json").write_text('{"grid": 8}')
        proc = main(*(arg.format(tmp=tmp_path) for arg in argv))
        assert proc.returncode == 2
        assert message in proc.stderr and "Traceback" not in proc.stderr

    def test_check_order_subcommand(self):
        proc = self.run_cli("check-order", "--order", "2", "--size", "6", "--seed", "3")
        assert proc.returncode == 0
        assert "condition 2a" in proc.stdout

    def test_dump_tableau_subcommand(self):
        proc = self.run_cli("dump-tableau", "--order", "3", "--transformed")
        assert proc.returncode == 0
        assert proc.stdout.startswith("s = 3")
        again = self.run_cli("dump-tableau", "--order", "3", "--transformed")
        assert again.stdout == proc.stdout

    def test_run_subcommand_writes_csv(self, tmp_path):
        out = tmp_path / "study.csv"
        proc = self.run_cli(
            "run", "--grid", "8", "--partition", "physics", "--order", "2",
            "--form", "part", "--steps-pow2", "1:2", "--krylov-tol", "1e-10",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows, metadata = parse_csv(out)
        assert len(rows) == 2 and metadata["partition"] == "physics"

    def test_run_leaves_dense_reference_modules_unimported(self, tmp_path):
        # scipy.linalg serves only expm_dense, which loads it at first call,
        # and scipy.integrate and decimal only the test oracles; none is on
        # the run path.  Each module loads only what it uses: phi no scipy,
        # tableaux neither the harness nor multiprocessing
        argv = ["run", "--grid", "8", "--partition", "species", "--order", "4", "--form", "part",
                "--steps", "1,2", "--out", str(tmp_path / "study.csv")]
        proc = self.run_python("-c", (
            "import sys\n"
            "import pexprk.phi\n"
            "phi = [m for m in sys.modules if m.startswith('scipy')]\n"
            "import pexprk.tableaux\n"
            "tableaux = [m for m in ('pexprk.harness', 'multiprocessing') if m in sys.modules]\n"
            "from pexprk import cli\n"
            f"code = cli.main({argv!r})\n"
            "print(code, [m for m in ('scipy.linalg', 'scipy.integrate', 'decimal') if m in sys.modules], phi, tableaux)\n"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 [] [] []"

    def test_overflowing_reduced_argument_names_the_failed_step(self, main):
        # tau H overflows at h = 1e308: a phi failure (exit 3), not a crash,
        # and no RuntimeWarning (filterwarnings = error turns one into a failure)
        proc = main("run", "--grid", "8", "--steps", "1", "--tspan", "0:1e308", "--form", "orig")
        assert proc.returncode == 3
        assert "numerical failure" in proc.stderr
        assert "step 1/1: stage 2, partition 1" in proc.stderr and "overflowed" in proc.stderr

    @pytest.mark.parametrize("tf, failure", [
        # reduced phi results whose squared norms overflow, then a stage's
        # right-hand side that overflows
        ("1e5", "stage 3, partition 1: non-finite stage residual"),
        # a reduced exponential that overflows in its squaring phase
        ("1e6", "stage 2, partition 1, phi_1 term: phi evaluation overflowed (argument norm 3.23e+05)"),
    ])
    def test_overflow_names_the_fine_run_step(self, tf, failure, main):
        # a named failure of the fine run, and no warning (filterwarnings = error)
        proc = main("run", "--grid", "8", "--steps", "1", "--tspan", f"0:{tf}", "--form", "orig")
        assert proc.returncode == 3
        assert proc.stderr == f"numerical failure: reference integration failed: step 1/32: {failure}\n"

    def test_numerical_failure_exit_code(self, main):
        # a Krylov cap far below what the problem needs fails every study
        # product; the reference keeps its own m_max and integrates, so the
        # failure is the study's, named down to its partition
        proc = main(
            "run", "--grid", "16", "--partition", "physics", "--order", "2",
            "--form", "part", "--steps-pow2", "1:2", "--krylov-mmax", "2",
        )
        assert proc.returncode == 3
        assert "numerical failure" in proc.stderr
        assert "every step size failed" in proc.stderr and "partition" in proc.stderr
        assert "reference integration failed" not in proc.stderr

    def test_paper_scale_sets_grid_300(self, tmp_path):
        # the alias writes the grid; metadata records the grid that runs
        cfg = config_from("--paper-scale", "--form", "part", "--partition", "species")
        assert cfg.grid == PAPER_SCALE_GRID == 300
        assert study_model(cfg)[0].n == 300
        out = tmp_path / "meta.csv"
        emit_csv([], cfg.as_metadata(), out)
        _, metadata = parse_csv(out)
        assert metadata["grid"] == "300" and metadata["steps"] == "[2, 4, 8, 16, 32, 64]"
        assert "paper_scale" not in metadata and "steps_pow2" not in metadata

    def test_tspan_and_steps_parsing(self, tmp_path, main):
        out = tmp_path / "study.csv"
        proc = main(
            "run", "--grid", "8", "--partition", "physics", "--order", "2", "--form", "part",
            "--tspan", "0:0.02", "--steps", "2,4", "--krylov-tol", "1e-10", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        rows, _ = parse_csv(out)
        assert [r.h for r in rows] == [0.01, 0.005]

    def test_run_reports_reference_time_and_peak_rss(self, main):
        proc = main("run", "--grid", "8", "--steps", "1,2")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert re.fullmatch(r"# reference gap \S+ over 64 steps in \d+\.\d ms", lines[1]), lines[1]
        assert re.fullmatch(r"# reference work \d+ matvecs, \d+ solves, \d+ krylov dims over 64 \+ 32 steps",
                            lines[2]), lines[2]
        # after the study's rows
        assert re.fullmatch(r"# peak rss \d+\.\d MiB, reference child \d+\.\d MiB", lines[-1]), lines[-1]
        assert len(lines) == 7
