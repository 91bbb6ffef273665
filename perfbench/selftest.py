"""Checks of the benchmark's own instruments.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of a source checkout.

1. One step on grid 64 at h = T/16 and Krylov tolerance 1e-12, traced from
   outside, for the original, transformed and species-partitioned forms at
   order 4.  The counts must equal the per-step table of ROADMAP.md (solves,
   factorizations, matvecs, reduced expm calls, phi_array calls) and the
   program's own KrylovStats (solves, krylov_dim_total, matvecs).
2. For each named workload (default: mid-orig-o4): one traced reference and
   study.  The traced study's matvec and Krylov-dimension counts must equal
   the sums of the rows' own matvecs and krylov_dims, and the rows from the
   in-process harness calls must be rows_data_equal to those that
   `pexprk.cli.main(["run", ...])` writes for the same flags.

Exits 0 when every check passes, 1 otherwise.
"""

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]

from run import Outcome, _limit_blas_threads, _nproc, traced_pass  # noqa: E402

_limit_blas_threads(_nproc())

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# ROADMAP per-step table: solves / factorizations / matvecs / phi_cols_e1 / phi_array
STEP_TABLE = {
    ("orig", "none"): (19, 5, 48, 99, None),
    ("tran", "none"): (80, 24, 235, 421, None),
    ("part", "species"): (160, 48, 428, 0, 981),
}


def one_step(form: str, partition: str) -> list[str]:
    from pexprk import harness
    from pexprk.krylov import KrylovConfig

    cfg = harness.RunConfig(grid=64, form=form, partition=partition, order=4)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase = 0
        _, problem, stepper, u0 = harness.build_study(cfg)
        h = (cfg.tf - cfg.t0) / 16
        result = harness.integrate_fixed(stepper, problem, u0, cfg.t0, cfg.t0 + h, 1, KrylovConfig(tol=1e-12))
    finally:
        tracer.uninstall()
    m, _ = tracer.layer_metrics("ref")
    got = (
        m["ref.krylov.solves"][0],
        m["ref.krylov.factorizations"][0],
        m["ref.operators.matvecs"][0],
        m["ref.phi.expm_calls"][0],
        m["ref.phi.array_calls"][0],
    )
    want = STEP_TABLE[(form, partition)]
    errors = []
    for label, g, w in zip(("solves", "factorizations", "matvecs", "phi_cols_e1", "phi_array"), got, want):
        if w is not None and g != w:
            errors.append(f"{form}/{partition}: {label} {g}, table {w}")
    own = result.stats
    for label, outside, inside in (
        ("solves", m["ref.krylov.solves"][0], own.solves),
        ("krylov dims", m["ref.krylov.dims"][0], own.krylov_dim_total),
        ("matvecs", m["ref.operators.matvecs"][0], own.matvecs),
    ):
        if outside != inside:
            errors.append(f"{form}/{partition}: traced {label} {outside}, KrylovStats {inside}")
    print(f"one step {form}/{partition}: solves/factorizations/matvecs/phi_cols_e1/phi_array = "
          + "/".join(str(v) for v in got) + (" ok" if not errors else " MISMATCH"))
    return errors


def workload_checks(name: str) -> list[str]:
    from pexprk.cli import main as cli_main
    from pexprk.harness import parse_csv, rows_data_equal

    workload = WORKLOADS[name]
    outcome = Outcome()
    tracer, _, _, result = traced_pass(workload, outcome)
    errors = [f"{name}: {why}" for why in outcome.problems]
    rows = result.rows if result is not None else []
    m, _ = tracer.layer_metrics("study")
    for label, outside, inside in (
        ("matvecs", m["study.operators.matvecs"][0], sum(r.matvecs for r in rows)),
        ("krylov dims", m["study.krylov.dims"][0], sum(r.krylov_dims for r in rows)),
    ):
        if outside != inside:
            errors.append(f"{name}: traced study {label} {outside}, rows {inside}")
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        csv = Path(tmp) / "study.csv"
        code = cli_main(["run", *workload.flags, "--out", str(csv)])
        cli_rows, _ = parse_csv(csv)
    if code != 0 or not rows_data_equal(rows, cli_rows):
        errors.append(f"{name}: `pexprk run` rows differ from the in-process rows (exit {code})")
    print(f"{name}: traced study matvecs {m['study.operators.matvecs'][0]}, "
          f"krylov dims {m['study.krylov.dims'][0]}; " + ("ok" if not errors else "MISMATCH"))
    return errors


def main(names) -> int:
    errors = []
    for form, partition in STEP_TABLE:
        errors += one_step(form, partition)
    for name in names or ["mid-orig-o4"]:
        errors += workload_checks(name)
    for e in errors:
        print("FAIL " + e)
    print("selftest " + ("passed" if not errors else f"failed: {len(errors)} problems"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
