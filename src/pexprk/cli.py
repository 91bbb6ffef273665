"""Command-line interface.

    pexprk run          convergence study on the reaction-diffusion benchmark
    pexprk check-order  stiff order-condition residuals for a catalog method
    pexprk dump-tableau coefficient expressions in stable text form

`pexprk run` takes its settings from flags alone; one left out keeps
RunConfig's default.  A shorthand (--paper-scale, --steps-pow2) excludes its
long form (--grid, --steps).

Exit codes: 0 on success, 2 for configuration and usage errors, 3 for
numerical failures (reference gate violation or a study with no surviving
rows).
"""

import argparse
import resource
import sys
from pathlib import Path

from .harness import (
    FORMS,
    ConfigError,
    NumericalFailure,
    RunConfig,
    emit_csv,
    run_convergence_study,
)
from .phi import MAX_DENSE_DIM
from .problems import PAPER_SCALE_GRID, PARTITION_NAMES
from .tableaux import check_order_conditions, dump_tableau, tableau, transformed


def _parse_pair(text: str, what: str, cast):
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"expected '{what}' as two values separated by ':', got {text!r}")
    try:
        return cast(parts[0]), cast(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from exc


def _parse_steps(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad step list {text!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pexprk", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a convergence study and emit CSV")
    # unset flags stay None, so RunConfig supplies its own defaults
    grid = run.add_mutually_exclusive_group()
    grid.add_argument("--grid", type=int)
    grid.add_argument("--paper-scale", dest="grid", action="store_const", const=PAPER_SCALE_GRID,
                      help=f"shorthand for --grid {PAPER_SCALE_GRID}")
    run.add_argument("--partition", choices=("none",) + PARTITION_NAMES)
    run.add_argument("--order", type=int, choices=[2, 3, 4])
    run.add_argument("--form", choices=FORMS)
    run.add_argument("--tspan", help="t0:tf")
    steps = run.add_mutually_exclusive_group()
    steps.add_argument("--steps-pow2", help="j0:j1, shorthand for --steps 2^j0,...,2^j1")
    steps.add_argument("--steps", help="comma-separated step counts")
    run.add_argument("--krylov-tol", type=float)
    run.add_argument("--krylov-mmax", type=int)
    run.add_argument("--out", help="CSV output path")

    check = sub.add_parser("check-order", help="stiff order-condition residuals")
    check.add_argument("--order", type=int, required=True, choices=[2, 3, 4])
    check.add_argument("--size", type=int, default=6)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--up-to", type=int, default=None, choices=[1, 2, 3, 4])

    dump = sub.add_parser("dump-tableau", help="print a method's coefficients")
    dump.add_argument("--order", type=int, required=True, choices=[2, 3, 4])
    dump.add_argument("--transformed", action="store_true")

    return parser


def _config_from_args(args) -> RunConfig:
    values = {key: value for key, value in vars(args).items() if value is not None}
    del values["command"]
    if "tspan" in values:
        values["t0"], values["tf"] = _parse_pair(values.pop("tspan"), "tspan", float)
    if "steps" in values:
        values["steps"] = _parse_steps(values["steps"])
    if "steps_pow2" in values:
        j0, j1 = _parse_pair(values.pop("steps_pow2"), "steps-pow2", int)
        if not 1 <= j0 <= j1:
            raise ConfigError(f"steps-pow2 needs 1 <= j0 <= j1, got {j0}:{j1}")
        values["steps"] = tuple(2**j for j in range(j0, j1 + 1))
    cfg = RunConfig(**values)
    cfg.validate()
    # checked before the study runs, not when its CSV is written at the end
    if cfg.out is not None and (Path(cfg.out).is_dir() or not Path(cfg.out).parent.is_dir()):
        raise ConfigError(f"out must be a file path in an existing directory, got {cfg.out!r}")
    return cfg


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    print(f"# {cfg.label()} on gray-scott, grid {cfg.grid}, partition {cfg.partition}")
    result = run_convergence_study(cfg)
    ref = result.reference
    print(f"# reference gap {ref.gap:.3e} over {ref.n_steps} steps in {ref.wall_ms:.1f} ms")
    print(f"# reference work {ref.stats.matvecs} matvecs, {ref.stats.solves} solves, "
          f"{ref.stats.krylov_dim_total} krylov dims over {ref.n_steps} + {ref.n_steps // 2} steps")
    print(f"{'h':>12} {'error_l2':>14} {'order':>7} {'matvecs':>9} {'krylov':>9} {'ms':>9}")
    for row in result.rows:
        order = f"{row.observed_order:7.3f}" if row.observed_order is not None else "      -"
        if row.failed:
            print(f"{row.h:12.6f} {'failed':>14} {'-':>7}   ({row.message})")
        else:
            print(
                f"{row.h:12.6f} {row.error_l2:14.6e} {order} "
                f"{row.matvecs:9d} {row.krylov_dims:9d} {row.wall_ms:9.1f}"
            )
    # ru_maxrss is in KiB on Linux, bytes on macOS; the children's is the
    # largest of the joined child processes', the coarse reference run's
    unit = 2**20 if sys.platform == "darwin" else 2**10
    peak, child = (resource.getrusage(who).ru_maxrss / unit
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(f"# peak rss {peak:.1f} MiB, reference child {child:.1f} MiB")
    if cfg.out is not None:
        emit_csv(result.rows, result.metadata, cfg.out)
        print(f"# wrote {cfg.out}")
    return 0


def _cmd_check_order(args) -> int:
    if not 1 <= args.size <= MAX_DENSE_DIM:
        raise ConfigError(f"size must be in [1, {MAX_DENSE_DIM}], got {args.size}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    t = tableau(args.order)
    up_to = args.up_to if args.up_to is not None else t.design_order
    residuals = check_order_conditions(t, up_to=up_to, n=args.size, seed=args.seed)
    print(f"# stiff order-condition residuals, order-{args.order} method, "
          f"size {args.size}, seed {args.seed}")
    for label, value in residuals.items():
        print(f"condition {label:>2}: {value:.6e}")
    return 0


def _cmd_dump(args) -> int:
    t = transformed(args.order) if args.transformed else tableau(args.order)
    sys.stdout.write(dump_tableau(t))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check-order":
            return _cmd_check_order(args)
        if args.command == "dump-tableau":
            return _cmd_dump(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
