"""Command-line interface.

    pexprk run          convergence study on the reaction-diffusion benchmark
    pexprk check-order  stiff order-condition residuals for a catalog method
    pexprk dump-tableau coefficient expressions in stable text form

Exit codes: 0 on success, 2 for configuration errors, 3 for numerical
failures (reference gate violation or a study with no surviving rows).
"""

import argparse
import json
import resource
import sys
from dataclasses import fields
from pathlib import Path

from .harness import (
    FORMS,
    JACOBIANS,
    ConfigError,
    NumericalFailure,
    RunConfig,
    emit_csv,
    run_convergence_study,
)
from .problems import PAPER_SCALE_GRID, PARTITION_NAMES
from .tableaux import check_order_conditions, dump_tableau, tableau, transformed

_UNSET = object()


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
    run.add_argument("--config", help="JSON file mirroring the flags; flags override it")
    run.add_argument("--grid", type=int, default=_UNSET)
    run.add_argument("--partition", default=_UNSET, choices=("none",) + PARTITION_NAMES)
    run.add_argument("--order", type=int, default=_UNSET, choices=[2, 3, 4])
    run.add_argument("--form", default=_UNSET, choices=FORMS)
    run.add_argument("--jacobian", default=_UNSET, choices=JACOBIANS)
    run.add_argument("--tspan", default=_UNSET, help="t0:tf")
    run.add_argument("--steps-pow2", default=_UNSET,
                     help="j0:j1, shorthand for --steps 2^j0,...,2^j1")
    run.add_argument("--steps", default=_UNSET, help="comma-separated step counts")
    run.add_argument("--krylov-tol", type=float, default=_UNSET)
    run.add_argument("--krylov-mmax", type=int, default=_UNSET)
    run.add_argument("--out", default=_UNSET, help="CSV output path")
    run.add_argument("--paper-scale", action="store_const", const=True, default=_UNSET,
                     help=f"shorthand for --grid {PAPER_SCALE_GRID}")

    check = sub.add_parser("check-order", help="stiff order-condition residuals")
    check.add_argument("--order", type=int, required=True, choices=[2, 3, 4])
    check.add_argument("--size", type=int, default=6)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--up-to", type=int, default=None, choices=[1, 2, 3, 4])

    dump = sub.add_parser("dump-tableau", help="print a method's coefficients")
    dump.add_argument("--order", type=int, required=True, choices=[2, 3, 4])
    dump.add_argument("--transformed", action="store_true")

    return parser


_FIELDS = {f.name for f in fields(RunConfig)}


def _field_values(values: dict, source: str) -> dict:
    """One source's settings as RunConfig fields.  The shorthands tspan,
    paper_scale and steps_pow2 write (t0, tf), grid and steps, which the same
    source may not set to anything else."""
    if "tspan" in values and values.keys() & {"t0", "tf"}:
        raise ConfigError(f"{source} sets both tspan and t0/tf")
    out = {}
    for key, value in values.items():
        if key == "tspan":
            out["t0"], out["tf"] = _parse_pair(str(value), "tspan", float)
        elif key == "steps":
            out["steps"] = tuple(value) if isinstance(value, list) else _parse_steps(str(value))
        elif key not in _FIELDS | {"paper_scale", "steps_pow2"}:
            raise ConfigError(f"unknown configuration key {key!r}")
        else:
            out[key] = value
    paper_scale = out.pop("paper_scale", False)
    if not isinstance(paper_scale, bool):
        raise ConfigError(f"paper-scale must be true or false, got {paper_scale!r}")
    if paper_scale and out.setdefault("grid", PAPER_SCALE_GRID) != PAPER_SCALE_GRID:
        raise ConfigError(f"{source} sets both paper-scale and grid {out['grid']!r}")
    if "steps_pow2" in out:
        if "steps" in out:
            raise ConfigError(f"{source} sets both steps and steps-pow2")
        j0, j1 = _parse_pair(str(out.pop("steps_pow2")), "steps-pow2", int)
        if not 1 <= j0 <= j1:
            raise ConfigError(f"steps-pow2 needs 1 <= j0 <= j1, got {j0}:{j1}")
        out["steps"] = tuple(2**j for j in range(j0, j1 + 1))
    return out


def _config_from_args(args) -> RunConfig:
    values = {}
    if args.config:
        try:
            with open(args.config) as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        raw = {key.replace("-", "_"): value for key, value in raw.items()}
        values.update(_field_values(raw, "the config file"))
    flags = {key: value for key, value in vars(args).items()
             if value is not _UNSET and key not in ("command", "config")}
    values.update(_field_values(flags, "the command line"))  # flags override the file
    cfg = RunConfig(**values)
    cfg.validate()
    # checked before the study runs, not when its CSV is written at the end
    if cfg.out and (not isinstance(cfg.out, str) or Path(cfg.out).is_dir()
                    or not Path(cfg.out).parent.is_dir()):
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
    if cfg.out:
        emit_csv(result.rows, result.metadata, cfg.out)
        print(f"# wrote {cfg.out}")
    return 0


def _cmd_check_order(args) -> int:
    if args.size < 1:
        raise ConfigError(f"size must be >= 1, got {args.size}")
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
