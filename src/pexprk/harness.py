"""Convergence-study harness.

Runs a fixed-step integrator over a dyadic ladder of step sizes against a
fine-step reference, reports discrete-L2 errors and observed orders, and
writes the results as a commented CSV.  The reference is the order-4
transformed method at a step 32 times smaller than the smallest study step,
guarded by a self-consistency gate: the reference computed at h_ref and at
2 h_ref must differ by far less than the smallest study error.

A run's cell of the study matrix is its form and partition; the Jacobian
an unpartitioned form freezes follows from them (``RunConfig.jacobian``).

The two reference integrations run at the same time: the coarse one in a
forked child process, the fine one in this process, each with numpy's
OpenBLAS pinned to one thread (two processes at two threads each would
fight over two cores).  The study rows integrate, and the gap and the
gate's roundoff floor (BLAS norms) are computed, under the same pin, so
neither the reference state, its gap, nor a study row depends on
OPENBLAS_NUM_THREADS.  The child is forked after the problem and its cached
Jacobian structure are built, so it shares them with this process and adds
only the memory its own integration allocates.  Fork, unlike spawn, pickles
nothing on the way in, so injected problems may hold lambdas; the child
sends back its IntegrationResult, or the exception it raised, through a
pipe.  No other thread of this program is running at the fork, and
OpenBLAS registers a fork handler for its own thread pool.
"""

import ctypes
import math
import multiprocessing
import numbers
import pickle
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .krylov import KrylovConfig, KrylovStats
from .problems import (
    DESK_GRID,
    PARTITION_NAMES,
    TIMESPAN,
    gs_default,
    gs_initial,
    gs_partition,
    gs_unpartitioned,
)
from .steppers import (
    IntegrationFailure,
    SplitProblem,
    integrate_fixed,
    original_stepper,
    pexprk_stepper,
)

REFERENCE_REFINEMENT = 32       # h_ref = smallest study step / 32
REFERENCE_TOL = 1e-13
REFERENCE_GATE = 1e-2           # gap must stay below this fraction of min error

CSV_COLUMNS = ("h", "error_l2", "observed_order", "matvecs", "krylov_dims", "wall_ms")


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


class NumericalFailure(RuntimeError):
    """Reference gate violation or a fully failed study (CLI exit code 3)."""


FORMS = ("orig", "tran", "part")


@dataclass
class RunConfig:
    grid: int = DESK_GRID
    partition: str = "none"
    order: int = 2
    form: str = "tran"
    t0: float = 0.0
    tf: float = TIMESPAN
    steps: tuple = (2, 4, 8, 16, 32, 64)
    krylov_tol: float = 1e-12
    krylov_mmax: int = 100
    out: str | None = None

    def validate(self):
        for name in ("grid", "order", "krylov_mmax"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("t0", "tf", "krylov_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.partition not in ("none",) + PARTITION_NAMES:
            raise ConfigError(f"unknown partition {self.partition!r}")
        if self.order not in (2, 3, 4):
            raise ConfigError(f"order must be 2, 3, or 4, got {self.order}")
        if self.form not in FORMS:
            raise ConfigError(f"form must be orig, tran, or part, got {self.form!r}")
        # the study matrix: orig and tran on the full Jacobian, tran on a
        # partition's block Jacobian, part on a partition's own operators
        if self.form == "part" and self.partition == "none":
            raise ConfigError("--form part requires a partition")
        if self.form == "orig" and self.partition != "none":
            raise ConfigError("--partition does nothing with --form orig")
        if not self.tf > self.t0:
            raise ConfigError(f"empty time span [{self.t0}, {self.tf}]")
        if self.krylov_tol <= 0 or self.krylov_mmax < 1:
            raise ConfigError("Krylov tolerance must be positive and m_max >= 1")
        if not self.steps or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in self.steps
        ):
            raise ConfigError(f"steps must be one or more positive integers, got {self.steps!r}")
        if list(self.steps) != sorted(set(self.steps)):
            raise ConfigError("step counts must be strictly increasing")
        if self.grid < 3:
            raise ConfigError(f"grid side must be >= 3, got {self.grid}")
        if self.partition == "space" and self.grid % 2:
            raise ConfigError(f"the space partition needs an even grid side, got {self.grid}")

    def krylov(self) -> KrylovConfig:
        return KrylovConfig(tol=self.krylov_tol, m_max=self.krylov_mmax)

    @property
    def jacobian(self) -> str:
        """The frozen Jacobian: the partition's block for tran on a partition, else full."""
        return "block" if self.form == "tran" and self.partition != "none" else "full"

    def label(self) -> str:
        prefix = "pexprks" if self.form == "part" else "exprks"
        form = "tran" if self.form == "part" else self.form
        jac = "" if self.form == "orig" else f"_{self.jacobian}_jacobian"
        return f"{prefix}_{form}_order_{self.order}{jac}"

    def as_metadata(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(jacobian=self.jacobian, steps=list(self.steps), label=self.label())
        return out


@dataclass
class ConvergenceRow:
    h: float
    error_l2: float = math.nan
    observed_order: float | None = None
    matvecs: int = 0
    krylov_dims: int = 0
    wall_ms: float = 0.0
    failed: bool = False
    message: str = ""


@dataclass
class ReferenceSolution:
    state: np.ndarray
    gap: float          # discrete-L2 distance between the h_ref and 2 h_ref runs
    n_steps: int
    wall_ms: float
    stats: KrylovStats  # both runs' work, summed

    def roundoff_floor(self) -> float:
        """Smallest gap two fixed-step float64 runs can be expected to have:
        a random-walk roundoff accumulation over n_steps state updates."""
        return math.sqrt(self.n_steps) * np.finfo(float).eps * discrete_l2(self.state)


@dataclass
class StudyResult:
    rows: list
    reference: ReferenceSolution
    metadata: dict = field(default_factory=dict)

    def min_error(self) -> float:
        errors = [r.error_l2 for r in self.rows if not r.failed]
        return min(errors) if errors else math.nan


def discrete_l2(v: np.ndarray) -> float:
    return float(np.linalg.norm(v) / math.sqrt(v.size))


def study_model(cfg: RunConfig):
    """The validated configuration's model and its initial state."""
    cfg.validate()
    model = gs_default(n=cfg.grid)
    return model, gs_initial(model)


def build_study(cfg: RunConfig):
    """Problem, stepper and initial state for a run configuration."""
    model, u0 = study_model(cfg)
    if cfg.form == "part":
        problem = gs_partition(model, cfg.partition)
        stepper = pexprk_stepper(cfg.order)
    else:
        # validate() leaves a partition here only for tran's block Jacobian
        problem = gs_unpartitioned(model, None if cfg.partition == "none" else cfg.partition)
        stepper = (original_stepper if cfg.form == "orig" else pexprk_stepper)(cfg.order)
    return model, problem, stepper, u0


# (getter, setter) symbols of the thread count, by OpenBLAS build
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=1)
def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS that numpy's wheel
    bundles (in numpy.libs), or None where there is none."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """numpy's OpenBLAS at one thread inside the block, in this process and
    in a process forked inside it; the old count comes back on exit."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _coarse_run(conn, *args):
    """The forked child: integrate_fixed(*args), and send back its result or
    (the exception it raised, that exception's traceback)."""
    try:
        out = integrate_fixed(*args)
    except Exception as exc:  # raised again in the parent
        tb = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # an exception the parent could not rebuild
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        out = (exc, tb)
    conn.send(out)
    conn.close()


def _fine_and_coarse(stepper, problem, u0, t0, tf, n_fine, kcfg):
    """Integrations of n_fine steps, in this process, and n_fine / 2 steps, in
    a forked child, at the same time.  The caller pins BLAS to one thread,
    and the child inherits the pin.  A failure of the fine run is raised in
    preference to one of the coarse run; the child is always joined."""
    fork = multiprocessing.get_context("fork")
    receiver, sender = fork.Pipe(duplex=False)
    child = fork.Process(target=_coarse_run, args=(sender, stepper, problem, u0, t0, tf, n_fine // 2, kcfg),
                         name="pexprk-coarse-reference", daemon=True)
    unread = object()
    coarse = unread
    child.start()
    sender.close()
    try:
        fine = integrate_fixed(stepper, problem, u0, t0, tf, n_fine, kcfg)
        try:
            coarse = receiver.recv()
        except EOFError:
            coarse = None
    finally:
        receiver.close()
        if coarse is unread:  # nothing will read what the child sends
            child.terminate()
        child.join()
    if coarse is None:
        raise RuntimeError(f"the coarse reference run ended with exit code {child.exitcode} and sent no result")
    if isinstance(coarse, tuple):
        exc, tb = coarse
        raise exc from RuntimeError(f"raised in the coarse reference run:\n{tb}")
    return fine, coarse


def reference_solution(cfg: RunConfig, problem: SplitProblem | None = None, u0=None) -> ReferenceSolution:
    """Fine-step reference at h_ref = (smallest study step) / 32.

    Computed with the order-4 transformed method (full Jacobian) at its own
    Krylov settings, tolerance 1e-13 and m_max 100, whatever the study's,
    and validated against the run at 2 h_ref, which runs at the same time in
    a forked child (module docstring); the study applies the gate once its
    errors are known.  A single-partition problem and initial state may be
    injected (used by tests with known solutions).
    """
    if problem is None:
        model, u0 = study_model(cfg)
        problem = gs_unpartitioned(model)
    elif u0 is None:
        raise ValueError("an injected reference problem needs an initial state")
    problem.build_operators(u0)  # fills the problem's caches, which the child then shares
    ref_stepper = pexprk_stepper(4)
    n_fine = max(cfg.steps) * REFERENCE_REFINEMENT
    kcfg = KrylovConfig(tol=REFERENCE_TOL)
    start = time.perf_counter()
    with _one_blas_thread():  # both runs, and the gap's BLAS ddot
        try:
            fine, coarse = _fine_and_coarse(ref_stepper, problem, u0, cfg.t0, cfg.tf, n_fine, kcfg)
        except IntegrationFailure as exc:
            raise NumericalFailure(f"reference integration failed: {exc}") from exc
        wall_ms = (time.perf_counter() - start) * 1e3
        gap = discrete_l2(fine.state - coarse.state)
    fine.stats.merge(coarse.stats)  # both runs' work
    return ReferenceSolution(
        state=fine.state,
        gap=gap,
        n_steps=n_fine,
        wall_ms=wall_ms,
        stats=fine.stats,
    )


def estimate_order(rows: list) -> list:
    """Observed order log2(e_{i-1} / e_i) for consecutive unfailed rows;
    None where either error is zero."""
    prev_error = None
    orders = []
    for row in rows:
        order = None
        if not row.failed and prev_error and row.error_l2 > 0:
            order = math.log2(prev_error / row.error_l2)
        row.observed_order = order
        orders.append(order)
        prev_error = None if row.failed else row.error_l2
    return orders


def run_convergence_study(cfg: RunConfig, reference: ReferenceSolution | None = None) -> StudyResult:
    """Integrate per step size against the reference and gate the result.

    Individual step-size failures (for instance an explicitly treated stiff
    partition at a large step) are recorded in their row and the study
    continues; the study only aborts if every row fails or the reference
    self-consistency gate is violated.
    """
    _, problem, stepper, u0 = build_study(cfg)
    if reference is None:
        reference = reference_solution(cfg)
    kcfg = cfg.krylov()
    rows = []
    # as the reference: rows and the gate's floor independent of the thread count
    with _one_blas_thread():
        for n_steps in cfg.steps:
            h = (cfg.tf - cfg.t0) / n_steps
            row = ConvergenceRow(h=h)
            start = time.perf_counter()
            try:
                result = integrate_fixed(stepper, problem, u0, cfg.t0, cfg.tf, n_steps, kcfg)
                row.error_l2 = discrete_l2(result.state - reference.state)
                row.matvecs = result.stats.matvecs
                row.krylov_dims = result.stats.krylov_dim_total
            except IntegrationFailure as exc:
                row.failed = True
                row.message = str(exc)
            row.wall_ms = (time.perf_counter() - start) * 1e3
            rows.append(row)
        floor = reference.roundoff_floor()
    estimate_order(rows)

    if all(row.failed for row in rows):
        last = rows[-1]
        raise NumericalFailure(
            f"every step size failed; no convergence data produced (h = {last.h:.6g}: {last.message})"
        )
    metadata = cfg.as_metadata()
    metadata["reference_gap"] = reference.gap
    metadata["reference_steps"] = reference.n_steps
    result = StudyResult(rows=rows, reference=reference, metadata=metadata)
    min_error = result.min_error()
    # a study this accurate can undercut the float64 roundoff drift between
    # the two reference runs; the gate only bites above that floor
    gate = max(REFERENCE_GATE * min_error, floor)
    if not reference.gap < gate:
        raise NumericalFailure(
            f"reference self-consistency gate violated: gap {reference.gap:.3e} "
            f"vs smallest study error {min_error:.3e}"
        )
    return result


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows: list, metadata: dict, path) -> None:
    """Write '#'-commented metadata, a header line, then one row per step size.

    Floats are written with shortest round-trip precision so parsing the file
    back reproduces the rows bit-exactly.  Timestamps stay in the comments;
    the data rows depend only on the configuration (wall_ms excepted, being
    a measurement).
    """
    lines = [f"# generated_at = {time.strftime('%Y-%m-%dT%H:%M:%S%z')}"]
    for key in sorted(metadata):
        lines.append(f"# {key} = {metadata[key]}")
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        lines.append(
            ",".join(
                _format_value(getattr(row, column))
                for column in CSV_COLUMNS
            )
        )
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def parse_csv(path) -> tuple[list, dict]:
    """Read back a study CSV: (rows, metadata-comment dict)."""
    metadata = {}
    rows = []
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle]
    body = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            metadata[key.strip()] = value.strip()
        elif line:
            body.append(line)
    if not body:
        return rows, metadata
    header = body[0].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV columns {header}")
    for line in body[1:]:
        parts = line.split(",")
        rows.append(
            ConvergenceRow(
                h=float(parts[0]),
                error_l2=float(parts[1]) if parts[1] else math.nan,
                observed_order=float(parts[2]) if parts[2] else None,
                matvecs=int(parts[3]),
                krylov_dims=int(parts[4]),
                wall_ms=float(parts[5]),
                failed=parts[1] == "nan",
            )
        )
    return rows, metadata


def rows_data_equal(a: list, b: list) -> bool:
    """Row equality on the deterministic columns (wall time excluded)."""
    def key(r):
        return repr(r.h), repr(r.error_l2), repr(r.observed_order), r.matvecs, r.krylov_dims

    return len(a) == len(b) and all(key(ra) == key(rb) for ra, rb in zip(a, b))
