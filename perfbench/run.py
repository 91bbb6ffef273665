"""Benchmark of `pexprk run`: reference and study wall time, memory, per-layer work.

    python3 perfbench/run.py --workload mid-species-o4 --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The workload is driven through the harness entry points that
`pexprk run` uses: RunConfig -> reference_solution ->
run_convergence_study(cfg, reference=...), with one client in a closed
loop.  The reference is computed once; the study rows are then repeated
until --seconds have passed since the reference started (at least
MIN_STUDY_REPEATS times), and their median is reported.  Set-up is timed in
SETUP_PROBES fresh interpreters and reported as a median.

--trace 0 prints the end-to-end metrics.  --trace 1 does the same
untraced measurement, then one traced reference and study, and prints the
per-layer metrics of both phases; the spans go to .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
MIN_STUDY_REPEATS = 3
SETUP_PROBES = 5
OUT_DIR = ".perfbench_out"


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _limit_blas_threads(nproc: int):
    """No more BLAS threads than processors; set before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nproc: int, seed: int) -> dict:
    import importlib.util

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "inputs": "Gray-Scott inputs are deterministic; the seed is recorded and changes no input",
    }


def setup_probes(workload: str, src: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Outcome:
    """Operations attempted and failed: the reference plus every study row."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, why: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(why)


def study_pass(workload, cfg, reference, outcome: Outcome):
    """One study against the reference; every row is gated against its seed value."""
    from pexprk.harness import NumericalFailure, run_convergence_study
    from workloads import row_mismatch

    try:
        result = run_convergence_study(cfg, reference=reference)
    except NumericalFailure as exc:
        for _ in workload.seed_rows:
            outcome.record(False, f"study: {exc}")
        return None
    if len(result.rows) != len(workload.seed_rows):
        outcome.record(False, f"{len(result.rows)} rows, expected {len(workload.seed_rows)}")
        return result
    for row, expected in zip(result.rows, workload.seed_rows):
        why = row_mismatch(row, expected)
        outcome.record(not why, why)
    return result


def reference_pass(cfg, outcome: Outcome):
    from pexprk.harness import NumericalFailure, reference_solution

    try:
        reference = reference_solution(cfg)
    except NumericalFailure as exc:
        outcome.record(False, f"reference: {exc}")
        return None
    outcome.record(True)
    return reference


def measure(workload, seconds: float, outcome: Outcome) -> dict:
    """Untraced reference once, then study repeats until the window closes."""
    cfg = workload.run_config()
    gc.collect()
    window = perf_counter()
    reference = reference_pass(cfg, outcome)
    reference_s = perf_counter() - window
    study = []
    while reference is not None:
        gc.collect()
        start = perf_counter()
        result = study_pass(workload, cfg, reference, outcome)
        study.append(perf_counter() - start)
        if result is None:
            break
        if len(study) >= MIN_STUDY_REPEATS and perf_counter() - window >= seconds:
            break
    study_s = statistics.median(study) if study else 0.0
    return {"reference_s": reference_s, "study_s": study_s, "study_repeats": study}


def traced_pass(workload, outcome: Outcome):
    """One reference and one study with every layer boundary traced; returns
    the tracer, both phases' traced wall times and the study result."""
    from tracing import Tracer

    cfg = workload.run_config()
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        start = perf_counter()
        reference = tracer.run("ref", "reference_solution", reference_pass, cfg, outcome)
        ref_s = perf_counter() - start
        study_s, result = 0.0, None
        if reference is not None:
            gc.collect()
            start = perf_counter()
            result = tracer.run("study", "run_convergence_study", study_pass,
                                workload, cfg, reference, outcome)
            study_s = perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, ref_s, study_s, result


def _median(probes, key):
    return statistics.median(p[key] for p in probes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "pexprk" / "__init__.py").is_file():
        print(f"no pexprk sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nproc = _nproc()
    _limit_blas_threads(nproc)

    import pexprk

    if Path(pexprk.__file__).resolve().parent != (src / "pexprk").resolve():
        print(f"imported pexprk from {pexprk.__file__}, not from {src}", file=sys.stderr)
        return 2

    print("# environment " + json.dumps(environment(nproc, args.seed)))
    print(f"# workload {workload.name}: pexprk run {' '.join(workload.flags)}")
    probes = setup_probes(workload.name, src)
    outcome = Outcome()
    timed = measure(workload, args.seconds, outcome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"# reference {timed['reference_s']:.3f} s; study repeats "
          + " ".join(f"{s:.3f}" for s in timed["study_repeats"]) + " s")

    if args.trace:
        tracer, ref_traced, study_traced, _ = traced_pass(workload, outcome)
        metrics = {
            "setup.import_s": (_median(probes, "import_s"), "s"),
            "setup.tableaux.transform_s": (_median(probes, "transform_s"), "s"),
        }
        notes = {}
        for phase, traced_s, untraced_s in (
            ("ref", ref_traced, timed["reference_s"]),
            ("study", study_traced, timed["study_s"]),
        ):
            layer, layer_notes = tracer.layer_metrics(phase)
            metrics.update(layer)
            notes.update(layer_notes)
            metrics[f"{phase}.trace.overhead_s"] = (traced_s - untraced_s, "s")
        out = root / OUT_DIR
        out.mkdir(exist_ok=True)
        tracer.save(out / f"{workload.name}-spans.npz")
        for (phase, name), (calls, total, own) in sorted(tracer.self_times().items()):
            print(f"# span {phase:5} {name:34} calls {calls:8d} total {total:9.3f} s self {own:9.3f} s")
        for key, note in notes.items():
            print(f"# {key}: {note}")
    else:
        metrics = {
            "setup_s": (_median(probes, "setup_s"), "s"),
            "reference_s": (timed["reference_s"], "s"),
            "study_s": (timed["study_s"], "s"),
            "run_s": (timed["reference_s"] + timed["study_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }

    for why in outcome.problems:
        print(f"# FAILED {why}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
