"""The benchmark's tracer (`perfbench/tracing.py`) against the package.

The tracer wraps functions by the names the package looks them up under.
A refactor that unbinds one of those names, or stops calling through it,
breaks `perfbench/run.py --trace 1` without failing any other test; these
tests make it fail here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pexprk.harness import RunConfig, run_convergence_study
from pexprk.krylov import KrylovConfig
from pexprk.problems import gs_default, gs_initial, gs_partition
from pexprk.steppers import step_pexprk2_residual

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()  # a KeyError names a function no longer bound where it is patched
        yield tracer
    finally:
        tracer.uninstall()


def test_every_patched_name_is_called(tracer):
    patched = list(tracer._undo)
    assert patched and all(owner.__dict__[attr] is not original for owner, attr, original in patched)
    # physics split: a declared (Lanczos, eigh) and an undeclared (Arnoldi,
    # expm) operator; the harness path and the residual stepper between them
    # reach every wrapped name
    run_convergence_study(RunConfig(grid=8, partition="physics", form="part", order=4, steps=(1,)))
    model = gs_default(n=8)
    step_pexprk2_residual(gs_partition(model, "physics"), gs_initial(model), 0.01, KrylovConfig())
    spans = np.bincount(np.asarray(tracer.name_id), minlength=len(tracer.names))
    assert not [name for name, count in zip(tracer.names, spans) if count == 0]
    for key in ("coeffexpr.inner_calls", "coeffexpr.nodes"):
        assert tracer.counters[(0, key)] > 0, key


def test_uninstall_restores_the_originals(tracer):
    patched = list(tracer._undo)
    tracer.uninstall()
    assert not [attr for owner, attr, original in patched if owner.__dict__[attr] is not original]
