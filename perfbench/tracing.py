"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces the names below, in the modules and classes that
call them, by wrappers that record one span per call: name, start, end,
parent span and phase.  Spans are kept in flat arrays in memory and written
once, at the end.  `Tracer.uninstall()` puts the original objects back.
The modules bind these names at import, so each is wrapped where it is
looked up, not where it is defined.

`layer_metrics()` turns the spans of one phase into the per-layer metrics:
counts of work, busy time, and self time (a span's duration minus the part
its child spans cover).
"""

from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

APPLY = "LinearOperator.apply"
EXTEND = "_ArnoldiState.extend"
STEP = "step"
PHI_SOLVES = ("coeffexpr.phi_times_vector", "steppers.phi_times_vector")
PHASES = ("ref", "study")
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
_SEEN = "_perfbench_basis"   # tag on Arnoldi states: id of the basis array last counted


def tail_level(n: int) -> float:
    """Highest percentile with at least ten of n samples beyond it (50 if none)."""
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= 10:
            return level
    return 50.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.phase_id = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.phase = 0   # index into PHASES
        self.counters: dict = defaultdict(float)
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1.0):
        self.counters[(self.phase, key)] += amount

    def span(self, name: str, fn, after=None):
        """fn wrapped to record a span per call; after(args, result) adds counts."""
        nid = self._id(name)
        name_id, parent, phase_id = self.name_id, self.parent, self.phase_id
        start, end, stack = self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            phase_id.append(self.phase)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counter(self, key: str, fn):
        """fn wrapped to count its calls, without a span."""
        counters = self.counters

        def counted(*args, **kwargs):
            counters[(self.phase, key)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr: str, wrapper):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    # -- the program's boundaries ------------------------------------------

    def install(self):
        from pexprk import coeffexpr, harness, krylov, operators, steppers

        def solved(args, res):
            self.count("krylov.dims", res.dim_used)
            if not res.converged:
                self.count("krylov.unconverged")

        def basis(state):
            # computed from array sizes: every basis array a state allocates
            if getattr(state, _SEEN, None) is None:
                self.count("krylov.factorizations")
            if getattr(state, _SEEN, None) != id(state.V):
                setattr(state, _SEEN, id(state.V))
                self.count("krylov.basis_bytes", state.V.nbytes)

        def expm(args, out):
            p, a = args[0], args[1]
            self.count("phi.expm_dims", a.shape[0] + p)

        def phi_array(args, out):
            self.count("phi.array_entries", out.size)

        def split_init(original):
            def post_init(problem):
                original(problem)
                problem.f_parts = tuple(
                    fp if hasattr(fp, "__wrapped__") else self.span("f_parts", fp)
                    for fp in problem.f_parts
                )

            return post_init

        def integrate(original):
            def run(stepper, *args, **kwargs):
                return original(self.span(STEP, stepper), *args, **kwargs)

            return self.span("harness.integrate_fixed", run)

        state_cls = krylov._ArnoldiState
        self._patch(krylov, "phi_cols_e1", lambda f: self.span("krylov.phi_cols_e1", f, expm))
        self._patch(krylov, "phi_array", lambda f: self.span("krylov.phi_array", f, phi_array))
        for module, name in ((coeffexpr, PHI_SOLVES[0]), (steppers, PHI_SOLVES[1])):
            self._patch(module, "phi_times_vector", lambda f, n=name: self.span(n, f, solved))
        self._patch(steppers, "eval_coeff", lambda f: self.span("steppers.eval_coeff", f))
        # recursive applications below the top one, and the nodes actually evaluated
        self._patch(coeffexpr, "eval_coeff", lambda f: self.counter("coeffexpr.inner_calls", f))
        self._patch(coeffexpr, "_eval_coeff_node", lambda f: self.counter("coeffexpr.nodes", f))
        self._patch(krylov.EvalContext, "arnoldi_state",
                    lambda f: self.span("EvalContext.arnoldi_state", f))
        self._patch(state_cls, "extend",
                    lambda f: self.span(EXTEND, f, lambda args, out: basis(args[0])))
        self._patch(state_cls, "reduced_phi", lambda f: self.span("_ArnoldiState.reduced_phi", f))
        self._patch(state_cls, "_eigendecomposition",
                    lambda f: self.span("_ArnoldiState._eigendecomposition", f))
        self._patch(operators.LinearOperator, "apply", lambda f: self.span(APPLY, f))
        self._patch(steppers.SplitProblem, "build_operators",
                    lambda f: self.span("SplitProblem.build_operators", f))
        self._patch(steppers.SplitProblem, "__post_init__", split_init)
        self._patch(harness, "integrate_fixed", integrate)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def run(self, phase: str, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) as the root span of a phase."""
        self.phase = PHASES.index(phase)
        return self.span(name, fn)(*args, **kwargs)

    # -- aggregation -------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span arrays (views would pin the buffers against appends)."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "phase": np.array(self.phase_id, dtype=np.int8),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), phases=np.array(PHASES), **self.arrays())

    def _durations(self):
        """Span arrays, each span's duration and its self time."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        return a, dur, dur - child

    def self_times(self) -> dict:
        """Per phase and name: calls, total seconds and self seconds."""
        a, dur, own = self._durations()
        table = {}
        for p, phase in enumerate(PHASES):
            in_phase = a["phase"] == p
            for nid, name in enumerate(self.names):
                sel = in_phase & (a["name_id"] == nid)
                if sel.any():
                    table[(phase, name)] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
        return table

    def layer_metrics(self, phase: str) -> tuple[dict, dict]:
        """Per-layer metrics of one phase, and notes that qualify them."""
        a, dur, own = self._durations()
        p = PHASES.index(phase)
        nid = a["name_id"]
        has_parent = a["parent"] >= 0
        in_phase = a["phase"] == p
        parent_name = np.full(nid.size, -1, dtype=np.int32)
        parent_name[has_parent] = nid[a["parent"][has_parent]]

        def sel(name):
            return in_phase & (nid == self._ids[name]) if name in self._ids else np.zeros_like(in_phase)

        def calls(*names_):
            return int(sum(sel(n).sum() for n in names_))

        def busy(*names_):
            return float(sum(dur[sel(n)].sum() for n in names_))

        def counter(key):
            return self.counters.get((p, key), 0.0)

        apply_id = self._ids.get(APPLY, -2)
        extend_id = self._ids.get(EXTEND, -2)
        top_apply = sel(APPLY) & (parent_name != apply_id)
        step_ms = np.sort(dur[sel(STEP)]) * 1e3
        level = tail_level(step_ms.size)
        solves = calls(*PHI_SOLVES)
        checks = calls("_ArnoldiState.reduced_phi")
        applications = calls("steppers.eval_coeff")
        expm_calls = calls("krylov.phi_cols_e1")
        pre = f"{phase}."
        metrics = {
            "steppers.steps": (step_ms.size, "count"),
            "steppers.step_ms_p50": (float(np.median(step_ms)) if step_ms.size else 0.0, "ms"),
            "steppers.step_ms_tail": (
                float(np.percentile(step_ms, level)) if step_ms.size else 0.0, "ms"),
            "problems.build_calls": (calls("SplitProblem.build_operators"), "count"),
            "problems.build_s": (busy("SplitProblem.build_operators"), "s"),
            "problems.rhs_calls": (calls("f_parts"), "count"),
            "problems.rhs_s": (busy("f_parts"), "s"),
            "operators.matvecs": (int(top_apply.sum()), "count"),
            "operators.matvecs_direct": (int((top_apply & (parent_name != extend_id)).sum()), "count"),
            "operators.apply_s": (float(dur[top_apply].sum()), "s"),
            "coeffexpr.applications": (applications, "count"),
            "coeffexpr.nodes": (int(counter("coeffexpr.nodes")), "count"),
            "coeffexpr.memo_hits": (
                int(applications + counter("coeffexpr.inner_calls") - counter("coeffexpr.nodes")),
                "count"),
            "coeffexpr.walk_s": (busy("steppers.eval_coeff"), "s"),
            "coeffexpr.self_s": (float(own[sel("steppers.eval_coeff")].sum()), "s"),
            "krylov.solves": (solves, "count"),
            "krylov.factorizations": (int(counter("krylov.factorizations")), "count"),
            "krylov.dims": (int(counter("krylov.dims")), "count"),
            "krylov.checks": (checks, "count"),
            "krylov.checks_per_solve": (checks / solves if solves else 0.0, "checks/solve"),
            "krylov.unconverged": (int(counter("krylov.unconverged")), "count"),
            "krylov.solve_s": (busy(*PHI_SOLVES), "s"),
            "krylov.eig_s": (busy("_ArnoldiState._eigendecomposition"), "s"),
            "krylov.arnoldi_s": (busy(EXTEND), "s"),
            "krylov.arnoldi_self_s": (float(own[sel(EXTEND)].sum()), "s"),
            "krylov.basis_mb": (counter("krylov.basis_bytes") / 2**20, "MiB"),
            "phi.expm_calls": (expm_calls, "count"),
            "phi.expm_s": (busy("krylov.phi_cols_e1"), "s"),
            "phi.expm_dim_mean": (counter("phi.expm_dims") / expm_calls if expm_calls else 0.0, "rows"),
            "phi.array_calls": (calls("krylov.phi_array"), "count"),
            "phi.array_s": (busy("krylov.phi_array"), "s"),
            "phi.array_entries": (int(counter("phi.array_entries")), "count"),
            "trace.spans": (int(in_phase.sum()), "count"),
        }
        notes = {
            pre + "steppers.step_ms_tail": f"p{level:g} of {step_ms.size} steps",
            pre + "krylov.basis_mb": "computed from Arnoldi basis array sizes, not measured",
            pre + "phi.expm_dim_mean": "rows of the augmented matrix passed to the reduced expm",
        }
        return {pre + k: v for k, v in metrics.items()}, notes

