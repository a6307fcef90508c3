"""Per-layer tracing of a benchmark pass, installed from outside the program.

``Tracer.installed()`` wraps the public calls of each ttsat layer (model,
encoder, cardinality, cnf, solver, decode) in every ttsat module that binds
them, and restores the originals on exit; nothing under ``src/`` changes.

Each wrapped call records a span ``[name, start, end, parent, job, attrs]``
in memory.  The solver's loading methods (``CdclSolver.add_clause``,
``new_var``, ``ensure_vars``) run up to about 10^6 times a job, so they only
accumulate time and counts per job.  ``Tracer.write`` dumps everything
once, at the end of the run; ``Tracer.metrics`` folds it into the
``PER_LAYER`` metrics, summed over the pass's jobs.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from contextlib import contextmanager

FAMILIES = (
    "link_ct_cd",
    "link_ct_kt",
    "curriculum_clashes",
    "registration_clashes",
    "teacher_clashes",
    "room_clashes",
    "timeslot_unavailability",
    "room_capacity",
    "room_assignment",
    "meeting_count",
)
# encode_with_families inlines curriculum_clashes: its time is encoder self time
TIMED_FAMILIES = tuple(f for f in FAMILIES if f != "curriculum_clashes")

PER_LAYER = (
    ("model.parse_s", "s"),
    ("model.validate_s", "s"),
    ("encoder.encode_s", "s"),
    ("encoder.self_s", "s"),
    ("encoder.vars", "count"),
    ("encoder.clauses", "count"),
    *((f"encoder.clauses.{f}", "count") for f in FAMILIES),
    *((f"encoder.family_s.{f}", "s") for f in TIMED_FAMILIES),
    ("cardinality.encode_s", "s"),
    ("cardinality.calls", "count"),
    ("cnf.write_s", "s"),
    ("cnf.parse_s", "s"),
    ("cnf.wcnf_bytes", "count"),
    ("cnf.falsified_weight_s", "s"),
    ("cnf.falsified_weight_calls", "count"),
    ("solver.maxsat_s", "s"),
    ("solver.load_s", "s"),
    ("solver.new_vars", "count"),
    ("solver.vars_final", "count"),
    ("solver.sat_calls", "count"),
    ("solver.sat_s", "s"),
    ("solver.conflicts", "count"),
    ("solver.shrink_calls", "count"),
    ("solver.shrink_s", "s"),
    ("solver.shrink_unknown_ratio", "ratio"),
    ("solver.strata", "count"),
    ("solver.cores", "count"),
    ("solver.heap_entries", "count"),
    ("solver.self_s", "s"),
    ("decode.decode_s", "s"),
    ("decode.check_hard_s", "s"),
    ("decode.compute_cost_s", "s"),
    ("decode.render_s", "s"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# (module, function, span name); wrapped wherever a ttsat module binds it
SPANNED = (
    ("model", "parse_instance", "model.parse"),
    ("model", "validate_instance", "model.validate"),
    ("encoder", "encode_with_families", "encoder.encode"),
    *(("encoder", f, f"encoder.family.{f}") for f in TIMED_FAMILIES),
    ("cardinality", "encode_exactly", "cardinality.encode"),
    ("cnf", "write_dimacs", "cnf.write"),
    ("cnf", "parse_dimacs", "cnf.parse"),
    ("solver", "solve_maxsat", "solver.maxsat"),
    ("decode", "decode_timetable", "decode.decode"),
    ("decode", "check_hard", "decode.check_hard"),
    ("decode", "compute_cost", "decode.compute_cost"),
    ("decode", "render_timetable", "decode.render"),
)
SOLVER_LOAD = ("add_clause", "new_var", "ensure_vars")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.jobs: dict[str, dict] = {}  # job -> per-job accumulators
        self._stack: list[int] = []
        self._job: str | None = None
        self._acc: dict = {}
        self._solvers: list = []
        self._load_depth = 0
        self._solve_depth = 0
        self._t0 = time.perf_counter()

    # -- recording -------------------------------------------------------

    def call(self, name, fn, args, kwargs, post=None):
        """Run fn inside a span; post(result, attrs) may annotate the span."""
        attrs: dict = {}
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._job, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if post is not None:
            post(result, attrs)
        return result

    def run_job(self, job: str, fn, *args):
        self._job = job
        self._acc = self.jobs[job] = {"load_s": 0.0, "new_vars": 0}
        self._solvers = []
        try:
            return self.call("job", fn, args, {})
        finally:
            self._acc["vars_final"] = sum(s.nvars for s in self._solvers)
            self._acc["heap_entries"] = sum(len(s.heap) for s in self._solvers)
            self._solvers = []
            self._job = None

    # -- wrappers --------------------------------------------------------

    def _spanned(self, name, fn, post=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, post)
        return wrapper

    def _load(self, name, fn):
        """Time only the outermost loading call made outside CdclSolver.solve."""
        counted = name == "new_var"

        def wrapper(solver, *args, **kwargs):
            if counted:
                self._acc["new_vars"] += 1
            if self._load_depth or self._solve_depth:
                return fn(solver, *args, **kwargs)
            self._load_depth = 1
            t0 = time.perf_counter()
            try:
                return fn(solver, *args, **kwargs)
            finally:
                self._acc["load_s"] += time.perf_counter() - t0
                self._load_depth = 0
        return wrapper

    def _solve(self, fn):
        signature = inspect.signature(fn)

        def wrapper(solver, *args, **kwargs):
            bound = signature.bind(solver, *args, **kwargs)
            budgeted = bound.arguments.get("conflict_limit") is not None
            before = solver.total_conflicts

            def post(result, attrs):
                attrs.update(budgeted=budgeted, status=result.status.value,
                             conflicts=solver.total_conflicts - before)

            self._solve_depth += 1
            try:
                return self.call("solver.sat", fn, (solver, *args), kwargs, post)
            finally:
                self._solve_depth -= 1
        return wrapper

    def _init(self, fn):
        def wrapper(solver, *args, **kwargs):
            fn(solver, *args, **kwargs)
            self._solvers.append(solver)
        return wrapper

    @contextmanager
    def installed(self):
        from ttsat import cnf, solver

        modules = [m for n, m in sys.modules.items() if n == "ttsat" or n.startswith("ttsat.")]
        patches = []  # (owner, attribute, original)

        def patch(owner, attr, new):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        def encoded(result, attrs):
            formula, _, families = result
            attrs.update(vars=formula.num_vars, clauses=len(formula.clauses),
                         families={f: len(idx) for f, idx in families.items()})

        def written(text, attrs):
            attrs["bytes"] = len(text.encode())

        posts = {"encoder.encode": encoded, "cnf.write": written}
        for module_name, fn_name, span in SPANNED:
            original = getattr(sys.modules[f"ttsat.{module_name}"], fn_name, None)
            if original is None:
                continue
            wrapper = self._spanned(span, original, posts.get(span))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        patch(m, attr, wrapper)
        patch(cnf.WcnfFormula, "falsified_weight",
              self._spanned("cnf.falsified_weight", cnf.WcnfFormula.falsified_weight))
        cdcl = solver.CdclSolver
        patch(cdcl, "__init__", self._init(cdcl.__init__))
        patch(cdcl, "solve", self._solve(cdcl.solve))
        for name in SOLVER_LOAD:
            patch(cdcl, name, self._load(name, getattr(cdcl, name)))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def metrics(self, traced_run_s: float, untraced_run_s: float) -> dict:
        dur: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            dur[name] = dur.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
            if parent is not None:
                child_s[parent] += end - start
        v = {name: 0 for name, _ in PER_LAYER}
        v["model.parse_s"] = dur.get("model.parse", 0.0)
        v["model.validate_s"] = dur.get("model.validate", 0.0)
        v["encoder.encode_s"] = dur.get("encoder.encode", 0.0)
        v["encoder.self_s"] = sum(
            s[2] - s[1] - child_s[i] for i, s in enumerate(self.spans) if s[0] == "encoder.encode")
        for f in TIMED_FAMILIES:
            v[f"encoder.family_s.{f}"] = dur.get(f"encoder.family.{f}", 0.0)
        v["cardinality.encode_s"] = dur.get("cardinality.encode", 0.0)
        v["cardinality.calls"] = calls.get("cardinality.encode", 0)
        v["cnf.write_s"] = dur.get("cnf.write", 0.0)
        v["cnf.parse_s"] = dur.get("cnf.parse", 0.0)
        v["cnf.falsified_weight_s"] = dur.get("cnf.falsified_weight", 0.0)
        v["cnf.falsified_weight_calls"] = calls.get("cnf.falsified_weight", 0)
        v["solver.maxsat_s"] = dur.get("solver.maxsat", 0.0)
        v["solver.sat_s"] = dur.get("solver.sat", 0.0)
        v["solver.sat_calls"] = calls.get("solver.sat", 0)
        unknown_shrinks = 0
        for name, start, end, _, _, attrs in self.spans:
            if name == "encoder.encode" and attrs:
                v["encoder.vars"] += attrs["vars"]
                v["encoder.clauses"] += attrs["clauses"]
                for f in FAMILIES:
                    v[f"encoder.clauses.{f}"] += attrs["families"].get(f, 0)
            elif name == "cnf.write" and attrs:
                v["cnf.wcnf_bytes"] += attrs["bytes"]
            elif name == "solver.sat" and attrs:
                v["solver.conflicts"] += attrs["conflicts"]
                if attrs["budgeted"]:
                    v["solver.shrink_calls"] += 1
                    v["solver.shrink_s"] += end - start
                    unknown_shrinks += attrs["status"] == "indeterminate"
                elif attrs["status"] == "sat":
                    v["solver.strata"] += 1
                elif attrs["status"] == "unsat":
                    v["solver.cores"] += 1
        if v["solver.shrink_calls"]:
            v["solver.shrink_unknown_ratio"] = unknown_shrinks / v["solver.shrink_calls"]
        for key in ("load_s", "new_vars", "vars_final", "heap_entries"):
            v[f"solver.{key}"] = sum(acc.get(key, 0) for acc in self.jobs.values())
        v["solver.self_s"] = (v["solver.maxsat_s"] - v["solver.load_s"] - v["solver.sat_s"]
                              - v["cnf.falsified_weight_s"])
        v["decode.decode_s"] = dur.get("decode.decode", 0.0)
        v["decode.check_hard_s"] = dur.get("decode.check_hard", 0.0)
        v["decode.compute_cost_s"] = dur.get("decode.compute_cost", 0.0)
        v["decode.render_s"] = dur.get("decode.render", 0.0)
        v["trace.run_s"] = traced_run_s
        v["trace.untraced_run_s"] = untraced_run_s
        v["trace.overhead_frac"] = traced_run_s / untraced_run_s - 1
        return {name: {"value": v[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path, **meta) -> None:
        spans = [
            {"name": name, "start": start - self._t0, "end": end - self._t0,
             "parent": parent, "job": job, **attrs}
            for name, start, end, parent, job, attrs in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**meta, "jobs": self.jobs, "spans": spans}, handle)
