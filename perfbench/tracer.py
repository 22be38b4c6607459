"""Outside-in tracer: spans around the public functions of every layer.

``Tracer.install`` replaces, at every module attribute of the ``artifact``
package that binds a traced function (``artifact.solver.energy_of`` as well
as ``artifact.monotone.energy``), a wrapper that records a span (name, start,
end, parent) in memory; methods are wrapped on their class.  ``restore`` puts
every original back.  The program itself is not changed.

Work the tracer does for itself (hashing solve inputs, reading counts off a
result) is recorded as ``trace.hook`` spans, so it is subtracted from the
caller's self time and shows only in ``trace.overhead_frac``.
"""

import functools
import hashlib
import inspect
import json
import sys
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, end=None, parent=None, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.info = info or {}

    @property
    def duration(self):
        return self.end - self.start

    def to_list(self):
        return [self.name, self.start, self.end, self.parent, self.info]


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._paused = False
        self._solve_keys = set()

    # -- recording -------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _hook(self, fn, *args):
        """Run tracer bookkeeping unrecorded, inside a ``trace.hook`` span."""
        span = self._open("trace.hook")
        self._paused = True
        try:
            return fn(*args)
        finally:
            self._paused = False
            self._close(span)

    def wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            info = tracer._hook(before, fn, args, kwargs) if before else {}
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span.info = info
            if after:
                tracer._hook(after, span, fn, args, kwargs, result)
            return result

        return traced

    # -- installing ------------------------------------------------------------

    def install(self):
        from artifact import capacity, cli, levelsets, monotone, solver
        from artifact._expr import Expression
        from artifact.domain import lattice

        functions = [
            (lattice.build_grid, "domain.build_grid", None, _after_grid),
            (lattice.complement_cap, "domain.complement_cap", None, None),
            (monotone.energy, "monotone.energy", None, None),
            (monotone.weak_residual, "monotone.weak_residual", None, None),
            (solver.solve_obstacle, "solver.solve_obstacle", self._solve_key, _after_solve),
            (solver.solve_dirichlet, "solver.solve_dirichlet", self._solve_key, _after_solve),
            (solver.residual_breakdown, "solver.residual_breakdown", None, None),
            (capacity.wiener_probe, "capacity.wiener_probe", None, None),
            (capacity.capacitary_potential, "capacity.capacitary_potential", None, None),
            (capacity.barrier_build, "capacity.barrier_build", None, None),
            (capacity.locality_check, "capacity.locality_check", None, None),
            (capacity.radial_profile, "capacity.radial_profile", None, None),
            (capacity.sigma_grid_for, "capacity.sigma_grid_for", None, None),
            (levelsets.level_stats, "levelsets.level_stats", None, None),
            (levelsets.check_caccioppoli, "levelsets.check_caccioppoli", None, None),
            (levelsets.check_psi_recursion, "levelsets.check_psi_recursion", None, None),
            (levelsets.threshold_level_gap, "levelsets.threshold_level_gap", None, None),
            (levelsets.oscillation_sequence, "levelsets.oscillation_sequence", None, None),
            (levelsets.n0_and_decay, "levelsets.n0_and_decay", None, None),
            (cli.run_suite, "cli.run_suite", None, None),
            (cli.run_scenario, "cli.run_scenario", None, None),
            (cli.load_scenario, "cli.load_scenario", None, None),
        ]
        methods = [
            (lattice.GridDomain, "classify", "domain.classify"),
            (lattice.GridDomain, "nodes_within", "domain.nodes_within"),
            (Expression, "__call__", "expr.eval"),
        ]
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "artifact" or name.startswith("artifact.")
        ]
        for original, name, before, after in functions:
            traced = self.wrap(original, name, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, traced)
        for cls, attr, name in methods:
            self._patch(cls, attr, self.wrap(vars(cls)[attr], name))
        # run_scenario reaches the task executors through this table.
        for task, executor in list(cli._EXECUTORS.items()):
            self._patch(cli._EXECUTORS, task, self.wrap(executor, "cli.executor"))

    def _patch(self, owner, attr, value):
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- hooks -----------------------------------------------------------------

    def _solve_key(self, fn, args, kwargs):
        """Hash of everything that determines a solve; marks repeats."""
        from artifact.domain.lattice import BOUNDARY
        from artifact.solver import BoundaryData

        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        call = dict(bound.arguments)
        grid = call.pop("grid")
        spec = call.pop("spec")
        digest = hashlib.sha256()
        for part in (grid.labels.tobytes(), grid.origin.tobytes(), repr((grid.h, grid.dims)),
                     json.dumps(spec.to_dict(), sort_keys=True)):
            digest.update(part if isinstance(part, bytes) else part.encode())
        if "constraint" in call:
            con = call.pop("constraint")
            digest.update(con.indices.tobytes())
            digest.update(repr((con.height, con.sign)).encode())
        else:
            data = BoundaryData(call.pop("data"))
            boundary = (grid.labels == BOUNDARY).ravel()
            digest.update(data.evaluate(grid.points()[boundary]).tobytes())
        digest.update(repr(sorted(call.items())).encode())
        key = digest.hexdigest()
        repeat = key in self._solve_keys
        self._solve_keys.add(key)
        return {"repeat": repeat}


def _interior(grid):
    from artifact.domain.lattice import INTERIOR

    return int(np.count_nonzero(grid.labels == INTERIOR))


def _after_grid(span, fn, args, kwargs, grid):
    span.info["interior_nodes"] = _interior(grid)


def _after_solve(span, fn, args, kwargs, result):
    _, report = result
    grid = args[0] if args else kwargs["grid"]
    span.info.update(
        sweeps=report.iterations,
        presolve_sweeps=report.notes.get("presolve", {}).get("iterations", 0),
        converged=bool(report.converged),
        interior_nodes=_interior(grid),
    )


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass.
# ---------------------------------------------------------------------------

# The per-layer metrics, in print order, with their units.
METRICS = {
    "solver.self_s": "s",  # solve_obstacle/solve_dirichlet minus traced children
    "solver.sweeps": "count",  # SolveReport.iterations, summed over solves
    "solver.presolve_sweeps": "count",  # the t = 2 presolves of t != 2 Dirichlet solves
    "solver.sweeps_per_refinement": "ratio",  # finest / coarsest sweeps of the first probe; 0 without one
    "solver.node_updates": "count",  # (sweeps + presolve sweeps) x interior nodes
    "solver.node_updates_per_s": "1/s",  # node_updates / solver.self_s
    "solver.residual_breakdown_s": "s",  # inclusive: the weak residual inside it counts
    "solver.residual_calls": "count",
    "solver.solves": "count",
    "solver.converged_frac": "ratio",
    "solver.repeat_solves": "count",  # solves whose inputs hash equal to an earlier one's
    "solver.repeat_share": "ratio",  # their share of all solve seconds (inclusive)
    "monotone.energy_s": "s",
    "monotone.energy_calls": "count",
    "monotone.weak_residual_s": "s",
    "domain.build_grid_s": "s",
    "domain.classify_s": "s",
    "domain.complement_cap_s": "s",
    "domain.nodes_within_s": "s",
    "domain.interior_nodes": "count",  # summed over every grid build_grid returned
    "capacity.self_s": "s",
    "levelsets.s": "s",
    "levelsets.calls": "count",  # nested calls included
    "cli.self_s": "s",  # run_suite, run_scenario, load_scenario; executors excluded
    "cli.load_scenario_s": "s",
    "cli.bytes_written": "bytes",  # report.json and result tables; not the timed manifest
    "expr.eval_s": "s",
    "expr.calls": "count",
    "trace.overhead_frac": "ratio",  # traced wall_s / untraced wall_s - 1, medians of a run
}


def _descends(spans, index, ancestor):
    while index is not None:
        if index == ancestor:
            return True
        index = spans[index].parent
    return False


def layer_metrics(spans):
    """Every span-derived metric of ``METRICS`` for one traced pass.

    A ``_s`` metric is self time (span time minus child spans) unless its
    comment in ``METRICS`` says otherwise.
    """
    own = self_times(spans)

    def self_sum(prefix):
        return sum(s for span, s in zip(spans, own) if span.name.startswith(prefix))

    def count(name):
        return sum(1 for span in spans if span.name == name)

    solves = [span for span in spans if span.name.startswith("solver.solve_")]
    solver_self = self_sum("solver.solve_")
    sweeps = sum(span.info["sweeps"] for span in solves)
    presolve = sum(span.info["presolve_sweeps"] for span in solves)
    updates = sum(
        (span.info["sweeps"] + span.info["presolve_sweeps"]) * span.info["interior_nodes"]
        for span in solves
    )
    solve_time = sum(span.duration for span in solves)
    repeats = [span for span in solves if span.info["repeat"]]
    ratio = 0.0
    probes = [i for i, span in enumerate(spans) if span.name == "capacity.wiener_probe"]
    if probes:
        ladder = [
            span.info["sweeps"] for i, span in enumerate(spans)
            if span.name.startswith("solver.solve_") and _descends(spans, i, probes[0])
        ]
        if len(ladder) >= 2:
            ratio = ladder[-1] / ladder[0]
    return {
        "solver.self_s": solver_self,
        "solver.sweeps": sweeps,
        "solver.presolve_sweeps": presolve,
        "solver.sweeps_per_refinement": ratio,
        "solver.node_updates": updates,
        "solver.node_updates_per_s": updates / solver_self if solver_self else 0.0,
        "solver.residual_breakdown_s": sum(
            span.duration for span in spans if span.name == "solver.residual_breakdown"
        ),
        "solver.residual_calls": count("solver.residual_breakdown"),
        "solver.solves": len(solves),
        "solver.converged_frac": (
            sum(span.info["converged"] for span in solves) / len(solves) if solves else 0.0
        ),
        "solver.repeat_solves": len(repeats),
        "solver.repeat_share": (
            sum(span.duration for span in repeats) / solve_time if solve_time else 0.0
        ),
        "monotone.energy_s": self_sum("monotone.energy"),
        "monotone.energy_calls": count("monotone.energy"),
        "monotone.weak_residual_s": self_sum("monotone.weak_residual"),
        "domain.build_grid_s": self_sum("domain.build_grid"),
        "domain.classify_s": self_sum("domain.classify"),
        "domain.complement_cap_s": self_sum("domain.complement_cap"),
        "domain.nodes_within_s": self_sum("domain.nodes_within"),
        "domain.interior_nodes": sum(
            span.info["interior_nodes"] for span in spans if span.name == "domain.build_grid"
        ),
        "capacity.self_s": self_sum("capacity."),
        "levelsets.s": self_sum("levelsets."),
        "levelsets.calls": sum(1 for span in spans if span.name.startswith("levelsets.")),
        "cli.self_s": self_sum("cli.") - self_sum("cli.executor"),
        "cli.load_scenario_s": self_sum("cli.load_scenario"),
        "expr.eval_s": self_sum("expr.eval"),
        "expr.calls": count("expr.eval"),
    }
