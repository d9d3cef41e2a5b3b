"""Per-layer spans for the benchmark, recorded from outside the program.

Every timed function is wrapped where its caller looks it up: the modules
use `from .x import y`, so `flow.bfs_hops_multi` and `model.bfs_hops_multi`
are separate bindings and each is patched on its own. Methods are patched on
their class. Spans nest through a stack, so a function's self time is its
duration minus the time spent in spans it caused.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

ALL = ("ref6x6", "verify2x3")
PLAN = ("ref6x6",)
VERIFY = ("verify2x3",)

#: (function, module holding the binding, attribute, workloads that must call it)
BINDINGS = (
    ("instance.build_grid_instance", "cli", "build_grid_instance", PLAN),
    ("instance.coverage_matrix", "construct", "coverage_matrix", ALL),
    ("instance.coverage_matrix", "model", "coverage_matrix", ALL),
    ("instance.coverage_matrix", "oracle", "coverage_matrix", VERIFY),
    ("instance.connectivity_matrix", "construct", "connectivity_matrix", ALL),
    ("instance.connectivity_matrix", "model", "connectivity_matrix", ALL),
    ("instance.connectivity_matrix", "oracle", "connectivity_matrix", VERIFY),
    ("instance.link_capacities", "instance", "PlanningInstance.link_capacities", ALL),
    ("construct.construct_feasible", "mopso", "construct_feasible", ALL),
    ("construct.rebuild_pipeline", "construct", "rebuild_pipeline", ALL),
    ("construct.rebuild_pipeline", "mopso", "rebuild_pipeline", ALL),
    ("construct.place_access_points", "construct", "place_access_points", ALL),
    ("construct.place_relays", "construct", "place_relays", ALL),
    ("construct.connect_backbone", "construct", "connect_backbone", ALL),
    ("construct.select_gateways", "construct", "select_gateways", ALL),
    ("construct.assign_channels", "construct", "assign_channels", ALL),
    ("flow.route_flows", "construct", "route_flows", ALL),
    ("flow.route_flows", "oracle", "route_flows", VERIFY),
    ("model.check_constraints", "construct", "check_constraints", ALL),
    ("model.check_constraints", "mopso", "check_constraints", ALL),
    ("model.check_constraints", "oracle", "check_constraints", VERIFY),
    ("model.evaluate", "mopso", "evaluate", ALL),
    ("model.evaluate", "oracle", "evaluate", VERIFY),
    ("model.Solution.copy", "model", "Solution.copy", ALL),
    ("kernels.adjacency_csr", "flow", "adjacency_csr", ALL),
    ("kernels.adjacency_csr", "model", "adjacency_csr", ALL),
    # Only a capacity-blocked path re-runs single-source BFS; of the
    # workloads, only ref6x6 blocks one.
    ("kernels.bfs_hops", "flow", "bfs_hops", ("ref6x6",)),
    ("kernels.bfs_hops_multi", "flow", "bfs_hops_multi", ALL),
    ("kernels.bfs_hops_multi", "model", "bfs_hops_multi", ALL),
    ("kernels.crowding_distance_kernel", "mopso", "crowding_distance_kernel", PLAN),
    ("kernels.pareto_mask", "oracle", "pareto_mask", VERIFY),
    ("mopso.run", "cli", "run", ALL),
    ("mopso.mutate_solution", "mopso", "mutate_solution", ALL),
    ("mopso.ParetoArchive.update", "mopso", "ParetoArchive.update", ALL),
    ("mopso.ParetoArchive.sort_by_crowding", "mopso",
     "ParetoArchive.sort_by_crowding", ALL),
    ("oracle.true_pareto_front", "cli", "true_pareto_front", VERIFY),
)

#: The harness's own span around each `meshplan.cli.main` call.
CLI_MAIN = "cli.main"


def binding_label(module: str, attr: str) -> str:
    return f"{module}:{attr}"


class Tracer:
    """Span and counter store plus the patches that feed it.

    Totals are per tracer; `install` patches every binding and `uninstall`
    restores the originals, so untraced operations run the program as is.
    """

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.binding_calls = Counter()
        self.candidate_ms: list[float] = []
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._step_start = None

    # -- recording -------------------------------------------------------

    def _close(self, name: str, frame: list[float], t0: float) -> float:
        t1 = perf_counter()
        duration = t1 - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += duration
        self.calls[name] += 1
        self.busy[name] += duration
        self.self_time[name] += duration - frame[0]
        return t1

    def wrap(self, name: str, label: str, original, hook=None):
        """Return original wrapped so that each call records a span `name`."""
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, frame, t0)
                tracer.binding_calls[label] += 1
                tracer.counts[f"{name}.fail.{type(exc).__name__}"] += 1
                raise
            t1 = tracer._close(name, frame, t0)
            tracer.binding_calls[label] += 1
            if hook is not None:
                hook(tracer, args, result, t0, t1)
            return result

        traced.__wrapped__ = original
        return traced

    # -- hooks: counters read from arguments and results -------------------

    def _on_check(self, label):
        def hook(tracer, args, report, t0, t1):
            for check in report.checks:
                if not check.satisfied:
                    tracer.counts[f"model.check_constraints.failed.{check.id}"] += 1
            if report.feasible:
                tracer.counts[f"feasible@{label}"] += 1
        return hook

    @staticmethod
    def _on_bfs_multi(tracer, args, result, t0, t1):
        tracer.counts["kernels.bfs_hops_multi.sources"] += len(args[2])

    @staticmethod
    def _on_mutate(tracer, args, result, t0, t1):
        tracer._step_start = t0
        if result is args[1]:
            tracer.counts["mopso.mutate_solution.fallbacks"] += 1

    @staticmethod
    def _on_mopso_evaluate(tracer, args, result, t0, t1):
        # One candidate step is a mutation followed by its evaluation.
        if tracer._step_start is not None:
            tracer.candidate_ms.append((t1 - tracer._step_start) * 1e3)
            tracer._step_start = None

    @staticmethod
    def _on_update(tracer, args, accepted, t0, t1):
        if accepted:
            tracer.counts["mopso.ParetoArchive.update.accepted"] += 1

    @staticmethod
    def _on_front(tracer, args, front, t0, t1):
        tracer.counts["oracle.front_size"] += len(front)

    def _hook_for(self, name: str, module: str, label: str):
        if name == "model.check_constraints":
            return self._on_check(label)
        if name == "kernels.bfs_hops_multi":
            return self._on_bfs_multi
        if name == "mopso.mutate_solution":
            return self._on_mutate
        if name == "model.evaluate" and module == "mopso":
            return self._on_mopso_evaluate
        if name == "mopso.ParetoArchive.update":
            return self._on_update
        if name == "oracle.true_pareto_front":
            return self._on_front
        return None

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for name, module, attr, _ in BINDINGS:
            label = binding_label(module, attr)
            owner = sys.modules.get(f"meshplan.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(label)
                continue
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(
                name, label, original, self._hook_for(name, module, label)
            ))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def selftest_failures(self, workload: str) -> list[str]:
        """Bindings absent from the program, or never called where expected."""
        failures = [f"{label} is missing" for label in self.missing]
        for _, module, attr, expected in BINDINGS:
            label = binding_label(module, attr)
            if workload in expected and label not in self.missing \
                    and self.binding_calls[label] == 0:
                failures.append(f"{label} recorded no call on {workload}")
        return failures
