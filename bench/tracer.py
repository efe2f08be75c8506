"""Per-layer tracing of one ``run_scenario`` call, hooked from outside.

Every hook replaces a name where its caller looks it up (a module global,
a ``MATCHERS`` entry or a ``RoadNetwork`` method), so nothing in the
program changes.  A timed hook records a span ``(name, parent, start,
end)`` in memory; parents come from a stack, since the simulator is
single-threaded.  Hot leaves (routing queries and tour evaluation) are
counted, not timed: a span per call would swamp the run.  A hook whose
target no longer exists is skipped and the metrics that need it are
reported as missing.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name or None for count-only)
HOOKS = (
    ("sim", "build_network", "sim.build_network"),
    ("sim", "generate_demand", "sim.generate_demand"),
    ("sim", "initialize_fleet", "sim.initialize_fleet"),
    ("sim", "advance", "sim.advance"),
    ("engine", "MATCHERS", "engine.update"),
    ("engine", "build_bipartite", "assignment.build_bipartite"),
    ("engine", "solve_assignment", "assignment.solve_assignment"),
    ("engine", "step2_loop", "vehicle_graph.step2_loop"),
    ("assignment", "feasible_vehicles", "assignment.feasible_vehicles"),
    ("assignment", "path_cost", "scheduling.path_cost"),
    ("vehicle_graph", "build_vehicle_graph", "vehicle_graph.build_vehicle_graph"),
    ("vehicle_graph", "split_merge_cost", "scheduling.split_merge_cost"),
    ("vehicle_graph", "select_merges", "vehicle_graph.select_merges"),
    ("scheduling", "evaluate_tour", None),
    ("network", "RoadNetwork._dijkstra", "network.dijkstra"),
    ("network", "RoadNetwork.shortest_travel_time", None),
    ("network", "RoadNetwork.shortest_path", None),
)

# per-layer metric -> (unit, hooks it needs); order is the report order
METRICS = {
    "network.dijkstra_calls": ("count", ["RoadNetwork._dijkstra"]),
    "network.dijkstra_s": ("s", ["RoadNetwork._dijkstra"]),
    "network.travel_time_queries": ("count", ["RoadNetwork.shortest_travel_time"]),
    "network.path_queries": ("count", ["RoadNetwork.shortest_path"]),
    "sim.advance_calls": ("count", ["advance"]),
    "sim.advance_s": ("s", ["advance"]),
    "sim.build_network_s": ("s", ["build_network"]),
    "sim.generate_demand_s": ("s", ["generate_demand"]),
    "sim.initialize_fleet_s": ("s", ["initialize_fleet"]),
    "engine.busy_updates": ("count", ["update_records"]),
    "engine.assignment_rounds": ("count", ["update_records"]),
    "engine.cost_calculation_s": ("s", ["update_records"]),
    "engine.solution_s": ("s", ["update_records"]),
    "assignment.reach_filter_calls": ("count", ["feasible_vehicles"]),
    "assignment.reach_filter_s": ("s", ["feasible_vehicles"]),
    "assignment.reach_filter_self_s": ("s", ["feasible_vehicles"]),
    "assignment.reach_pass_ratio": ("ratio", ["feasible_vehicles"]),
    "assignment.build_s": ("s", ["build_bipartite"]),
    "assignment.edges": ("count", ["build_bipartite"]),
    "assignment.solve_calls": ("count", ["solve_assignment"]),
    "assignment.solve_s": ("s", ["solve_assignment"]),
    "assignment.solve_size_mean": ("count", ["solve_assignment"]),
    "scheduling.insertion_calls": ("count", ["path_cost"]),
    "scheduling.insertion_s": ("s", ["path_cost"]),
    "scheduling.insertion_feasible_ratio": ("ratio", ["path_cost"]),
    "scheduling.tours_evaluated": ("count", ["evaluate_tour"]),
    "scheduling.tour_feasible_ratio": ("ratio", ["evaluate_tour"]),
    "scheduling.merge_pricing_calls": ("count", ["split_merge_cost"]),
    "scheduling.merge_pricing_s": ("s", ["split_merge_cost"]),
    "scheduling.merge_feasible_ratio": ("ratio", ["split_merge_cost"]),
    "vehicle_graph.step2_s": ("s", ["step2_loop"]),
    "vehicle_graph.graph_build_s": ("s", ["build_vehicle_graph"]),
    "vehicle_graph.select_s": ("s", ["select_merges"]),
    "vehicle_graph.rounds": ("count", ["step2_loop"]),
    "vehicle_graph.merges": ("count", ["step2_loop"]),
    "vehicle_graph.edges": ("count", ["build_vehicle_graph"]),
}


def _ratio(useful: int, attempted: int) -> float:
    # 0 when nothing was attempted; the base count is reported beside it
    return useful / attempted if attempted else 0.0


def _record_field(record, name: str):
    return record[name] if isinstance(record, dict) else getattr(record, name)


class Tracer:
    """Installs the hooks on a ``ridematch`` package and collects spans."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, parent, start, end)
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()

    def install(self, package) -> None:
        for module_name, attr, span in HOOKS:
            module = getattr(package, module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            target = getattr(owner, name, None)
            if target is None:
                self.missing.add(attr)
                continue
            if name == "MATCHERS":
                for key, fn in list(target.items()):
                    target[key] = self._wrap(span, fn, None)
                continue
            observe = getattr(self, f"_on_{name.lstrip('_')}", None)
            setattr(owner, name, self._wrap(span, target, observe))

    def _wrap(self, span, fn, observe):
        counts = self.counts
        if span is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(args, result)
                return result
            return counted
        spans, stack = self.spans, self._stack

        def timed(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span, parent, start, end)
            if observe is not None:
                observe(args, result)
            counts[span] += 1
            return result
        return timed

    # observers: count useful outcomes at the boundary where work happens
    def _on_feasible_vehicles(self, args, result):
        self.counts["reach.examined"] += len(args[2])
        self.counts["reach.passed"] += len(result)

    def _on_path_cost(self, args, plan):
        self.counts["insertion.feasible"] += bool(plan.feasible)

    def _on_split_merge_cost(self, args, plan):
        self.counts["merge.feasible"] += bool(plan.feasible)

    def _on_build_bipartite(self, args, graph):
        self.counts["assignment.edges"] += len(graph.edges)

    def _on_solve_assignment(self, args, chosen):
        self.counts["solve.edges"] += len(args[0].edges)

    def _on_build_vehicle_graph(self, args, graph):
        self.counts["vehicle_graph.edges"] += len(graph.edges)

    def _on_step2_loop(self, args, stats):
        self.counts["step2.rounds"] += stats.rounds
        self.counts["step2.merges"] += stats.merges

    def _on_evaluate_tour(self, args, priced):
        self.counts["tours.evaluated"] += 1
        self.counts["tours.feasible"] += priced is not None

    def _on_shortest_travel_time(self, args, result):
        self.counts["network.travel_time_queries"] += 1

    def _on_shortest_path(self, args, result):
        self.counts["network.path_queries"] += 1

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """``{span name: (total s, self s)}``; self excludes child spans."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, parent, start, end in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for index, (name, _, start, end) in enumerate(self.spans):
            own[name] += end - start - child[index]
        return {name: (total[name], own[name]) for name in total}

    def metrics(self, update_records) -> dict[str, float | None]:
        """Per-layer metrics; ``None`` marks one whose hook is missing."""
        c = self.counts
        times = self.layer_times()

        def total(span):
            return times.get(span, (0.0, 0.0))[0]

        def own(span):
            return times.get(span, (0.0, 0.0))[1]

        try:
            busy = sum(1 for u in update_records
                       if _record_field(u, "finalized")
                       + _record_field(u, "expired")
                       + _record_field(u, "deferred"))
            rounds = sum(_record_field(u, "iterations") for u in update_records)
            cost_s = sum(_record_field(u, "cost_calculation_s")
                         for u in update_records)
            solve_s = sum(_record_field(u, "solution_s") for u in update_records)
        except (KeyError, AttributeError, TypeError):
            self.missing.add("update_records")
            busy = rounds = cost_s = solve_s = 0
        values = {
            "network.dijkstra_calls": c["network.dijkstra"],
            "network.dijkstra_s": total("network.dijkstra"),
            "network.travel_time_queries": c["network.travel_time_queries"],
            "network.path_queries": c["network.path_queries"],
            "sim.advance_calls": c["sim.advance"],
            "sim.advance_s": total("sim.advance"),
            "sim.build_network_s": total("sim.build_network"),
            "sim.generate_demand_s": total("sim.generate_demand"),
            "sim.initialize_fleet_s": total("sim.initialize_fleet"),
            "engine.busy_updates": busy,
            "engine.assignment_rounds": rounds,
            "engine.cost_calculation_s": cost_s,
            "engine.solution_s": solve_s,
            "assignment.reach_filter_calls": c["assignment.feasible_vehicles"],
            "assignment.reach_filter_s": total("assignment.feasible_vehicles"),
            "assignment.reach_filter_self_s": own("assignment.feasible_vehicles"),
            "assignment.reach_pass_ratio": _ratio(c["reach.passed"],
                                                  c["reach.examined"]),
            "assignment.build_s": own("assignment.build_bipartite"),
            "assignment.edges": c["assignment.edges"],
            "assignment.solve_calls": c["assignment.solve_assignment"],
            "assignment.solve_s": total("assignment.solve_assignment"),
            "assignment.solve_size_mean": _ratio(
                c["solve.edges"], c["assignment.solve_assignment"]),
            "scheduling.insertion_calls": c["scheduling.path_cost"],
            "scheduling.insertion_s": total("scheduling.path_cost"),
            "scheduling.insertion_feasible_ratio": _ratio(
                c["insertion.feasible"], c["scheduling.path_cost"]),
            "scheduling.tours_evaluated": c["tours.evaluated"],
            "scheduling.tour_feasible_ratio": _ratio(c["tours.feasible"],
                                                     c["tours.evaluated"]),
            "scheduling.merge_pricing_calls": c["scheduling.split_merge_cost"],
            "scheduling.merge_pricing_s": total("scheduling.split_merge_cost"),
            "scheduling.merge_feasible_ratio": _ratio(
                c["merge.feasible"], c["scheduling.split_merge_cost"]),
            "vehicle_graph.step2_s": total("vehicle_graph.step2_loop"),
            "vehicle_graph.graph_build_s": total("vehicle_graph.build_vehicle_graph"),
            "vehicle_graph.select_s": total("vehicle_graph.select_merges"),
            "vehicle_graph.rounds": c["step2.rounds"],
            "vehicle_graph.merges": c["step2.merges"],
            "vehicle_graph.edges": c["vehicle_graph.edges"],
        }
        for metric, (_, needs) in METRICS.items():
            if self.missing.intersection(needs):
                values[metric] = None
        return values

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: ``[id, parent, name, start, end]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([index, parent, name, start, end]) + "\n")
