"""Second matching stage: merging freshly assigned tours across vehicles.

After requests are assigned, a directed graph is formed over the vehicles
holding a request this update committed.  An eligible donor can hand its
whole plan to a recipient when the recipient is reachable for at least one
of the donor's requests, is at least as loaded as the donor, and has seats
for everything being handed over.  A maximum-weight matching over this
graph picks a set of non-conflicting merges; applying them frees donors,
and the process repeats until no further merge is possible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import Tour, Vehicle
from .network import RoadNetwork
from .scheduling import split_merge_cost


@dataclass(frozen=True)
class MergeEdge:
    donor_id: int
    recipient_id: int
    cost: int
    merged_tour: Tour


@dataclass(frozen=True)
class VehicleGraph:
    nodes: tuple[int, ...]
    edges: tuple[MergeEdge, ...]


@dataclass
class Step2Stats:
    rounds: int = 0
    merges: int = 0
    initial_assigned: int = 0  # assigned vehicles when the loop started
    cost_calculation_s: float = 0.0
    solution_s: float = 0.0


def donor_eligible(vehicle: Vehicle, fresh: set[int]) -> bool:
    """True when the vehicle's entire plan is requests in ``fresh``, the
    ids this update committed.

    Such a vehicle was idle before the update, so handing its tour away
    strands nobody: no passengers are aboard and no stop in the tour
    belongs to an earlier commitment.
    """
    return (not vehicle.onboard
            and bool(vehicle.tour)
            and all(s.request_id in fresh for s in vehicle.tour))


def build_vehicle_graph(net: RoadNetwork, t: int,
                        vehicles: Sequence[Vehicle], fresh: set[int],
                        feasible_index: Mapping[int, tuple[int, ...]],
                        ) -> VehicleGraph:
    """Directed merge graph over vehicles assigned work this update.

    A vehicle is a node when its tour holds a request in ``fresh``, the ids
    this update committed; nobody is picked up inside an update, so that
    request still awaits its pickup.  ``feasible_index`` maps each request
    id to the vehicles that passed the reachability filter when the
    request was matched; a recipient must appear there for at least one
    of the donor's requests.  An edge also needs the donor to be no more
    loaded than the recipient, the recipient to have seats for all the
    donor's requests, and a feasible merged tour.
    """
    assigned = sorted((v for v in vehicles
                       if v.tour  # most vehicles: no generator built
                       and any(s.request_id in fresh for s in v.tour)),
                      key=lambda v: v.id)
    by_id = {v.id: v for v in assigned}
    edges: list[MergeEdge] = []
    for donor in assigned:
        if not donor_eligible(donor, fresh):
            continue
        reachable: set[int] = set()
        for stop in donor.tour:
            reachable.update(feasible_index.get(stop.request_id, ()))
        for recipient_id in sorted(reachable):
            if recipient_id == donor.id or recipient_id not in by_id:
                continue
            recipient = by_id[recipient_id]
            if donor.occupants > recipient.occupants:
                continue
            if donor.occupants > recipient.available_capacity:
                continue
            plan = split_merge_cost(net, t, donor, recipient)
            if plan.feasible:
                edges.append(MergeEdge(donor.id, recipient.id, plan.cost,
                                       plan.tour))
    return VehicleGraph(nodes=tuple(v.id for v in assigned),
                        edges=tuple(edges))


def select_merges(graph: VehicleGraph) -> list[MergeEdge]:
    """Non-conflicting merges chosen by maximum-weight matching.

    Opposite-direction edges between the same two vehicles collapse to the
    cheaper one (smaller donor id on ties).  Costs are turned into weights
    by subtracting from one plus the largest cost, so every kept edge has
    positive weight.  Returns the selected edges sorted by donor id.

    networkx is imported here, when first needed, so a run whose matcher
    never merges never loads it.
    """
    if not graph.edges:
        return []
    import networkx as nx

    best: dict[tuple[int, int], MergeEdge] = {}
    for e in sorted(graph.edges, key=lambda e: (e.donor_id, e.recipient_id)):
        key = (min(e.donor_id, e.recipient_id),
               max(e.donor_id, e.recipient_id))
        cur = best.get(key)
        if cur is None or e.cost < cur.cost:
            best[key] = e
    ceiling = 1 + max(e.cost for e in best.values())
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    for key in sorted(best):
        e = best[key]
        g.add_edge(key[0], key[1], weight=ceiling - e.cost)
    mate = nx.max_weight_matching(g, maxcardinality=False)
    chosen = [best[(min(a, b), max(a, b))] for a, b in mate]
    return sorted(chosen, key=lambda e: e.donor_id)


def apply_merges(merges: Sequence[MergeEdge],
                 vehicles_by_id: Mapping[int, Vehicle]) -> None:
    """Hand each donor's plan to its recipient.

    The edges must be vertex-disjoint, as the matching ``select_merges``
    returns is, so every edge still prices the plans it was built from.
    """
    for edge in merges:
        vehicles_by_id[edge.recipient_id].tour = edge.merged_tour
        vehicles_by_id[edge.donor_id].tour = ()


def step2_loop(net: RoadNetwork, t: int, vehicles: Sequence[Vehicle],
               fresh: set[int],
               feasible_index: Mapping[int, tuple[int, ...]]) -> Step2Stats:
    """Repeat build/match/apply until no merge remains; ``fresh`` holds
    the ids of the requests this update committed.

    Every applied merge idles at least one donor, so the number of rounds
    is bounded by the number of vehicles assigned work at entry: the nodes
    of the first graph.  A graph with an edge always yields a merge, since
    every kept edge has positive weight.
    """
    stats = Step2Stats()
    vehicles_by_id = {v.id: v for v in vehicles}
    while True:
        t0 = time.perf_counter()
        graph = build_vehicle_graph(net, t, vehicles, fresh, feasible_index)
        stats.cost_calculation_s += time.perf_counter() - t0
        if not stats.rounds:
            stats.initial_assigned = len(graph.nodes)
        if not graph.edges:
            break
        t0 = time.perf_counter()
        merges = select_merges(graph)
        stats.solution_s += time.perf_counter() - t0
        apply_merges(merges, vehicles_by_id)
        stats.rounds += 1
        stats.merges += len(merges)
        if stats.rounds >= stats.initial_assigned:
            break
    return stats
