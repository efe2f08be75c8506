"""Request-to-vehicle assignment via a priced bipartite graph.

Each update the pending requests and the fleet form a bipartite graph: a
vehicle is a candidate for a request when it has a free seat and can reach
the origin within the request's flexibility budget, and an edge exists
when a feasible tour incorporating the request was actually found.  The
minimum-cost assignment is solved as a rectangular linear assignment
problem, padded so that serving more requests always beats serving fewer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import Request, Tour, Vehicle
from .network import RoadNetwork
from .scheduling import PricingContext, path_cost


@dataclass(frozen=True)
class Edge:
    request_id: int
    vehicle_id: int
    cost: int
    tour: Tour


@dataclass(frozen=True)
class BipartiteGraph:
    requests: tuple[int, ...]
    vehicles: tuple[int, ...]
    edges: tuple[Edge, ...]
    # vehicles passing the reachability filter per request, before pricing
    feasible_sets: Mapping[int, tuple[int, ...]]


def feasible_vehicles(net: RoadNetwork, request: Request,
                      vehicles: Sequence[Vehicle]) -> list[Vehicle]:
    """Vehicles with a free seat that can reach the origin within ``f_r``.

    The reachability test uses the vehicle's current network position;
    vehicles are returned in the order given.
    """
    out = []
    to_origin = net.travel_times_to(request.origin)
    for v in vehicles:
        # reach first: one dict read, and most vehicles fail it
        approach = to_origin.get(v.location)
        if (approach is not None and approach <= request.f_r
                and v.available_capacity >= 1):
            out.append(v)
    return out


def build_bipartite(net: RoadNetwork, t: int, requests: Sequence[Request],
                    vehicles: Sequence[Vehicle],
                    context: PricingContext | None = None) -> BipartiteGraph:
    """Price every candidate request/vehicle pair at update time ``t``.

    Requests are priced, and each request's candidate vehicles listed, in
    id order.  One ``PricingContext`` serves the whole call, so each
    vehicle's and each request's side of the search is built once; a
    fresh one unless ``context`` is given.  A given context may come from
    earlier rounds of the same update instant, as long as every vehicle
    whose tour changed since was forgotten: its sides and its infeasible
    verdicts then carry over.
    """
    edges: list[Edge] = []
    feasible_sets: dict[int, tuple[int, ...]] = {}
    if context is None:
        context = PricingContext(net)
    ordered_requests = sorted(requests, key=lambda r: r.id)
    ordered_vehicles = sorted(vehicles, key=lambda v: v.id)
    for req in ordered_requests:
        candidates = feasible_vehicles(net, req, ordered_vehicles)
        feasible_sets[req.id] = tuple(v.id for v in candidates)
        for veh in candidates:
            plan = path_cost(net, t, veh, req, context)
            if plan.feasible:
                edges.append(Edge(req.id, veh.id, plan.cost, plan.tour))
    return BipartiteGraph(
        requests=tuple(r.id for r in ordered_requests),
        vehicles=tuple(v.id for v in ordered_vehicles),
        edges=tuple(edges),
        feasible_sets=feasible_sets,
    )


def solve_assignment(graph: BipartiteGraph) -> list[Edge]:
    """Maximum-cardinality, then minimum-cost assignment over the edges.

    The rectangular problem is squared up with a prohibitive cost larger
    than the sum of all real edge costs, which makes leaving a matchable
    request unmatched strictly worse than any feasible pairing.  Returns
    the chosen edges sorted by request id.
    """
    if not graph.edges:
        return []
    row_of = {rid: i for i, rid in enumerate(graph.requests)}
    col_of = {vid: j for j, vid in enumerate(graph.vehicles)}
    n = max(len(graph.requests), len(graph.vehicles))
    prohibitive = sum(e.cost for e in graph.edges) + 2
    cost = np.full((n, n), prohibitive, dtype=np.int64)
    edge_at: dict[tuple[int, int], Edge] = {}
    for e in graph.edges:
        i, j = row_of[e.request_id], col_of[e.vehicle_id]
        cost[i, j] = e.cost
        edge_at[(i, j)] = e
    rows, cols = linear_sum_assignment(cost)
    chosen = [edge_at[(i, j)] for i, j in zip(rows, cols) if (i, j) in edge_at]
    return sorted(chosen, key=lambda e: e.request_id)
