"""Request-to-vehicle assignment via a priced bipartite graph.

Each update the pending requests and the fleet form a bipartite graph: a
vehicle is a candidate for a request when it has a free seat and can reach
the origin within the request's flexibility budget, and an edge exists
when a feasible tour incorporating the request was actually found.  The
minimum-cost assignment is solved on a square matrix, padded so that
serving more requests always beats serving fewer, by shortest augmenting
paths (Crouse 2016, "On implementing 2D rectangular assignment
algorithms", IEEE TAES).  The solver follows ``augmenting_path`` in
scipy's ``rectangular_lsap.cpp`` step for step, tie rule included, so it
picks the optimum scipy's ``linear_sum_assignment`` picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping, Sequence

from .model import DROPOFF, PICKUP, Request, Stop, Tour, Vehicle
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
    vehicles are returned in the order given.  It reads the origin row
    out to ``f_r``: a vehicle without an entry there is further away, so
    not in reach.
    """
    out = []
    to_origin = net.travel_times_within(request.origin, request.f_r)
    for v in vehicles:
        # reach first: one list read, and most vehicles fail it
        approach = to_origin[v.location]
        if (approach is not None and approach <= request.f_r
                and v.available_capacity >= 1):
            out.append(v)
    return out


def build_bipartite(net: RoadNetwork, t: int, requests: Sequence[Request],
                    vehicles: Sequence[Vehicle],
                    context: PricingContext | None = None) -> BipartiteGraph:
    """Price every candidate request/vehicle pair at update time ``t``.

    Edges are listed in request id order, then vehicle id order, and
    each request's candidate vehicles in id order.  Pricing goes through
    ``context``, which may carry sides and verdicts from earlier calls; a
    fresh ``PricingContext`` when None.  The rows into the requests'
    origins are computed first, in batches, each out to the largest
    ``f_r`` of the requests there (``RoadNetwork.fill_within``): the
    reach filter, the root check and the pickup legs never read an entry
    beyond it (see ``scheduling``).

    The requests are grouped by origin, destination and ``f_r``, and
    each group, one request or more, is priced by ``_price_group``.
    """
    if context is None:
        context = PricingContext(net)
    ordered_requests = sorted(requests, key=lambda r: r.id)
    ordered_vehicles = sorted(vehicles, key=lambda v: v.id)
    radii: dict[int, int] = {}  # the largest f_r at each origin
    for req in ordered_requests:
        radii[req.origin] = max(req.f_r, radii.get(req.origin, 0))
    net.fill_within(radii)
    groups: dict[tuple[int, int, int], list[Request]] = {}
    for req in sorted(ordered_requests, key=attrgetter("q_r"), reverse=True):
        groups.setdefault((req.origin, req.destination, req.f_r),
                          []).append(req)
    edges: list[Edge] = []
    feasible_sets: dict[int, tuple[int, ...]] = {}
    for group in groups.values():
        ids = _price_group(net, t, group, ordered_vehicles, context, edges)
        for req in group:
            feasible_sets[req.id] = ids
    # a stable sort: each request's edges stay in vehicle id order
    edges.sort(key=attrgetter("request_id"))
    return BipartiteGraph(
        requests=tuple(r.id for r in ordered_requests),
        vehicles=tuple(v.id for v in ordered_vehicles),
        edges=tuple(edges),
        feasible_sets=feasible_sets,
    )


def _price_group(net: RoadNetwork, t: int, group: Sequence[Request],
                 vehicles: Sequence[Vehicle], context: PricingContext,
                 edges: list[Edge]) -> tuple[int, ...]:
    """Price requests that share origin, destination and ``f_r``, listed
    loosest first, with each of their candidates, appending their edges
    to ``edges`` in vehicle id order; returns the candidates' ids.

    Such requests get the same candidates, and their deadlines differ by
    one offset: ``q_r = t_r + f_r`` and ``l_r = q_r + H(O, D)``.  Nothing
    else of a request enters a search, so a tighter request's feasible
    plans are a subset of a looser one's, in the same enumeration order;
    an empty tour's one plan, the pair, is such a plan too.  The search
    returns the first optimum in that order.  So a looser request's plan
    whose pickup and dropoff arrivals meet a tighter request's deadlines
    is the tighter one's plan too, at the same cost, with its own two
    stops; and a looser request that is infeasible leaves every tighter
    one infeasible, which is recorded as the verdict ``path_cost`` would
    record.  For each candidate, idle or busy, the loosest request is
    searched through ``path_cost`` and its plan is the reference; a
    tighter request the reference cannot answer is searched and becomes
    the reference.  The reference's arrivals are read only when a
    tighter request needs them.
    """
    first, rest = group[0], group[1:]
    candidates = feasible_vehicles(net, first, vehicles)
    for veh in candidates:
        plan = path_cost(net, t, veh, first, context)
        if plan.feasible:
            edges.append(Edge(first.id, veh.id, plan.cost, plan.tour))
        if not rest:
            continue
        searched, visits = first, None  # whose plan is the reference
        for req in rest:
            if not plan.feasible:
                context.refuse(veh, req.id)
                continue
            if visits is None:
                visits = _visits(net, t, veh, plan.tour, searched.id)
            i, at_pickup, j, at_dropoff = visits
            if at_pickup <= req.q_r and at_dropoff <= req.l_r:
                # the reference's tour, with this request's two stops
                pickup = Stop(PICKUP, req.id, req.origin, req.q_r)
                dropoff = Stop(DROPOFF, req.id, req.destination, req.l_r)
                tour = (plan.tour[:i] + (pickup,) + plan.tour[i + 1:j]
                        + (dropoff,) + plan.tour[j + 1:])
            else:
                searched, visits = req, None
                plan = path_cost(net, t, veh, req, context)
                if not plan.feasible:
                    continue
                tour = plan.tour
            edges.append(Edge(req.id, veh.id, plan.cost, tour))
    return tuple(v.id for v in candidates)


def _visits(net: RoadNetwork, t: int, vehicle: Vehicle, tour: Tour,
            request_id: int) -> list[int]:
    """The index in ``tour`` of the request's pickup, the vehicle's
    arrival there, and the same for its dropoff, driving the tour from
    the vehicle's position as pricing does.  ``tour`` is feasible, so
    every leg is within the rows pricing reads it from."""
    at, clock = vehicle.location, max(t, vehicle.ready_at)
    visits: list[int] = []
    for k, stop in enumerate(tour):
        clock += net.travel_times_within(stop.node, stop.deadline - t)[at]
        at = stop.node
        if stop.request_id == request_id:
            visits += (k, clock)
            if stop.kind == DROPOFF:
                break
    return visits


def solve_assignment(graph: BipartiteGraph) -> list[Edge]:
    """Maximum-cardinality, then minimum-cost assignment over the edges.

    The problem is squared up with a prohibitive cost larger than the sum
    of all real edge costs, which makes leaving a matchable request
    unmatched strictly worse than any feasible pairing.  Costs are
    float64, as in scipy's solver, so the padding never overflows; it is
    twice the sum plus 2, since past 2**53 the sum plus 2 rounds to the
    sum.  Rows are the requests in ``graph.requests`` order, columns the
    vehicles in ``graph.vehicles`` order.  The matrix is solved as
    scipy's ``rectangular_lsap.cpp`` solves it (Crouse 2016): each scan
    keeps the first strict minimum, and a later tie replaces it only on
    a free column.  Shortcuts keep scipy's choice: the padding rows are
    not solved, and a request without edges takes the lowest free column
    at once; ``_augmenting_paths`` says why, and adds a third.  Returns
    the chosen edges sorted by request id.
    """
    if not graph.edges:
        return []
    row_of = {rid: i for i, rid in enumerate(graph.requests)}
    col_of = {vid: j for j, vid in enumerate(graph.vehicles)}
    edge_rows: list[dict[int, Edge]] = [{} for _ in graph.requests]
    for e in graph.edges:
        edge_rows[row_of[e.request_id]][col_of[e.vehicle_id]] = e
    prohibitive = float(2 * sum(e.cost for e in graph.edges) + 2)
    col4row = _augmenting_paths(edge_rows, max(len(graph.requests),
                                               len(graph.vehicles)),
                                prohibitive)
    chosen = [row[j] for row, j in zip(edge_rows, col4row) if j in row]
    return sorted(chosen, key=lambda e: e.request_id)


def _augmenting_paths(rows: Sequence[Mapping[int, Edge]], n: int,
                      big: float) -> list[int]:
    """The column each row gets when the n x n matrix that holds the
    costs of ``rows[i]`` in row i and ``big`` everywhere else is solved as
    scipy's ``linear_sum_assignment`` solves it.  Every cost is below
    ``big``.  An int cost first meets a float in ``c - v[j]`` or
    ``min_val + c``, which rounds it to float64 as the matrix would.

    Rows are solved in order, each by one shortest augmenting path.  A
    path's scan walks the columns not yet on it, starting from
    ``[n-1, ..., 0]`` and filling a removed column's slot with the last
    one.  It keeps the first strict minimum, and a later tie replaces it
    only when that column is free.  Reduced costs are computed as
    ``((min_val + c) - u[i]) - v[j]``, in float64 as the C++ does.
    Duals only fall on columns and every free column keeps ``v == 0``,
    which makes three shortcuts exact:

    - Rows past ``len(rows)`` hold only ``big``; each would take a free
      column and move no other row, so they are not solved.
    - A row without entries sees ``big`` on every free column and at
      least ``big`` elsewhere; the tie rule leaves it the lowest free
      column, with ``u = big``.
    - A row's first scan reads ``c - v[j]``, since its ``u`` and
      ``min_val`` are still 0.  When its cheapest entry by that measure
      lies on a free column, where it reads ``c < big``, no column off
      the row's entries can tie, since those read at least ``big``.  So
      the scan ends there, on the lowest such free column.
    """
    inf = math.inf
    u = [0.0] * len(rows)
    v = [0.0] * n
    row4col = [-1] * n
    col4row = [-1] * len(rows)
    path = [-1] * n
    dense: list[list | None] = [None] * len(rows)  # made on first use
    for cur, row in enumerate(rows):
        if not row:
            j = row4col.index(-1)
            row4col[j], col4row[cur], u[cur] = cur, j, big
            continue
        lowest, sink = inf, n
        for j, e in row.items():
            r = e.cost - v[j]
            if r < lowest:
                lowest, sink = r, (j if row4col[j] < 0 else n)
            elif r == lowest and row4col[j] < 0 and j < sink:
                sink = j
        if sink < n:
            row4col[sink], col4row[cur], u[cur] = cur, sink, lowest
            continue
        # scipy's augmenting_path
        spc = [inf] * n  # shortest path costs
        remaining = list(range(n - 1, -1, -1))
        rows_on_path: list[int] = []
        cols_on_path: list[int] = []
        min_val, i = 0.0, cur
        while True:
            ui, costs = u[i], dense[i]
            if costs is None:
                costs = dense[i] = [big] * n
                for j, e in rows[i].items():
                    costs[j] = e.cost
            lowest, index = inf, -1
            for it, j in enumerate(remaining):
                r = min_val + costs[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j], spc[j] = i, r
                    s = r
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest, index = s, it
            min_val = lowest
            j = remaining[index]
            cols_on_path.append(j)
            last = remaining.pop()
            if index < len(remaining):
                remaining[index] = last
            if row4col[j] < 0:
                sink = j
                break
            i = row4col[j]
            rows_on_path.append(i)
        u[cur] += min_val
        for i in rows_on_path:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_on_path:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row
