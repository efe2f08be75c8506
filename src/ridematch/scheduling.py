"""Tour pricing: single-request insertion and two-vehicle merge plans.

A plan is priced by driving the tour stop by stop from the vehicle's
current position.  Every stop must be reached by its deadline (``q_r``
for a pickup, ``l_r`` for a dropoff) and the running occupancy must
never exceed capacity.  The cost of a feasible plan is the time from the
current update instant until the last stop is completed.

Every plan shape is one depth-first search over units (single stops or
donor half-tour blocks) that places the lowest-index placeable unit
first, carrying the clock and load, so whole tours come in a fixed
enumeration order.  A branch is cut at its first missed window, overfull
vehicle or unreachable leg, and once its clock reaches the best
completion so far: legs are never negative and a tie never replaces the
earlier plan, so the first optimum in enumeration order wins.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .model import DROPOFF, PICKUP, Request, Stop, Tour, Vehicle
from .network import RoadNetwork


class PlanResult(NamedTuple):
    feasible: bool
    cost: int | None
    tour: Tour | None


INFEASIBLE = PlanResult(False, None, None)


def evaluate_tour(net: RoadNetwork, t: int, start_node: int, depart_t: int,
                  tour: Tour, onboard_count: int,
                  capacity: int) -> tuple[int, tuple[int, ...]] | None:
    """Price a tour against its stops' deadlines and capacity.

    Returns ``(cost, arrivals)`` where cost is completion time minus ``t``,
    or None when any stop misses its deadline or the capacity bound is
    violated.  An empty tour costs 0.
    """
    arrivals = []
    node, clock, load = start_node, depart_t, onboard_count
    for stop in tour:
        leg = net.shortest_travel_time(node, stop.node)
        if leg is None:
            return None
        clock += leg
        load += stop.kind  # PICKUP is +1, DROPOFF -1
        if clock > stop.deadline or load > capacity:
            return None
        arrivals.append(clock)
        node = stop.node
    if not tour:
        return 0, ()
    return clock - t, tuple(arrivals)


# tours with at most this many distinct requests are priced exhaustively
EXHAUSTIVE_REQUEST_LIMIT = 2


def path_cost(net: RoadNetwork, t: int, vehicle: Vehicle,
              request: Request) -> PlanResult:
    """Best feasible tour serving the vehicle's plan plus one new request.

    Tours with at most two distinct requests are re-optimised over every
    order of their stops and the new pair, each dropoff after its own
    pickup.  Longer ones keep their stop order and take the cheapest
    insertion of the new pickup/dropoff pair, tried in ascending (pickup
    slot, dropoff slot) order.  Ties keep the first candidate.
    """
    if vehicle.available_capacity < 1:
        return INFEASIBLE
    stops = vehicle.tour + (
        Stop(PICKUP, request.id, request.origin, request.q_r),
        Stop(DROPOFF, request.id, request.destination, request.l_r))
    if len({s.request_id for s in vehicle.tour}) <= EXHAUSTIVE_REQUEST_LIMIT:
        pickup_at = {s.request_id: k for k, s in enumerate(stops)
                     if s.kind == PICKUP}
        after = [-1 if s.kind == PICKUP else pickup_at.get(s.request_id, -1)
                 for s in stops]
        return _cheapest(net, t, vehicle, [(s,) for s in stops], after)
    units, after = _chains([(s,) for s in stops[-2:]],
                           [(s,) for s in vehicle.tour])
    return _cheapest(net, t, vehicle, units, after)


def split_tour(tour: Tour) -> tuple[Tour, Tour]:
    """Cut a tour into a first and second part at the middle stop."""
    cut = math.ceil(len(tour) / 2)
    return tour[:cut], tour[cut:]


def split_merge_cost(net: RoadNetwork, t: int, donor: Vehicle,
                     recipient: Vehicle) -> PlanResult:
    """Best feasible tour for the recipient after absorbing the donor's.

    The donor tour is split at its middle and both halves are inserted as
    contiguous blocks, the second after the first, into the recipient
    tour, whose own stop order is kept; candidates are tried in ascending
    (first block slot, second block slot) order and the plan is priced
    from the recipient's position.  Ties keep the first candidate.
    """
    blocks = [part for part in split_tour(donor.tour) if part]
    units, after = _chains(blocks, [(s,) for s in recipient.tour])
    return _cheapest(net, t, recipient, units, after)


def _chains(*chains: Sequence[Tour]) -> tuple[list[Tour], list[int]]:
    """Concatenate unit chains; each unit must follow its predecessor."""
    units: list[Tour] = []
    after: list[int] = []
    for chain in chains:
        for i, unit in enumerate(chain):
            after.append(len(units) - 1 if i else -1)
            units.append(unit)
    return units, after


def _cheapest(net: RoadNetwork, t: int, vehicle: Vehicle,
              units: Sequence[Tour], after: Sequence[int]) -> PlanResult:
    """Cheapest feasible order of ``units`` from the vehicle's position;
    ``after[k]`` is the unit that must precede unit ``k``, or -1."""
    n = len(units)
    if n == 0:
        return PlanResult(True, 0, ())
    # per stop: (travel times into its node, node, deadline, load change);
    # PICKUP is +1, DROPOFF -1
    legs = [[(net.travel_times_to(s.node), s.node, s.deadline, s.kind)
             for s in unit] for unit in units]
    capacity = vehicle.capacity
    node, clock = vehicle.location, max(t, vehicle.ready_at)
    load = len(vehicle.onboard)
    placed = [False] * n
    order: list[int] = []  # unit indices on the current branch
    saved: list[tuple[int, int, int]] = []  # (node, clock, load) before each
    limit = math.inf  # completion time of the best tour so far
    best: list[int] | None = None
    k = 0
    while True:
        while k < n:  # find the next unit, from k up, that fits here
            if not placed[k] and (after[k] < 0 or placed[after[k]]):
                at, c, ld = node, clock, load
                for row, stop_node, deadline, delta in legs[k]:
                    leg = row.get(at)
                    if leg is None:
                        break
                    c += leg
                    ld += delta
                    if c > deadline or c >= limit or ld > capacity:
                        break
                    at = stop_node
                else:  # every stop of unit k fits
                    break
            k += 1
        if k < n:  # place unit k and go one level deeper
            placed[k] = True
            order.append(k)
            saved.append((node, clock, load))
            node, clock, load = at, c, ld
            if len(order) < n:
                k = 0
                continue
            limit, best = clock, list(order)
        if not order:
            break
        k = order.pop()  # take the last unit back, try the ones after it
        placed[k] = False
        node, clock, load = saved.pop()
        k += 1
    if best is None:
        return INFEASIBLE
    return PlanResult(True, limit - t,
                      tuple(s for k in best for s in units[k]))
