"""Tour pricing: single-request insertion and two-vehicle merge plans.

A plan is priced by driving the tour stop by stop from the vehicle's
current position.  Every stop must be reached by its deadline (``q_r``
for a pickup, ``l_r`` for a dropoff) and the running occupancy must
never exceed capacity.  The cost of a feasible plan is the time from the
current update instant until the last stop is completed.

Every plan shape is one depth-first search over units (single stops or
donor half-tour blocks) that places the lowest-index placeable unit
first, carrying the clock and load, so whole tours come in a fixed
enumeration order.  The search reads each stop as a leg: the travel
times into its node, the node, its deadline and its load change.  An
insertion search joins two sides: the vehicle's (its tour's units, their
legs and the precedence list) and the request's (its pickup/dropoff
pair and their legs).  A ``PricingContext`` builds each side the first
time a ``path_cost`` call needs it and keeps a verdict for every pair it
found infeasible, which answers that pair again at once.
``gmomatch_update`` keeps one context for one update, across all its
assignment rounds, and forgets each vehicle whose tour a commit or a
merge replaces: at one update instant nothing else changes what pricing
reads.  An empty tour has one plan, the pair, which ``path_cost`` prices
in closed form at the search's cost.

Legs are shortest paths, so no tour reaches a stop sooner than straight
from where the vehicle is.  That gives two exact cuts.  Before any leg is
built, ``path_cost`` gives up when the vehicle cannot reach the new
pickup by ``q_r`` even straight from its departure, at ``max(t,
ready_at)``.  Inside the search, a branch is cut at its first missed
window, overfull vehicle or unreachable leg, and after each placement
when some unplaced stop cannot be reached straight from the current node
by its deadline, or only at or after the best completion so far.
Completion is never earlier than any stop's arrival and a tie never
replaces the earlier plan, so the cuts drop only plans that cannot win
and the first optimum in enumeration order still wins.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Sequence

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


# the search's view of one stop: (travel times into its node, node,
# deadline, load change); PICKUP is +1, DROPOFF -1
Leg = tuple[Mapping[int, int], int, int, int]


def tour_legs(net: RoadNetwork, stops: Sequence[Stop]) -> list[Leg]:
    """The pricing search's leg for each of ``stops``, in order."""
    return [(net.travel_times_to(s.node), s.node, s.deadline, s.kind)
            for s in stops]


# tours with at most this many distinct requests are priced exhaustively
EXHAUSTIVE_REQUEST_LIMIT = 2


class _VehicleSide(NamedTuple):
    """A vehicle's half of every insertion search: its tour's units and
    their legs, and the ``after`` list of the joined search, in which
    the new pair's two units follow the tour's when ``tour_first``."""

    tour_first: bool
    units: tuple[Tour, ...]
    legs: tuple[tuple[Leg, ...], ...]
    after: list[int]


class _RequestSide(NamedTuple):
    """A request's half: its pickup/dropoff pair, as units and legs."""

    pair: Tour
    units: tuple[Tour, ...]
    legs: tuple[tuple[Leg, ...], ...]
    to_destination: Mapping[int, int]


class PricingContext:
    """What the insertion searches of one update instant share: both
    sides of the search, each built the first time a ``path_cost`` call
    needs it, and the verdicts of the pairs found infeasible.

    Everything is keyed by vehicle and request id, so a context is valid
    on one network at one update instant, and only for a vehicle whose
    tour has not changed since it was first priced.  Whoever changes a
    tour calls ``forget`` with its vehicle: ``gmomatch_update`` keeps one
    context for all its rounds and forgets each vehicle a round commits
    to or a merge changes, then drops the context when the update ends.
    """

    def __init__(self, net: RoadNetwork):
        self.net = net
        self._vehicles: dict[int, _VehicleSide] = {}
        self._requests: dict[int, _RequestSide] = {}
        # vehicle id -> ids of the requests it cannot serve
        self.infeasible: dict[int, set[int]] = {}

    def forget(self, vehicle_ids: Iterable[int]) -> None:
        """Drop the side and the verdicts of vehicles whose tour changed."""
        for vid in vehicle_ids:
            self._vehicles.pop(vid, None)
            self.infeasible.pop(vid, None)

    def vehicle_side(self, vehicle: Vehicle) -> _VehicleSide:
        side = self._vehicles.get(vehicle.id)
        if side is None:
            tour = vehicle.tour
            units = tuple((s,) for s in tour)
            legs = tuple((leg,) for leg in tour_legs(self.net, tour))
            # every rider has a stop in the tour, so this counts its
            # requests: few enough to re-order, or keep the order and
            # insert the pair, which then comes first
            if vehicle.occupants <= EXHAUSTIVE_REQUEST_LIMIT:
                pickup_at = {s.request_id: k for k, s in enumerate(tour)
                             if s.kind == PICKUP}
                after = [-1 if s.kind == PICKUP
                         else pickup_at.get(s.request_id, -1) for s in tour]
                side = _VehicleSide(True, units, legs,
                                    after + [-1, len(tour)])
            else:
                side = _VehicleSide(False, units, legs,
                                    _chained(2, len(tour)))
            self._vehicles[vehicle.id] = side
        return side

    def request_side(self, request: Request) -> _RequestSide:
        side = self._requests.get(request.id)
        if side is None:
            pair = (Stop(PICKUP, request.id, request.origin, request.q_r),
                    Stop(DROPOFF, request.id, request.destination,
                         request.l_r))
            legs = tour_legs(self.net, pair)
            side = self._requests[request.id] = _RequestSide(
                pair, ((pair[0],), (pair[1],)), ((legs[0],), (legs[1],)),
                legs[1][0])
        return side


def path_cost(net: RoadNetwork, t: int, vehicle: Vehicle, request: Request,
              context: PricingContext | None = None) -> PlanResult:
    """Best feasible tour serving the vehicle's plan plus one new request.

    Tours with at most two distinct requests are re-optimised over every
    order of their stops and the new pair, each dropoff after its own
    pickup.  Longer ones keep their stop order and take the cheapest
    insertion of the new pickup/dropoff pair, tried in ascending (pickup
    slot, dropoff slot) order.  Ties keep the first candidate.  An empty
    tour has one plan, the pair, priced in closed form.  ``context``
    shares the vehicle's and the request's sides of the search across
    the calls of one update instant, and answers a pair it has already
    found infeasible at once; the result is the same without it.
    """
    if context is None:
        context = PricingContext(net)
    elif request.id in context.infeasible.get(vehicle.id, ()):
        return INFEASIBLE
    plan = _priced(net, t, vehicle, request, context)
    if not plan.feasible:
        context.infeasible.setdefault(vehicle.id, set()).add(request.id)
    return plan


def _priced(net: RoadNetwork, t: int, vehicle: Vehicle, request: Request,
            context: PricingContext) -> PlanResult:
    """``path_cost`` without the verdicts."""
    if vehicle.available_capacity < 1:
        return INFEASIBLE
    # no tour reaches the pickup sooner than straight from the departure
    approach = net.travel_times_to(request.origin).get(vehicle.location)
    depart = max(t, vehicle.ready_at)
    if approach is None or depart + approach > request.q_r:
        return INFEASIBLE
    pair, pair_units, pair_legs, to_destination = \
        context.request_side(request)
    if not vehicle.tour:
        # nothing is aboard, so the seat test covers the load
        direct = to_destination.get(request.origin)
        if direct is None or depart + approach + direct > request.l_r:
            return INFEASIBLE
        return PlanResult(True, depart + approach + direct - t, pair)
    tour_first, units, legs, after = context.vehicle_side(vehicle)
    if tour_first:
        return _cheapest(t, vehicle, units + pair_units, legs + pair_legs,
                         after)
    return _cheapest(t, vehicle, pair_units + units, pair_legs + legs, after)


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
    units = blocks + [(s,) for s in recipient.tour]
    return _cheapest(t, recipient, units,
                     [tour_legs(net, unit) for unit in units],
                     _chained(len(blocks), len(recipient.tour)))


def _chained(*lengths: int) -> list[int]:
    """``after`` for units laid out as chains of these lengths, each unit
    following its predecessor in its chain."""
    after: list[int] = []
    for length in lengths:
        base = len(after)
        after.extend(base + i - 1 if i else -1 for i in range(length))
    return after


def _cheapest(t: int, vehicle: Vehicle, units: Sequence[Tour],
              legs: Sequence[Sequence[Leg]],
              after: Sequence[int]) -> PlanResult:
    """Cheapest feasible order of ``units`` from the vehicle's position;
    ``legs[k]`` are unit ``k``'s legs and ``after[k]`` the unit that must
    precede it, or -1."""
    n = len(units)
    if n == 0:
        return PlanResult(True, 0, ())
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
            if len(order) == n:
                limit, best = clock, list(order)
            elif not _hopeless(legs, placed, node, clock, limit):
                k = 0
                continue
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


def _hopeless(legs: Sequence[Sequence[Leg]], placed: Sequence[bool],
              node: int, clock: int, limit: float) -> bool:
    """Whether some unplaced stop, even straight from ``node`` at
    ``clock``, misses its deadline or arrives no earlier than ``limit``."""
    for k, unit in enumerate(legs):
        if not placed[k]:
            for row, _, deadline, _ in unit:
                a = row.get(node)
                if a is None or clock + a > deadline or clock + a >= limit:
                    return True
    return False
