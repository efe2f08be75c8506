"""Tour pricing: single-request insertion and two-vehicle merge plans.

A plan is priced by driving the tour stop by stop from the vehicle's
current position.  Every stop must be reached by its deadline (``q_r``
for a pickup, ``l_r`` for a dropoff) and the running occupancy must
never exceed capacity.  The cost of a feasible plan is the time from the
current update instant until the last stop is completed.

Every plan shape is one depth-first search over units (single stops or
donor half-tour blocks) that places the lowest-index placeable unit
first, carrying the clock and load, so whole tours come in a fixed
enumeration order.  A unit is a tuple of legs, one per stop, and a leg
carries its stop with what the search reads of it: the travel times
into its node, the node, its deadline and its load change, so the best
order's legs spell the winning tour.  An insertion search joins two
sides: the vehicle's (a unit per tour stop and the precedence list) and
the request's (its pickup unit and its dropoff unit).  One
``PricingContext`` per run builds each side the first time a
``path_cost`` call needs it and records a verdict for every pair it
found infeasible, which answers that pair again at once.  It alone
decides when what it keeps goes stale: see ``PricingContext``.  An
empty tour has one plan, the pair, which ``path_cost`` prices in closed
form at the search's cost.  ``assignment.build_bipartite`` answers some
pairs of a round's same-OD requests from a looser request's plan,
without a search, on idle and busy vehicles alike; it records a verdict
for each pair it so answers infeasible, through
``PricingContext.refuse``, as ``path_cost`` would.

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

A leg reads the row into its stop through
``RoadNetwork.travel_times_within``, exact out to the stop's deadline
minus ``t``.  The search's clock never starts before ``t``, so a longer
leg misses the deadline, and a missing entry (None) is treated as such a
miss everywhere: the root check returns ``INFEASIBLE``, ``_cheapest``
cuts the branch and ``_hopeless`` gives it up.  A pickup is due at
``q_r = t_r + f_r``, and a request is priced only at ``t >= t_r``, so
the bounded origin rows ``assignment.build_bipartite`` fills out to
``f_r`` serve the root check and every pickup leg, on either side of an
insertion search and in the blocks of a merge.  Dropoff legs read the
whole rows into the destinations, which the demand loaders fill.
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


# the search's view of one stop: (its node's routing row, node, deadline,
# load change, the stop); PICKUP is +1, DROPOFF -1
Leg = tuple[Sequence[int | None], int, int, int, Stop]
# stops the search places together, in order, as their legs
Unit = tuple[Leg, ...]


def search_unit(net: RoadNetwork, stops: Sequence[Stop], t: int) -> Unit:
    """The pricing search's unit that places ``stops`` together, in order,
    for searches whose clock starts at ``t`` or later: each leg's row is
    exact out to its stop's deadline minus ``t``, and a leg beyond that
    misses the deadline."""
    return tuple((net.travel_times_within(s.node, s.deadline - t), s.node,
                  s.deadline, s.kind, s) for s in stops)


# tours with at most this many distinct requests are priced exhaustively
EXHAUSTIVE_REQUEST_LIMIT = 2


# a vehicle's half of every insertion search: whether the request's
# pickup and dropoff units follow the tour's, a unit per tour stop, and
# the ``after`` list of the joined search
Side = tuple[bool, tuple[Unit, ...], list[int]]


class _Vehicle:
    """A context's record of one vehicle, valid while its tour is
    ``tour``: that tour's rider ids, the vehicle's side of the search
    (None until first needed) and the ids of the requests it cannot
    serve."""

    __slots__ = ("tour", "riders", "side", "infeasible")

    def __init__(self, tour: Tour):
        self.tour = tour
        # every rider, aboard or awaited, has a stop in the tour
        self.riders = frozenset(s.request_id for s in tour)
        self.side: Side | None = None
        self.infeasible: set[int] = set()


class PricingContext:
    """What the insertion searches of a run share on one network: each
    request's side of the search, and for each vehicle a record of the
    tour it last priced, that tour's riders, the vehicle's side and the
    verdicts of the pairs it found infeasible.

    Everything is keyed by id, and the context checks each vehicle
    against its record, so no caller ever tells it what changed.  A
    record holds while the vehicle's tour ``is`` the recorded one; any
    other tour rebuilds it, dropping the side and keeping the verdicts
    only when every recorded rider is still in the new tour.  So a
    verdict holds while no rider has left the vehicle since pricing last
    looked at it.  Between looks a vehicle only moves along shortest
    legs, pops stops in tour order, and gains riders (a commit, a merge
    recipient) or loses them (a dropoff, a donor).  With every old rider
    still planned, take any later plan, delete its new riders' stops and
    put the stops executed since in front: the earlier search tried that
    plan, since ``occupants`` (the seat test and the search shape) is no
    smaller and a keep-order tour keeps its order, and it reaches every
    stop no later.  The empty tour ``()`` is one shared object, so an
    idle vehicle keeps its record; its verdicts hold by the same rule,
    with no riders, and the triangle inequality.  ``retire`` drops the
    requests that left pending.  A side built at update time ``t`` reads
    each stop's row out to its deadline minus ``t``, which serves every
    later update as well: a run's update times never decrease.
    """

    def __init__(self, net: RoadNetwork):
        self.net = net
        self._vehicles: dict[int, _Vehicle] = {}
        self._requests: dict[int, tuple[Unit, Unit]] = {}

    def _record(self, vehicle: Vehicle) -> _Vehicle:
        record = self._vehicles.get(vehicle.id)
        if record is None or record.tour is not vehicle.tour:
            new = self._vehicles[vehicle.id] = _Vehicle(vehicle.tour)
            if record is not None and record.riders <= new.riders:
                new.infeasible = record.infeasible
            record = new
        return record

    def retire(self, request_ids: Sequence[int]) -> None:
        """Drop the sides and verdicts of requests that left pending."""
        for rid in request_ids:
            self._requests.pop(rid, None)
        for record in self._vehicles.values():
            record.infeasible.difference_update(request_ids)

    def refuse(self, vehicle: Vehicle, request_id: int) -> None:
        """Record that ``vehicle`` cannot serve the request, as
        ``path_cost`` does when its search finds no feasible plan."""
        self._record(vehicle).infeasible.add(request_id)

    def vehicle_side(self, vehicle: Vehicle, t: int) -> Side:
        record = self._record(vehicle)
        if record.side is None:
            tour = vehicle.tour
            units = tuple(search_unit(self.net, (s,), t) for s in tour)
            # every rider has a stop in the tour, so this counts its
            # requests: few enough to re-order, or keep the order and
            # insert the pair, which then comes first
            if vehicle.occupants <= EXHAUSTIVE_REQUEST_LIMIT:
                pickup_at = {s.request_id: k for k, s in enumerate(tour)
                             if s.kind == PICKUP}
                after = [-1 if s.kind == PICKUP
                         else pickup_at.get(s.request_id, -1) for s in tour]
                record.side = (True, units, after + [-1, len(tour)])
            else:
                record.side = (False, units, _chained(2, len(tour)))
        return record.side

    def request_side(self, request: Request, t: int) -> tuple[Unit, Unit]:
        side = self._requests.get(request.id)
        if side is None:
            pair = (Stop(PICKUP, request.id, request.origin, request.q_r),
                    Stop(DROPOFF, request.id, request.destination,
                         request.l_r))
            side = self._requests[request.id] = tuple(
                search_unit(self.net, (s,), t) for s in pair)
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
    shares both sides of the search across calls and answers a pair it
    has found infeasible at once; the result is the same without it.
    """
    if context is None:
        context = PricingContext(net)
    verdicts = context._record(vehicle).infeasible
    if request.id in verdicts:
        return INFEASIBLE
    plan = _priced(net, t, vehicle, request, context)
    if not plan.feasible:
        verdicts.add(request.id)
    return plan


def _priced(net: RoadNetwork, t: int, vehicle: Vehicle, request: Request,
            context: PricingContext) -> PlanResult:
    """``path_cost`` without the verdicts."""
    if vehicle.available_capacity < 1:
        return INFEASIBLE
    # no tour reaches the pickup sooner than straight from the departure
    approach = net.travel_times_within(request.origin,
                                       request.q_r - t)[vehicle.location]
    depart = max(t, vehicle.ready_at)
    if approach is None or depart + approach > request.q_r:
        return INFEASIBLE
    pair = context.request_side(request, t)
    if not vehicle.tour:
        # nothing is aboard, so the seat test covers the load
        dropoff = pair[1][0]
        direct = dropoff[0][request.origin]
        if direct is None or depart + approach + direct > request.l_r:
            return INFEASIBLE
        return PlanResult(True, depart + approach + direct - t,
                          (pair[0][0][4], dropoff[4]))
    tour_first, units, after = context.vehicle_side(vehicle, t)
    if tour_first:
        return _cheapest(t, vehicle, units + pair, after)
    return _cheapest(t, vehicle, pair + units, after)


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
    blocks = [search_unit(net, part, t) for part in split_tour(donor.tour)
              if part]
    units = blocks + [search_unit(net, (s,), t) for s in recipient.tour]
    return _cheapest(t, recipient, units,
                     _chained(len(blocks), len(recipient.tour)))


def _chained(*lengths: int) -> list[int]:
    """``after`` for units laid out as chains of these lengths, each unit
    following its predecessor in its chain."""
    after: list[int] = []
    for length in lengths:
        base = len(after)
        after.extend(base + i - 1 if i else -1 for i in range(length))
    return after


def _cheapest(t: int, vehicle: Vehicle, units: Sequence[Unit],
              after: Sequence[int]) -> PlanResult:
    """Cheapest feasible order of ``units`` from the vehicle's position;
    ``after[k]`` is the unit that must precede unit ``k``, or -1."""
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
                for row, stop_node, deadline, delta, _ in units[k]:
                    leg = row[at]
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
            elif not _hopeless(units, placed, node, clock, limit):
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
                      tuple(leg[4] for k in best for leg in units[k]))


def _hopeless(units: Sequence[Unit], placed: Sequence[bool],
              node: int, clock: int, limit: float) -> bool:
    """Whether some unplaced stop, even straight from ``node`` at
    ``clock``, misses its deadline or arrives no earlier than ``limit``."""
    for k, unit in enumerate(units):
        if not placed[k]:
            for row, _, deadline, _, _ in unit:
                a = row[node]
                if a is None or clock + a > deadline or clock + a >= limit:
                    return True
    return False
