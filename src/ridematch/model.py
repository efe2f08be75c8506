"""Core domain objects: trip requests, vehicles, stops, and tours.

Times are integer seconds from simulation start, and every node (a
request's origin and destination, a stop's node, a vehicle's location)
is a network position, not an id.  A request's service window is fully
determined by its announcement time, its direct travel time, and a
flexibility budget: pickup must happen by ``q_r`` and dropoff by
``l_r``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .network import RoadNetwork

PICKUP = 1
DROPOFF = -1

PENDING = "pending"
ASSIGNED = "assigned"
ONBOARD = "onboard"
SERVED = "served"
EXPIRED = "expired"

# legal status moves; anything else is a programming error
_TRANSITIONS = {
    PENDING: {ASSIGNED, EXPIRED},
    ASSIGNED: {ONBOARD},
    ONBOARD: {SERVED},
    SERVED: set(),
    EXPIRED: set(),
}


class Stop(NamedTuple):
    """One planned visit: pick up or drop off one request at a node by
    ``deadline``, the request's ``q_r`` for a pickup and ``l_r`` for a
    dropoff."""

    kind: int  # PICKUP or DROPOFF
    request_id: int
    node: int
    deadline: int


Tour = tuple[Stop, ...]


@dataclass
class Request:
    """A trip request with its derived service window.

    The earliest pickup time is the announcement time ``t_r``, ``l_r`` the
    latest dropoff time, ``f_r`` the flexibility budget ``l_r - t_r -
    H(O, D)``, and ``q_r = t_r + f_r`` the latest pickup time; its stops
    copy both.  ``assign_t``, the update that committed the request, is
    only logged; the vehicle that will serve it is read from the tours
    until the pickup sets ``vehicle_id``.
    """

    id: int
    t_r: int
    l_r: int
    origin: int
    destination: int
    f_r: int
    q_r: int
    direct_time_s: int
    status: str = PENDING
    vehicle_id: int | None = None
    assign_t: int | None = None
    pickup_t: int | None = None
    dropoff_t: int | None = None

    def set_status(self, new: str) -> None:
        if new not in _TRANSITIONS[self.status]:
            raise ValueError(f"request {self.id}: illegal move "
                             f"{self.status} -> {new}")
        self.status = new


def derive_window(t_r: int, origin: int, destination: int,
                  flexibility_s: int, net: RoadNetwork) -> tuple[int, int, int]:
    """Return ``(l_r, q_r, direct_time)`` for a window given as flexibility.

    Raises ValueError when the destination is unreachable or the
    flexibility is negative.
    """
    if flexibility_s < 0:
        raise ValueError("flexibility must be non-negative")
    direct = net.shortest_travel_time(origin, destination)
    if direct is None:
        raise ValueError(f"no route from {net.nodes[origin]} to "
                         f"{net.nodes[destination]}")
    return t_r + flexibility_s + direct, t_r + flexibility_s, direct


def make_request(rid: int, t_r: int, origin: int, destination: int,
                 flexibility_s: int, net: RoadNetwork) -> Request:
    """Construct a request announced at ``t_r``."""
    l_r, q_r, direct = derive_window(t_r, origin, destination,
                                     flexibility_s, net)
    return Request(id=rid, t_r=t_r, l_r=l_r, origin=origin,
                   destination=destination, f_r=flexibility_s, q_r=q_r,
                   direct_time_s=direct)


@dataclass
class Vehicle:
    """A fleet vehicle and its current plan.

    The tour is the plan: it holds a dropoff for every request id in
    ``onboard`` (passengers in the vehicle) and a pickup/dropoff pair for
    every request assigned to the vehicle but not yet picked up.  Both
    kinds count against capacity, and every stop carries its own
    deadline.  ``ready_at`` is the earliest time the vehicle can leave
    ``location``; between stops it is the arrival time at ``location``.
    """

    id: int
    capacity: int
    location: int
    ready_at: int = 0
    tour: Tour = ()
    onboard: set[int] = field(default_factory=set)
    odometer_m: float = 0.0
    drive_time_s: int = 0

    @property
    def occupants(self) -> int:
        # each rider aboard has one stop left in the tour (the dropoff)
        # and each awaiting rider two, so the sum counts every rider twice
        return (len(self.tour) + len(self.onboard)) // 2

    @property
    def available_capacity(self) -> int:
        return self.capacity - self.occupants


def validate_tour(tour: Tour, onboard: set[int]) -> None:
    """Check stop-order structure: each request appears as an onboard
    dropoff, or as a pickup/dropoff pair in that order, never twice."""
    picked: set[int] = set()
    dropped: set[int] = set()
    for stop in tour:
        if stop.kind == PICKUP:
            if stop.request_id in picked or stop.request_id in onboard:
                raise ValueError(f"request {stop.request_id} picked up twice")
            picked.add(stop.request_id)
        elif stop.kind == DROPOFF:
            if stop.request_id in dropped:
                raise ValueError(f"request {stop.request_id} dropped twice")
            if stop.request_id not in picked and stop.request_id not in onboard:
                raise ValueError(f"request {stop.request_id} dropped before pickup")
            dropped.add(stop.request_id)
        else:
            raise ValueError(f"bad stop kind {stop.kind}")
    missing = picked - dropped
    if missing:
        raise ValueError(f"requests picked up but never dropped: {sorted(missing)}")
    missing_onboard = onboard - dropped
    if missing_onboard:
        raise ValueError(f"onboard passengers without a dropoff: "
                         f"{sorted(missing_onboard)}")
