"""Random but feasibility-checked test instances.

Vehicles with consistent in-progress plans are built by rejection
sampling: draw requests, a precedence-valid stop order, and vehicle
state, then keep the draw only if the oracle evaluator accepts it.  The
code under test is never used to construct instances.
"""

from __future__ import annotations

import random

from ridematch.model import (DROPOFF, ONBOARD, PICKUP, Request, Stop,
                             Vehicle)

from oracles import plan_arrivals, travel_times


def _make_request(net, rid, t_r, origin, destination, flexibility_s):
    direct = net.shortest_travel_time(origin, destination)
    return Request(id=rid, t_r=t_r,
                   l_r=t_r + flexibility_s + direct, origin=origin,
                   destination=destination, f_r=flexibility_s,
                   q_r=t_r + flexibility_s, direct_time_s=direct)


def random_request(rng: random.Random, net, rid, t, max_back=90,
                   flex_range=(60, 420)):
    origin, destination = rng.sample(range(len(net.nodes)), 2)
    announced = max(0, t - rng.randrange(0, max_back + 1))
    flex = rng.randrange(*flex_range)
    return _make_request(net, rid, announced, origin, destination, flex)


def _random_valid_order(rng: random.Random, stops_by_request):
    """Interleave per-request stop sequences in a random valid order."""
    queues = [list(seq) for seq in stops_by_request if seq]
    order = []
    while queues:
        q = rng.choice(queues)
        order.append(q.pop(0))
        if not q:
            queues.remove(q)
    return tuple(order)


def windows_of(requests):
    return {r.id: (r.q_r, r.l_r) for r in requests}


def vehicle_with_plan(rng: random.Random, net, n_requests, t=0, capacity=4,
                      vid=0, base_rid=100, allow_onboard=True,
                      max_tries=400):
    """A vehicle mid-plan with ``n_requests`` in its tour, plus their map.

    Some requests may already be aboard (dropoff-only stops).  The plan is
    guaranteed feasible from the vehicle's current position per the oracle
    evaluator.  Returns (vehicle, requests list).
    """
    times = travel_times(net)
    for _ in range(max_tries):
        requests = [random_request(rng, net, base_rid + k, t)
                    for k in range(n_requests)]
        onboard_ids = {r.id for r in requests
                       if allow_onboard and rng.random() < 0.35}
        if len(onboard_ids) > capacity:
            continue
        per_request = []
        for r in requests:
            stops = ([] if r.id in onboard_ids
                     else [Stop(PICKUP, r.id, r.origin, r.q_r)])
            stops.append(Stop(DROPOFF, r.id, r.destination, r.l_r))
            per_request.append(stops)
        tour = _random_valid_order(rng, per_request)
        location = rng.choice(range(len(net.nodes)))
        ready_at = t + rng.randrange(0, 90)
        arrivals = plan_arrivals(times, location, max(t, ready_at), tour,
                                 len(onboard_ids), capacity,
                                 windows_of(requests))
        if arrivals is None:
            continue
        for r in requests:
            if r.id in onboard_ids:
                r.status = ONBOARD
                r.vehicle_id = vid
        veh = Vehicle(id=vid, capacity=capacity, location=location,
                      ready_at=ready_at, tour=tour,
                      onboard=set(onboard_ids))
        return veh, requests
    raise AssertionError(f"no feasible plan found for n={n_requests}")


def donor_vehicle(rng: random.Random, net, n_requests, t=0, capacity=4,
                  vid=1, base_rid=500, max_tries=400):
    """A vehicle whose whole plan was assigned at ``t``: pairs only,
    nothing aboard."""
    return vehicle_with_plan(
        rng, net, n_requests, t=t, capacity=capacity, vid=vid,
        base_rid=base_rid, allow_onboard=False, max_tries=max_tries)
