import random

import pytest

from ridematch import scheduling
from ridematch.model import DROPOFF, PICKUP, Request, Stop, Vehicle
from ridematch.network import Link, RoadNetwork, grid_network


@pytest.fixture(scope="session")
def line_net():
    """Five nodes in a row, 60 s / 500 m per hop, both directions."""
    nodes = range(5)
    links = []
    for a in range(4):
        links.append(Link(a, a + 1, 500.0, 60))
        links.append(Link(a + 1, a, 500.0, 60))
    return RoadNetwork(nodes, links)


@pytest.fixture(scope="session")
def grid6():
    return grid_network(6, 6)


@pytest.fixture(scope="session")
def grid3():
    return grid_network(3, 3)


@pytest.fixture(scope="session")
def skew3():
    """3x3 row-major grid whose links take 40 s going east or south and
    80 s going west or north: strongly connected, but the time from a to
    b differs from b to a whenever b lies south-east of a."""
    links = []
    for n in range(9):
        for nxt, ok in ((n + 1, n % 3 < 2), (n + 3, n < 6)):
            if ok:
                links.append(Link(n, nxt, 400.0, 40))
                links.append(Link(nxt, n, 400.0, 80))
    return RoadNetwork(range(9), links)


def make_request(rid, t_r, origin, destination, flexibility_s, net):
    direct = net.shortest_travel_time(origin, destination)
    assert direct is not None
    return Request(id=rid, t_r=t_r,
                   l_r=t_r + flexibility_s + direct, origin=origin,
                   destination=destination, f_r=flexibility_s,
                   q_r=t_r + flexibility_s, direct_time_s=direct)


def make_vehicle(vid, location, capacity=4, **kw):
    return Vehicle(id=vid, capacity=capacity, location=location, **kw)


def pickup(req):
    """The pickup stop of ``req``, due by its ``q_r``."""
    return Stop(PICKUP, req.id, req.origin, req.q_r)


def dropoff(req):
    """The dropoff stop of ``req``, due by its ``l_r``."""
    return Stop(DROPOFF, req.id, req.destination, req.l_r)


def pickups(tour):
    """Ids of the riders a tour has yet to pick up."""
    return {s.request_id for s in tour if s.kind == PICKUP}


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


# the pricing search itself, as imported before any test patches it
priced = scheduling._priced


@pytest.fixture
def searches(monkeypatch):
    """Every pricing search, as ``(t, vehicle id, request id)``: a
    ``path_cost`` call that runs no ``scheduling._priced`` was answered
    from a verdict."""
    calls = []

    def spy(net, t, vehicle, request, context):
        calls.append((t, vehicle.id, request.id))
        return priced(net, t, vehicle, request, context)

    monkeypatch.setattr(scheduling, "_priced", spy)
    return calls
