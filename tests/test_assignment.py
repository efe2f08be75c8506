import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from ridematch import scheduling
from ridematch.assignment import (BipartiteGraph, Edge, build_bipartite,
                                  feasible_vehicles, solve_assignment)
from ridematch.network import Link, RoadNetwork, grid_network
from ridematch.scheduling import PricingContext, path_cost

from conftest import dropoff, make_request, make_vehicle
from instance_gen import vehicle_with_plan


def graph_from_costs(costs):
    """costs: dict (request_id, vehicle_id) -> cost."""
    rids = tuple(sorted({r for r, _ in costs}))
    vids = tuple(sorted({v for _, v in costs}))
    edges = tuple(Edge(r, v, c, ()) for (r, v), c in sorted(costs.items()))
    return BipartiteGraph(rids, vids, edges,
                          {r: tuple(v for v in vids if (r, v) in costs)
                           for r in rids})


def oracle_assignment(costs, rids, vids):
    """Best (max matched, then min cost) over all request-vehicle injections."""
    best = (0, 0)
    found = False
    for k in range(min(len(rids), len(vids)), -1, -1):
        for rsub in itertools.combinations(rids, k):
            for vperm in itertools.permutations(vids, k):
                pairs = list(zip(rsub, vperm))
                if any((r, v) not in costs for r, v in pairs):
                    continue
                total = sum(costs[(r, v)] for r, v in pairs)
                cand = (k, -total)
                if not found or cand > best:
                    best, found = cand, True
        if found:
            return best[0], -best[1]
    return 0, 0


class TestFeasibleVehicles:
    def test_reach_filter_boundary(self, line_net):
        req = make_request(1, 0, 2, 4, 120, line_net)
        near = make_vehicle(0, 1)     # 60 s away
        edge = make_vehicle(1, 0)     # exactly 120 s away
        far = make_vehicle(2, 0)
        far.location = 0
        req_tight = make_request(2, 0, 3, 4, 60, line_net)
        got = feasible_vehicles(line_net, req, [edge, near])
        assert [v.id for v in got] == [1, 0]  # in the order given
        assert feasible_vehicles(line_net, req_tight, [far]) == []

    def test_no_free_seat_excluded(self, line_net):
        req = make_request(1, 0, 2, 4, 600, line_net)
        r5 = make_request(5, 0, 2, 3, 600, line_net)  # aboard, for node 3
        veh = make_vehicle(0, 2, capacity=1, tour=(dropoff(r5),))
        veh.onboard = {5}
        assert veh.available_capacity == 0
        assert feasible_vehicles(line_net, req, [veh]) == []

    def test_unreachable_origin_excluded(self):
        # node 2 has no out-link: a vehicle there can never reach node 0
        net = RoadNetwork([0, 1, 2], [Link(0, 1, 100.0, 10),
                                      Link(1, 0, 100.0, 10),
                                      Link(1, 2, 100.0, 10)])
        req = make_request(1, 0, 0, 2, 600, net)
        trapped = make_vehicle(0, 2)
        free = make_vehicle(1, 1)
        got = feasible_vehicles(net, req, [trapped, free])
        assert [v.id for v in got] == [1]

    def test_reachable_within_budget_included(self):
        net = RoadNetwork([0, 1, 2], [Link(0, 1, 100.0, 10),
                                      Link(1, 0, 100.0, 10),
                                      Link(1, 2, 100.0, 10),
                                      Link(2, 1, 100.0, 10)])
        req = make_request(1, 0, 0, 2, 600, net)
        two_links_away = make_vehicle(0, 2)
        got = feasible_vehicles(net, req, [two_links_away])
        assert [v.id for v in got] == [0]

    def test_one_way_reach_is_vehicle_to_origin(self):
        # one-way ring 0 -> 1 -> 2 -> 0, 10 s a link: the approach is the
        # time from the vehicle to the origin, not from the origin back
        net = RoadNetwork([0, 1, 2], [Link(0, 1, 100.0, 10),
                                      Link(1, 2, 100.0, 10),
                                      Link(2, 0, 100.0, 10)])
        req = make_request(1, 0, 0, 1, 15, net)
        behind = make_vehicle(0, 2)  # 2 -> 0 is 10 s; 0 -> 2 is 20 s
        ahead = make_vehicle(1, 1)   # 1 -> 0 is 20 s; 0 -> 1 is 10 s
        got = feasible_vehicles(net, req, [behind, ahead])
        assert [v.id for v in got] == [0]


class TestBuildBipartite:
    def test_edges_and_filter_sets(self, line_net):
        r1 = make_request(1, 0, 1, 3, 120, line_net)
        r2 = make_request(2, 0, 4, 0, 60, line_net)   # only v1 close enough
        v0 = make_vehicle(0, 0)
        v1 = make_vehicle(1, 4)
        graph = build_bipartite(line_net, 0, [r2, r1], [v1, v0])
        assert graph.requests == (1, 2)
        assert graph.vehicles == (0, 1)
        assert graph.feasible_sets[1] == (0,)   # v1 is 180 s out, f is 120
        assert graph.feasible_sets[2] == (1,)
        pairs = {(e.request_id, e.vehicle_id) for e in graph.edges}
        assert pairs == {(1, 0), (2, 1)}
        for e in graph.edges:
            assert e.tour  # every edge carries its committed tour

    def test_candidates_in_id_order(self, line_net):
        # an unordered fleet: every vehicle is within f of the origin
        req = make_request(1, 0, 2, 4, 120, line_net)
        fleet = [make_vehicle(2, 3), make_vehicle(0, 1), make_vehicle(1, 0)]
        graph = build_bipartite(line_net, 0, [req], fleet)
        assert graph.vehicles == (0, 1, 2)
        assert graph.feasible_sets[1] == (0, 1, 2)

    def test_filter_without_edge(self, line_net):
        # vehicle passes the radius filter but the ride misses l_r
        r = make_request(1, 0, 1, 4, 60, line_net)
        r.l_r -= 200  # simulate an unserviceable deadline
        v = make_vehicle(0, 1)
        graph = build_bipartite(line_net, 0, [r], [v])
        assert graph.feasible_sets[1] == (0,)
        assert graph.edges == ()

    @pytest.mark.parametrize("group", [1, 2])
    def test_vehicle_exactly_f_r_away_keeps_its_edge(self, group):
        # priced at t == t_r, both cabs are exactly f_r = 120 s from the
        # origin: one idle, one dropping a rider off on the way.  The
        # origin row, built out to f_r, must hold them; a second request
        # of the same OD and f_r is priced from the first one's plans
        net = RoadNetwork(range(5), [Link(a, b, 500.0, 60)
                                     for a in range(5) for b in range(5)
                                     if abs(a - b) == 1])
        requests = [make_request(rid, 0, 2, 4, 120, net)
                    for rid in range(1, group + 1)]
        r7 = make_request(7, 0, 4, 3, 600, net)
        fleet = [make_vehicle(0, 0),
                 make_vehicle(1, 4, onboard={7}, tour=(dropoff(r7),))]
        graph = build_bipartite(net, 0, requests, fleet)
        assert graph.feasible_sets == {r.id: (0, 1) for r in requests}
        assert {(e.request_id, e.vehicle_id) for e in graph.edges} \
            == {(r.id, v.id) for r in requests for v in fleet}
        # every read of the origin row was served by the bounded row
        assert net._rows[2][0] == 120
        # and it prices as whole rows do
        whole = RoadNetwork(net.nodes, net.links)
        whole.fill_rows(range(5))
        assert build_bipartite(whole, 0, requests, fleet) == graph


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 4),
       cols=st.integers(2, 4), t=st.sampled_from([0, 45]))
def test_same_od_groups_price_like_each_pair_alone(seed, rows, cols, t):
    """A round with same-OD groups, each OD with two flexibilities and
    several announcement times (ties included), against a fleet of idle,
    busy and full vehicles: ``build_bipartite`` gives the edges and
    candidate sets of pricing each pair on its own through ``_priced``
    and a fresh context.  Every candidate pair without an edge is then
    answered from a verdict, and every pair with one is searched again,
    as after pricing each pair through ``path_cost``."""
    net = grid_network(rows, cols)
    rng = random.Random(seed)
    vehicles = [vehicle_with_plan(rng, net, rng.randrange(4), capacity=
                                  rng.randrange(2, 5), vid=vid,
                                  base_rid=100 + 10 * vid, max_tries=4000)[0]
                for vid in range(rng.randrange(1, 6))]
    requests = []
    rids = iter(rng.sample(range(100), 100))
    for _ in range(rng.randrange(1, 3)):
        origin, destination = rng.sample(range(len(net.nodes)), 2)
        for flex in rng.sample([40, 80, 120, 200, 300], 2):
            for _ in range(rng.randrange(1, 5)):
                t_r = max(0, t - rng.choice([0, 0, 20, 40, 70, 90]))
                requests.append(make_request(next(rids), t_r, origin,
                                             destination, flex, net))
    context = PricingContext(net)
    graph = build_bipartite(net, t, requests, vehicles, context)

    edges, feasible_sets = [], {}
    for req in sorted(requests, key=lambda r: r.id):
        candidates = feasible_vehicles(net, req,
                                       sorted(vehicles, key=lambda v: v.id))
        feasible_sets[req.id] = tuple(v.id for v in candidates)
        for veh in candidates:
            plan = scheduling._priced(net, t, veh, req, PricingContext(net))
            if plan.feasible:
                edges.append(Edge(req.id, veh.id, plan.cost, plan.tour))
    assert graph.feasible_sets == feasible_sets
    assert graph.edges == tuple(edges)

    searched = []

    def spy(net, t, vehicle, request, context):
        searched.append((request.id, vehicle.id))
        return priced(net, t, vehicle, request, context)

    priced = scheduling._priced
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheduling, "_priced", spy)
        for req in requests:
            for vid in feasible_sets[req.id]:
                path_cost(net, t, vehicles[vid], req, context)
    assert sorted(searched) == sorted((e.request_id, e.vehicle_id)
                                      for e in edges)


class TestSolveAssignment:
    def test_empty(self):
        graph = BipartiteGraph((), (), (), {})
        assert solve_assignment(graph) == []

    def test_prefers_cardinality_over_cost(self):
        costs = {(1, 10): 1, (1, 11): 100, (2, 10): 2}
        got = solve_assignment(graph_from_costs(costs))
        assert {(e.request_id, e.vehicle_id) for e in got} \
            == {(1, 11), (2, 10)}

    def test_one_vehicle_many_requests(self):
        costs = {(1, 10): 5, (2, 10): 3, (3, 10): 9}
        got = solve_assignment(graph_from_costs(costs))
        assert [(e.request_id, e.vehicle_id, e.cost) for e in got] \
            == [(2, 10, 3)]

    def test_matches_enumeration_oracle(self):
        rng = random.Random(13)
        for trial in range(120):
            n_r = rng.randrange(1, 6)
            n_v = rng.randrange(1, 6)
            costs = {}
            for r in range(n_r):
                for v in range(n_v):
                    if rng.random() < 0.6:
                        costs[(r, 100 + v)] = rng.randrange(0, 100)
            if not costs:
                continue
            graph = graph_from_costs(costs)
            got = solve_assignment(graph)
            count, total = oracle_assignment(costs, graph.requests,
                                             graph.vehicles)
            assert len(got) == count
            assert sum(e.cost for e in got) == total
            assert len({e.request_id for e in got}) == len(got)
            assert len({e.vehicle_id for e in got}) == len(got)

    def test_costs_summing_past_int64(self):
        # the prohibitive padding exceeds 2**63; the matrix must hold it
        costs = {(r, 100 + v): 2**50 + (r != v)
                 for r in range(3) for v in range(3)}
        costs.update({(r, 100 + v): 2**62 for r in range(3, 5)
                      for v in range(3)})
        got = solve_assignment(graph_from_costs(costs))
        assert [(e.request_id, e.vehicle_id) for e in got] \
            == [(0, 100), (1, 101), (2, 102)]

    def test_cardinality_past_float_precision(self):
        # the costs sum past 2**53, where the sum plus 2 rounds back to
        # the sum: two matches must still beat the one free edge
        costs = {(0, 100): 0, (0, 101): 2**60, (1, 100): 2**60}
        got = solve_assignment(graph_from_costs(costs))
        assert [(e.request_id, e.vehicle_id) for e in got] \
            == [(0, 101), (1, 100)]

    def test_deterministic(self):
        costs = {(r, 100 + v): (r * 7 + v * 3) % 10
                 for r in range(4) for v in range(4)}
        g = graph_from_costs(costs)
        first = solve_assignment(g)
        assert first == solve_assignment(g)
        assert [e.request_id for e in first] \
            == sorted(e.request_id for e in first)


def scipy_choice(graph):
    """The edges ``scipy.optimize.linear_sum_assignment`` picks on the
    padded matrix ``solve_assignment`` describes, sorted by request id."""
    n = max(len(graph.requests), len(graph.vehicles))
    cost = np.full((n, n), float(2 * sum(e.cost for e in graph.edges) + 2))
    edge_at = {}
    for e in graph.edges:
        i = graph.requests.index(e.request_id)
        j = graph.vehicles.index(e.vehicle_id)
        cost[i, j] = e.cost
        edge_at[(i, j)] = e
    rows, cols = linear_sum_assignment(cost)
    chosen = [edge_at[(i, j)] for i, j in zip(rows, cols) if (i, j) in edge_at]
    return sorted(chosen, key=lambda e: e.request_id)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_requests=st.integers(1, 10),
       n_vehicles=st.integers(1, 10),
       density=st.sampled_from([0.05, 0.2, 0.5, 0.9]),
       low=st.sampled_from([0, 1, 2**50]),
       spread=st.sampled_from([1, 2, 9, 999]))
@example(seed=5, n_requests=8, n_vehicles=6, density=0.9, low=2**50,
         spread=2)
def test_solver_picks_scipys_optimum(seed, n_requests, n_vehicles, density,
                                     low, spread):
    """Not just some optimum: the same edges as scipy, ties included.

    Both shapes, rows without edges, and costs from small ranges so that
    tied optima are common; ``low = 2**50`` takes the sum past 2**53.
    """
    rng = random.Random(seed)
    rids = tuple(range(n_requests))
    vids = tuple(100 + v for v in range(n_vehicles))
    edges = [Edge(r, v, rng.randint(low, low + spread), ())
             for r in rids for v in vids if rng.random() < density]
    rng.shuffle(edges)  # the choice must not depend on the edge order
    graph = BipartiteGraph(rids, vids, tuple(edges), {})
    assert solve_assignment(graph) == scipy_choice(graph)
