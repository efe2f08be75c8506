import random

from ridematch.scheduling import PricingContext, path_cost
from ridematch.vehicle_graph import (MergeEdge, VehicleGraph, apply_merges,
                                     build_vehicle_graph, donor_eligible,
                                     select_merges, step2_loop)

from conftest import dropoff, make_request, make_vehicle, pickup, pickups
from oracles import best_matching_weight


class TestDonorEligibility:
    def test_fresh_idle_vehicle_is_donor(self, line_net):
        r5 = make_request(5, 0, 0, 2, 600, line_net)
        veh = make_vehicle(1, 0, tour=(pickup(r5), dropoff(r5)))
        assert donor_eligible(veh, {5})

    def test_onboard_passenger_blocks(self, line_net):
        r5 = make_request(5, 0, 0, 2, 600, line_net)
        r9 = make_request(9, 0, 0, 3, 600, line_net)  # aboard, for node 3
        veh = make_vehicle(1, 0, tour=(pickup(r5), dropoff(r5), dropoff(r9)),
                           onboard={9})
        assert not donor_eligible(veh, {5})

    def test_prior_commitments_block(self, line_net):
        # rider 7, awaiting pickup, was committed an update before rider 5
        r5 = make_request(5, 30, 0, 2, 600, line_net)
        r7 = make_request(7, 0, 1, 3, 600, line_net)
        veh = make_vehicle(1, 0, tour=(pickup(r7), dropoff(r7),
                                       pickup(r5), dropoff(r5)))
        assert not donor_eligible(veh, {5})

    def test_nothing_assigned_blocks(self):
        veh = make_vehicle(1, 0)
        assert not donor_eligible(veh, set())


class TestBuildVehicleGraph:
    def setup_pair(self, net, flex=600):
        r1 = make_request(1, 0, 0, 2, flex, net)
        r2 = make_request(2, 0, 0, 2, flex, net)
        donor = make_vehicle(1, 4, tour=(pickup(r1), dropoff(r1)))
        recipient = make_vehicle(2, 0, tour=(pickup(r2), dropoff(r2)))
        return r1, r2, donor, recipient

    def test_edge_requires_connectivity(self, line_net):
        r1, r2, donor, recipient = self.setup_pair(line_net)
        withit = build_vehicle_graph(line_net, 0, [donor, recipient], {1, 2},
                                     {1: (1, 2), 2: (2,)})
        assert [(e.donor_id, e.recipient_id) for e in withit.edges] == [(1, 2)]
        # recipient absent from r1's filter set: no edge from donor 1
        without = build_vehicle_graph(line_net, 0, [donor, recipient], {1, 2},
                                      {1: (1,), 2: (2,)})
        assert [(e.donor_id, e.recipient_id) for e in without.edges] == []

    def test_nodes_are_assigned_vehicles_only(self, line_net):
        r1, r2, donor, recipient = self.setup_pair(line_net)
        bystander = make_vehicle(3, 2)
        # busy with a request committed at an earlier update
        r4 = make_request(4, 0, 1, 3, 600, line_net)
        earlier = make_vehicle(4, 1, tour=(pickup(r4), dropoff(r4)))
        graph = build_vehicle_graph(line_net, 30,
                                    [donor, recipient, bystander, earlier],
                                    {1, 2}, {1: (1, 2), 2: (2,), 4: (4,)})
        assert graph.nodes == (1, 2)

    def test_busier_vehicle_cannot_donate_to_emptier(self, line_net):
        r1, r2, donor, recipient = self.setup_pair(line_net)
        # donor now awaits two riders vs recipient's one
        r3 = make_request(3, 0, 0, 2, 600, line_net)
        donor.tour = (pickup(r1), dropoff(r1), pickup(r3), dropoff(r3))
        assert donor.occupants == 2 > recipient.occupants
        graph = build_vehicle_graph(line_net, 0, [donor, recipient],
                                    {1, 2, 3},
                                    {1: (1, 2), 2: (2,), 3: (1, 2)})
        assert all(e.donor_id != 1 for e in graph.edges)

    def test_recipient_needs_seats_for_all_donated(self, line_net):
        r1, r2, donor, recipient = self.setup_pair(line_net)
        recipient.capacity = 1  # one seat, already promised to r2
        graph = build_vehicle_graph(line_net, 0, [donor, recipient],
                                    {1, 2}, {1: (1, 2), 2: (2,)})
        assert graph.edges == ()

    def test_window_infeasibility_blocks_edge(self, line_net):
        r1, r2, donor, recipient = self.setup_pair(line_net, flex=60)
        # recipient sits at 0 but r1 must be dropped by l_r = 180;
        # serving both riders through node 2 is still fine, so tighten more
        r1.l_r = 60
        donor.tour = (pickup(r1), dropoff(r1))  # the stop copies l_r
        graph = build_vehicle_graph(line_net, 0, [donor, recipient],
                                    {1, 2}, {1: (1, 2), 2: (2,)})
        assert graph.edges == ()


class TestSelectMerges:
    def graph(self, edges):
        nodes = tuple(sorted({e.donor_id for e in edges}
                             | {e.recipient_id for e in edges}))
        return VehicleGraph(nodes, tuple(edges))

    def edge(self, d, r, cost):
        return MergeEdge(d, r, cost, ())

    def test_empty(self):
        assert select_merges(VehicleGraph((), ())) == []

    def test_collapse_keeps_cheaper_direction(self):
        got = select_merges(self.graph([self.edge(1, 2, 50),
                                        self.edge(2, 1, 30)]))
        assert [(e.donor_id, e.recipient_id) for e in got] == [(2, 1)]

    def test_collapse_tie_prefers_smaller_donor(self):
        got = select_merges(self.graph([self.edge(2, 1, 40),
                                        self.edge(1, 2, 40)]))
        assert [(e.donor_id, e.recipient_id) for e in got] == [(1, 2)]

    def test_matches_matching_enumeration(self):
        rng = random.Random(3)
        for trial in range(80):
            n = rng.randrange(2, 9)
            edges = []
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < 0.5:
                        # one direction, the other, or both
                        for d, r in rng.choice([[(a, b)], [(b, a)],
                                                [(a, b), (b, a)]]):
                            edges.append(self.edge(d, r, rng.randrange(0, 60)))
            if not edges:
                continue
            graph = self.graph(edges)
            got = select_merges(graph)
            # opposite directions collapse to the cheaper edge
            cheapest = {}
            for e in edges:
                pair = frozenset((e.donor_id, e.recipient_id))
                cheapest[pair] = min(cheapest.get(pair, e.cost), e.cost)
            ceiling = 1 + max(cheapest.values())
            expected = best_matching_weight(
                [(*pair, ceiling - cost) for pair, cost in cheapest.items()])
            assert sum(ceiling - e.cost for e in got) == expected
            assert got  # a graph with an edge always yields a merge
            used = [v for e in got for v in (e.donor_id, e.recipient_id)]
            assert len(used) == len(set(used))  # vertex-disjoint

    def test_deterministic(self):
        edges = [self.edge(a, b, (a * 5 + b) % 7)
                 for a in range(5) for b in range(a + 1, 5)]
        graph = self.graph(edges)
        assert select_merges(graph) == select_merges(graph)


class TestApplyMerges:
    def test_plan_moves_and_donor_clears(self, line_net):
        r1 = make_request(1, 0, 0, 2, 600, line_net)
        r2 = make_request(2, 0, 0, 2, 600, line_net)
        donor = make_vehicle(1, 4, tour=(pickup(r1), dropoff(r1)))
        recipient = make_vehicle(2, 0, tour=(pickup(r2), dropoff(r2)))
        merged = (pickup(r2), pickup(r1), dropoff(r2), dropoff(r1))
        edge = MergeEdge(1, 2, 120, merged)
        apply_merges([edge], {1: donor, 2: recipient})
        assert donor.tour == () and donor.occupants == 0
        assert recipient.tour == merged
        assert pickups(recipient.tour) == {1, 2}
        assert recipient.occupants == 2
        # the recipient now holds only this update's work; the donor none
        assert donor_eligible(recipient, {1, 2})
        assert not donor_eligible(donor, {1, 2})
        # who serves a rider is recorded at the pickup, not by the merge
        assert r1.vehicle_id is None
        assert donor.location == 4  # donor stays where it was


class TestStep2Loop:
    def test_colocated_chain_consolidates(self, line_net):
        # four identical fresh assignments at node 0 collapse onto one
        # vehicle over successive rounds
        reqs = [make_request(i, 0, 0, 2, 600, line_net) for i in range(4)]
        vehicles = [make_vehicle(v, 0, tour=(pickup(reqs[v]),
                                             dropoff(reqs[v])))
                    for v in range(4)]
        index = {r.id: (0, 1, 2, 3) for r in reqs}
        stats = step2_loop(line_net, 0, vehicles, {0, 1, 2, 3}, index,
                           PricingContext(line_net))
        assert stats.merges == 3
        assert stats.rounds <= 4  # bounded by initial assigned count
        holders = [v for v in vehicles if v.tour]
        assert len(holders) == 1
        assert pickups(holders[0].tour) == {0, 1, 2, 3}
        assert holders[0].occupants == 4

    def test_merges_forget_their_vehicles(self, line_net):
        # the colocated chain again, beside vehicle 4, which holds older
        # work and so takes no part in the merge stage.  Every vehicle
        # has a verdict for rider 9, who is too far to reach by q_r; each
        # merge replaces the tours of its donor and recipient, so their
        # verdicts go, and only vehicle 4 keeps its own
        reqs = [make_request(i, 0, 0, 2, 600, line_net) for i in range(5)]
        vehicles = [make_vehicle(v, 0, tour=(pickup(reqs[v]),
                                             dropoff(reqs[v])))
                    for v in range(5)]
        far = make_request(9, 0, 4, 3, 60, line_net)
        context = PricingContext(line_net)
        for veh in vehicles:
            assert not path_cost(line_net, 0, veh, far, context).feasible
        assert sorted(context.infeasible) == [0, 1, 2, 3, 4]
        index = {r.id: (0, 1, 2, 3) for r in reqs[:4]}
        stats = step2_loop(line_net, 0, vehicles, {0, 1, 2, 3}, index,
                           context)
        assert stats.merges == 3
        assert context.infeasible == {4: {9}}

    def test_no_edges_no_rounds(self, line_net):
        r1 = make_request(1, 0, 0, 2, 600, line_net)
        veh = make_vehicle(1, 0, tour=(pickup(r1), dropoff(r1)))
        stats = step2_loop(line_net, 0, [veh], {1}, {1: (1,)},
                           PricingContext(line_net))
        assert stats.rounds == 0 and stats.merges == 0
        assert veh.tour
