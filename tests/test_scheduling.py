import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from ridematch.assignment import feasible_vehicles
from ridematch.model import DROPOFF, PICKUP, Request, Stop
from ridematch.network import Link, RoadNetwork
from ridematch.scheduling import (INFEASIBLE, PricingContext, evaluate_tour,
                                  path_cost, split_merge_cost, split_tour)

from conftest import dropoff, make_request, make_vehicle, pickup
from instance_gen import (donor_vehicle, random_request, vehicle_with_plan,
                          windows_of)
from oracles import (all_block_merges, all_orderings, all_pair_insertions,
                     best_plan, plan_arrivals, precedence_valid, travel_times)


def block_at(tour, block):
    """Index where ``block`` occurs contiguously in ``tour``, or -1."""
    for i in range(len(tour) - len(block) + 1):
        if tour[i:i + len(block)] == block:
            return i
    return -1


def first_optimum_ties(plan, times, veh, candidates, windows):
    """Check that ``plan`` is the first optimal candidate in enumeration
    order; return how many candidates share its cost (0 if none is
    feasible)."""
    candidates = list(candidates)
    costs = []
    for cand in candidates:
        arr = plan_arrivals(times, veh.location, max(0, veh.ready_at), cand,
                            len(veh.onboard), veh.capacity, windows)
        costs.append(None if arr is None else arr[-1] if arr else 0)
    feasible = [c for c in costs if c is not None]
    if not feasible:
        assert not plan.feasible
        return 0
    optimum = min(feasible)
    assert plan.feasible and plan.cost == optimum
    assert plan.tour == candidates[costs.index(optimum)]
    return feasible.count(optimum)


class TestEvaluateTour:
    def test_pickup_deadline_boundary(self, line_net):
        req = make_request(1, 0, 1, 3, 60, line_net)  # q_r = 60
        tour = (pickup(req), dropoff(req))
        # depart node 0 at 0: pickup arrival exactly 60 -> allowed
        assert evaluate_tour(line_net, 0, 0, 0, tour, 0, 4) \
            == (180, (60, 180))
        # departing 1 s later misses q_r
        assert evaluate_tour(line_net, 0, 0, 1, tour, 0, 4) is None

    def test_dropoff_deadline_boundary(self, line_net):
        req = make_request(1, 0, 0, 2, 30, line_net)  # l_r = 150
        direct = (pickup(req), dropoff(req))
        assert evaluate_tour(line_net, 0, 0, 30, direct, 0, 4) \
            == (150, (30, 150))
        # a detour through node 4 blows l_r even though pickup is on time
        other = make_request(2, 0, 4, 2, 600, line_net)
        detour = (pickup(req), Stop(PICKUP, 2, 4, other.q_r),
                  Stop(DROPOFF, 2, 4, other.l_r), dropoff(req))
        assert evaluate_tour(line_net, 0, 0, 0, detour, 0, 4) is None

    def test_prefix_capacity_violation(self, line_net):
        r1, r2 = [make_request(i, 0, 0, 4, 600, line_net) for i in (1, 2)]
        tour = (pickup(r1), pickup(r2), dropoff(r1), dropoff(r2))
        assert evaluate_tour(line_net, 0, 0, 0, tour, 0, 2) is not None
        # one seat: the second pickup overfills even though each ride fits
        assert evaluate_tour(line_net, 0, 0, 0, tour, 0, 1) is None
        # onboard passengers count against the bound too
        assert evaluate_tour(line_net, 0, 0, 0, tour, 1, 2) is None

    def test_cost_measured_from_update_time(self, line_net):
        req = make_request(1, 0, 1, 2, 600, line_net)
        tour = (pickup(req), dropoff(req))
        # vehicle busy until 90: cost includes the wait before departure
        cost, arrivals = evaluate_tour(line_net, 30, 0, 90, tour, 0, 4)
        assert arrivals == (150, 210)
        assert cost == 180

    def test_empty_tour_costs_zero(self, line_net):
        assert evaluate_tour(line_net, 40, 2, 40, (), 0, 4) == (0, ())


class TestCandidateGenerators:
    """Shapes of the plans that pricing returns."""

    def test_insertion_keeps_existing_order(self, grid3):
        rng = random.Random(12)
        checked = 0
        for trial in range(60):
            veh, existing = vehicle_with_plan(rng, grid3, rng.randrange(3, 5),
                                              t=0, capacity=6, vid=0)
            new = random_request(rng, grid3, 9, t=0)
            plan = path_cost(grid3, 0, veh, new)
            if not plan.feasible:
                continue
            rest = tuple(s for s in plan.tour if s.request_id != 9)
            assert rest == veh.tour
            assert plan.tour.index(pickup(new)) < plan.tour.index(dropoff(new))
            checked += 1
        assert checked >= 10

    def test_exhaustive_respects_precedence(self, line_net, grid3):
        # onboard rider 7 is dropped at 4; rider 9 rides 0 -> 1 first
        r7 = make_request(7, 0, 0, 4, 600, line_net)
        r9 = make_request(9, 0, 0, 1, 300, line_net)
        veh = make_vehicle(0, 0, tour=(dropoff(r7),))
        veh.onboard = {7}
        plan = path_cost(line_net, 0, veh, r9)
        assert plan.tour == (pickup(r9), dropoff(r9), dropoff(r7))
        rng = random.Random(13)
        for trial in range(60):
            veh, existing = vehicle_with_plan(rng, grid3, rng.randrange(0, 3),
                                              t=0, capacity=4, vid=0)
            new = random_request(rng, grid3, 9, t=0)
            plan = path_cost(grid3, 0, veh, new)
            if not plan.feasible:
                continue
            pair = (pickup(new), dropoff(new))
            assert sorted(plan.tour) == sorted(veh.tour + pair)
            assert precedence_valid(plan.tour, veh.onboard)

    def test_split_points(self, line_net):
        r1 = make_request(1, 0, 0, 1, 60, line_net)
        r2 = make_request(2, 0, 2, 3, 60, line_net)
        a, b, c, d = pickup(r1), dropoff(r1), pickup(r2), dropoff(r2)
        assert split_tour(()) == ((), ())
        assert split_tour((a, b)) == ((a,), (b,))
        assert split_tour((a, b, c)) == ((a, b), (c,))
        assert split_tour((a, b, c, d)) == ((a, b), (c, d))

    def test_merge_blocks_stay_contiguous(self, grid3):
        rng = random.Random(14)
        checked = 0
        for trial in range(60):
            donor, d_reqs = donor_vehicle(rng, grid3, rng.randrange(1, 3),
                                          t=0, vid=1, base_rid=500)
            recipient, r_reqs = vehicle_with_plan(
                rng, grid3, rng.randrange(1, 4), t=0, capacity=6, vid=2,
                base_rid=100)
            plan = split_merge_cost(grid3, 0, donor, recipient)
            if not plan.feasible:
                continue
            part1, part2 = split_tour(donor.tour)
            i = block_at(plan.tour, part1)
            j = block_at(plan.tour, part2)
            assert 0 <= i and i + len(part1) <= j
            rest = plan.tour[:i] + plan.tour[i + len(part1):j] \
                + plan.tour[j + len(part2):]
            assert rest == recipient.tour
            checked += 1
        assert checked >= 10


class TestPathCost:
    def test_idle_vehicle_direct_ride(self, line_net):
        req = make_request(1, 0, 1, 3, 300, line_net)
        veh = make_vehicle(0, 0)
        plan = path_cost(line_net, 0, veh, req)
        assert plan.feasible
        assert plan.cost == 60 + 120  # approach + ride
        assert plan.tour == (pickup(req), dropoff(req))

    def test_full_vehicle_infeasible(self, line_net):
        req = make_request(1, 0, 1, 3, 300, line_net)
        veh = make_vehicle(0, 0, capacity=2)
        r7 = make_request(7, 0, 0, 3, 600, line_net)
        r8 = make_request(8, 0, 0, 3, 600, line_net)
        veh.onboard = {7, 8}
        veh.tour = (dropoff(r7), dropoff(r8))
        assert not path_cost(line_net, 0, veh, req).feasible

    def test_expired_window_infeasible(self, line_net):
        req = make_request(1, 0, 4, 0, 30, line_net)  # q_r = 30
        veh = make_vehicle(0, 0)  # 240 s away
        assert not path_cost(line_net, 100, veh, req).feasible

    def test_shared_ride_reorders_short_tours(self, line_net):
        # vehicle en route for rider 7 (1 -> 3); co-located rider 9 joins
        r7 = make_request(7, 0, 1, 3, 300, line_net)
        r9 = make_request(9, 0, 1, 3, 300, line_net)
        veh = make_vehicle(0, 0, tour=(pickup(r7), dropoff(r7)))
        plan = path_cost(line_net, 0, veh, r9)
        assert plan.feasible
        assert plan.cost == 180  # both picked at 1, dropped at 3
        kinds = [(s.kind, s.node) for s in plan.tour]
        assert sorted(kinds[:2]) == [(PICKUP, 1), (PICKUP, 1)]

    def test_matches_exhaustive_oracle_small(self, grid3):
        rng = random.Random(21)
        times = travel_times(grid3)
        for trial in range(60):
            n = rng.randrange(0, 3)
            veh, existing = vehicle_with_plan(rng, grid3, n, t=0,
                                              capacity=4, vid=0)
            new = random_request(rng, grid3, 9, t=0)
            plan = path_cost(grid3, 0, veh, new)
            stops = list(veh.tour) + [pickup(new), dropoff(new)]
            windows = windows_of(existing + [new])
            oracle_cost, _ = best_plan(
                times, 0, veh.location, max(0, veh.ready_at),
                all_orderings(stops, veh.onboard), len(veh.onboard),
                veh.capacity, windows)
            if oracle_cost is None:
                assert not plan.feasible
            else:
                assert plan.feasible and plan.cost == oracle_cost

    def test_matches_insertion_oracle_long_tours(self, grid3):
        rng = random.Random(33)
        times = travel_times(grid3)
        checked = 0
        for trial in range(60):
            n = rng.randrange(3, 5)
            veh, existing = vehicle_with_plan(rng, grid3, n, t=0,
                                              capacity=6, vid=0)
            new = random_request(rng, grid3, 9, t=0)
            plan = path_cost(grid3, 0, veh, new)
            cands = all_pair_insertions(veh.tour, pickup(new),
                                        dropoff(new))
            windows = windows_of(existing + [new])
            oracle_cost, _ = best_plan(
                times, 0, veh.location, max(0, veh.ready_at), cands,
                len(veh.onboard), veh.capacity, windows)
            if oracle_cost is None:
                assert not plan.feasible
            else:
                assert plan.feasible and plan.cost == oracle_cost
                checked += 1
                rest = tuple(s for s in plan.tour if s.request_id != 9)
                assert rest == veh.tour  # existing order preserved
        assert checked >= 10

    def test_tie_keeps_first_insertion_slot(self, grid3):
        rng = random.Random(55)
        times = travel_times(grid3)
        ties = 0
        for trial in range(40):
            veh, existing = vehicle_with_plan(rng, grid3, 3, t=0,
                                              capacity=6, vid=0)
            new = random_request(rng, grid3, 9, t=0)
            plan = path_cost(grid3, 0, veh, new)
            cands = all_pair_insertions(veh.tour, pickup(new),
                                        dropoff(new))
            ties += first_optimum_ties(plan, times, veh, cands,
                                       windows_of(existing + [new])) > 1
        assert ties >= 10

    def test_tie_keeps_first_ordering(self, grid3):
        rng = random.Random(56)
        times = travel_times(grid3)
        ties = 0
        for trial in range(60):
            veh, existing = vehicle_with_plan(rng, grid3, rng.randrange(0, 3),
                                              t=0, capacity=4, vid=0)
            new = random_request(rng, grid3, 9, t=0)
            plan = path_cost(grid3, 0, veh, new)
            stops = list(veh.tour) + [pickup(new), dropoff(new)]
            ties += first_optimum_ties(plan, times, veh,
                                       all_orderings(stops, veh.onboard),
                                       windows_of(existing + [new])) > 1
        assert ties >= 10


class RecordingNet:
    """A network whose routing rows note every node they are read at."""

    def __init__(self, net):
        self.net = net
        self.rows_built = []  # targets whose row was asked for, in order
        self.read_at = set()

    def travel_times_to(self, dst):
        self.rows_built.append(dst)
        return RecordingRow(self.net.travel_times_to(dst), self.read_at)


class RecordingRow(dict):
    def __init__(self, row, read_at):
        super().__init__(row)
        self.read_at = read_at

    def get(self, node, default=None):
        self.read_at.add(node)
        return super().get(node, default)


class TestPricingBounds:
    """Cuts from shortest legs: no tour reaches a stop sooner than
    straight from where the vehicle is."""

    @pytest.mark.parametrize("t,ready_at,feasible", [
        (0, 0, True), (0, 30, False), (45, 0, False)])
    def test_root_check_uses_departure_time(self, line_net, t, ready_at,
                                            feasible):
        # rider 9 waits at node 1 until q_r = 60; the cab at node 0 is 60 s
        # away, within f_r, but may not leave before max(t, ready_at)
        r7 = make_request(7, 0, 0, 4, 600, line_net)
        r9 = make_request(9, 0, 1, 3, 60, line_net)
        veh = make_vehicle(0, 0, ready_at=ready_at,
                           tour=(pickup(r7), dropoff(r7)))
        assert feasible_vehicles(line_net, r9, [veh]) == [veh]
        recording = RecordingNet(line_net)
        plan = path_cost(recording, t, veh, r9)
        stops = [pickup(r7), dropoff(r7), pickup(r9), dropoff(r9)]
        oracle_cost, _ = best_plan(
            travel_times(line_net), t, 0, max(t, ready_at),
            all_orderings(stops, set()), 0, veh.capacity,
            windows_of([r7, r9]))
        assert plan.feasible == feasible == (oracle_cost is not None)
        if feasible:
            assert plan.cost == oracle_cost
        else:
            assert plan == INFEASIBLE
            assert recording.rows_built == [r9.origin]  # no leg built

    def test_search_cut_fires_mid_tour(self, line_net):
        # cab at node 2 holds rider 1 (1 -> 0, due at 0 by 120); rider 2
        # rides 3 -> 4.  Fetching rider 2 first puts the cab at node 3 at
        # 60, too late for rider 1's pickup at 1 (due by 60), so that
        # branch is cut before it goes on to node 4
        r1 = make_request(1, 0, 1, 0, 60, line_net)
        r2 = make_request(2, 0, 3, 4, 300, line_net)
        veh = make_vehicle(0, 2, tour=(pickup(r1), dropoff(r1)))
        recording = RecordingNet(line_net)
        plan = path_cost(recording, 0, veh, r2)
        stops = [pickup(r1), dropoff(r1), pickup(r2), dropoff(r2)]
        oracle_cost, oracle_tour = best_plan(
            travel_times(line_net), 0, 2, 0, all_orderings(stops, set()), 0,
            veh.capacity, windows_of([r1, r2]))
        assert plan == (True, 360, oracle_tour) and oracle_cost == 360
        # node 4 ends the only feasible tour; only a branch that kept
        # going after the cut would read a leg from there
        assert 4 not in recording.read_at

    def test_shared_context_changes_nothing(self, grid3, skew3):
        # one context per update instant, as gmomatch_update keeps it
        # across its rounds: every vehicle shape priced against a dozen
        # requests, round after round, prices exactly as it does alone.
        # Between rounds, tours change the way a commit changes them (a
        # priced plan, departure pinned to t) and the way a merge does
        # (donor emptied, recipient given the merged tour), and just
        # those vehicles are forgotten; the others keep their sides and
        # their infeasible verdicts
        rng = random.Random(91)
        shapes = {"idle": 0, "exhaustive": 2, "insertion": 3, "full": 2,
                  "recipient": 1}
        # after each round but the last: (commit to, donor, recipient)
        between = [("idle", "exhaustive", "recipient"),
                   ("exhaustive", "idle", "insertion")]
        reused = dict.fromkeys(shapes, 0)
        for net in (grid3, skew3):
            requests = [random_request(rng, net, rid, t=0)
                        for rid in range(12)]
            for t in (0, 45):
                vehicles = {"idle": make_vehicle(
                    0, rng.choice(net.nodes), ready_at=rng.randrange(0, 90))}
                for vid, shape in enumerate(shapes):
                    if shape != "idle":
                        vehicles[shape], _ = vehicle_with_plan(
                            rng, net, shapes[shape], t=0,
                            capacity=shapes[shape] if shape == "full" else 6,
                            vid=vid, base_rid=100 * vid,
                            allow_onboard=False, max_tries=2000)
                assert vehicles["full"].available_capacity == 0
                assert vehicles["insertion"].occupants == 3
                context = PricingContext(net)
                for rnd in range(len(between) + 1):
                    plans = {shape: [] for shape in shapes}
                    for req in requests:
                        for shape, veh in vehicles.items():
                            plan = path_cost(net, t, veh, req)
                            reused[shape] += req.id in context.infeasible.get(
                                veh.id, ())
                            assert path_cost(net, t, veh, req, context) \
                                == plan
                            if plan.feasible:
                                plans[shape].append(plan)
                    if rnd == 0:
                        assert not plans["full"]
                        assert all(plans[s] for s in ("idle", "exhaustive",
                                                      "insertion")), plans
                    if rnd == len(between):
                        break
                    commit, donor, recipient = between[rnd]
                    changed = []
                    if plans[commit]:
                        veh = vehicles[commit]
                        veh.tour = plans[commit][0].tour
                        veh.ready_at = max(veh.ready_at, t)
                        changed.append(veh.id)
                    if vehicles[donor].tour:
                        d, r = vehicles[donor], vehicles[recipient]
                        r.tour, d.tour = r.tour + d.tour, ()
                        changed += [d.id, r.id]
                    context.forget(changed)
        # the untouched vehicles answered later rounds from verdicts
        assert reused["full"] and reused["insertion"], reused

    def test_one_second_win_survives_the_cuts(self):
        # one-way links: 0->1 10 s, 0->2 19 s, 1->2 10 s, 2->1 5 s, 1->3
        # 10 s, 3->0 100 s.  The cab at 0 carries rider 1 to node 1; rider
        # 2 rides 2 -> 3.  The first order reached, drop 1 then serve 2,
        # ends at 35; fetching rider 2 first ends at 34, exactly its
        # bound when it leaves node 2 (node 1 lies on the way to 3)
        net = RoadNetwork(range(4), [
            Link(a, b, 100.0, s) for a, b, s in ((0, 1, 10), (0, 2, 19),
                                                 (1, 2, 10), (2, 1, 5),
                                                 (1, 3, 10), (3, 0, 100))])
        drop1 = Stop(DROPOFF, 1, 1, 500)
        r2 = make_request(2, 0, 2, 3, 100, net)
        veh = make_vehicle(0, 0, tour=(drop1,), onboard={1})
        plan = path_cost(net, 0, veh, r2)
        stops = [drop1, pickup(r2), dropoff(r2)]
        costs = [plan_arrivals(travel_times(net), 0, 0, order, 1, 4,
                               {1: (0, 500), 2: (r2.q_r, r2.l_r)})[-1]
                 for order in all_orderings(stops, {1})]
        assert costs == [35, 34, 144]
        assert plan == (True, 34, (pickup(r2), drop1, dropoff(r2)))


def idle_oracle(net, t, veh, req):
    """The oracle's first optimum for an empty tour plus ``req``."""
    return best_plan(travel_times(net), t, veh.location,
                     max(t, veh.ready_at),
                     all_orderings([pickup(req), dropoff(req)], set()), 0,
                     veh.capacity, windows_of([req]))


class TestIdleClosedForm:
    """An empty tour has one plan, straight to the pickup and on to the
    dropoff, priced without the search."""

    @pytest.mark.parametrize("slack", [0, -1])
    def test_dropoff_deadline_edge(self, line_net, slack):
        # cab at node 0; rider 1 -> 3: pickup at 60, dropoff at 180
        req = make_request(1, 0, 1, 3, 60, line_net)
        req = dataclasses.replace(req, l_r=180 + slack)
        veh = make_vehicle(0, 0)
        oracle_cost, oracle_tour = idle_oracle(line_net, 0, veh, req)
        plan = path_cost(line_net, 0, veh, req)
        if slack == 0:
            assert plan == (True, 180, oracle_tour) and oracle_cost == 180
        else:
            assert plan == INFEASIBLE and oracle_cost is None

    def test_destination_unreachable_from_origin(self):
        # one-way links 0 -> 1 and 2 -> 1: the cab reaches the pickup at
        # 1, but the destination's row has no entry for it
        net = RoadNetwork(range(3), [Link(0, 1, 100.0, 10),
                                     Link(2, 1, 100.0, 10)])
        req = Request(id=1, t_r=0, e_r=0, l_r=10**6, origin=1,
                      destination=2, f_r=600, q_r=600, direct_time_s=0)
        veh = make_vehicle(0, 0)
        assert 1 not in net.travel_times_to(2)
        assert idle_oracle(net, 0, veh, req) == (None, None)
        assert path_cost(net, 0, veh, req) == INFEASIBLE

    @pytest.mark.parametrize("t,ready_at", [
        (0, 0), (0, 30), (45, 0), (45, 60)])
    def test_departs_at_ready_time(self, grid3, t, ready_at):
        rng = random.Random(17)
        feasible = 0
        for rid in range(40):
            req = random_request(rng, grid3, rid, t=0)
            veh = make_vehicle(0, rng.choice(grid3.nodes), ready_at=ready_at)
            oracle_cost, oracle_tour = idle_oracle(grid3, t, veh, req)
            plan = path_cost(grid3, t, veh, req)
            if oracle_cost is None:
                assert plan == INFEASIBLE
            else:
                assert plan == (True, oracle_cost, oracle_tour)
                feasible += 1
        assert 10 <= feasible < 40


class TestSplitMergeCost:
    def test_hand_merge_on_line(self, line_net):
        # donor at 4 with r1 (0 -> 2); recipient at 0 with r2 (0 -> 2)
        r1 = make_request(1, 0, 0, 2, 600, line_net)
        r2 = make_request(2, 0, 0, 2, 600, line_net)
        donor = make_vehicle(1, 4, tour=(pickup(r1), dropoff(r1)))
        recipient = make_vehicle(2, 0, tour=(pickup(r2), dropoff(r2)))
        plan = split_merge_cost(line_net, 0, donor, recipient)
        assert plan.feasible
        assert plan.cost == 120  # both riders travel together
        assert len(plan.tour) == 4

    def test_matches_block_merge_oracle(self, grid3):
        rng = random.Random(77)
        times = travel_times(grid3)
        feasible_seen = 0
        for trial in range(60):
            donor, d_reqs = donor_vehicle(rng, grid3, rng.randrange(1, 3),
                                          t=0, vid=1, base_rid=500)
            recipient, r_reqs = vehicle_with_plan(
                rng, grid3, rng.randrange(1, 4), t=0, capacity=6, vid=2,
                base_rid=100)
            plan = split_merge_cost(grid3, 0, donor, recipient)
            cut = (len(donor.tour) + 1) // 2
            cands = all_block_merges(recipient.tour, donor.tour[:cut],
                                     donor.tour[cut:])
            windows = windows_of(d_reqs + r_reqs)
            oracle_cost, _ = best_plan(
                times, 0, recipient.location, max(0, recipient.ready_at),
                cands, len(recipient.onboard), recipient.capacity, windows)
            if oracle_cost is None:
                assert not plan.feasible
            else:
                assert plan.feasible and plan.cost == oracle_cost
                feasible_seen += 1
                arr = plan_arrivals(times, recipient.location,
                                    max(0, recipient.ready_at), plan.tour,
                                    len(recipient.onboard),
                                    recipient.capacity, windows)
                assert arr is not None  # independent revalidation
        assert feasible_seen >= 10

    def test_tie_keeps_first_block_merge(self, grid3):
        rng = random.Random(78)
        times = travel_times(grid3)
        ties = 0
        for trial in range(60):
            donor, d_reqs = donor_vehicle(rng, grid3, rng.randrange(1, 3),
                                          t=0, vid=1, base_rid=500)
            recipient, r_reqs = vehicle_with_plan(
                rng, grid3, rng.randrange(1, 4), t=0, capacity=6, vid=2,
                base_rid=100)
            plan = split_merge_cost(grid3, 0, donor, recipient)
            cands = all_block_merges(recipient.tour, *split_tour(donor.tour))
            ties += first_optimum_ties(plan, times, recipient, cands,
                                       windows_of(d_reqs + r_reqs)) > 1
        assert ties >= 10

    def test_infeasible_when_recipient_lacks_seats(self, line_net):
        reqs = [make_request(1, 0, 0, 2, 600, line_net),
                make_request(2, 0, 0, 2, 600, line_net),
                make_request(3, 0, 2, 4, 600, line_net)]
        r1, r2, r3 = reqs
        donor = make_vehicle(1, 0, capacity=4,
                             tour=(pickup(r1), dropoff(r1)))
        recipient = make_vehicle(2, 0, capacity=1,
                                 tour=(pickup(r2), dropoff(r2),
                                       pickup(r3), dropoff(r3)))
        plan = split_merge_cost(line_net, 0, donor, recipient)
        # capacity 1 can still chain riders one at a time, but never two
        # aboard; a merge is only infeasible if windows or seats forbid it
        if plan.feasible:
            arr = plan_arrivals(travel_times(line_net), 0, 0, plan.tour, 0,
                                1, windows_of(reqs))
            assert arr is not None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), merge=st.booleans(),
       n=st.integers(0, 4), capacity=st.integers(2, 6),
       asymmetric=st.booleans(), t=st.sampled_from([0, 45]))
def test_pricing_returns_first_optimum(grid3, skew3, seed, merge, n,
                                       capacity, asymmetric, t):
    """On random grid3 instances, and on a 3x3 grid where a leg and its
    reverse can differ in time, the returned tour re-prices through
    evaluate_tour to the returned cost and is the oracle's first optimum
    (the oracle's travel times come from a directed Bellman-Ford).  The
    instances are drawn at time 0 with vehicles ready within 90 s, so
    pricing at ``t`` 45 departs at ``t`` for some and at ``ready_at`` for
    others."""
    net = skew3 if asymmetric else grid3
    rng = random.Random(seed)
    times = travel_times(net)
    if merge:
        donor, d_reqs = donor_vehicle(rng, net, 1 + n % 2, t=0, vid=1,
                                      base_rid=500, max_tries=2000)
        veh, existing = vehicle_with_plan(rng, net, 1 + n % 3, t=0,
                                          capacity=capacity, vid=2,
                                          base_rid=100, max_tries=2000)
        windows = windows_of(d_reqs + existing)
        plan = split_merge_cost(net, t, donor, veh)
        cands = all_block_merges(veh.tour, *split_tour(donor.tour))
    else:
        veh, existing = vehicle_with_plan(rng, net, n, t=0,
                                          capacity=capacity, vid=0,
                                          max_tries=2000)
        new = random_request(rng, net, 9, t=0)
        windows = windows_of(existing + [new])
        plan = path_cost(net, t, veh, new)
        if veh.available_capacity < 1:  # every seat already promised
            assert not plan.feasible
            return
        pair = (pickup(new), dropoff(new))
        cands = (all_orderings(list(veh.tour + pair), veh.onboard) if n <= 2
                 else all_pair_insertions(veh.tour, *pair))
    depart = max(t, veh.ready_at)
    oracle_cost, oracle_tour = best_plan(
        times, t, veh.location, depart, cands, len(veh.onboard),
        veh.capacity, windows)
    if oracle_cost is None:
        assert plan == (False, None, None)
        return
    assert plan.feasible and plan.tour == oracle_tour
    repriced = evaluate_tour(net, t, veh.location, depart, plan.tour,
                             len(veh.onboard), veh.capacity)
    assert repriced is not None and repriced[0] == plan.cost == oracle_cost
