import random

import pytest

from ridematch import assignment, engine
from ridematch.engine import baseline_update, gmomatch_update
from ridematch.model import (ASSIGNED, DROPOFF, EXPIRED, ONBOARD, PENDING,
                             PICKUP)
from ridematch.scheduling import PricingContext
from ridematch.sim import (SimulationState, advance, commuter_config,
                           example_config, run_scenario)
from ridematch.vehicle_graph import donor_eligible

from conftest import dropoff, make_request, make_vehicle, pickups, priced
from instance_gen import random_request


class TestExpiry:
    def test_strict_deadline(self, line_net):
        ok = make_request(1, 0, 0, 2, 60, line_net)      # q_r = 60
        late = make_request(2, 0, 4, 2, 30, line_net)    # q_r = 30
        veh = make_vehicle(0, 0)
        out = gmomatch_update(line_net, 60, [ok, late], [veh])
        assert out.expired == [2]
        assert ok.status == ASSIGNED  # at t == q_r the request is still live

    def test_expired_never_priced(self, line_net):
        late = make_request(1, 0, 0, 2, 30, line_net)
        veh = make_vehicle(0, 0)
        out = baseline_update(line_net, 31, [late], [veh])
        assert out.expired == [1] and out.finalized == []
        assert late.status == EXPIRED


class TestColocatedBurst:
    def make(self, line_net):
        reqs = [make_request(i, 0, 1, 3, 300, line_net) for i in (1, 2, 3)]
        veh = make_vehicle(0, 0, capacity=4)
        return reqs, veh

    def test_baseline_takes_one(self, line_net):
        reqs, veh = self.make(line_net)
        out = baseline_update(line_net, 0, reqs, [veh])
        assert len(out.finalized) == 1
        assert sorted(out.deferred) == [2, 3]

    def test_gmomatch_takes_all(self, line_net):
        reqs, veh = self.make(line_net)
        out = gmomatch_update(line_net, 0, reqs, [veh])
        assert sorted(out.finalized) == [1, 2, 3]
        assert out.deferred == []
        assert out.iterations <= len(reqs) + 1
        picks = [s.request_id for s in veh.tour if s.kind == PICKUP]
        assert sorted(picks) == [1, 2, 3]

    def test_zero_requests(self, line_net):
        veh = make_vehicle(0, 0)
        for update in (gmomatch_update, baseline_update):
            out = update(line_net, 0, [], [veh])
            assert out.finalized == [] and out.deferred == []
            assert out.step2_rounds == 0

    def test_single_request_matchers_agree(self, line_net):
        r_a = make_request(1, 0, 1, 3, 300, line_net)
        r_b = make_request(1, 0, 1, 3, 300, line_net)
        veh_a = make_vehicle(0, 0)
        veh_b = make_vehicle(0, 0)
        out_a = gmomatch_update(line_net, 0, [r_a], [veh_a])
        out_b = baseline_update(line_net, 0, [r_b], [veh_b])
        assert out_a.finalized == out_b.finalized == [1]
        assert veh_a.tour == veh_b.tour
        assert r_a.assign_t == r_b.assign_t == 0


class TestCommitEffects:
    def test_assignment_bookkeeping(self, line_net):
        req = make_request(1, 0, 1, 3, 300, line_net)
        veh = make_vehicle(0, 0, ready_at=0)
        out = gmomatch_update(line_net, 30, [req], [veh])
        assert out.finalized == [1]
        assert req.status == ASSIGNED
        assert req.vehicle_id is None  # written at the pickup
        assert req.assign_t == 30
        assert veh.ready_at == 30  # pinned to the update instant
        stops = [(s.kind, s.request_id) for s in veh.tour]
        assert stops == [(PICKUP, 1), (DROPOFF, 1)]

    def test_busy_vehicle_keeps_later_ready_time(self, line_net):
        req = make_request(1, 0, 1, 3, 300, line_net)
        veh = make_vehicle(0, 1, ready_at=95)
        out = gmomatch_update(line_net, 30, [req], [veh])
        assert out.finalized == [1]
        assert veh.ready_at == 95

    def test_epoch_assignments_reset_between_updates(self, line_net):
        r1 = make_request(1, 0, 1, 3, 600, line_net)
        veh = make_vehicle(0, 0)

        # R_v, the riders this update committed, is what the merge stage
        # gets as its fresh ids
        fresh = set(gmomatch_update(line_net, 0, [r1], [veh]).finalized)
        assert fresh == {1} and r1.assign_t == 0
        assert pickups(veh.tour) == {1}
        assert donor_eligible(veh, fresh)
        r2 = make_request(2, 30, 1, 3, 600, line_net)
        fresh = set(gmomatch_update(line_net, 30, [r2], [veh]).finalized)
        assert fresh == {2} and r2.assign_t == 30  # R_v is per update epoch
        assert pickups(veh.tour) == {1, 2}
        assert not donor_eligible(veh, fresh)  # r1 is older work


class TestDeferral:
    def test_unmatchable_request_deferred(self, line_net):
        # vehicle too far for the flexibility radius: stays pending
        req = make_request(1, 0, 4, 2, 60, line_net)
        veh = make_vehicle(0, 0)
        for update in (gmomatch_update, baseline_update):
            req.status = PENDING
            out = update(line_net, 0, [req], [veh])
            assert out.deferred == [1]
            assert req.status == PENDING

    def test_baseline_one_per_vehicle_per_update(self, line_net):
        reqs = [make_request(i, 0, 1, 3, 300, line_net) for i in (1, 2, 3)]
        v1 = make_vehicle(0, 0)
        v2 = make_vehicle(1, 2)
        out = baseline_update(line_net, 0, reqs, [v1, v2])
        assert len(out.finalized) == 2
        assert len(out.deferred) == 1


class TestIterationBound:
    def test_random_updates_bounded(self, grid6):
        rng = random.Random(5)
        for trial in range(20):
            n_req = rng.randrange(1, 12)
            reqs = [random_request(rng, grid6, i, t=0, max_back=0)
                    for i in range(n_req)]
            vehicles = [make_vehicle(v, grid6.nodes[rng.randrange(36)])
                        for v in range(rng.randrange(1, 5))]
            out = gmomatch_update(grid6, 0, reqs, vehicles)
            assert out.iterations <= n_req + 1
            assert len(out.finalized) + len(out.deferred) \
                + len(out.expired) == n_req


class TestSharedPricingContext:
    def test_later_rounds_reuse_verdicts(self, monkeypatch, searches):
        # every round of an update prices through one context, so a later
        # round answers a pair an earlier one found infeasible from its
        # verdict; the trip log is the one a fresh context per round gives
        config = commuter_config(loading_period_s=300)
        reused = []  # (answered from a verdict, priced earlier this update)
        last_priced = {}
        real_path_cost = assignment.path_cost

        def spy(net, t, veh, req, context):
            before = len(searches)
            plan = real_path_cost(net, t, veh, req, context)
            reused.append((len(searches) == before,
                           last_priced.get((veh.id, req.id)) == t))
            last_priced[(veh.id, req.id)] = t
            return plan

        monkeypatch.setattr(assignment, "path_cost", spy)
        shared = run_scenario(config)
        assert max(u["iterations"] for u in shared.update_records) >= 2
        assert any(answered and same for answered, same in reused)
        calls = len(reused)

        real_build = engine.build_bipartite
        monkeypatch.setattr(engine, "build_bipartite",
                            lambda net, t, requests, vehicles, context:
                            real_build(net, t, requests, vehicles))
        reused.clear()
        last_priced.clear()
        fresh = run_scenario(config)
        assert not any(answered for answered, _ in reused)
        assert len(reused) == calls  # the same pairs were priced
        assert fresh.trip_records == shared.trip_records


# overloaded scenarios whose pending requests outlive several updates
CARRY_SCENARIOS = (commuter_config(), example_config(fleet_size=5),
                   example_config(loading_period_s=300))


def held_requests(context):
    """Ids of the requests a context keeps a side or a verdict for."""
    return set(context._requests).union(
        *(record.infeasible for record in context._vehicles.values()))


def run_checking_verdicts(monkeypatch, searches, config):
    """Run ``config`` on the run's pricing context.  Every pair answered
    from a verdict, a ``path_cost`` call that runs no search, is
    re-priced fresh through ``scheduling._priced`` and must be
    infeasible.  Returns the result, the number of those pairs whose
    verdict came from an earlier update, and the request ids the
    context held at each matcher entry beyond the pending ones."""
    seen: set[tuple[int, int]] = set()  # pairs priced in this update
    stray: list[set[int]] = []
    carried = 0
    with monkeypatch.context() as m:
        for name, fn in list(engine.MATCHERS.items()):
            def entry(net, t, pending, vehicles, context, _fn=fn):
                seen.clear()
                stray.append(held_requests(context)
                             - {r.id for r in pending})
                return _fn(net, t, pending, vehicles, context)
            m.setitem(engine.MATCHERS, name, entry)
        real_path_cost = assignment.path_cost

        def spy(net, t, veh, req, context):
            nonlocal carried
            before = len(searches)
            plan = real_path_cost(net, t, veh, req, context)
            if len(searches) == before:
                carried += (veh.id, req.id) not in seen
                fresh = priced(net, t, veh, req, PricingContext(net))
                assert not fresh.feasible, (t, veh.id, req.id)
            seen.add((veh.id, req.id))
            return plan

        m.setattr(assignment, "path_cost", spy)
        result = run_scenario(config)
    return result, carried, stray


def run_fresh_context_per_update(monkeypatch, config):
    with monkeypatch.context() as m:
        for name, fn in list(engine.MATCHERS.items()):
            m.setitem(engine.MATCHERS, name,
                      lambda net, t, pending, vehicles, context, _fn=fn:
                      _fn(net, t, pending, vehicles))
        return run_scenario(config)


class TestCarriedVerdicts:
    @pytest.mark.parametrize("update", [gmomatch_update, baseline_update])
    def test_dropoff_reopens_a_pair(self, monkeypatch, line_net, update,
                                    searches):
        # a cab at node 0 carries three riders, so it keeps their order
        # and only inserts a new pair: A to node 1 (reached at 60), C to
        # node 4 (due by 600) and then D to node 2 (due by 400).  Rider B
        # rides 3 -> 2, picked up by 200 and dropped by 260: in that
        # order D or B is always late.  Dropping A off leaves two riders,
        # whose stops are then re-ordered: D at 120, B from 180 to 240,
        # then C at 360.  So the verdict found at t = 0 answers the pair
        # at t = 30, and the dropoff at 60 must reopen it
        a = make_request(1, 0, 0, 1, 540, line_net)
        c = make_request(3, 0, 0, 4, 360, line_net)
        d = make_request(4, 0, 0, 2, 280, line_net)
        b = make_request(2, 0, 3, 2, 200, line_net)
        for rider in (a, c, d):
            rider.status = ONBOARD
        veh = make_vehicle(0, 0, tour=(dropoff(a), dropoff(c), dropoff(d)),
                           onboard={1, 3, 4})
        state = SimulationState(net=line_net, vehicles=[veh],
                                requests=[a, b, c, d],
                                requests_by_id={1: a, 2: b, 3: c, 4: d},
                                pending=[b])
        calls = []
        real_path_cost = assignment.path_cost
        monkeypatch.setattr(assignment, "path_cost",
                            lambda net, t, veh, req, context:
                            calls.append((t, veh.id, req.id))
                            or real_path_cost(net, t, veh, req, context))
        for t in (0, 30):
            out = update(line_net, t, state.pending, state.vehicles,
                         state.context)
            assert out.deferred == [2]
            advance(state, t + 30)
        assert a.dropoff_t == 60
        out = update(line_net, 60, state.pending, state.vehicles,
                     state.context)
        assert out.finalized == [2] and b.assign_t == 60
        assert [(s.request_id, s.kind) for s in veh.tour] == [
            (4, DROPOFF), (2, PICKUP), (2, DROPOFF), (3, DROPOFF)]
        assert calls == [(0, 0, 2), (30, 0, 2), (60, 0, 2)]
        assert searches == [(0, 0, 2), (60, 0, 2)]

    @pytest.mark.parametrize("capacity", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("matcher", sorted(engine.MATCHERS))
    def test_carried_verdicts_equal_fresh_pricing(self, monkeypatch,
                                                  searches, matcher,
                                                  capacity):
        # every verdict that answers a pair re-prices as infeasible, and
        # the trip log is the one a fresh context per update gives
        carried = 0
        for scenario in CARRY_SCENARIOS:
            config = scenario.replace(matcher=matcher, capacity=capacity)
            result, n, _ = run_checking_verdicts(monkeypatch, searches,
                                                 config)
            carried += n
            fresh = run_fresh_context_per_update(monkeypatch, config)
            assert result.trip_records == fresh.trip_records
        assert carried  # some verdicts came from an earlier update

    @pytest.mark.parametrize("matcher", sorted(engine.MATCHERS))
    def test_store_holds_only_pending_requests(self, monkeypatch, searches,
                                               matcher):
        config = commuter_config(matcher=matcher)
        result, carried, stray = run_checking_verdicts(monkeypatch, searches,
                                                       config)
        assert carried and len(stray) == len(result.update_records)
        assert not any(stray)
        assert not held_requests(result.state.context)
