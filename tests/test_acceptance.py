"""Acceptance suite: one check per release gate, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  The heavyweight 50-scenario batch is computed once per session
and shared by the invariant, pinned trip-log and termination-bound
checks.
"""

import hashlib
import json
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ridematch import sim
from ridematch.assignment import BipartiteGraph, Edge, solve_assignment
from ridematch.model import ASSIGNED, ONBOARD, PICKUP, SERVED, validate_tour
from ridematch.scheduling import path_cost, split_merge_cost
from ridematch.sim import commuter_config, example_config, run_scenario, \
    write_trip_log
from ridematch.vehicle_graph import MergeEdge, VehicleGraph, select_merges

from conftest import dropoff, pickup
from instance_gen import donor_vehicle, random_request, vehicle_with_plan, \
    windows_of
from oracles import (all_block_merges, all_orderings, all_pair_insertions,
                     best_matching_weight, best_plan, min_assignment_cost,
                     plan_arrivals, travel_times)


def verdict(label: str, ok: bool, detail: str = "") -> None:
    tail = f" -- {detail}" if detail else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}{tail}")
    assert ok, f"{label}{tail}"


# --- shared scenario batches -------------------------------------------------

# SHA-256 of the trip log of every batch_config(seed), of irregular_config
# and of each of the spot_configs, plus (under "demos", checked in
# test_cli) of each demo's stdout.  A rewrite of routing, pricing or
# matching must keep them; only a deliberate change of results may
# re-record them.
PINNED = json.loads(
    Path(__file__).with_name("pinned_trip_logs.json").read_text())


def trip_log_sha256(trip_records, path) -> str:
    write_trip_log(path, trip_records)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def batch_config(seed: int):
    """50-scenario mix: both matchers, three capacities, two windows."""
    return commuter_config(
        seed=seed,
        matcher="gmomatch" if seed % 2 == 0 else "baseline",
        capacity=(4, 6, 10)[seed % 3],
        flexibility_s=(120, 300)[seed % 2],
        fleet_size=(8, 12)[(seed // 2) % 2],
        demand={"kind": "poisson",
                "od_rates": [{"origin": o, "destination": d,
                              "rate_per_hour": 240}
                             for o, d in [(0, 35), (5, 30), (30, 5),
                                          (35, 0)]],
                "scale": 1.2},
    )


def irregular_config(tmp_path):
    """A scenario on a file network unlike the bundled grid.

    A 4x5 lattice whose node ids are shuffled and non-contiguous, whose
    link times differ by row and column, with one eastbound-only row and
    one southbound-only column; many blocks still have two equal-cost
    ways round.
    """
    ids = [412, 7, 95, 230, 58, 301, 144, 23, 377, 86,
           199, 5, 260, 131, 318, 42, 171, 499, 66, 212]
    across = [30, 30, 50, 30]          # per row
    down = [40, 40, 60, 40, 40]        # per column
    links = []

    def add(a, b, tt):
        links.append({"from": a, "to": b, "length_m": 10.0 * tt,
                      "travel_time_s": tt})

    for r in range(4):
        for c in range(5):
            here = ids[r * 5 + c]
            if c < 4:
                add(here, ids[r * 5 + c + 1], across[r])
                if r != 1:
                    add(ids[r * 5 + c + 1], here, across[r])
            if r < 3:
                add(here, ids[(r + 1) * 5 + c], down[c])
                if c != 3:
                    add(ids[(r + 1) * 5 + c], here, down[c])
    path = tmp_path / "irregular_net.json"
    path.write_text(json.dumps({"nodes": [{"id": n} for n in ids],
                                "links": links}))
    return example_config(
        network={"kind": "file", "path": str(path)},
        demand={"kind": "uniform", "requests_per_hour": 240},
        fleet_size=5, capacity=3, flexibility_s=180, seed=3)


def spot_configs():
    """The three configs whose re-runs are pinned under ``spots``."""
    return [
        commuter_config(seed=123),
        example_config(seed=7),
        example_config(seed=9, matcher="baseline", update_interval_s=60),
    ]


@pytest.fixture(scope="session")
def scenario_batch():
    return [run_scenario(batch_config(seed)) for seed in range(50)]


# --- solver oracles ----------------------------------------------------------


def test_assignment_solver_equals_permutation_oracle():
    """Complete square cost matrices: solver total == brute-force minimum."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(500):
        n = int(rng.integers(1, 8))
        matrix = rng.integers(0, 100, size=(n, n))
        edges = tuple(Edge(r, 100 + v, int(matrix[r, v]), ())
                      for r in range(n) for v in range(n))
        graph = BipartiteGraph(tuple(range(n)),
                               tuple(100 + v for v in range(n)),
                               edges, {})
        got = solve_assignment(graph)
        assert len(got) == n
        assert sum(e.cost for e in got) == min_assignment_cost(matrix)
        checked += 1
    elapsed = time.perf_counter() - t0
    verdict("assignment vs permutation oracle",
            checked == 500 and elapsed < 10.0,
            f"{checked} matrices up to 7x7 in {elapsed:.1f}s (limit 10s)")


def test_merge_matching_equals_enumeration_oracle():
    """Random merge graphs: selected weight == exhaustive matching optimum."""
    rng = random.Random(202)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(300):
        n = rng.randrange(2, 11)
        edges = []
        while not edges:
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < 0.45:
                        edges.append(MergeEdge(a, b, rng.randrange(0, 100),
                                               ()))
        graph = VehicleGraph(tuple(range(n)), tuple(edges))
        got = select_merges(graph)
        ceiling = 1 + max(e.cost for e in edges)
        expected = best_matching_weight(
            [(e.donor_id, e.recipient_id, ceiling - e.cost) for e in edges])
        assert sum(ceiling - e.cost for e in got) == expected
        checked += 1
    elapsed = time.perf_counter() - t0
    verdict("merge matching vs enumeration oracle",
            checked == 300 and elapsed < 30.0,
            f"{checked} graphs up to 10 vertices in {elapsed:.1f}s "
            f"(limit 30s)")


# --- pricing oracles ---------------------------------------------------------


def test_insertion_pricing_is_exact():
    """Short tours: global optimum; longer tours: best order-preserving
    insertion, with the existing stop order intact."""
    rng = random.Random(303)
    from ridematch.network import grid_network
    net = grid_network(6, 6)
    times = travel_times(net)
    small = long = 0
    for trial in range(200):
        if trial < 120:
            n = rng.randrange(0, 3)
        else:
            n = rng.randrange(3, 5)
        veh, existing = vehicle_with_plan(rng, net, n, t=0, capacity=6,
                                          vid=0, max_tries=5000)
        new = random_request(rng, net, 9, t=0)
        plan = path_cost(net, 0, veh, new)
        windows = windows_of(existing + [new])
        if n <= 2:
            stops = list(veh.tour) + [pickup(new), dropoff(new)]
            cands = all_orderings(stops, veh.onboard)
            small += 1
        else:
            cands = all_pair_insertions(veh.tour, pickup(new), dropoff(new))
            long += 1
        oracle_cost, _ = best_plan(times, 0, veh.location,
                                   max(0, veh.ready_at), cands,
                                   len(veh.onboard), veh.capacity, windows)
        if oracle_cost is None:
            assert not plan.feasible
        else:
            assert plan.feasible and plan.cost == oracle_cost
            if n > 2:
                rest = tuple(s for s in plan.tour if s.request_id != 9)
                assert rest == veh.tour
            arr = plan_arrivals(times, veh.location, max(0, veh.ready_at),
                                plan.tour, len(veh.onboard), veh.capacity,
                                windows)
            assert arr is not None
    verdict("insertion pricing vs brute force",
            small + long == 200,
            f"{small} re-ordering + {long} order-preserving instances")


def test_split_merge_pricing_is_exact():
    """Donor/recipient merges equal the block-interleaving brute force and
    pass independent window/capacity revalidation."""
    rng = random.Random(404)
    from ridematch.network import grid_network
    net = grid_network(6, 6)
    times = travel_times(net)
    checked = feasible = 0
    for _ in range(200):
        donor, d_reqs = donor_vehicle(rng, net, rng.randrange(1, 3), t=0,
                                      vid=1, base_rid=500, max_tries=5000)
        recipient, r_reqs = vehicle_with_plan(rng, net, rng.randrange(1, 4),
                                              t=0, capacity=6, vid=2,
                                              base_rid=100, max_tries=5000)
        plan = split_merge_cost(net, 0, donor, recipient)
        cut = (len(donor.tour) + 1) // 2
        cands = all_block_merges(recipient.tour, donor.tour[:cut],
                                 donor.tour[cut:])
        windows = windows_of(d_reqs + r_reqs)
        oracle_cost, _ = best_plan(times, 0, recipient.location,
                                   max(0, recipient.ready_at), cands,
                                   len(recipient.onboard),
                                   recipient.capacity, windows)
        if oracle_cost is None:
            assert not plan.feasible
        else:
            assert plan.feasible and plan.cost == oracle_cost
            arr = plan_arrivals(times, recipient.location,
                                max(0, recipient.ready_at), plan.tour,
                                len(recipient.onboard), recipient.capacity,
                                windows)
            assert arr is not None
            feasible += 1
        checked += 1
    verdict("split-merge pricing vs brute force",
            checked == 200 and feasible >= 30,
            f"{checked} pairs, {feasible} feasible merges revalidated")


# --- end-to-end invariants ---------------------------------------------------


def test_feasibility_invariants_end_to_end(scenario_batch):
    """No served request misses its windows, no vehicle overfills, and
    request accounting balances, across 50 seeded scenarios."""
    violations = []
    total_requests = 0
    for idx, result in enumerate(scenario_batch):
        cfg = result.config
        trips = result.trip_records
        total_requests += len(trips)
        if len(trips) < 200:
            violations.append(f"scenario {idx}: only {len(trips)} requests")
        served = [r for r in trips if r["status"] == SERVED]
        expired = [r for r in trips if r["status"] == "expired"]
        if len(served) + len(expired) != len(trips):
            violations.append(f"scenario {idx}: conservation broken")
        for rec in served:
            if rec["pickup_t"] > rec["q_r"]:
                violations.append(f"scenario {idx} r{rec['request_id']}: "
                                  f"late pickup")
            if rec["dropoff_t"] > rec["l_r"]:
                violations.append(f"scenario {idx} r{rec['request_id']}: "
                                  f"late dropoff")
            if rec["dropoff_t"] - rec["pickup_t"] < rec["H"]:
                violations.append(f"scenario {idx} r{rec['request_id']}: "
                                  f"negative detour")
            if rec["pickup_t"] - rec["t_r"] > cfg.flexibility_s:
                violations.append(f"scenario {idx} r{rec['request_id']}: "
                                  f"wait above flexibility")
        # prefix occupancy from the log: +1 at pickup, -1 at dropoff,
        # dropoffs first on ties (riders leave before others board)
        by_vehicle: dict[int, list] = {}
        for rec in served:
            by_vehicle.setdefault(rec["vehicle_id"], []).append(rec)
        for vid, recs in by_vehicle.items():
            events = []
            for rec in recs:
                events.append((rec["pickup_t"], 1))
                events.append((rec["dropoff_t"], -1))
            load = peak = 0
            for _, delta in sorted(events):
                load += delta
                peak = max(peak, load)
            if peak > cfg.capacity:
                violations.append(f"scenario {idx} v{vid}: occupancy "
                                  f"{peak} > cap {cfg.capacity}")
    verdict("end-to-end feasibility invariants",
            not violations,
            f"50 scenarios, {total_requests} requests, "
            f"{len(violations)} violations"
            + (f"; first: {violations[0]}" if violations else ""))


def test_two_step_matcher_beats_one_shot_baseline():
    """Paired seeds in the scarce-vehicle regime: the request-combining
    matcher should win on service rate and per-vehicle assignments."""
    from ridematch.metrics import compute_metrics
    seeds = range(20)
    g_sr, b_sr, g_asg, b_asg, wins = [], [], [], [], 0
    for seed in seeds:
        by_matcher = {}
        for matcher in ("gmomatch", "baseline"):
            result = run_scenario(commuter_config(seed=seed,
                                                  matcher=matcher))
            by_matcher[matcher] = compute_metrics(
                result.trip_records, result.state.vehicles,
                result.update_records)
        g, b = by_matcher["gmomatch"], by_matcher["baseline"]
        wins += g.service_rate >= b.service_rate
        g_sr.append(g.service_rate)
        b_sr.append(b.service_rate)
        g_asg.append(g.avg_assignments)
        b_asg.append(b.avg_assignments)
    n = len(list(seeds))
    mean_g, mean_b = sum(g_sr) / n, sum(b_sr) / n
    mean_ga, mean_ba = sum(g_asg) / n, sum(b_asg) / n
    ok = wins >= 0.8 * n and mean_g > mean_b and mean_ga > mean_ba
    verdict("two-step beats one-shot baseline", ok,
            f"SR wins {wins}/{n}, mean SR {mean_g:.1f} vs {mean_b:.1f}, "
            f"assignments {mean_ga:.2f} vs {mean_ba:.2f}")


def test_larger_capacity_serves_no_fewer():
    """Holding fleet and demand fixed, ten seats should beat four."""
    from ridematch.metrics import compute_metrics

    def mean_sr(capacity):
        rates = []
        for seed in range(10):
            result = run_scenario(commuter_config(seed=seed,
                                                  capacity=capacity))
            rep = compute_metrics(result.trip_records,
                                  result.state.vehicles,
                                  result.update_records)
            rates.append(rep.service_rate)
        return sum(rates) / len(rates)

    sr4, sr10 = mean_sr(4), mean_sr(10)
    verdict("capacity effect on service rate", sr10 >= sr4,
            f"mean SR cap10 {sr10:.1f} vs cap4 {sr4:.1f} over 10 seeds")


def test_reruns_are_byte_identical(tmp_path):
    """Identical config and seed must reproduce the trip log exactly."""
    ok = True
    for i, cfg in enumerate(spot_configs()):
        logs = []
        for attempt in ("a", "b"):
            result = run_scenario(cfg)
            path = tmp_path / f"spot{i}_{attempt}.csv"
            write_trip_log(path, result.trip_records)
            logs.append(path.read_bytes())
        ok = (ok and logs[0] == logs[1]
              and hashlib.sha256(logs[0]).hexdigest() == PINNED["spots"][i])
    verdict("determinism spot checks", ok,
            "3 configs re-run byte-identical to the pinned trip logs")


def test_trip_logs_match_pinned_hashes(scenario_batch, tmp_path):
    """Every batch scenario reproduces its recorded trip log exactly."""
    changed = [idx for idx, result in enumerate(scenario_batch)
               if trip_log_sha256(result.trip_records,
                                  tmp_path / f"batch{idx}.csv")
               != PINNED["batch"][idx]]
    irregular = run_scenario(irregular_config(tmp_path))
    if trip_log_sha256(irregular.trip_records, tmp_path / "irregular.csv") \
            != PINNED["irregular"]:
        changed.append("irregular")
    verdict("pinned trip logs", not changed,
            f"{len(scenario_batch)} grid scenarios and 1 file network, "
            f"{len(changed)} changed"
            + (f"; first: {changed[0]}" if changed else ""))


def plan_bookkeeping_faults(state) -> list[str]:
    """Ways the fleet's tours fail to be the whole plan of ``state``."""
    faults = []
    pickups, aboard, in_tours, holder = Counter(), Counter(), set(), {}
    for veh in state.vehicles:
        try:
            validate_tour(veh.tour, veh.onboard)
        except ValueError as exc:
            faults.append(f"v{veh.id}: {exc}")
        for stop in veh.tour:
            req = state.requests_by_id[stop.request_id]
            due = req.q_r if stop.kind == PICKUP else req.l_r
            if stop.deadline != due:
                faults.append(f"v{veh.id}: r{req.id} stop due at "
                              f"{stop.deadline}, not {due}")
        pickups.update(s.request_id for s in veh.tour if s.kind == PICKUP)
        aboard.update(veh.onboard)
        in_tours.update(s.request_id for s in veh.tour)
        holder.update(dict.fromkeys(veh.onboard, veh.id))
    for req in state.requests:
        if req.status == ASSIGNED:
            ok = (pickups[req.id] == 1 and not aboard[req.id]
                  and req.vehicle_id is None)
        elif req.status == ONBOARD:
            ok = (aboard[req.id] == 1 and not pickups[req.id]
                  and req.vehicle_id == holder[req.id])
        else:
            ok = req.id not in in_tours and not aboard[req.id]
        if not ok:
            faults.append(f"r{req.id} ({req.status})")
    return [f"t={state.clock} {f}" for f in faults]


def test_tours_are_the_whole_plan(monkeypatch, tmp_path):
    """Before every advance, on the spot configs, the file network and ten
    batch seeds: every tour is well formed, every stop carries its
    request's deadline, every assigned rider has its pickup in exactly one
    tour, every rider aboard is in exactly one vehicle, which is its
    ``vehicle_id``, and no other rider is in a tour.  The checked runs keep
    their pinned trip logs."""
    advance = sim.advance
    faults: list[str] = []
    checks = 0

    def checked_advance(state, until):
        nonlocal checks
        checks += 1
        faults.extend(plan_bookkeeping_faults(state))
        advance(state, until)

    monkeypatch.setattr(sim, "advance", checked_advance)
    runs = ([(cfg, PINNED["spots"][i])
             for i, cfg in enumerate(spot_configs())]
            + [(irregular_config(tmp_path), PINNED["irregular"])]
            + [(batch_config(seed), PINNED["batch"][seed])
               for seed in range(10)])
    changed = 0
    for i, (cfg, pinned) in enumerate(runs):
        result = run_scenario(cfg)
        changed += trip_log_sha256(result.trip_records,
                                   tmp_path / f"checked{i}.csv") != pinned
    verdict("tours are the whole plan", not faults and not changed,
            f"{len(runs)} scenarios, {checks} advances checked, "
            f"{len(faults)} faults, {changed} trip logs changed"
            + (f"; first: {faults[0]}" if faults else ""))


def test_merge_loop_round_bound(scenario_batch):
    """Each merge loop must finish within its assigned-vehicle budget."""
    calls = 0
    worst = 0.0
    ok = True
    for result in scenario_batch:
        for update in result.update_records:
            for rounds, assigned in update["step2_calls"]:
                calls += 1
                if rounds > assigned:
                    ok = False
                if assigned:
                    worst = max(worst, rounds / assigned)
    verdict("merge-loop termination bound", ok and calls > 0,
            f"{calls} loop invocations, worst rounds/assigned {worst:.2f}")
