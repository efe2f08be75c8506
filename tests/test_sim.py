import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ridematch import engine
from ridematch.metrics import compute_metrics
from ridematch.model import SERVED
from ridematch.network import Link, RoadNetwork
from ridematch.sim import (MAX_FLEET_SIZE, MAX_LOADING_PERIOD_S,
                           MAX_NODES, MAX_REQUESTS, MAX_UPDATES, ConfigError,
                           ScenarioConfig, SimulationState, advance,
                           build_network, check_demand_bounds,
                           check_demand_reachability,
                           commuter_config, example_config, generate_demand,
                           initialize_fleet, load_requests, run_scenario,
                           write_trip_log, TRIP_LOG_COLUMNS)

from conftest import dropoff, make_request, make_vehicle, pickup


def minimal_doc(**overrides):
    doc = {
        "network": {"kind": "grid", "rows": 3, "cols": 3},
        "demand": {"kind": "uniform", "requests_per_hour": 120},
        "loading_period_s": 300,
        "fleet_size": 3,
        "capacity": 4,
        "flexibility_s": 240,
        "update_interval_s": 30,
    }
    doc.update(overrides)
    return doc


def grid_of(rows, cols):
    return {"network": {"kind": "grid", "rows": rows, "cols": cols}}


class TestConfig:
    def test_defaults_and_roundtrip(self):
        cfg = ScenarioConfig.from_dict(minimal_doc())
        assert cfg.matcher == "gmomatch" and cfg.seed == 0
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
        # defaults stay out of the stored objects, so manifests and their
        # digests show the config as given
        network = {"kind": "grid", "rows": 3, "cols": 3}
        demand = {"kind": "uniform", "requests_per_hour": 120}
        doc = ScenarioConfig.from_dict(
            minimal_doc(network=dict(network), demand=dict(demand))).to_dict()
        assert doc["network"] == network and doc["demand"] == demand

    @pytest.mark.parametrize("overrides,message", [
        ({"update_interval_s": 0}, "update_interval_s"),
        ({"capacity": 0}, "capacity"),
        ({"flexibility_s": -1}, "flexibility_s"),
        ({"fleet_size": 0}, "fleet_size"),
        ({"matcher": "magic"}, "matcher"),
        ({"bogus": 1}, "unknown config"),
        ({"network": {"kind": "mesh"}}, "network.kind"),
        ({"network": {"kind": "grid", "rows": 3}}, "rows"),
        ({"demand": {"kind": "csv"}}, "demand.kind"),
        ({"demand": {"kind": "poisson", "od_rates": []}}, "od_rates"),
        ({"demand": {"kind": "uniform", "requests_per_hour": -5}},
         "requests_per_hour"),
        ({"demand": {"kind": "uniform", "requests_per_hour": 10,
                     "scale": -1}}, "scale"),
        ({"fleet_size": 2.5}, "integer"),
        ({"network": {"kind": "grid", "rows": 3, "cols": 3,
                      "link_length_m": 0}}, "network.link_length_m"),
    ])
    def test_rejections(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig.from_dict(minimal_doc(**overrides))

    @pytest.mark.parametrize("at_cap,beyond", [
        ({"fleet_size": MAX_FLEET_SIZE}, {"fleet_size": MAX_FLEET_SIZE + 1}),
        (grid_of(MAX_NODES, 1), grid_of(MAX_NODES + 1, 1)),
        (grid_of(1, MAX_NODES), grid_of(1, MAX_NODES + 1)),
        (grid_of(500, 500), grid_of(501, 500)),
    ], ids=["fleet", "rows", "cols", "square"])
    def test_fleet_and_grid_caps_are_inclusive(self, at_cap, beyond):
        # validation builds neither, so a config at the cap costs nothing
        ScenarioConfig.from_dict(minimal_doc(**at_cap))
        with pytest.raises(ConfigError, match="at most|more than"):
            ScenarioConfig.from_dict(minimal_doc(**beyond))

    def test_missing_field(self):
        doc = minimal_doc()
        del doc["capacity"]
        with pytest.raises(ConfigError, match="missing"):
            ScenarioConfig.from_dict(doc)

    def test_self_loop_demand_rejected(self):
        doc = minimal_doc(demand={"kind": "poisson", "od_rates": [
            {"origin": 1, "destination": 1, "rate_per_hour": 10}]})
        with pytest.raises(ConfigError, match="differ"):
            ScenarioConfig.from_dict(doc)

    def test_unreachable_od_rejected(self, tmp_path):
        net_doc = {"nodes": [{"id": 0}, {"id": 1}],
                   "links": [{"from": 0, "to": 1, "length_m": 100.0,
                              "travel_time_s": 10}]}
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net_doc))
        doc = minimal_doc(
            network={"kind": "file", "path": str(net_path)},
            demand={"kind": "poisson", "od_rates": [
                {"origin": 1, "destination": 0, "rate_per_hour": 10}]})
        cfg = ScenarioConfig.from_dict(doc)
        with pytest.raises(ConfigError, match="unreachable"):
            check_demand_reachability(cfg, build_network(cfg))

    def test_unknown_od_node_rejected_before_any_row(self):
        cfg = ScenarioConfig.from_dict(minimal_doc(
            demand={"kind": "poisson", "od_rates": [
                {"origin": 0, "destination": 8, "rate_per_hour": 10},
                {"origin": 0, "destination": 99, "rate_per_hour": 10}]}))
        net = build_network(cfg)
        with pytest.raises(ConfigError, match="unknown node: 0->99"):
            check_demand_reachability(cfg, net)
        assert not net._rows

    def test_uniform_demand_needs_two_nodes(self):
        # a one-node network has no pair with origin != destination to draw
        cfg = example_config(network={"kind": "grid", "rows": 1, "cols": 1})
        with pytest.raises(ConfigError, match="at least 2 network nodes"):
            check_demand_reachability(cfg, build_network(cfg))

    @pytest.mark.parametrize("links,cut", [
        ([(0, 1), (1, 0), (1, 2)], "from 2 to 0"),  # node 2 is a dead end
        ([(0, 1), (1, 0), (2, 1)], "from 0 to 2"),  # nothing enters node 2
    ])
    def test_uniform_demand_needs_strong_connectivity(self, tmp_path, links,
                                                      cut):
        net_doc = {"nodes": [{"id": n} for n in range(3)],
                   "links": [{"from": a, "to": b, "length_m": 100.0,
                              "travel_time_s": 10} for a, b in links]}
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net_doc))
        cfg = ScenarioConfig.from_dict(minimal_doc(
            network={"kind": "file", "path": str(net_path)}))
        with pytest.raises(ConfigError, match=f"no route {cut}"):
            check_demand_reachability(cfg, build_network(cfg))


class TestDemand:
    def test_zero_rate_zero_requests(self, grid3):
        cfg = ScenarioConfig.from_dict(minimal_doc(
            demand={"kind": "uniform", "requests_per_hour": 0}))
        rng = np.random.default_rng(1)
        assert generate_demand(cfg, grid3, rng) == []

    def test_fixed_seed_reproducible(self, grid3):
        cfg = ScenarioConfig.from_dict(minimal_doc())
        a = generate_demand(cfg, grid3, np.random.default_rng(9))
        b = generate_demand(cfg, grid3, np.random.default_rng(9))
        assert a == b

    def test_window_derivation(self, grid3):
        cfg = ScenarioConfig.from_dict(minimal_doc())
        reqs = generate_demand(cfg, grid3, np.random.default_rng(4))
        assert reqs, "expected some demand"
        for i, r in enumerate(reqs):
            assert r.id == i
            assert 0 <= r.t_r < cfg.loading_period_s
            assert r.q_r == r.t_r + cfg.flexibility_s
            assert r.l_r == r.q_r + r.direct_time_s
            assert r.origin != r.destination
        assert [r.t_r for r in reqs] == sorted(r.t_r for r in reqs)

    def test_poisson_mean_count(self, grid3):
        # one OD pair at 60/h over 900 s: lambda = 15
        doc = minimal_doc(loading_period_s=900,
                          demand={"kind": "poisson", "od_rates": [
                              {"origin": 0, "destination": 8,
                               "rate_per_hour": 60}]})
        cfg = ScenarioConfig.from_dict(doc)
        lam = 15.0
        n_seeds = 1000
        counts = [len(generate_demand(cfg, grid3,
                                      np.random.default_rng(s)))
                  for s in range(n_seeds)]
        mean = sum(counts) / n_seeds
        stderr = math.sqrt(lam / n_seeds)
        assert abs(mean - lam) <= 3 * stderr

    def test_scale_multiplies_rate(self, grid3):
        doc = minimal_doc(loading_period_s=900,
                          demand={"kind": "poisson", "scale": 4.0,
                                  "od_rates": [{"origin": 0,
                                                "destination": 8,
                                                "rate_per_hour": 60}]})
        cfg = ScenarioConfig.from_dict(doc)
        counts = [len(generate_demand(cfg, grid3,
                                      np.random.default_rng(s)))
                  for s in range(300)]
        mean = sum(counts) / len(counts)
        assert abs(mean - 60.0) <= 3 * math.sqrt(60.0 / 300)

    def test_request_cap_bounds_the_mean(self, grid3):
        def config(rate):
            return ScenarioConfig.from_dict(minimal_doc(
                loading_period_s=3600,
                demand={"kind": "uniform", "requests_per_hour": rate}))

        check_demand_bounds(config(MAX_REQUESTS), grid3)  # mean == cap
        with pytest.raises(ConfigError, match="requests, more than"):
            check_demand_bounds(config(MAX_REQUESTS + 1), grid3)
        with pytest.raises(ConfigError, match="requests, more than"):
            generate_demand(config(MAX_REQUESTS + 1), grid3,
                            np.random.default_rng(0))

    def test_random_demand_period_needs_updates(self, grid3):
        # a request may arrive as the loading period ends and ride until
        # flexibility_s plus its direct time later, which uniform demand
        # bounds by 8 links of 40 s on grid3; with no demand at all
        # nothing arrives
        def config(period, rate=1.0):
            return ScenarioConfig.from_dict(minimal_doc(
                loading_period_s=period, flexibility_s=240,
                update_interval_s=30,
                demand={"kind": "uniform", "requests_per_hour": rate}))

        fits = 30 * (MAX_UPDATES - 2) - 240 - 8 * 40 + 29
        check_demand_bounds(config(fits), grid3)
        with pytest.raises(ConfigError, match="updates of 30 s"):
            check_demand_bounds(config(fits + 1), grid3)
        check_demand_bounds(config(10**12, rate=0), grid3)

    def test_random_demand_period_is_drawable(self, grid3):
        # numpy draws an arrival instant below 2**63 and no higher bound;
        # with no demand at all nothing is drawn
        def config(period, rate=1e-14):
            return ScenarioConfig.from_dict(minimal_doc(
                loading_period_s=period, update_interval_s=10**16,
                demand={"kind": "uniform", "requests_per_hour": rate}))

        assert MAX_LOADING_PERIOD_S == 2**63
        demand = generate_demand(config(2**63), grid3,
                                 np.random.default_rng(3))
        assert demand and all(0 <= r.t_r < 2**63 for r in demand)
        with pytest.raises(ConfigError, match="loading_period_s must be"):
            check_demand_bounds(config(2**63 + 1), grid3)
        check_demand_bounds(config(10**20, rate=0), grid3)

    def test_poisson_period_counts_its_longest_route(self, skew3):
        # skew3: 0 -> 8 takes 160 s, 8 -> 0 320 s; a pair with no rate
        # is never drawn, so only the 160 s route counts
        def config(period):
            return ScenarioConfig.from_dict(minimal_doc(
                loading_period_s=period, flexibility_s=240,
                update_interval_s=30,
                demand={"kind": "poisson", "od_rates": [
                    {"origin": 0, "destination": 8, "rate_per_hour": 1e-6},
                    {"origin": 8, "destination": 0, "rate_per_hour": 0}]}))

        assert skew3.shortest_travel_time(0, 8) == 160
        fits = 30 * (MAX_UPDATES - 2) - 240 - 160 + 29
        check_demand_bounds(config(fits), skew3)
        with pytest.raises(ConfigError, match="updates of 30 s"):
            check_demand_bounds(config(fits + 1), skew3)

    def test_request_file(self, grid3, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps({"requests": [
            {"t_r": 120, "origin": 0, "destination": 8},
            {"t_r": 30, "origin": 2, "destination": 6,
             "flexibility_s": 99},
        ]}))
        cfg = ScenarioConfig.from_dict(minimal_doc(
            demand={"kind": "file", "path": str(path)}))
        reqs = generate_demand(cfg, grid3, np.random.default_rng(0))
        assert [(r.id, r.t_r) for r in reqs] == [(0, 30), (1, 120)]
        assert reqs[0].f_r == 99
        assert reqs[1].f_r == cfg.flexibility_s

    def test_request_file_rejects_bad_rows(self, grid3, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps({"requests": [{"t_r": 1, "origin": 0}]}))
        cfg = ScenarioConfig.from_dict(minimal_doc(
            demand={"kind": "file", "path": str(path)}))
        with pytest.raises(ConfigError, match="missing"):
            load_requests(path, cfg, grid3)


class TestFleet:
    def test_all_demand_one_node(self, grid3):
        cfg = ScenarioConfig.from_dict(minimal_doc(fleet_size=7))
        demand = [make_request(i, 0, 4, 8, 60, grid3) for i in range(5)]
        fleet = initialize_fleet(cfg, demand, grid3,
                                 np.random.default_rng(2))
        assert len(fleet) == 7
        assert all(v.location == 4 for v in fleet)
        assert all(not v.tour and v.available_capacity == 4 for v in fleet)

    def test_two_node_split_binomial(self, grid3):
        cfg = ScenarioConfig.from_dict(minimal_doc(fleet_size=4000))
        demand = [make_request(i, 0, 0 if i % 2 else 8, 4, 60, grid3)
                  for i in range(200)]
        fleet = initialize_fleet(cfg, demand, grid3,
                                 np.random.default_rng(3))
        at0 = sum(1 for v in fleet if v.location == 0)
        # binomial(4000, 0.5): 3 standard errors
        assert abs(at0 - 2000) <= 3 * math.sqrt(4000 * 0.25)

    def test_zero_demand_uniform_fallback(self, grid3):
        cfg = ScenarioConfig.from_dict(minimal_doc(fleet_size=900))
        fleet = initialize_fleet(cfg, [], grid3, np.random.default_rng(5))
        seen = {v.location for v in fleet}
        assert seen == set(grid3.nodes)

    def test_fixed_seed_identical(self, grid3):
        cfg = ScenarioConfig.from_dict(minimal_doc())
        demand = [make_request(i, 0, 0, 8, 60, grid3) for i in range(3)]
        a = initialize_fleet(cfg, demand, grid3, np.random.default_rng(7))
        b = initialize_fleet(cfg, demand, grid3, np.random.default_rng(7))
        assert [v.location for v in a] == [v.location for v in b]


class TestAdvance:
    def state(self, net, vehicles, requests):
        return SimulationState(net=net, vehicles=vehicles, requests=requests,
                               requests_by_id={r.id: r for r in requests})

    def test_hand_replay_single_trip(self, line_net):
        req = make_request(1, 0, 1, 2, 300, line_net)
        req.status = "assigned"
        veh = make_vehicle(0, 0, tour=(pickup(req), dropoff(req)))
        state = self.state(line_net, [veh], [req])
        advance(state, 120)
        assert req.status == SERVED
        assert req.pickup_t == 60
        assert req.vehicle_id == 0  # recorded at the pickup
        assert req.dropoff_t == 120
        assert veh.odometer_m == 1000.0
        assert veh.drive_time_s == 120
        assert not veh.tour and veh.location == 2

    def test_advance_zero_is_identity(self, line_net):
        veh = make_vehicle(0, 0)
        state = self.state(line_net, [veh], [])
        advance(state, 0)
        assert veh.location == 0 and veh.odometer_m == 0.0
        assert state.clock == 0

    def test_idle_fleet_only_clock_moves(self, line_net):
        veh = make_vehicle(0, 3)
        state = self.state(line_net, [veh], [])
        advance(state, 500)
        assert state.clock == 500
        assert veh.location == 3 and veh.ready_at == 0

    def test_midlink_position_is_next_node(self, line_net):
        req = make_request(1, 0, 3, 4, 300, line_net)
        req.status = "assigned"
        veh = make_vehicle(0, 0, tour=(pickup(req), dropoff(req)))
        state = self.state(line_net, [veh], [req])
        advance(state, 90)  # 90 s into a 60 s/link trip toward node 3
        assert veh.location == 2     # already committed to the 1->2 hop
        assert veh.ready_at == 120   # arrival at node 2
        assert veh.tour              # still en route

    def test_hops_follow_shortest_path(self, grid6):
        # a uniform grid has many equal-cost routes between two corners
        for start, goal in [(0, 35), (35, 0), (5, 30), (14, 21), (7, 7)]:
            req = make_request(1, 0, start, goal, 3600, grid6)
            req.status = "onboard"
            veh = make_vehicle(0, start, tour=(dropoff(req),),
                               onboard={1})
            state = self.state(grid6, [veh], [req])
            visited = [start]
            while veh.tour:  # each call makes one hop or the dropoff
                advance(state, veh.ready_at)
                if veh.location != visited[-1]:
                    visited.append(veh.location)
            assert tuple(visited) == grid6.shortest_path(start, goal)

    def test_unreachable_stop_raises(self):
        net = RoadNetwork([0, 1, 2], [Link(0, 1, 100.0, 10),
                                      Link(1, 2, 100.0, 10)])
        req = make_request(1, 0, 1, 2, 300, net)
        req.status = "assigned"
        veh = make_vehicle(0, 2, tour=(pickup(req), dropoff(req)))
        state = self.state(net, [veh], [req])
        with pytest.raises(RuntimeError, match="unreachable stop"):
            advance(state, 60)

    def test_backwards_rejected(self, line_net):
        state = self.state(line_net, [], [])
        state.clock = 100
        with pytest.raises(ValueError):
            advance(state, 99)

    def test_late_committed_stop_raises(self, line_net):
        req = make_request(1, 0, 4, 0, 30, line_net)  # pickup due by 30
        req.status = "assigned"
        # 240 s from the pickup node
        veh = make_vehicle(0, 0, tour=(pickup(req), dropoff(req)))
        state = self.state(line_net, [veh], [req])
        with pytest.raises(RuntimeError, match="after its deadline"):
            advance(state, 600)


class TestRunScenario:
    def test_runs_load_only_what_they_use(self):
        # a fresh interpreter, so pytest's own imports do not count
        script = (
            "import json, sys\n"
            "import ridematch\n"
            "from ridematch.sim import example_config, run_scenario\n"
            "def loaded():\n"
            "    return [m in sys.modules\n"
            "            for m in ('networkx', 'scipy.optimize')]\n"
            "small = dict(loading_period_s=300, fleet_size=5)\n"
            "seen = [loaded()]\n"
            "run_scenario(example_config(matcher='baseline', **small))\n"
            "seen.append(loaded())\n"
            "run_scenario(example_config(**small))\n"
            "seen.append(loaded())\n"
            "print(json.dumps(seen))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=True,
                              timeout=120)
        # after the import and a baseline run neither is loaded; a
        # gmomatch run loads networkx for its merge stage
        assert json.loads(proc.stdout) == [[False, False], [False, False],
                                           [True, False]]

    def test_optimized_interpreter_same_trip_log(self, tmp_path):
        # invariants are real exceptions, so python -O runs the same code
        script = (
            "import hashlib, sys\n"
            "from ridematch.sim import commuter_config, run_scenario, "
            "write_trip_log\n"
            "write_trip_log(sys.argv[1], "
            "run_scenario(commuter_config(seed=3)).trip_records)\n")
        optimized = tmp_path / "optimized.csv"
        subprocess.run([sys.executable, "-O", "-c", script, str(optimized)],
                       check=True, timeout=120)
        normal = tmp_path / "normal.csv"
        write_trip_log(normal,
                       run_scenario(commuter_config(seed=3)).trip_records)
        assert hashlib.sha256(optimized.read_bytes()).hexdigest() \
            == hashlib.sha256(normal.read_bytes()).hexdigest()

    def test_zero_demand_sentinel(self):
        cfg = ScenarioConfig.from_dict(minimal_doc(
            demand={"kind": "uniform", "requests_per_hour": 0}))
        result = run_scenario(cfg)
        assert result.trip_records == []
        report = compute_metrics(result.trip_records, result.state.vehicles,
                                 result.update_records)
        assert math.isnan(report.service_rate)
        assert report.avg_vkt_km == 0.0

    def test_single_request_hand_values(self, tmp_path):
        # one request 0 -> 2 announced at t=50 on a 3x3 grid; the only
        # vehicle starts at the origin (placement follows demand)
        req_path = tmp_path / "reqs.json"
        req_path.write_text(json.dumps({"requests": [
            {"t_r": 50, "origin": 0, "destination": 2}]}))
        cfg = ScenarioConfig.from_dict(minimal_doc(
            fleet_size=1, demand={"kind": "file", "path": str(req_path)}))
        result = run_scenario(cfg)
        rec = result.trip_records[0]
        assert rec["status"] == SERVED
        # first update at t=60 assigns; zero approach, 80 s direct ride
        assert rec["assign_t"] == 60
        assert rec["pickup_t"] == 60
        assert rec["dropoff_t"] == 140
        assert rec["H"] == 80
        assert rec["vehicle_id"] == 0
        assert result.state.vehicles[0].odometer_m == 800.0

    def test_conservation_and_promises(self):
        result = run_scenario(commuter_config(seed=11))
        served = [r for r in result.trip_records if r["status"] == SERVED]
        expired = [r for r in result.trip_records
                   if r["status"] == "expired"]
        assert len(served) + len(expired) == len(result.trip_records)
        for rec in served:
            assert rec["pickup_t"] <= rec["q_r"]
            assert rec["dropoff_t"] <= rec["l_r"]
            assert rec["dropoff_t"] - rec["pickup_t"] >= rec["H"]

    def test_trip_log_byte_identical(self, tmp_path):
        cfg = example_config(seed=5)
        for name in ("a.csv", "b.csv"):
            result = run_scenario(cfg)
            write_trip_log(tmp_path / name, result.trip_records)
        assert (tmp_path / "a.csv").read_bytes() \
            == (tmp_path / "b.csv").read_bytes()

    def test_trip_log_format(self, tmp_path):
        cfg = ScenarioConfig.from_dict(minimal_doc(
            demand={"kind": "uniform", "requests_per_hour": 240},
            flexibility_s=30))
        result = run_scenario(cfg)
        path = tmp_path / "log.csv"
        write_trip_log(path, result.trip_records)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TRIP_LOG_COLUMNS)
        assert len(lines) == len(result.trip_records) + 1
        unserved = [r for r in result.trip_records if r["status"] != SERVED]
        if unserved:  # empty cells, not "None"
            row = lines[1 + result.trip_records.index(unserved[0])]
            assert "None" not in row

    @pytest.mark.parametrize("matcher", ["gmomatch", "baseline"])
    @pytest.mark.parametrize("kind", ["file", "poisson"])
    def test_rows_built_are_destinations_and_priced_origins(
            self, tmp_path, kind, matcher):
        # origins 0-5 and destinations 30-35 of a 6 x 6 grid never meet;
        # a flexibility below the update interval lets a request expire
        # before any update prices it, and its origin then gets no row.
        # Destinations get whole rows, priced origins bounded ones
        pairs = [(o, 35 - o) for o in range(6)]
        if kind == "file":
            path = tmp_path / "requests.json"
            path.write_text(json.dumps({"requests": [
                {"t_r": t, "origin": o, "destination": d}
                for t, (o, d) in zip((0, 15, 5, 40, 75, 100), pairs)]}))
            demand = {"kind": "file", "path": str(path)}
        else:
            demand = {"kind": "poisson", "od_rates": [
                {"origin": o, "destination": d, "rate_per_hour": 12}
                for o, d in pairs]}
        cfg = ScenarioConfig.from_dict(minimal_doc(
            **grid_of(6, 6), demand=demand, loading_period_s=900,
            flexibility_s=20, matcher=matcher, seed=4))
        result = run_scenario(cfg)
        delta = cfg.update_interval_s
        # the first update at or after t_r prices a request unless it is
        # past q_r by then
        priced = {r.origin for r in result.state.requests
                  if -(-r.t_r // delta) * delta <= r.q_r}
        destinations = {r.destination for r in result.state.requests}
        assert destinations == {d for _, d in pairs}
        net = result.state.net
        reach = {t: r for t, (r, _) in net._rows.items()}
        assert {t for t, r in reach.items() if r == math.inf} == destinations
        assert {t for t, r in reach.items() if r < math.inf} \
            == priced - destinations
        assert set(range(6)) - priced  # some origin expired unpriced

    @pytest.mark.parametrize("matcher", ["gmomatch", "baseline"])
    def test_bounded_origin_rows_change_nothing(self, tmp_path, monkeypatch,
                                                matcher):
        # a 6 x 6 grid whose link times differ by direction, and requests
        # with their own flexibilities, a few ODs repeating: every round's
        # graph and the trip log equal a run whose origin rows are whole
        rng = np.random.default_rng(23)
        links = [{"from": a, "to": b, "length_m": 400.0,
                  "travel_time_s": int(rng.integers(20, 90))}
                 for a in range(36) for b in range(36)
                 if abs(a - b) == 6 or (abs(a - b) == 1 and a // 6 == b // 6)]
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps({
            "nodes": [{"id": n} for n in range(36)], "links": links}))
        ods = [tuple(rng.choice(36, 2, replace=False).tolist())
               for _ in range(12)]
        records = []
        for t_r in sorted(rng.integers(0, 1200, 60).tolist()):
            o, d = ods[rng.integers(len(ods))]
            rec = {"t_r": t_r, "origin": o, "destination": d}
            flex = rng.choice([-1, 0, 45, 90, 180, 300, 600])
            if flex >= 0:  # else the config's 240 s
                rec["flexibility_s"] = int(flex)
            records.append(rec)
        req_path = tmp_path / "requests.json"
        req_path.write_text(json.dumps({"requests": records}))
        cfg = ScenarioConfig.from_dict(minimal_doc(
            network={"kind": "file", "path": str(net_path)},
            demand={"kind": "file", "path": str(req_path)},
            loading_period_s=1200, fleet_size=6, capacity=3,
            matcher=matcher, seed=5))

        def run(whole):
            graphs = []
            real = engine.build_bipartite
            fill_within = RoadNetwork.fill_within

            def spy(*args, **kwargs):
                graphs.append(real(*args, **kwargs))
                return graphs[-1]

            with monkeypatch.context() as m:
                m.setattr(engine, "build_bipartite", spy)
                if whole:
                    m.setattr(RoadNetwork, "fill_within",
                              lambda net, radii: fill_within(
                                  net, dict.fromkeys(radii, math.inf)))
                result = run_scenario(cfg)
            path = tmp_path / f"trips-{whole}.csv"
            write_trip_log(path, result.trip_records)
            return result, graphs, path.read_bytes()

        bounded, graphs, log = run(whole=False)
        whole, whole_graphs, whole_log = run(whole=True)
        def reaches(result):
            return {r for r, _ in result.state.net._rows.values()}

        assert reaches(bounded) - {math.inf} and reaches(whole) == {math.inf}
        assert any(g.edges for g in graphs)
        assert sum(r["status"] == SERVED for r in bounded.trip_records) > 10
        assert graphs == whole_graphs
        assert log == whole_log

    def test_vehicles_quiesce(self):
        result = run_scenario(example_config(seed=2))
        assert all(not v.tour and not v.onboard
                   for v in result.state.vehicles)
        assert all(not r.status == "pending"
                   for r in result.state.requests)
