import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ridematch import cli, engine, sim
from ridematch.cli import main

ROOT = Path(__file__).resolve().parent.parent


def config_doc(**overrides):
    doc = {
        "network": {"kind": "grid", "rows": 3, "cols": 3},
        "demand": {"kind": "uniform", "requests_per_hour": 120},
        "loading_period_s": 300,
        "fleet_size": 3,
        "capacity": 4,
        "flexibility_s": 240,
        "update_interval_s": 30,
        "seed": 1,
    }
    doc.update(overrides)
    return doc


def write_config(path, **overrides):
    doc = config_doc(**overrides)
    path.write_text(json.dumps(doc))
    return doc


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRun:
    def test_minimal_run_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(out)]) == 0
        assert (out / "trip_log.csv").exists()
        assert (out / "metrics.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifact"] == "ridematch"
        assert manifest["seed"] == 1
        assert len(manifest["config_sha256"]) == 64
        rows = read_csv(out / "metrics.csv")
        assert rows[0][0] == "schema_version"
        assert len(rows) == 2
        assert "service rate" in capsys.readouterr().out

    def test_same_invocation_identical_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        logs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            assert main(["run", "--config", str(cfg),
                         "--out-dir", str(out)]) == 0
            logs.append((out / "trip_log.csv").read_bytes())
        assert logs[0] == logs[1]

    def test_rerun_from_manifest(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, seed=7)
        out1 = tmp_path / "first"
        out2 = tmp_path / "second"
        assert main(["run", "--config", str(cfg),
                     "--out-dir", str(out1)]) == 0
        assert main(["run", "--config", str(out1 / "manifest.json"),
                     "--out-dir", str(out2)]) == 0
        assert (out1 / "trip_log.csv").read_bytes() \
            == (out2 / "trip_log.csv").read_bytes()

    def test_seed_and_matcher_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out),
                     "--seed", "42", "--matcher", "baseline"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 42
        assert manifest["config"]["matcher"] == "baseline"

    def test_matcher_choices_come_from_the_engine(self, monkeypatch):
        # one list of matchers: a new engine entry is a valid --matcher
        monkeypatch.setitem(engine.MATCHERS, "probe", engine.baseline_update)
        args = cli.build_parser().parse_args(
            ["run", "--config", "cfg.json", "--matcher", "probe"])
        assert args.matcher == "probe"

    def test_missing_network_file_names_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, network={"kind": "file",
                                   "path": str(tmp_path / "nowhere.json")})
        assert main(["run", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "nowhere.json" in err

    def test_bad_config_diagnostic(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        assert main(["run", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert "missing config fields" in capsys.readouterr().err


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_rejects_unreachable_demand(self, tmp_path, capsys):
        net = {"nodes": [{"id": 0}, {"id": 1}],
               "links": [{"from": 0, "to": 1, "length_m": 10.0,
                          "travel_time_s": 10}]}
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, network={"kind": "file", "path": str(net_path)},
                     demand={"kind": "poisson", "od_rates": [
                         {"origin": 1, "destination": 0,
                          "rate_per_hour": 5}]})
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "unreachable" in capsys.readouterr().err

    def test_uniform_demand_on_one_way_ring(self, tmp_path, capsys):
        # 0 -> 1 -> 2 -> 0: every link one-way, yet every pair has a route
        net = {"nodes": [{"id": n} for n in range(3)],
               "links": [{"from": n, "to": (n + 1) % 3, "length_m": 400.0,
                          "travel_time_s": 40} for n in range(3)]}
        net_path = tmp_path / "ring.json"
        net_path.write_text(json.dumps(net))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, network={"kind": "file", "path": str(net_path)},
                     demand={"kind": "uniform", "requests_per_hour": 60})
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "ok" in capsys.readouterr().out
        assert main(["run", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "out")]) == 0


class TestCompare:
    def test_paired_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        rows = read_csv(out / "comparison.csv")
        assert rows[0] == ["metric", "gmomatch", "baseline", "delta"]
        names = [r[0] for r in rows[1:]]
        assert "service_rate" in names
        assert (out / "trip_log_gmomatch.csv").exists()
        assert (out / "trip_log_baseline.csv").exists()
        assert "delta" in capsys.readouterr().out

    def test_single_request_all_deltas_zero(self, tmp_path):
        reqs = tmp_path / "reqs.json"
        reqs.write_text(json.dumps({"requests": [
            {"t_r": 10, "origin": 0, "destination": 8}]}))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, fleet_size=1,
                     demand={"kind": "file", "path": str(reqs)})
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        for row in read_csv(out / "comparison.csv")[1:]:
            metric, g, b, delta = row
            if metric.startswith("avg_cost") or metric.startswith(
                    "avg_solution") or metric.startswith("avg_compute"):
                continue  # wall-clock timings differ run to run
            assert delta in ("", "0", "0.0"), (metric, delta)

    def test_burst_scenario_positive_sr_delta(self, tmp_path):
        # five co-located same-direction requests, one vehicle, windows too
        # tight to retry: the one-per-update matcher must lose some
        reqs = tmp_path / "reqs.json"
        reqs.write_text(json.dumps({"requests": [
            {"t_r": 0, "origin": 0, "destination": 2, "flexibility_s": 45}
            for _ in range(5)]}))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, fleet_size=1, capacity=6,
                     demand={"kind": "file", "path": str(reqs)})
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        rows = {r[0]: r for r in read_csv(out / "comparison.csv")[1:]}
        delta = float(rows["service_rate"][3])
        assert delta > 0


class TestSweep:
    def write_spec(self, tmp_path, **kw):
        spec = {
            "base": write_config(tmp_path / "unused.json"),
            "axes": kw.pop("axes", {}),
            "seeds": kw.pop("seeds", [1]),
        }
        spec.update(kw)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        return path

    def test_cross_product_rows(self, tmp_path):
        path = self.write_spec(
            tmp_path, axes={"fleet_size": [2, 3],
                            "matcher": ["gmomatch", "baseline"]},
            seeds=[1, 2, 3])
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path),
                     "--out-dir", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 1 + 12
        header = rows[0]
        for col in ("fleet_size", "matcher", "seed", "status",
                    "service_rate"):
            assert col in header
        assert all(r[header.index("status")] == "ok" for r in rows[1:])

    def test_empty_axes_single_row(self, tmp_path):
        path = self.write_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path),
                     "--out-dir", str(out)]) == 0
        assert len(read_csv(out / "sweep.csv")) == 2

    def test_failed_scenario_becomes_row(self, tmp_path):
        base = write_config(tmp_path / "unused.json",
                            demand={"kind": "file",
                                    "path": str(tmp_path / "absent.json")})
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"base": base, "axes": {},
                                    "seeds": [1, 2]}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(spec),
                     "--out-dir", str(out)]) == 1
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 3
        header = rows[0]
        assert all(r[header.index("status")] == "failed" for r in rows[1:])
        assert all("absent.json" in r[header.index("error")]
                   for r in rows[1:])

    def test_max_runs_cap(self, tmp_path):
        path = self.write_spec(tmp_path, axes={"capacity": [1, 2, 3, 4]},
                               seeds=[1, 2], max_runs=5)
        assert main(["sweep", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")]) == 2

    def test_parallel_jobs_match_serial(self, tmp_path):
        path = self.write_spec(tmp_path, axes={"fleet_size": [2, 3]},
                               seeds=[1, 2])
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        assert main(["sweep", "--config", str(path), "--out-dir",
                     str(out1)]) == 0
        assert main(["sweep", "--config", str(path), "--out-dir",
                     str(out2), "--jobs", "2"]) == 0
        serial = read_csv(out1 / "sweep.csv")
        parallel = read_csv(out2 / "sweep.csv")
        timing = {"avg_cost_calculation_s", "avg_solution_s",
                  "avg_compute_s"}
        keep = [i for i, col in enumerate(serial[0]) if col not in timing]
        assert [[r[i] for i in keep] for r in serial] \
            == [[r[i] for i in keep] for r in parallel]

    def serial_pool(self, monkeypatch):
        """Replace the process pool by one that starts no process and
        returns the ``max_workers`` it is asked for."""
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        return asked

    def test_jobs_capped_at_run_count(self, tmp_path, monkeypatch):
        # the pool starts all its workers at once, so it must never be
        # asked for more than there are runs
        asked = self.serial_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        path = self.write_spec(tmp_path, seeds=[1, 2])
        assert main(["sweep", "--config", str(path), "--out-dir",
                     str(tmp_path / "out"), "--jobs", "5000"]) == 0
        assert asked == [2]

    @pytest.mark.parametrize("cpus,workers", [(3, 3), (None, 1)])
    def test_jobs_capped_at_cpu_count(self, tmp_path, monkeypatch, cpus,
                                      workers):
        asked = self.serial_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        path = self.write_spec(tmp_path, seeds=[1, 2, 3, 4])
        assert main(["sweep", "--config", str(path), "--out-dir",
                     str(tmp_path / "out"), "--jobs", "5000"]) == 0
        assert asked == [workers]

    def test_run_count_checked_before_any_combination(self, tmp_path,
                                                      monkeypatch, capsys):
        # 40,000 runs: only the base config may be built before the cap
        built = []
        real = cli.ScenarioConfig.from_dict
        monkeypatch.setattr(cli.ScenarioConfig, "from_dict",
                            staticmethod(lambda doc: built.append(doc)
                                         or real(doc)))
        path = self.write_spec(tmp_path, axes={
            "fleet_size": list(range(1, 201)),
            "flexibility_s": list(range(200))})
        assert main(["sweep", "--config", str(path), "--out-dir",
                     str(tmp_path / "out")]) == 2
        assert "sweep would launch 40000 runs" in capsys.readouterr().err
        assert len(built) <= 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, jobs):
        path = self.write_spec(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out-dir", str(out),
                     "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --jobs") and err.count("\n") == 1
        assert not out.exists()

    def test_capacity_axis_shape(self, tmp_path):
        # the three-capacity sensitivity layout: one row per capacity
        path = self.write_spec(tmp_path, axes={"capacity": [4, 6, 10]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path),
                     "--out-dir", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        header = rows[0]
        caps = [r[header.index("capacity")] for r in rows[1:]]
        assert caps == ["4", "6", "10"]

    def test_fleet_size_grid_shape(self, tmp_path):
        # five-fleet-size layout at a quarter of the demand
        path = self.write_spec(
            tmp_path, axes={"fleet_size": [210, 230, 250, 270, 290],
                            "demand_scale": [0.25]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path),
                     "--out-dir", str(out)]) == 0
        rows = read_csv(out / "sweep.csv")
        header = rows[0]
        fleets = [r[header.index("fleet_size")] for r in rows[1:]]
        assert fleets == ["210", "230", "250", "270", "290"]
        assert all(r[header.index("demand_scale")] == "0.25"
                   for r in rows[1:])
        assert all(r[header.index("status")] == "ok" for r in rows[1:])


class TestEntryPoint:
    def test_console_script_version(self):
        proc = subprocess.run([sys.executable, "-m", "ridematch.cli",
                               "--version"], capture_output=True, text=True)
        assert proc.returncode == 0

    def test_demos_run(self, tmp_path):
        # the demos print no wall-clock times, so their stdout is pinned
        pinned = json.loads((ROOT / "tests" / "pinned_trip_logs.json")
                            .read_text())["demos"]
        src = str(ROOT / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        demos = sorted((ROOT / "demos").glob("[0-9]*.py"))
        assert [d.name for d in demos] == sorted(pinned)
        for demo in demos:
            proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                                  env=env, capture_output=True, timeout=300)
            assert proc.returncode == 0, (demo.name, proc.stderr)
            assert hashlib.sha256(proc.stdout).hexdigest() \
                == pinned[demo.name], demo.name


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


GRID = {"kind": "grid", "rows": 3, "cols": 3}
# 0 -> 1 -> 2 and no way back: uniform demand draws pairs with no route
ONE_WAY_LINE = {"nodes": [{"id": n} for n in range(3)],
                "links": [{"from": n, "to": n + 1, "length_m": 400.0,
                           "travel_time_s": 40} for n in range(2)]}


# about five requests spread over a loading period of 3.3e10 updates
SPARSE_LONG_PERIOD = {"demand": {"kind": "uniform",
                                 "requests_per_hour": 1.8e-8},
                      "loading_period_s": 10**12}


# about 28,000 requests in 102 updates, over a loading period longer
# than any bound numpy draws an arrival instant below
HUGE_PERIOD = {"demand": {"kind": "uniform", "requests_per_hour": 1e-12},
               "loading_period_s": 10**20, "update_interval_s": 10**18}


def two_nodes(link_time):
    """0 <-> 1, ``link_time`` s each way."""
    return {"nodes": [{"id": 0}, {"id": 1}],
            "links": [{"from": a, "to": b, "length_m": 400.0,
                       "travel_time_s": link_time}
                      for a, b in ((0, 1), (1, 0))]}


# a 300 s loading period, but every ride takes 4e7 s: more than
# MAX_UPDATES updates of 30 s
LONG_ROUTES = [{"network": {"kind": "file", "path": "net.json"},
                "demand": demand}
               for demand in ({"kind": "uniform", "requests_per_hour": 120},
                              {"kind": "poisson", "od_rates": [
                                  {"origin": 1, "destination": 0,
                                   "rate_per_hour": 120}]})]


def slow_pair(there, back):
    """0 <-> 1 at 40 s, 1 -> 2 at ``there`` s and 2 -> 1 at ``back`` s."""
    times = [(0, 1, 40), (1, 0, 40), (1, 2, there), (2, 1, back)]
    return {"nodes": [{"id": n} for n in range(3)],
            "links": [{"from": a, "to": b, "length_m": 400.0,
                       "travel_time_s": t} for a, b, t in times]}


# one vehicle, or one grid node, more than a config may ask for
TOO_MANY_VEHICLES = {"fleet_size": sim.MAX_FLEET_SIZE + 1}
TOO_MANY_ROWS = {"network": dict(GRID, rows=sim.MAX_NODES + 1, cols=1)}
TOO_MANY_COLS = {"network": dict(GRID, rows=1, cols=sim.MAX_NODES + 1)}
# a network file with one node more than a network may have, kept as its
# JSON text (about 3.5 MB) rather than as 250,001 dicts
TOO_MANY_NODES = json.dumps({"nodes": [{"id": n}
                                       for n in range(sim.MAX_NODES + 1)],
                             "links": []})
BIG_FILE_NETWORK = {"network": {"kind": "file", "path": "big.json"}}
# a network file without nodes, and no requests to place on it
NO_NODES = {"network": {"kind": "file", "path": "net.json"},
            "demand": {"kind": "file", "path": "req.json"}}
NO_NODES_FILES = {"net.json": {"nodes": [], "links": []},
                  "req.json": {"requests": []}}


@pytest.mark.parametrize("command,overrides,files", [
    ("validate", {"demand": {"kind": "poisson", "od_rates": [
        {"origin": 0, "destination": 8, "rate_per_hour": "240"}]}}, {}),
    ("validate", {"demand": {"kind": "uniform", "requests_per_hour": 120,
                             "scale": "1"}}, {}),
    ("validate", {"network": dict(GRID, rows="6")}, {}),
    ("validate", {"network": dict(GRID, link_travel_time_s="40")}, {}),
    ("validate", {"network": dict(GRID, rows=0)}, {}),
    ("validate", {"matcher": ["gmomatch"]}, {}),
    ("validate", {"network": {"kind": "file", "path": ["x"]}}, {}),
    ("sweep", {"max_runs": "5"}, {}),
    ("validate", {"network": {"kind": ["grid"]}}, {}),
    ("run", {"seed": -1}, {}),
    ("validate", {"network": {"kind": "file", "path": "net.json"}},
     {"net.json": {"nodes": 5, "links": []}}),
    ("run", {"demand": {"kind": "file", "path": "req.json"}},
     {"req.json": {"requests": [{"t_r": "5", "origin": 0,
                                 "destination": 8}]}}),
    ("run", {"demand": {"kind": "file", "path": "req.json"}},
     {"req.json": {"requests": [{"t_r": 5, "origin": True,
                                 "destination": 8}]}}),
    ("run", {"demand": {"kind": "file", "path": "req.json"}},
     {"req.json": {"requests": [{"t_r": 5, "origin": 0,
                                 "destination": 5.0}]}}),
    ("run", {"demand": {"kind": "file", "path": "req.json"}},
     {"req.json": {"requests": [{"t_r": 5, "origin": 0, "destination": 8,
                                 "flexibility_s": 60.5}]}}),
    ("run", {"demand": {"kind": "file", "path": "req.json"}},
     {"req.json": {"requests": [{"t_r": 5, "origin": 0, "destination": 8,
                                 "flexibility_s": True}]}}),
    ("run", {"demand": {"kind": "file", "path": "req.json"}},
     {"req.json": {"requests": [{"t_r": 5, "origin": 0, "destination": 8,
                                 "flexibility_s": "60"}]}}),
    ("run", {"network": {"kind": "file", "path": "net.json"},
             "demand": {"kind": "uniform", "requests_per_hour": 60}},
     {"net.json": ONE_WAY_LINE}),
    ("validate", {"network": {"kind": "file", "path": "net.json"},
                  "demand": {"kind": "uniform", "requests_per_hour": 60}},
     {"net.json": ONE_WAY_LINE}),
    ("run", {"demand": {"kind": "uniform", "requests_per_hour": 1e30}}, {}),
    ("run", {"demand": {"kind": "poisson", "od_rates": [
        {"origin": 0, "destination": 8, "rate_per_hour": 1e30}]}}, {}),
    ("run", {"demand": {"kind": "file", "path": "req.json"}},
     {"req.json": {"requests": [{"t_r": 10**12, "origin": 0,
                                 "destination": 8}]}}),
    ("validate", {"demand": {"kind": "uniform", "requests_per_hour": 1e30}},
     {}),
    ("validate", {"demand": {"kind": "poisson", "od_rates": [
        {"origin": 0, "destination": 8, "rate_per_hour": 1e30}]}}, {}),
    ("validate", {"demand": {"kind": "file", "path": "req.json"}},
     {"req.json": {"requests": [{"t_r": 10**12, "origin": 0,
                                 "destination": 8}]}}),
    ("validate", {"demand": {"kind": "file", "path": "req.json"}},
     {"req.json": {"requests": [{"t_r": "5", "origin": 0,
                                 "destination": 8}]}}),
    ("run", {"network": {"kind": "file", "path": "net.json"},
             "demand": {"kind": "poisson", "od_rates": [
                 {"origin": 0, "destination": 1, "rate_per_hour": 60}]}},
     {"net.json": slow_pair(2**53 + 1, 40)}),
    ("validate", {"network": {"kind": "file", "path": "net.json"}},
     {"net.json": slow_pair(2**52, 2**52)}),
    ("validate", {"network": {"kind": "file", "path": "net.json"}},
     {"net.json": slow_pair(10**400, 40)}),
    ("validate", {"network": dict(GRID, link_travel_time_s=2**50)}, {}),
    ("run", SPARSE_LONG_PERIOD, {}),
    ("validate", SPARSE_LONG_PERIOD, {}),
    ("run", LONG_ROUTES[0], {"net.json": two_nodes(4 * 10**7)}),
    ("validate", LONG_ROUTES[0], {"net.json": two_nodes(4 * 10**7)}),
    ("run", LONG_ROUTES[1], {"net.json": two_nodes(4 * 10**7)}),
    ("validate", LONG_ROUTES[1], {"net.json": two_nodes(4 * 10**7)}),
    *[(command, bound, {}) for command in ("validate", "run")
      for bound in (TOO_MANY_VEHICLES, TOO_MANY_ROWS, TOO_MANY_COLS)],
    ("sweep", {"axes": {"fleet_size": [sim.MAX_FLEET_SIZE + 1]}}, {}),
    ("sweep", {"base": config_doc(**TOO_MANY_ROWS)}, {}),
    ("sweep", {"base": config_doc(**TOO_MANY_COLS)}, {}),
    *[(command, BIG_FILE_NETWORK, {"big.json": TOO_MANY_NODES})
      for command in ("validate", "run")],
    ("sweep", {"base": config_doc(**BIG_FILE_NETWORK)},
     {"big.json": TOO_MANY_NODES}),
    ("validate", {"network": {"kind": "file", "path": "net.json"}},
     {"net.json": "[" * 100_000 + "]" * 100_000}),
    ("validate", {"demand": {"kind": "file", "path": "req.json"}},
     {"req.json": '{"requests": [{"t_r": ' + "1" * 5000
                  + ', "origin": 0, "destination": 8}]}'}),
    ("validate", {"demand": {"kind": "uniform", "requests_per_hour": 10**400}},
     {}),
    ("validate", {"network": {"kind": "file", "path": "net.json"}},
     {"net.json": dict(ONE_WAY_LINE, links=[
         {"from": 0, "to": 1, "length_m": 10**400, "travel_time_s": 40}])}),
    ("sweep", {"max_runs": cli.MAX_SWEEP_RUNS + 1}, {}),
    ("sweep", {"axes": {"capacity": list(range(1, 201)),
                        "fleet_size": list(range(1, 201))}}, {}),
    ("validate", HUGE_PERIOD, {}),
    ("run", HUGE_PERIOD, {}),
    ("validate", {"demand": {"kind": "file", "path": "req.json"}},
     {"req.json": {"requests": [5]}}),
    *[(command, NO_NODES, NO_NODES_FILES)
      for command in ("validate", "run", "compare")],
    ("sweep", {"base": config_doc(**NO_NODES)}, NO_NODES_FILES),
], ids=["rate-string", "scale-string", "rows-string", "link-time-string",
        "rows-zero", "matcher-list", "path-list", "max-runs-string",
        "kind-list", "seed-negative", "nodes-not-list", "t_r-string",
        "origin-bool", "destination-float", "flexibility-float",
        "flexibility-bool", "flexibility-string", "uniform-no-route",
        "uniform-not-strongly-connected", "uniform-rate-too-large",
        "poisson-rate-too-large", "t_r-beyond-update-cap",
        "validate-uniform-rate-too-large", "validate-poisson-rate-too-large",
        "validate-t_r-beyond-update-cap", "validate-t_r-string",
        "link-time-not-exact", "link-times-sum-not-exact",
        "link-time-overflows-float", "grid-link-times-sum-not-exact",
        "random-period-beyond-update-cap",
        "validate-random-period-beyond-update-cap",
        "uniform-route-beyond-update-cap",
        "validate-uniform-route-beyond-update-cap",
        "poisson-route-beyond-update-cap",
        "validate-poisson-route-beyond-update-cap",
        "validate-fleet-beyond-cap", "validate-grid-rows-beyond-cap",
        "validate-grid-cols-beyond-cap", "fleet-beyond-cap",
        "grid-rows-beyond-cap", "grid-cols-beyond-cap",
        "sweep-fleet-beyond-cap", "sweep-grid-rows-beyond-cap",
        "sweep-grid-cols-beyond-cap", "validate-file-nodes-beyond-cap",
        "file-nodes-beyond-cap", "sweep-file-nodes-beyond-cap",
        "network-file-nested-too-deep", "request-file-integer-too-long",
        "rate-beyond-float-range", "link-length-beyond-float-range",
        "sweep-max-runs-beyond-cap", "sweep-runs-beyond-max-runs",
        "validate-random-period-beyond-draw-bound",
        "random-period-beyond-draw-bound", "request-record-not-object",
        "validate-no-nodes", "no-nodes", "compare-no-nodes",
        "sweep-no-nodes"])
def test_bad_input_exits_2(tmp_path, monkeypatch, capsys, command,
                           overrides, files):
    # no case may get as far as building a fleet, a grid or a network
    # from a file past its cap
    real_grid, real_fleet = sim.grid_network, sim.initialize_fleet
    real_network = sim.load_network

    def grid(rows, cols, *args):
        assert rows * cols <= sim.MAX_NODES, "grid built past its cap"
        return real_grid(rows, cols, *args)

    def network(source):
        net = real_network(source)
        assert len(net.nodes) <= sim.MAX_NODES, "network built past its cap"
        return net

    def fleet(config, *args):
        assert config.fleet_size <= sim.MAX_FLEET_SIZE, \
            "fleet built past its cap"
        return real_fleet(config, *args)

    monkeypatch.setattr(sim, "grid_network", grid)
    monkeypatch.setattr(sim, "load_network", network)
    monkeypatch.setattr(sim, "initialize_fleet", fleet)
    monkeypatch.chdir(tmp_path)
    for name, doc in files.items():
        (tmp_path / name).write_text(
            doc if isinstance(doc, str) else json.dumps(doc))
    path = tmp_path / "doc.json"
    if command == "sweep":
        path.write_text(json.dumps(
            {"base": write_config(tmp_path / "base.json"), **overrides}))
    else:
        write_config(path, **overrides)
    argv = [command, "--config", str(path)]
    if command != "validate":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("demand", [
    {"kind": "uniform", "requests_per_hour": 1e15},
    # each mean is below the cap, their sum is not
    {"kind": "poisson", "od_rates": [
        {"origin": 0, "destination": 8, "rate_per_hour": 6e5},
        {"origin": 8, "destination": 0, "rate_per_hour": 6e5}]},
], ids=["uniform", "poisson-sum"])
def test_request_cap_draws_nothing(tmp_path, monkeypatch, capsys, command,
                                   demand):
    drawn = []
    monkeypatch.setattr(sim, "_poisson_count",
                        lambda rng, lam: drawn.append(lam) or 0)
    path = tmp_path / "doc.json"
    write_config(path, demand=demand, loading_period_s=3600)
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"more than the {sim.MAX_REQUESTS}" in err
    assert drawn == []


def test_long_links_run_to_a_trip_log(tmp_path, monkeypatch):
    # 100 vehicles at node 0 each price all 100 requests at 2**50 s, so
    # the assignment's padding exceeds what an int64 matrix holds
    monkeypatch.chdir(tmp_path)
    (tmp_path / "net.json").write_text(json.dumps(two_nodes(2**50)))
    (tmp_path / "req.json").write_text(json.dumps({"requests": [
        {"t_r": 0, "origin": 0, "destination": 1}] * 100}))
    path = tmp_path / "doc.json"
    write_config(path, network={"kind": "file", "path": "net.json"},
                 demand={"kind": "file", "path": "req.json"},
                 fleet_size=100, flexibility_s=2**51,
                 update_interval_s=10**10, matcher="baseline")
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["run", "--config", str(path), "--out-dir",
                 str(tmp_path / "out")]) == 0
    header, *rows = read_csv(tmp_path / "out" / "trip_log.csv")
    col = {name: k for k, name in enumerate(header)}
    assert len(rows) == 100
    assert all(r[col["status"]] == "served"
               and int(r[col["dropoff_t"]]) <= int(r[col["l_r"]])
               for r in rows)
