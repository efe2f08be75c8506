"""Benchmark runs of one workload, in a fresh process started by ``run.py``.

The worker writes the request file of each of the seed's draws (see
``workloads.py``).  Without ``--trace`` it runs ``run_scenario`` on the
draws in turn until ``--seconds`` have passed (at least ``--min-runs``
times, by default once per draw), timing set-ups on their own after each
run.  Each run is cut into segments at the matcher calls: the stretch
before the first call, then per call the call itself and the stretch up
to the next call (or to the end of the run).  Just before each matcher
call, and before and after each run's set-ups, the worker times
``host_probe``, a fixed piece of pure-Python work; ``run.py`` scales
every segment by how fast the probe ran at that moment (see there).  The
probe's own time is left out of the segments.  The worker prints one JSON
object with, per run, its draw, segment and probe times, the trip log's
SHA-256 and its invariant breaches, then the set-up and probe times and
the peak RSS once every draw has run.  With ``--trace`` it runs the first
draw once with every layer hooked (see ``tracer.py``) and reports the
per-layer metrics instead.

    python3 bench/worker.py --workload city15 --seed 1 [--seconds 40] \
        [--min-runs 3] [--trace]
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ridematch  # noqa: E402
from ridematch import engine, sim  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (DRAWS, WORKLOADS, draw_seed, scenario_doc,  # noqa: E402
                       write_request_file)


def trip_log_breaches(trip_records) -> int:
    """Rows breaking a trip-log invariant.

    Every request ends served or expired; a served one was picked up by
    ``q_r``, dropped off by ``l_r``, and rode no faster than the direct
    route ``H``.
    """
    bad = 0
    for r in trip_records:
        if r["status"] == "expired":
            bad += r["pickup_t"] is not None
        elif r["status"] != "served" or r["pickup_t"] is None \
                or r["dropoff_t"] is None:
            bad += 1
        else:
            bad += not (r["pickup_t"] <= r["q_r"]
                        and r["dropoff_t"] <= r["l_r"]
                        and r["dropoff_t"] - r["pickup_t"] >= r["H"])
    return bad


# the probe: shortest paths on a fixed 12 x 12 grid with uneven link
# times, then reads at fixed random places in a 300,000-float list (about
# 12 MB, more than a core's own caches hold)
PROBE_SIDE = 12
PROBE_LINKS = {
    u: [(v, 40 + (7 * u + v) % 13) for v, inside in (
        (u - PROBE_SIDE, u >= PROBE_SIDE),
        (u + PROBE_SIDE, u < PROBE_SIDE * (PROBE_SIDE - 1)),
        (u - 1, u % PROBE_SIDE > 0),
        (u + 1, u % PROBE_SIDE < PROBE_SIDE - 1)) if inside]
    for u in range(PROBE_SIDE ** 2)}
PROBE_SOURCES = (0, 37, 71, 143)
_probe_rng = random.Random(1)
PROBE_FLOATS = [_probe_rng.random() for _ in range(300_000)]
PROBE_READS = [_probe_rng.randrange(len(PROBE_FLOATS)) for _ in range(1500)]


def host_probe() -> float:
    """Wall time of a fixed piece of work, about 1 ms at full speed.

    On a shared host a CPU-bound process runs at about half speed for
    stretches of seconds; the probe's time at a moment says how fast the
    host runs the program at that moment.  It mixes the program's two
    kinds of work: dict-and-heap shortest paths, which stay in a core's
    caches, and scattered reads of a large table, which do not and so
    slow more when other tenants share the last-level cache.
    """
    start = time.perf_counter()
    for source in PROBE_SOURCES:
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue
            for v, w in PROBE_LINKS[u]:
                if du + w < dist.get(v, 1 << 60):
                    dist[v] = du + w
                    heapq.heappush(heap, (du + w, v))
    total = 0.0
    for i in PROBE_READS:
        total += PROBE_FLOATS[i]
    return time.perf_counter() - start


# a set-up of a few milliseconds is timed many times over, for a steady median
SETUP_BATCH_S = 0.2


class SegmentClock:
    """Times every matcher call and the stretches between them, and
    probes the host just before each call."""

    def __init__(self):
        self.calls: list[tuple[float, float, float, float]] = []
        self.busy: list[bool] = []

    def install(self) -> None:
        for key, fn in list(engine.MATCHERS.items()):
            def timed(*args, _fn=fn):
                self.busy.append(bool(args[2]))  # the pending list at entry
                start = time.perf_counter()
                probe_s = host_probe()
                entry = time.perf_counter()
                out = _fn(*args)
                self.calls.append((start, probe_s, entry, time.perf_counter()))
                return out
            engine.MATCHERS[key] = timed

    def run(self, config):
        """One ``run_scenario`` call; returns the result and its timings."""
        self.calls, self.busy = [], []
        start = time.perf_counter()
        result = sim.run_scenario(config)
        end = time.perf_counter()
        nexts = [c[0] for c in self.calls[1:]] + [end]
        return result, {
            "head_s": self.calls[0][0] - start,
            "probe_s": [c[1] for c in self.calls],
            "update_s": [exit_ - entry for _, _, entry, exit_ in self.calls],
            "between_s": [nxt - c[3] for c, nxt in zip(self.calls, nexts)],
            "busy": self.busy,
        }


def setup_once(config) -> float:
    start = time.perf_counter()
    net = sim.build_network(config)
    sim.check_demand_reachability(config, net)
    rng = np.random.default_rng(config.seed)
    demand = sim.generate_demand(config, net, rng)
    sim.initialize_fleet(config, demand, net, rng)
    return time.perf_counter() - start


def check(result, trips: Path) -> dict:
    """Trip-log hash, invariant breaches and service rate of one run."""
    sim.write_trip_log(trips, result.trip_records)
    served = sum(1 for r in result.trip_records if r["status"] == "served")
    return {
        "service_rate_pct": 100.0 * served / len(result.trip_records),
        "trip_log_sha256": hashlib.sha256(trips.read_bytes()).hexdigest(),
        "breaches": trip_log_breaches(result.trip_records),
    }


def repeat(configs: list, trips: list[Path], seconds: float,
           min_runs: int) -> dict:
    """Run the draws in turn until ``seconds`` have passed, at least
    ``min_runs`` times.  After each run, time set-ups of its draw until
    SETUP_BATCH_S have passed (at least one), probed before and after,
    and keep their median."""
    clock = SegmentClock()
    clock.install()
    runs, setup, setup_probe, peak_rss_mb = [], [], [], None
    start = time.perf_counter()
    while True:
        draw = len(runs) % len(configs)
        result, timings = clock.run(configs[draw])
        runs.append({"draw": draw, **timings, **check(result, trips[draw])})
        del result
        if len(runs) == len(configs):
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        before = host_probe()
        batch = [setup_once(configs[draw])]
        while sum(batch) < SETUP_BATCH_S:
            batch.append(setup_once(configs[draw]))
        setup.append(statistics.median(batch))
        setup_probe.append((before + host_probe()) / 2)
        elapsed = time.perf_counter() - start
        if (len(runs) >= min_runs
                and elapsed * (len(runs) + 1) / len(runs) > seconds):
            break
    return {"runs": runs, "setup_s": setup, "setup_probe_s": setup_probe,
            "peak_rss_mb": peak_rss_mb}


def traced(config, trips: Path, spans: Path) -> dict:
    tracer = Tracer()
    tracer.install(ridematch)
    start = time.perf_counter()
    result = sim.run_scenario(config)
    run_s = time.perf_counter() - start
    tracer.write_spans(spans)
    return {"run_s": run_s, **check(result, trips),
            "layers": tracer.metrics(result.update_records),
            "missing_hooks": sorted(tracer.missing)}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-runs", type=int, default=DRAWS)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if not Path(ridematch.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"ridematch imported from {ridematch.__file__}, "
                 f"not from {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    configs, trips = [], []
    for draw in range(DRAWS):
        stem = OUT_DIR / f"{args.workload}-{args.seed}-{draw}"
        requests = stem.with_suffix(".requests.json")
        write_request_file(workload, draw_seed(args.seed, draw), requests)
        configs.append(sim.ScenarioConfig.from_dict(scenario_doc(
            workload, draw_seed(args.seed, draw), requests)))
        trips.append(stem.with_suffix(".trips.csv"))

    if args.trace:
        out = traced(configs[0], trips[0],
                     OUT_DIR / f"{args.workload}-{args.seed}-0.spans.jsonl")
    else:
        out = repeat(configs, trips, args.seconds, args.min_runs)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
