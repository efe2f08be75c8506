"""Benchmark workloads: scenario configs and the demand drawn from a seed.

The benchmark draws each workload's requests itself and hands them to the
simulator as a request file.  The request count is exact and arrivals are
stratified (one per equal slice of the loading period), so two seeds differ
in where and when trips arise but not in how many there are.  A Poisson
count varies by about 5 %, and pricing work grows faster than the count.

One benchmark seed stands for ``DRAWS`` independent draws of the same
workload.  Even with an exact count, how much pricing a draw needs varies
from draw to draw (by about 10 % on ``pool10``), and a run of the
benchmark averages that over its draws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# shared by every workload: capacity 4, flexibility 300 s, update every 30 s
CAPACITY = 4
FLEXIBILITY_S = 300
UPDATE_INTERVAL_S = 30
LOADING_PERIOD_S = 3000
DEFAULT_SEED = 1
DRAWS = 3


def draw_seed(seed: int, draw: int) -> int:
    """The scenario seed of one draw: it seeds the demand and the fleet.

    Draw 0 of seed ``s`` is the scenario seeded ``s``.
    """
    return seed + 1000 * draw


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int                 # grid side; node ids are row-major
    requests_per_hour: int
    fleet_size: int
    matcher: str
    corner_flows: bool        # four corner-to-corner flows, else uniform ODs


# why each workload exists is in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    # 30 requests/h per vehicle: an overloaded fleet, pricing mostly infeasible
    Workload("city15", 15, 600, 20, "gmomatch", False),
    # 12 requests/h per vehicle on four shared flows: pricing mostly feasible
    Workload("pool10", 10, 1800, 150, "gmomatch", True),
    # a 1,600-node grid: routing-cache fills dominate; no merge stage
    Workload("metro40", 40, 400, 50, "baseline", False),
)}


def draw_requests(workload: Workload, seed: int) -> list[dict]:
    """Request records for one run, a pure function of the seed."""
    rng = np.random.default_rng(seed)
    n = round(workload.requests_per_hour * LOADING_PERIOD_S / 3600)
    times = ((np.arange(n) + rng.random(n)) * (LOADING_PERIOD_S / n)).astype(int)
    side = workload.grid
    if workload.corner_flows:
        corners = [0, side - 1, side * (side - 1), side * side - 1]
        flows = list(zip(corners, reversed(corners)))
        pairs = [flows[k % len(flows)] for k in rng.permutation(n)]
    else:
        nodes = side * side
        origins = rng.integers(0, nodes, n)
        dests = rng.integers(0, nodes - 1, n)
        dests = dests + (dests >= origins)  # uniform over the other nodes
        pairs = list(zip(origins.tolist(), dests.tolist()))
    return [{"t_r": int(t), "origin": int(o), "destination": int(d)}
            for t, (o, d) in zip(times, pairs)]


def write_request_file(workload: Workload, seed: int, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"requests": draw_requests(workload, seed)}))


def scenario_doc(workload: Workload, seed: int, request_file: Path) -> dict:
    """ScenarioConfig document for ``workload`` reading ``request_file``."""
    return {
        "network": {"kind": "grid", "rows": workload.grid,
                    "cols": workload.grid, "link_length_m": 400.0,
                    "link_travel_time_s": 40},
        "demand": {"kind": "file", "path": str(request_file)},
        "loading_period_s": LOADING_PERIOD_S,
        "fleet_size": workload.fleet_size,
        "capacity": CAPACITY,
        "flexibility_s": FLEXIBILITY_S,
        "update_interval_s": UPDATE_INTERVAL_S,
        "matcher": workload.matcher,
        "seed": seed,
    }
