"""Rolling-horizon fleet simulator.

A scenario is driven by a fixed update interval: at every update instant
the configured matcher expires overdue requests and commits assignments,
then the fleet advances along its tours until the next instant.  Demand
arrives as per-OD Poisson processes during a loading period (or from an
explicit request file) and the run continues past loading until every
request is served or expired and every tour is finished.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import MATCHERS, UpdateOutcome
from .model import (ONBOARD, PENDING, SERVED, PICKUP, Request, Vehicle,
                    make_request)
from .network import (NetworkFormatError, RoadNetwork, grid_network,
                      load_network, read_json)


class ConfigError(ValueError):
    """A scenario document failed validation."""


_CONFIG_FIELDS = {"network", "demand", "loading_period_s", "fleet_size",
                  "capacity", "flexibility_s", "update_interval_s",
                  "matcher", "seed"}
_NETWORK_KINDS = {"grid", "file"}
_DEMAND_KINDS = {"poisson", "uniform", "file"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario parameters; see ``from_dict`` for the schema."""

    network: dict
    demand: dict
    loading_period_s: int
    fleet_size: int
    capacity: int
    flexibility_s: int
    update_interval_s: int
    matcher: str = "gmomatch"
    seed: int = 0

    @staticmethod
    def from_dict(doc: dict) -> "ScenarioConfig":
        if not isinstance(doc, dict):
            raise ConfigError("scenario config must be a JSON object")
        unknown = set(doc) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = _CONFIG_FIELDS - {"matcher", "seed"} - set(doc)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        cfg = ScenarioConfig(
            network=doc["network"],
            demand=doc["demand"],
            loading_period_s=check_number(doc["loading_period_s"],
                                          "loading_period_s", 0),
            fleet_size=check_number(doc["fleet_size"], "fleet_size", 1),
            capacity=check_number(doc["capacity"], "capacity", 1),
            flexibility_s=check_number(doc["flexibility_s"],
                                       "flexibility_s", 0),
            update_interval_s=check_number(doc["update_interval_s"],
                                           "update_interval_s", 1),
            matcher=_choice(doc.get("matcher", "gmomatch"), "matcher",
                            MATCHERS),
            seed=check_number(doc.get("seed", 0), "seed", 0),
        )
        cfg._check()
        return cfg

    def to_dict(self) -> dict:
        return {
            "network": self.network,
            "demand": self.demand,
            "loading_period_s": self.loading_period_s,
            "fleet_size": self.fleet_size,
            "capacity": self.capacity,
            "flexibility_s": self.flexibility_s,
            "update_interval_s": self.update_interval_s,
            "matcher": self.matcher,
            "seed": self.seed,
        }

    def replace(self, **changes) -> "ScenarioConfig":
        doc = self.to_dict()
        doc.update(changes)
        return ScenarioConfig.from_dict(doc)

    def _check(self) -> None:
        if self.fleet_size > MAX_FLEET_SIZE:
            raise ConfigError(f"fleet_size must be at most {MAX_FLEET_SIZE}, "
                              f"got {self.fleet_size}")
        if not isinstance(self.network, dict):
            raise ConfigError("network must be an object")
        kind = _choice(self.network.get("kind"), "network.kind",
                       _NETWORK_KINDS)
        if kind == "grid":
            extra = set(self.network) - {"kind", "rows", "cols",
                                         "link_length_m", "link_travel_time_s"}
            if extra:
                raise ConfigError(f"unknown network fields: {sorted(extra)}")
            if not ("rows" in self.network and "cols" in self.network):
                raise ConfigError("grid network needs 'rows' and 'cols'")
            rows = check_number(self.network["rows"], "network.rows", 1)
            cols = check_number(self.network["cols"], "network.cols", 1)
            if rows * cols > MAX_GRID_NODES:
                raise ConfigError(f"a {rows} x {cols} grid has more than "
                                  f"the {MAX_GRID_NODES} nodes a network "
                                  f"may have")
            check_number(self.network.get("link_length_m", 400.0),
                         "network.link_length_m", 0, integer=False)
            check_number(self.network.get("link_travel_time_s", 40),
                         "network.link_travel_time_s", 1)
        else:
            extra = set(self.network) - {"kind", "path"}
            if extra:
                raise ConfigError(f"unknown network fields: {sorted(extra)}")
            if not isinstance(self.network.get("path"), str):
                raise ConfigError("file network needs a 'path' string")
        if not isinstance(self.demand, dict):
            raise ConfigError("demand must be an object")
        dkind = _choice(self.demand.get("kind"), "demand.kind", _DEMAND_KINDS)
        if dkind == "poisson":
            extra = set(self.demand) - {"kind", "od_rates", "scale"}
            if extra:
                raise ConfigError(f"unknown demand fields: {sorted(extra)}")
            rates = self.demand.get("od_rates")
            if not isinstance(rates, list) or not rates:
                raise ConfigError("poisson demand needs a non-empty od_rates list")
            for rec in rates:
                if (not isinstance(rec, dict)
                        or set(rec) != {"origin", "destination", "rate_per_hour"}):
                    raise ConfigError(f"bad od_rates entry: {rec!r}")
                check_number(rec["rate_per_hour"], "rate_per_hour", 0,
                             integer=False)
                check_number(rec["origin"], "od_rates origin")
                check_number(rec["destination"], "od_rates destination")
                if rec["origin"] == rec["destination"]:
                    raise ConfigError("od_rates origin must differ from destination")
        elif dkind == "uniform":
            extra = set(self.demand) - {"kind", "requests_per_hour", "scale"}
            if extra:
                raise ConfigError(f"unknown demand fields: {sorted(extra)}")
            if "requests_per_hour" not in self.demand:
                raise ConfigError("uniform demand needs 'requests_per_hour'")
            check_number(self.demand["requests_per_hour"],
                         "requests_per_hour", 0, integer=False)
        else:
            extra = set(self.demand) - {"kind", "path"}
            if extra:
                raise ConfigError(f"unknown demand fields: {sorted(extra)}")
            if not isinstance(self.demand.get("path"), str):
                raise ConfigError("file demand needs a 'path' string")
        check_number(self.demand.get("scale", 1.0), "demand.scale", 0,
                     integer=False)


def check_number(value, name: str, minimum: float | None = None,
                 integer: bool = True):
    """Return ``value`` if it is a finite JSON number (an integer when
    ``integer``) of at least ``minimum``; raise ConfigError otherwise."""
    # type() rather than isinstance(): a bool is not a number here
    if type(value) is int or (not integer and type(value) is float
                              and -math.inf < value < math.inf):
        if minimum is None or value >= minimum:
            return value
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
    what = "an integer" if integer else "a number"
    raise ConfigError(f"{name} must be {what}, got {value!r}")


def _choice(value, name: str, allowed) -> str:
    """Return ``value`` if it is one of the strings in ``allowed``."""
    if not isinstance(value, str) or value not in allowed:
        raise ConfigError(f"{name} must be one of {sorted(allowed)}, "
                          f"got {value!r}")
    return value


def build_network(config: ScenarioConfig) -> RoadNetwork:
    spec = config.network
    if spec["kind"] == "grid":
        return grid_network(spec["rows"], spec["cols"],
                            spec.get("link_length_m", 400.0),
                            spec.get("link_travel_time_s", 40))
    try:
        return load_network(Path(spec["path"]))
    except NetworkFormatError as exc:
        raise ConfigError(str(exc)) from exc


def check_demand_reachability(config: ScenarioConfig,
                              net: RoadNetwork) -> None:
    """Reject OD pairs with no route (or unknown nodes) up front.

    Uniform demand can draw any ordered pair of distinct nodes, so it needs
    at least two nodes and a strongly connected network: every node
    reaches the first node, and the first node reaches every node.
    """
    if config.demand["kind"] == "uniform":
        if len(net.nodes) < 2:
            raise ConfigError("uniform demand needs at least 2 network nodes")
        hub = net.nodes[0]
        into, out_of = net.travel_times_to(hub), net.reachable_from(hub)
        for n in net.nodes:
            if n not in into or n not in out_of:
                o, d = (n, hub) if n not in into else (hub, n)
                raise ConfigError(f"uniform demand needs a strongly connected "
                                  f"network: no route from {o} to {d}")
    if config.demand["kind"] == "poisson":
        for rec in config.demand["od_rates"]:
            o, d = rec["origin"], rec["destination"]
            if o not in net or d not in net:
                raise ConfigError(f"demand references unknown node: {o}->{d}")
            if net.shortest_travel_time(o, d) is None:
                raise ConfigError(f"demand OD pair {o}->{d} is unreachable")


def generate_demand(config: ScenarioConfig, net: RoadNetwork,
                    rng: np.random.Generator) -> list[Request]:
    """Draw the request list for the loading period.

    Poisson demand: per-OD counts are Poisson with mean rate × period,
    arrival instants uniform over the period.  Uniform demand spreads one
    total rate over all ordered node pairs.  File demand is read verbatim.
    Requests come back sorted by announcement time with sequential ids.
    """
    kind = config.demand["kind"]
    if kind == "file":
        return load_requests(Path(config.demand["path"]), config, net)
    check_demand_bounds(config, net)  # before a single request is drawn
    T = config.loading_period_s
    events: list[tuple[int, int, int]] = []
    if kind == "poisson":
        for rec, lam in zip(config.demand["od_rates"],
                            _poisson_means(config)):
            for _ in range(_poisson_count(rng, lam)):
                events.append((int(rng.integers(0, max(T, 1))),
                               rec["origin"], rec["destination"]))
    else:
        [lam] = _poisson_means(config)
        nodes = net.nodes
        for _ in range(_poisson_count(rng, lam)):
            t = int(rng.integers(0, max(T, 1)))
            o = int(nodes[rng.integers(0, len(nodes))])
            d = int(nodes[rng.integers(0, len(nodes))])
            while d == o:
                d = int(nodes[rng.integers(0, len(nodes))])
            events.append((t, o, d))
    events.sort()
    out = []
    for rid, (t, o, d) in enumerate(events):
        try:
            out.append(make_request(rid, t, o, d, config.flexibility_s, net))
        except ValueError as exc:  # uniform demand drew a pair with no route
            raise ConfigError(f"demand OD pair {o}->{d}: {exc}") from exc
    return out


def _poisson_means(config: ScenarioConfig) -> list[float]:
    """The mean request count of each Poisson process of random demand."""
    T = config.loading_period_s
    scale = config.demand.get("scale", 1.0)
    if config.demand["kind"] == "uniform":
        return [config.demand["requests_per_hour"] * scale * T / 3600.0]
    return [rec["rate_per_hour"] * scale * T / 3600.0
            for rec in config.demand["od_rates"]]


def _poisson_count(rng: np.random.Generator, lam: float) -> int:
    """Draw a request count of mean ``lam``; a zero mean draws nothing."""
    return int(rng.poisson(lam)) if lam > 0 else 0


def load_requests(path: Path, config: ScenarioConfig,
                  net: RoadNetwork) -> list[Request]:
    """Read an explicit request file.

    Shape: ``{"requests": [{"t_r": s, "origin": n, "destination": n,
    "flexibility_s": s?}, ...]}`` where flexibility defaults to the
    scenario value.  Ids follow announcement order.
    """
    doc = read_json(path, ConfigError, "request file")
    if not isinstance(doc, dict) or set(doc) != {"requests"} \
            or not isinstance(doc["requests"], list):
        raise ConfigError("request file must be {\"requests\": [...]}")
    rows = []
    required = {"t_r", "origin", "destination"}
    allowed = required | {"flexibility_s"}
    nodes = set(net.nodes)
    for rec in doc["requests"]:
        if not isinstance(rec, dict) or not rec.keys() <= allowed:
            raise ConfigError(f"bad request record: {rec!r}")
        if not required <= rec.keys():
            raise ConfigError(f"request record missing "
                              f"{sorted(required - rec.keys())}: {rec!r}")
        check_number(rec["t_r"], "request t_r", 0)
        origin, destination = rec["origin"], rec["destination"]
        # type() rather than isinstance(): a bool is not a node id
        if not (type(origin) is int and type(destination) is int
                and origin in nodes and destination in nodes):
            raise ConfigError(f"request origin and destination must be "
                              f"nodes of the network: {rec!r}")
        if origin == destination:
            raise ConfigError("request origin must differ from destination")
        if "flexibility_s" in rec:
            check_number(rec["flexibility_s"], "request flexibility_s", 0)
        rows.append(rec)
    rows.sort(key=lambda r: r["t_r"])
    out = []
    for rid, rec in enumerate(rows):
        flex = rec.get("flexibility_s", config.flexibility_s)
        try:
            out.append(make_request(rid, rec["t_r"], rec["origin"],
                                    rec["destination"], flex, net))
        except ValueError as exc:  # no route from origin to destination
            raise ConfigError(f"bad request record {rec!r}: {exc}") from exc
    return out


def initialize_fleet(config: ScenarioConfig, demand: Sequence[Request],
                     net: RoadNetwork,
                     rng: np.random.Generator) -> list[Vehicle]:
    """Place idle vehicles, start nodes drawn proportional to origin demand.

    With zero demand the draw falls back to uniform over all nodes.
    """
    nodes = np.array(net.nodes)
    weights = np.zeros(len(nodes), dtype=float)
    index = {n: i for i, n in enumerate(net.nodes)}
    for req in demand:
        weights[index[req.origin]] += 1
    if weights.sum() == 0:
        weights[:] = 1.0
    starts = rng.choice(nodes, size=config.fleet_size,
                        p=weights / weights.sum())
    return [Vehicle(id=i, capacity=config.capacity, location=int(starts[i]))
            for i in range(config.fleet_size)]


@dataclass
class SimulationState:
    net: RoadNetwork
    vehicles: list[Vehicle]
    requests: list[Request]
    requests_by_id: dict[int, Request]
    clock: int = 0
    pending: list[Request] = field(default_factory=list)
    update_records: list[dict] = field(default_factory=list)


def advance(state: SimulationState, until: int) -> None:
    """Move every vehicle along its tour up to time ``until``.

    Stops execute with zero dwell at the arrival instant; traversed link
    lengths accumulate on the odometer.  On return any vehicle still
    holding stops is strictly in transit (its next arrival is after
    ``until``).  A committed plan that overfills a vehicle, misses a
    window, has no route or strands riders raises RuntimeError.
    """
    if until < state.clock:
        raise ValueError("cannot advance backwards")
    for veh in state.vehicles:
        while veh.tour and veh.ready_at <= until:
            stop = veh.tour[0]
            if veh.location == stop.node:
                req = state.requests_by_id[stop.request_id]
                if stop.kind == PICKUP:
                    req.set_status(ONBOARD)
                    req.pickup_t = veh.ready_at
                    req.vehicle_id = veh.id
                    veh.onboard.add(stop.request_id)
                    if len(veh.onboard) > veh.capacity:
                        raise RuntimeError(f"vehicle {veh.id} over capacity")
                    if req.pickup_t > req.q_r:
                        raise RuntimeError(
                            f"request {req.id} picked up after its deadline")
                else:
                    req.set_status(SERVED)
                    req.dropoff_t = veh.ready_at
                    veh.onboard.discard(stop.request_id)
                    if req.dropoff_t > req.l_r:
                        raise RuntimeError(
                            f"request {req.id} dropped off after its deadline")
                veh.tour = veh.tour[1:]
            else:
                link = state.net.next_link(veh.location, stop.node)
                if link is None:
                    raise RuntimeError("committed tour has unreachable stop")
                veh.location = link.dst
                veh.ready_at += link.travel_time_s
                veh.odometer_m += link.length_m
                veh.drive_time_s += link.travel_time_s
        if veh.onboard and not veh.tour:
            raise RuntimeError(
                f"vehicle {veh.id} idle with passengers aboard")
    state.clock = until


@dataclass
class RunResult:
    config: ScenarioConfig
    state: SimulationState
    trip_records: list[dict]
    update_records: list[dict]


# the most updates one run may take; run_scenario rejects demand that needs
# more up front, so reaching it means the scenario is stuck
MAX_UPDATES = 1_000_000
# the largest mean request count random demand may have, so that a draw
# cannot build more requests than memory holds
MAX_REQUESTS = 1_000_000
# the most vehicles and grid nodes a config may ask for, checked before
# either is built: a vehicle takes about 0.4 KB, a grid node about 2.3 KB
MAX_FLEET_SIZE = 100_000
MAX_GRID_NODES = 250_000


def check_demand_bounds(config: ScenarioConfig, net: RoadNetwork,
                        demand: Sequence[Request] | None = None) -> None:
    """Reject demand that ``run_scenario`` cannot simulate.

    Random demand is bounded by its config and network alone, so the
    verdict never depends on the draw: its Poisson means may sum to at
    most ``MAX_REQUESTS``, and when the sum is positive a request may
    arrive until the loading period ends and ride until ``flexibility_s``
    plus its direct travel time after that, which must fit in
    ``MAX_UPDATES`` updates.  ``generate_demand`` checks this before it
    draws, after ``check_demand_reachability`` has found a route for
    every OD pair.  The requests, read from the file when ``demand`` is
    not given, must fit in ``MAX_UPDATES`` updates too.
    """
    delta = config.update_interval_s
    if config.demand["kind"] != "file":
        means = _poisson_means(config)
        total = sum(means)
        if not total <= MAX_REQUESTS:  # also an overflowed inf or nan
            raise ConfigError(f"demand averages {total:.3g} requests, more "
                              f"than the {MAX_REQUESTS} a run may hold")
        if total > 0:
            _check_updates((config.loading_period_s + config.flexibility_s
                            + _longest_route(config, net, means))
                           // delta + 2, delta)
        if demand is None:
            return
    elif demand is None:
        demand = load_requests(Path(config.demand["path"]), config, net)
    # every request is dropped off by its l_r or expires at the first update
    # after its q_r, so updates 0 .. max(l_r) // delta + 1 always suffice
    _check_updates(max((r.l_r for r in demand), default=0) // delta + 2,
                   delta)


def _longest_route(config: ScenarioConfig, net: RoadNetwork,
                   means: Sequence[float]) -> int:
    """An upper bound on the direct travel time of any request random
    demand can draw: exact over the OD pairs of Poisson demand that have
    a positive mean.  Uniform demand can draw any pair, and a shortest
    path has at most ``len(nodes) - 1`` links, so it takes that many of
    the longest link, which needs no routing row."""
    if config.demand["kind"] == "uniform":
        return (len(net.nodes) - 1) * max(
            (link.travel_time_s for link in net.links), default=0)
    return max(net.shortest_travel_time(rec["origin"], rec["destination"])
               for rec, lam in zip(config.demand["od_rates"], means)
               if lam > 0)


def _check_updates(needed: int, delta: int) -> None:
    if needed > MAX_UPDATES:
        raise ConfigError(f"demand needs {needed} updates of {delta} s, "
                          f"more than the {MAX_UPDATES} a run may take")


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Simulate one scenario to quiescence and collect the trip log."""
    net = build_network(config)
    check_demand_reachability(config, net)
    rng = np.random.default_rng(config.seed)
    demand = generate_demand(config, net, rng)
    check_demand_bounds(config, net, demand)
    delta = config.update_interval_s
    vehicles = initialize_fleet(config, demand, net, rng)
    state = SimulationState(net=net, vehicles=vehicles, requests=demand,
                            requests_by_id={r.id: r for r in demand})
    future = deque(demand)
    matcher = MATCHERS[config.matcher]
    for k in range(MAX_UPDATES):
        t = k * delta
        while future and future[0].t_r <= t:
            state.pending.append(future.popleft())
        outcome: UpdateOutcome = matcher(net, t, state.pending, vehicles)
        state.update_records.append({
            "t": t,
            "finalized": len(outcome.finalized),
            "expired": len(outcome.expired),
            "deferred": len(outcome.deferred),
            "iterations": outcome.iterations,
            "step2_rounds": outcome.step2_rounds,
            "step2_merges": outcome.step2_merges,
            "step2_calls": list(outcome.step2_calls),
            "cost_calculation_s": outcome.cost_calculation_s,
            "solution_s": outcome.solution_s,
        })
        state.pending = [r for r in state.pending if r.status == PENDING]
        state.clock = t
        if not future and not state.pending \
                and all(not v.tour for v in vehicles):
            break
        advance(state, (k + 1) * delta)
    else:
        raise RuntimeError("scenario did not reach quiescence")
    return RunResult(config=config, state=state,
                     trip_records=build_trip_records(state),
                     update_records=state.update_records)


TRIP_LOG_COLUMNS = ("request_id", "t_r", "O", "D", "q_r", "l_r",
                    "vehicle_id", "assign_t", "pickup_t", "dropoff_t",
                    "H", "status")


def build_trip_records(state: SimulationState) -> list[dict]:
    """One record per generated request, in id order."""
    records = []
    for req in sorted(state.requests, key=lambda r: r.id):
        records.append({
            "request_id": req.id,
            "t_r": req.t_r,
            "O": req.origin,
            "D": req.destination,
            "q_r": req.q_r,
            "l_r": req.l_r,
            "vehicle_id": req.vehicle_id,
            "assign_t": req.assign_t,
            "pickup_t": req.pickup_t,
            "dropoff_t": req.dropoff_t,
            "H": req.direct_time_s,
            "status": req.status,
        })
    return records


def write_trip_log(path: str | Path, trip_records: Sequence[dict]) -> None:
    """Write the trip log as CSV; missing values become empty fields."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRIP_LOG_COLUMNS)
        for rec in trip_records:
            writer.writerow(["" if rec[c] is None else rec[c]
                             for c in TRIP_LOG_COLUMNS])


def example_config(**overrides) -> ScenarioConfig:
    """A small grid scenario usable out of the box; see demos/."""
    doc = {
        "network": {"kind": "grid", "rows": 6, "cols": 6,
                    "link_length_m": 400.0, "link_travel_time_s": 40},
        "demand": {"kind": "uniform", "requests_per_hour": 360,
                   "scale": 1.0},
        "loading_period_s": 900,
        "fleet_size": 15,
        "capacity": 4,
        "flexibility_s": 300,
        "update_interval_s": 30,
        "matcher": "gmomatch",
        "seed": 0,
    }
    doc.update(overrides)
    return ScenarioConfig.from_dict(doc)


def commuter_config(**overrides) -> ScenarioConfig:
    """Corner-to-corner commuter flows on the bundled 6x6 grid.

    Demand arrives in shareable bursts that outnumber the fleet at every
    update, with a tight pickup window, which is the regime where batching
    several requests per vehicle per update pays off.
    """
    corners = [(0, 35), (5, 30), (30, 5), (35, 0)]
    doc = {
        "network": {"kind": "grid", "rows": 6, "cols": 6,
                    "link_length_m": 400.0, "link_travel_time_s": 40},
        "demand": {"kind": "poisson",
                   "od_rates": [{"origin": o, "destination": d,
                                 "rate_per_hour": 240} for o, d in corners],
                   "scale": 1.0},
        "loading_period_s": 900,
        "fleet_size": 8,
        "capacity": 4,
        "flexibility_s": 120,
        "update_interval_s": 30,
        "matcher": "gmomatch",
        "seed": 0,
    }
    doc.update(overrides)
    return ScenarioConfig.from_dict(doc)
