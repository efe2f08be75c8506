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
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import MATCHERS, UpdateOutcome
from .model import (ONBOARD, PENDING, SERVED, PICKUP, Request, Vehicle,
                    make_request)
from .network import (MAX_NODES, Field, NetworkFormatError, RoadNetwork,
                      check_fields, check_records, grid_network,
                      load_network, read_json)
from .scheduling import PricingContext


class ConfigError(ValueError):
    """A scenario document failed validation."""


# the field tables of a scenario config and of the objects it holds; the
# network and the demand each have one table per kind
CONFIG_TABLE = {
    "network": Field(dict),
    "demand": Field(dict),
    "loading_period_s": Field(int, 0),
    "fleet_size": Field(int, 1),
    "capacity": Field(int, 1),
    "flexibility_s": Field(int, 0),
    "update_interval_s": Field(int, 1),
    "matcher": Field(tuple(MATCHERS), default="gmomatch"),
    "seed": Field(int, 0, 0),
}
GRID_TABLE = {
    "kind": Field(("grid",)),
    "rows": Field(int, 1),
    "cols": Field(int, 1),
    "link_length_m": Field(float, 0, 400.0),  # and positive, see from_dict
    "link_travel_time_s": Field(int, 1, 40),
}
_FILE_TABLE = {"kind": Field(("file",)), "path": Field(str)}
NETWORK_TABLES = {"grid": GRID_TABLE, "file": _FILE_TABLE}
DEMAND_SCALE = Field(float, 0, 1.0)
DEMAND_TABLES = {
    "poisson": {"kind": Field(("poisson",)), "od_rates": Field(list, 1),
                "scale": DEMAND_SCALE},
    "uniform": {"kind": Field(("uniform",)),
                "requests_per_hour": Field(float, 0), "scale": DEMAND_SCALE},
    "file": _FILE_TABLE,
}
OD_RATE_TABLE = {"origin": Field(int), "destination": Field(int),
                 "rate_per_hour": Field(float, 0)}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario parameters, one per field of ``CONFIG_TABLE``;
    ``network`` and ``demand`` are kept as given."""

    network: dict
    demand: dict
    loading_period_s: int
    fleet_size: int
    capacity: int
    flexibility_s: int
    update_interval_s: int
    matcher: str
    seed: int

    @staticmethod
    def from_dict(doc: dict) -> "ScenarioConfig":
        check_fields(doc, CONFIG_TABLE, "config", ConfigError)
        if doc["fleet_size"] > MAX_FLEET_SIZE:
            raise ConfigError(f"fleet_size must be at most {MAX_FLEET_SIZE}, "
                              f"got {doc['fleet_size']}")
        network = _check_kind(doc["network"], NETWORK_TABLES, "network")
        if network["kind"] == "grid":
            rows, cols = network["rows"], network["cols"]
            if rows * cols > MAX_NODES:
                raise ConfigError(f"a {rows} x {cols} grid has more than "
                                  f"the {MAX_NODES} nodes a network "
                                  f"may have")
            length = network.get("link_length_m")
            if length == 0:  # the table bounds it by 0 inclusive
                raise ConfigError(f"network link_length_m must be > 0, "
                                  f"got {length!r}")
        demand = _check_kind(doc["demand"], DEMAND_TABLES, "demand")
        if demand["kind"] == "poisson":
            check_records(demand["od_rates"], OD_RATE_TABLE, "od_rates entry",
                          ConfigError)
            if any(rec["origin"] == rec["destination"]
                   for rec in demand["od_rates"]):
                raise ConfigError("od_rates origin must differ from "
                                  "destination")
        return ScenarioConfig(**{name: doc.get(name, f.default)
                                 for name, f in CONFIG_TABLE.items()})

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in CONFIG_TABLE}

    def replace(self, **changes) -> "ScenarioConfig":
        doc = self.to_dict()
        doc.update(changes)
        return ScenarioConfig.from_dict(doc)


def _check_kind(doc: dict, tables: dict[str, dict], what: str) -> dict:
    """Check ``doc`` against the table its ``kind`` names."""
    kind = doc.get("kind")
    if type(kind) is not str or kind not in tables:
        raise ConfigError(f"{what} kind must be one of {sorted(tables)}, "
                          f"got {kind!r}")
    return check_fields(doc, tables[kind], what, ConfigError)


def build_network(config: ScenarioConfig) -> RoadNetwork:
    spec = config.network
    if spec["kind"] == "grid":
        return grid_network(spec["rows"], spec["cols"],
                            *(spec.get(name, GRID_TABLE[name].default)
                              for name in ("link_length_m",
                                           "link_travel_time_s")))
    try:
        net = load_network(Path(spec["path"]))
    except NetworkFormatError as exc:
        raise ConfigError(str(exc)) from exc
    if not net.nodes:  # a grid has at least one; a fleet needs one
        raise ConfigError(f"network file {spec['path']} has no nodes to "
                          f"place the fleet on")
    return net


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
        into, out_of = net.travel_times_to(0), net.reachable_from(0)
        for n in range(len(net.nodes)):
            if into[n] is None or n not in out_of:
                o, d = (n, 0) if into[n] is None else (0, n)
                raise ConfigError(f"uniform demand needs a strongly connected "
                                  f"network: no route from {net.nodes[o]} "
                                  f"to {net.nodes[d]}")
    if config.demand["kind"] == "poisson":
        pairs = [(rec["origin"], rec["destination"])
                 for rec in config.demand["od_rates"]]
        for o, d in pairs:
            if o not in net.position or d not in net.position:
                raise ConfigError(f"demand references unknown node: {o}->{d}")
        net.fill_rows(net.position[d] for _, d in pairs)  # in one batch
        for o, d in pairs:
            if net.shortest_travel_time(net.position[o],
                                        net.position[d]) is None:
                raise ConfigError(f"demand OD pair {o}->{d} is unreachable")


def generate_demand(config: ScenarioConfig, net: RoadNetwork,
                    rng: np.random.Generator) -> list[Request]:
    """Draw the request list for the loading period.

    Poisson demand: per-OD counts are Poisson with mean rate × period,
    arrival instants uniform over the period.  Uniform demand spreads one
    total rate over all ordered node pairs, drawn as positions.  File
    demand is read verbatim.  Requests come back sorted by announcement
    time with sequential ids, their origins and destinations positions.
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
            o = net.position[rec["origin"]]
            d = net.position[rec["destination"]]
            for _ in range(_poisson_count(rng, lam)):
                events.append((int(rng.integers(0, max(T, 1))), o, d))
    else:
        [lam] = _poisson_means(config)
        n = len(net.nodes)
        for _ in range(_poisson_count(rng, lam)):
            t = int(rng.integers(0, max(T, 1)))
            o = int(rng.integers(0, n))
            d = int(rng.integers(0, n))
            while d == o:
                d = int(rng.integers(0, n))
            events.append((t, o, d))
    # positions rank like ids, so same-instant events keep their id order
    events.sort()
    # the rows make_request reads, in one batch; Poisson demand's are
    # already there when check_demand_reachability ran
    net.fill_rows({d for _, _, d in events})
    out = []
    for rid, (t, o, d) in enumerate(events):
        try:
            out.append(make_request(rid, t, o, d, config.flexibility_s, net))
        except ValueError as exc:  # uniform demand drew a pair with no route
            raise ConfigError(f"demand OD pair {net.nodes[o]}->"
                              f"{net.nodes[d]}: {exc}") from exc
    return out


def _poisson_means(config: ScenarioConfig) -> list[float]:
    """The mean request count of each Poisson process of random demand."""
    T = config.loading_period_s
    scale = config.demand.get("scale", DEMAND_SCALE.default)
    if config.demand["kind"] == "uniform":
        return [config.demand["requests_per_hour"] * scale * T / 3600.0]
    return [rec["rate_per_hour"] * scale * T / 3600.0
            for rec in config.demand["od_rates"]]


def _poisson_count(rng: np.random.Generator, lam: float) -> int:
    """Draw a request count of mean ``lam``; a zero mean draws nothing."""
    return int(rng.poisson(lam)) if lam > 0 else 0


# the field tables of a request file and of each of its records
REQUEST_FILE_TABLE = {"requests": Field(list)}
REQUEST_TABLE = {
    "t_r": Field(int, 0),
    "origin": Field(int),
    "destination": Field(int),
    "flexibility_s": Field(int, 0, None),  # default: the config's
}


def load_requests(path: Path, config: ScenarioConfig,
                  net: RoadNetwork) -> list[Request]:
    """Read an explicit request file.

    Shape: ``{"requests": [{"t_r": s, "origin": n, "destination": n,
    "flexibility_s": s?}, ...]}`` where flexibility defaults to the
    scenario value and nodes are ids, which the requests hold as
    positions.  Request ids follow announcement order.
    """
    doc = read_json(path, ConfigError, "request file")
    records = check_fields(doc, REQUEST_FILE_TABLE, "request file",
                           ConfigError)["requests"]
    check_records(records, REQUEST_TABLE, "request record", ConfigError)
    position = net.position
    flex = config.flexibility_s
    # the rows make_request reads, in one batch.  A bad record is found
    # in the loop, after these rows: the ones a good file with the same
    # destinations builds, and cheaper than a pass to check them first
    net.fill_rows(position[d] for d in {rec["destination"] for rec in records}
                  if d in position)
    out = []
    for rid, rec in enumerate(sorted(records, key=itemgetter("t_r"))):
        o = position.get(rec["origin"])
        d = position.get(rec["destination"])
        if o is None or d is None:
            raise ConfigError(f"request origin and destination must be "
                              f"nodes of the network: {rec!r}")
        if o == d:
            raise ConfigError("request origin must differ from destination")
        try:
            out.append(make_request(rid, rec["t_r"], o, d,
                                    rec.get("flexibility_s", flex), net))
        except ValueError as exc:  # no route from origin to destination
            raise ConfigError(f"bad request record {rec!r}: {exc}") from exc
    # every request is dropped off by its l_r or expires at the first update
    # after its q_r, so updates 0 .. max(l_r) // delta + 1 always suffice
    delta = config.update_interval_s
    _check_updates(max((r.l_r for r in out), default=0) // delta + 2, delta)
    return out


def initialize_fleet(config: ScenarioConfig, demand: Sequence[Request],
                     net: RoadNetwork,
                     rng: np.random.Generator) -> list[Vehicle]:
    """Place idle vehicles, start nodes drawn proportional to origin demand.

    With zero demand the draw falls back to uniform over all nodes.
    """
    weights = np.zeros(len(net.nodes), dtype=float)
    for req in demand:
        weights[req.origin] += 1
    if weights.sum() == 0:
        weights[:] = 1.0
    starts = rng.choice(len(net.nodes), size=config.fleet_size,
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
    # the run's pricing state, which every matcher call prices through
    context: PricingContext = field(init=False)

    def __post_init__(self) -> None:
        self.context = PricingContext(self.net)


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
# the most vehicles a config may ask for, checked before the fleet is
# built: a vehicle takes about 0.4 KB (network.MAX_NODES caps the nodes)
MAX_FLEET_SIZE = 100_000
# numpy draws no arrival instant below a bound past 2**63
MAX_LOADING_PERIOD_S = 2**63


def check_demand_bounds(config: ScenarioConfig, net: RoadNetwork) -> None:
    """Reject demand that ``run_scenario`` cannot simulate.

    Random demand is bounded by its config and network alone, so the
    verdict never depends on the draw: its Poisson means may sum to at
    most ``MAX_REQUESTS``, and when the sum is positive the loading
    period may be at most ``MAX_LOADING_PERIOD_S`` and a request may
    arrive until it ends and ride until ``flexibility_s`` plus its
    direct travel time after that, which must fit in ``MAX_UPDATES``
    updates.  ``generate_demand`` checks this before it draws, after
    ``check_demand_reachability`` has found a route for every OD pair.
    A request file is checked as ``load_requests`` reads it.
    """
    if config.demand["kind"] == "file":
        load_requests(Path(config.demand["path"]), config, net)
        return
    means = _poisson_means(config)
    total = sum(means)
    if not total <= MAX_REQUESTS:  # also an overflowed inf or nan
        raise ConfigError(f"demand averages {total:.3g} requests, more "
                          f"than the {MAX_REQUESTS} a run may hold")
    if total > 0:
        T = config.loading_period_s
        if T > MAX_LOADING_PERIOD_S:
            raise ConfigError(f"loading_period_s must be at most "
                              f"{MAX_LOADING_PERIOD_S} for random demand, "
                              f"got {T}")
        delta = config.update_interval_s
        _check_updates((T + config.flexibility_s
                        + _longest_route(config, net, means))
                       // delta + 2, delta)


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
    position = net.position
    return max(net.shortest_travel_time(position[rec["origin"]],
                                        position[rec["destination"]])
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
        outcome: UpdateOutcome = matcher(net, t, state.pending, vehicles,
                                         state.context)
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
        state.context.retire(outcome.finalized + outcome.expired)
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
    """One record per generated request, in id order, naming nodes by id."""
    nodes = state.net.nodes
    records = []
    for req in sorted(state.requests, key=lambda r: r.id):
        records.append({
            "request_id": req.id,
            "t_r": req.t_r,
            "O": nodes[req.origin],
            "D": nodes[req.destination],
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
