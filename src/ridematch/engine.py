"""Per-update matching drivers.

``gmomatch_update`` runs the full two-step procedure: assign pending
requests to vehicles, then repeatedly merge freshly assigned tours onto
busier vehicles, then try to assign the still-unmatched requests to the
vehicles freed by the merges, until nothing changes.  ``baseline_update``
stops after a single assignment round, which reproduces the classical
one-request-per-vehicle-per-update behaviour.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from .assignment import BipartiteGraph, build_bipartite, solve_assignment
from .model import ASSIGNED, EXPIRED, PENDING, Request, Vehicle
from .network import RoadNetwork
from .scheduling import PricingContext
from .vehicle_graph import step2_loop


@dataclass
class UpdateOutcome:
    finalized: list[int] = field(default_factory=list)
    expired: list[int] = field(default_factory=list)
    deferred: list[int] = field(default_factory=list)
    iterations: int = 0
    step2_rounds: int = 0
    step2_merges: int = 0
    # one (rounds, assigned vehicles at entry) pair per merge-loop call
    step2_calls: list[tuple[int, int]] = field(default_factory=list)
    cost_calculation_s: float = 0.0
    solution_s: float = 0.0


def expire_overdue(t: int, pending: Sequence[Request]) -> list[int]:
    """Expire requests whose latest pickup time has passed."""
    expired = []
    for req in sorted(pending, key=lambda r: r.id):
        if req.status == PENDING and t > req.q_r:
            req.set_status(EXPIRED)
            expired.append(req.id)
    return expired


def _begin_update(t: int, pending: Sequence[Request],
                  outcome: UpdateOutcome) -> list[Request]:
    outcome.expired = expire_overdue(t, pending)
    return sorted((r for r in pending if r.status == PENDING),
                  key=lambda r: r.id)


def _assignment_round(net: RoadNetwork, t: int, remaining: Sequence[Request],
                      vehicles: Sequence[Vehicle], outcome: UpdateOutcome,
                      context: PricingContext | None) -> BipartiteGraph:
    """Price, solve and commit one assignment round; return the priced
    graph.  A graph with an edge always yields at least one match.

    A matched vehicle adopts the priced tour and is pinned to depart no
    earlier than ``t``, so the realized schedule equals the priced one.
    """
    t0 = time.perf_counter()
    graph = build_bipartite(net, t, remaining, vehicles, context)
    outcome.cost_calculation_s += time.perf_counter() - t0
    outcome.iterations += 1
    if not graph.edges:
        return graph
    t0 = time.perf_counter()
    matches = solve_assignment(graph)
    outcome.solution_s += time.perf_counter() - t0
    vehicles_by_id = {v.id: v for v in vehicles}
    remaining_by_id = {r.id: r for r in remaining}
    for edge in matches:
        veh = vehicles_by_id[edge.vehicle_id]
        req = remaining_by_id[edge.request_id]
        veh.tour = edge.tour
        veh.ready_at = max(veh.ready_at, t)
        req.set_status(ASSIGNED)
        req.assign_t = t
        outcome.finalized.append(req.id)
    return graph


def gmomatch_update(net: RoadNetwork, t: int, pending: Sequence[Request],
                    vehicles: Sequence[Vehicle],
                    context: PricingContext | None = None) -> UpdateOutcome:
    """Two-step matching at update time ``t``.

    Each pass assigns at most one new request per vehicle, then the merge
    stage frees vehicles by combining compatible plans; freed vehicles can
    pick up more requests on the next pass.  Stops when every pending
    request is matched or no priced edge remains.  Every pass prices
    through ``context``, the run's ``PricingContext``; a fresh one when
    None.
    """
    outcome = UpdateOutcome()
    remaining = _begin_update(t, pending, outcome)
    feasible_index: dict[int, tuple[int, ...]] = {}
    if context is None:
        context = PricingContext(net)
    while remaining:
        graph = _assignment_round(net, t, remaining, vehicles, outcome,
                                  context)
        feasible_index.update(graph.feasible_sets)
        if not graph.edges:
            break
        stats = step2_loop(net, t, vehicles, set(outcome.finalized),
                           feasible_index)
        outcome.step2_rounds += stats.rounds
        outcome.step2_merges += stats.merges
        outcome.step2_calls.append((stats.rounds, stats.initial_assigned))
        outcome.cost_calculation_s += stats.cost_calculation_s
        outcome.solution_s += stats.solution_s
        remaining = [r for r in remaining if r.status == PENDING]
    outcome.deferred = [r.id for r in remaining]
    return outcome


def baseline_update(net: RoadNetwork, t: int, pending: Sequence[Request],
                    vehicles: Sequence[Vehicle],
                    context: PricingContext | None = None) -> UpdateOutcome:
    """Single assignment round: one new request per vehicle per update,
    priced through ``context`` as for ``gmomatch_update``."""
    outcome = UpdateOutcome()
    remaining = _begin_update(t, pending, outcome)
    if remaining:
        _assignment_round(net, t, remaining, vehicles, outcome, context)
    outcome.deferred = [r.id for r in remaining if r.status == PENDING]
    return outcome


MATCHERS = {
    "gmomatch": gmomatch_update,
    "baseline": baseline_update,
}
