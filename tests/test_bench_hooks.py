"""The benchmark's tracer (``bench/tracer.py``) hooks program names from
outside and reports a metric as missing, not as an error, when a name it
hooks is gone.  These tests load the tracer without installing any hook
and check that every name it needs still resolves, and pin the matcher
calling convention that ``bench/worker.py`` relies on."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import ridematch
from ridematch import assignment, engine, network
from ridematch.model import PENDING, Request
from ridematch.scheduling import PricingContext
from ridematch.sim import commuter_config, example_config, run_scenario

ROOT = Path(__file__).resolve().parent.parent

# the fields of an update record the tracer reads
RECORD_FIELDS = ("finalized", "expired", "deferred", "iterations",
                 "cost_calculation_s", "solution_s")


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    tracer = load_tracer()
    assert tracer.HOOKS
    for module_name, attr, _ in tracer.HOOKS:
        target = getattr(ridematch, module_name)
        for name in attr.split("."):
            target = getattr(target, name, None)
            assert target is not None, f"{module_name}.{attr} is gone"


def test_update_records_expose_traced_fields():
    tracer = load_tracer()
    result = run_scenario(example_config(loading_period_s=300, fleet_size=5))
    assert result.update_records
    for record in result.update_records:
        for name in RECORD_FIELDS:
            assert isinstance(tracer._record_field(record, name),
                              (int, float))
    probe = tracer.Tracer()
    values = probe.metrics(result.update_records)
    assert not probe.missing
    assert values["engine.busy_updates"] > 0


@pytest.mark.parametrize("matcher", sorted(engine.MATCHERS))
def test_matchers_take_pending_third(monkeypatch, matcher):
    """Every matcher call is ``(net, t, pending, vehicles, context)``,
    positional, and ``args[2]`` is the pending list ``run_scenario``
    hands over: ``bench/worker.py`` forwards positional arguments only
    and counts busy updates by its truth value."""
    calls = []
    for name, fn in list(engine.MATCHERS.items()):
        def spy(*args, _fn=fn, **kwargs):
            pending = args[2]
            calls.append((len(args), kwargs, len(pending),
                          all(isinstance(r, Request) and r.status == PENDING
                              for r in pending)))
            return _fn(*args, **kwargs)
        monkeypatch.setitem(engine.MATCHERS, name, spy)
    result = run_scenario(example_config(loading_period_s=300, fleet_size=5,
                                         matcher=matcher))
    assert len(calls) == len(result.update_records)
    assert all(n_args == 5 and not kwargs and all_pending
               for n_args, kwargs, _, all_pending in calls)
    # every request pending at entry is finalized, expired or deferred
    assert [n for _, _, n, _ in calls] == [
        u["finalized"] + u["expired"] + u["deferred"]
        for u in result.update_records]
    assert any(n for _, _, n, _ in calls)


def test_every_candidate_is_priced_through_the_hooked_name(monkeypatch):
    """The tracer's ``scheduling.insertion_*`` metrics wrap
    ``assignment.path_cost``: ``build_bipartite`` must look that name up,
    not price through a private path.  The rounds of ``example_config``
    hold no two requests of the same origin, destination and ``f_r``, so
    there every candidate pair is searched, once."""
    priced = []
    real_path_cost = assignment.path_cost
    monkeypatch.setattr(assignment, "path_cost",
                        lambda *args: priced.append(args)
                        or real_path_cost(*args))
    per_call = []
    real_build = engine.build_bipartite

    def build(*args):
        before = len(priced)
        graph = real_build(*args)
        per_call.append((len(priced) - before,
                         sum(map(len, graph.feasible_sets.values()))))
        return graph

    monkeypatch.setattr(engine, "build_bipartite", build)
    run_scenario(example_config(loading_period_s=300, fleet_size=5))
    assert sum(n for n, _ in per_call) > 0
    assert all(n == candidates for n, candidates in per_call)


@pytest.mark.parametrize("capacity", [4, 10])
def test_each_candidate_pair_is_answered_exactly_once(monkeypatch, capacity):
    """In every ``build_bipartite`` call each candidate pair is answered
    once, in one of three ways: searched through ``assignment.path_cost``,
    refused through ``PricingContext.refuse`` after a looser request of
    its group was found infeasible, or given an edge from a looser
    request's plan without a search.  ``commuter_config``'s bursts hold
    same-OD groups, so the last two both happen."""
    searched, refused = [], []
    real_path_cost = assignment.path_cost
    real_refuse = PricingContext.refuse

    def path_cost(net, t, vehicle, request, context):
        searched.append((request.id, vehicle.id))
        return real_path_cost(net, t, vehicle, request, context)

    def refuse(self, vehicle, request_id):
        refused.append((request_id, vehicle.id))
        return real_refuse(self, vehicle, request_id)

    monkeypatch.setattr(assignment, "path_cost", path_cost)
    monkeypatch.setattr(PricingContext, "refuse", refuse)
    rounds = []
    real_build = engine.build_bipartite

    def build(*args):
        del searched[:], refused[:]
        graph = real_build(*args)
        seen = set(searched)
        reused = [(e.request_id, e.vehicle_id) for e in graph.edges
                  if (e.request_id, e.vehicle_id) not in seen]
        candidates = [(rid, vid) for rid, vids in graph.feasible_sets.items()
                      for vid in vids]
        rounds.append((sorted(searched + refused + reused),
                       sorted(candidates), len(refused), len(reused)))
        return graph

    monkeypatch.setattr(engine, "build_bipartite", build)
    run_scenario(commuter_config(capacity=capacity))
    assert rounds
    for answered, candidates, _, _ in rounds:
        assert answered == candidates
    assert sum(n for _, _, n, _ in rounds) > 0
    assert sum(n for _, _, _, n in rounds) > 0


def test_every_dijkstra_runs_inside_the_hooked_method(monkeypatch, tmp_path):
    """The tracer's ``network.dijkstra_*`` metrics wrap
    ``RoadNetwork._dijkstra``: scipy's ``dijkstra`` must be called from
    there only, for uniform, Poisson and file demand alike."""
    callers = []
    real_dijkstra = network.dijkstra

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code)
        return real_dijkstra(*args, **kwargs)

    monkeypatch.setattr(network, "dijkstra", spy)
    path = tmp_path / "requests.json"
    path.write_text(json.dumps({"requests": [
        {"t_r": 10 * i, "origin": i, "destination": 35 - i}
        for i in range(8)]}))
    for config in (example_config(loading_period_s=300, fleet_size=5),
                   commuter_config(loading_period_s=300),
                   example_config(demand={"kind": "file",
                                          "path": str(path)},
                                  matcher="baseline")):
        before = len(callers)
        run_scenario(config)
        assert len(callers) > before
    assert all(code is network.RoadNetwork._dijkstra.__code__
               for code in callers)
