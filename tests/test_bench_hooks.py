"""The benchmark's tracer (``bench/tracer.py``) hooks program names from
outside and reports a metric as missing, not as an error, when a name it
hooks is gone.  These tests load the tracer without installing any hook
and check that every name it needs still resolves."""

import importlib.util
from pathlib import Path

import ridematch
from ridematch.sim import example_config, run_scenario

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
