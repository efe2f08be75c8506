"""Property tests of input checking, with documents drawn from the field
tables.

A document is drawn valid for its tables, and then, in one named part,
broken once: a required field dropped, an unknown field added, or a value
swapped for one of the wrong kind or below the minimum.  A broken
document must be rejected with the loader's own error; a valid one is
loaded or rejected by a cross-field rule with that error too.  Nothing
else may escape, and the CLI exits 0 or 2 with at most one line on
stderr.  Grids have at most 5 x 5 nodes and files a few dozen records.
On documents bounded so that a run is cheap, ``run`` succeeds where
``validate`` does, and fails with the same line where it does not.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from ridematch.cli import AXES_TABLE, SWEEP_TABLE, _load_sweep_spec, main
from ridematch.network import (LINK_TABLE, NETWORK_TABLE, NODE_TABLE,
                               REQUIRED, NetworkFormatError, grid_network,
                               load_network)
from ridematch.sim import (CONFIG_TABLE, DEMAND_TABLES, NETWORK_TABLES,
                           OD_RATE_TABLE, REQUEST_FILE_TABLE, REQUEST_TABLE,
                           ConfigError, ScenarioConfig, load_requests)

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                database=None)
# the files a drawn path may name, relative to the working directory
PATHS = ("net.json", "req.json", "absent.json")
JUNK = (None, True, False, "1", "grid", [], [1], {}, {"a": 1}, -1, 0, 2.5,
        -0.5, float("nan"), float("inf"), 10**400)


def accepts(field, value) -> bool:
    """Whether ``value`` is of ``field``'s kind, minimum aside."""
    kind = field.kind
    if type(kind) is tuple:
        return type(value) is str and value in kind
    if kind is float:
        return (type(value) in (int, float)
                and abs(value) <= sys.float_info.max)
    return type(value) is kind


def valid(field):
    """A value of the field's kind, at least its minimum: mostly small,
    now and then large enough to reach a cap or overflow a float sum."""
    kind, least = field.kind, field.minimum
    if type(kind) is tuple:
        return st.sampled_from(kind)
    low = -1 if least is None else least
    if kind is int:
        return st.integers(low, low + 4) | st.just(10**12)
    if kind is float:
        return (st.integers(low, low + 4) | st.floats(low, 1e6)
                | st.just(1e300))
    if kind is str:
        return st.sampled_from(PATHS)
    if kind is list:
        return st.lists(st.integers(0, 3), min_size=least or 0, max_size=3)
    return st.just({})


def record(table, **parts):
    """A record ``table`` accepts; ``parts`` draws the named fields."""
    def value(name):
        return parts.get(name, valid(table[name]))
    return st.fixed_dictionaries(
        {n: value(n) for n, f in table.items() if f.default is REQUIRED},
        optional={n: value(n) for n, f in table.items()
                  if f.default is not REQUIRED})


@st.composite
def broken(draw, table, **parts):
    """A record of ``table`` with one fault the table check must catch."""
    doc = draw(record(table, **parts))
    required = [n for n, f in table.items() if f.default is REQUIRED]
    bounded = [n for n, f in table.items() if f.minimum is not None]
    faults = ["unknown", "kind"] + ["drop"] * bool(required) \
        + ["low"] * bool(bounded)
    fault = draw(st.sampled_from(faults))
    if fault == "unknown":
        doc["bogus"] = draw(st.sampled_from(JUNK))
    elif fault == "drop":
        del doc[draw(st.sampled_from(required))]
    elif fault == "kind":
        name = draw(st.sampled_from(list(table)))
        doc[name] = draw(st.sampled_from(
            [v for v in JUNK if not accepts(table[name], v)]))
    else:
        name = draw(st.sampled_from(bounded))
        least = table[name].minimum
        doc[name] = ([0] * (least - 1) if table[name].kind is list
                     else least - draw(st.sampled_from([1, 0.5])))
    return doc


def part(draw, name, faulty, table, **parts):
    return draw(broken(table, **parts) if name == faulty
                else record(table, **parts))


def records(table, faulty, max_size, min_size=0, **parts):
    """A list of records of ``table``, one of them broken if ``faulty``."""
    if not faulty:
        return st.lists(record(table, **parts), min_size=min_size,
                        max_size=max_size)
    return st.builds(lambda rs, bad, i: rs[:i] + [bad] + rs[i:],
                     st.lists(record(table, **parts), max_size=max_size - 1),
                     broken(table, **parts), st.integers(0, max_size))


# Each document drawer below takes ``bounds``: strategies, by field name,
# for the fields of any of its tables that have that name.


@st.composite
def config_docs(draw, faulty=None, **bounds):
    """A config document; ``faulty`` names the part that is broken."""
    network = part(draw, "network", faulty,
                   draw(st.sampled_from(list(NETWORK_TABLES.values()))),
                   **bounds)
    kind = ("poisson" if faulty == "od_rates entry"
            else draw(st.sampled_from(sorted(DEMAND_TABLES))))
    parts = dict(bounds)
    if kind == "poisson":
        parts["od_rates"] = records(OD_RATE_TABLE, faulty == "od_rates entry",
                                    4, min_size=1, **bounds)
    demand = part(draw, "demand", faulty, DEMAND_TABLES[kind], **parts)
    return part(draw, "config", faulty, CONFIG_TABLE,
                network=st.just(network), demand=st.just(demand), **bounds)


@st.composite
def network_docs(draw, faulty=None, **bounds):
    nodes = records(NODE_TABLE, faulty == "node", 6, **bounds)
    links = records(LINK_TABLE, faulty == "link", 12, **bounds)
    return part(draw, "top-level", faulty, NETWORK_TABLE, nodes=nodes,
                links=links)


@st.composite
def request_docs(draw, faulty=None, **bounds):
    requests = records(REQUEST_TABLE, faulty == "request", 24, **bounds)
    return part(draw, "request file", faulty, REQUEST_FILE_TABLE,
                requests=requests)


@st.composite
def sweep_docs(draw, faulty=None):
    base = config_docs(faulty)
    axes = part(draw, "axes", faulty, AXES_TABLE)
    return part(draw, "sweep spec", faulty, SWEEP_TABLE, base=base,
                axes=st.just(axes))


def maybe_faulty(docs, parts, **bounds):
    """(document, broken) pairs: valid, or broken in one of ``parts``."""
    return st.one_of(st.tuples(docs(**bounds), st.just(False)),
                     *[st.tuples(docs(p, **bounds), st.just(True))
                       for p in parts])


CONFIG_PARTS = ("config", "network", "demand", "od_rates entry")
NETWORK_PARTS = ("top-level", "node", "link")
REQUEST_PARTS = ("request file", "request")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(maybe_faulty(config_docs, CONFIG_PARTS))
def test_config_checked(case):
    doc, faulty = case
    try:
        ScenarioConfig.from_dict(doc)
    except ConfigError:
        return
    assert not faulty, doc


@FUZZ
@given(maybe_faulty(network_docs, NETWORK_PARTS))
def test_network_file_checked(case):
    doc, faulty = case
    try:
        load_network(doc)
    except NetworkFormatError:
        return
    assert not faulty, doc


@FUZZ
@given(maybe_faulty(request_docs, REQUEST_PARTS))
def test_request_file_checked(fuzz_dir, case):
    doc, faulty = case
    path = fuzz_dir / "requests.json"
    path.write_text(json.dumps(doc))
    config = ScenarioConfig.from_dict({
        "network": {"kind": "grid", "rows": 2, "cols": 3},
        "demand": {"kind": "file", "path": str(path)},
        "loading_period_s": 300, "fleet_size": 2, "capacity": 4,
        "flexibility_s": 240, "update_interval_s": 30})
    try:
        load_requests(path, config, grid_network(2, 3))
    except ConfigError:
        return
    assert not faulty, doc


@FUZZ
@given(maybe_faulty(sweep_docs, ("sweep spec", "axes") + CONFIG_PARTS))
def test_sweep_spec_checked(fuzz_dir, case):
    doc, faulty = case
    path = fuzz_dir / "sweep.json"
    path.write_text(json.dumps(doc))
    try:
        _load_sweep_spec(path)
    except ConfigError:
        return
    assert not faulty, doc


@FUZZ
@given(maybe_faulty(config_docs, CONFIG_PARTS),
       maybe_faulty(network_docs, NETWORK_PARTS),
       maybe_faulty(request_docs, REQUEST_PARTS))
def test_validate_exits_0_or_2(fuzz_dir, config, network, requests):
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stderr(err):
        mp.chdir(fuzz_dir)
        for name, (doc, _) in (("config.json", config), ("net.json", network),
                               ("req.json", requests)):
            (fuzz_dir / name).write_text(json.dumps(doc))
        code = main(["validate", "--config", "config.json"])
    err = err.getvalue()
    assert code in (0, 2)
    assert err.count("\n") <= 1 and (code == 0) == (err == ""), err
    if config[1]:
        assert code == 2


# what keeps a run cheap: at most 5 x 5 grid nodes (a network file has at
# most 6), 5 vehicles, a loading period of 600 s, a few requests, and
# windows and links short enough that it ends within about 2,000 updates.
# Node ids are drawn from the first few, so that most requests and flows
# name nodes of the network.
CHEAP = {"rows": st.integers(1, 5), "cols": st.integers(1, 5),
         "id": st.integers(0, 5), "from": st.integers(0, 5),
         "to": st.integers(0, 5), "origin": st.integers(0, 5),
         "destination": st.integers(0, 5),
         "link_travel_time_s": st.integers(1, 60),
         "travel_time_s": st.integers(-1, 60),
         "fleet_size": st.integers(1, 5), "capacity": st.integers(1, 5),
         "loading_period_s": st.sampled_from([300, 600]) | st.integers(0, 600),
         "flexibility_s": st.integers(0, 600), "t_r": st.integers(0, 600),
         "update_interval_s": st.sampled_from([1, 30, 10**12]),
         "requests_per_hour": st.sampled_from([30.0, 120.0])
         | st.floats(0, 120),
         "rate_per_hour": st.sampled_from([30.0, 120.0]) | st.floats(0, 120),
         "scale": st.sampled_from([1.0]) | st.floats(0, 2)}


@settings(FUZZ, max_examples=200)
@given(config_docs(**CHEAP), maybe_faulty(network_docs, NETWORK_PARTS, **CHEAP),
       maybe_faulty(request_docs, REQUEST_PARTS, **CHEAP))
def test_validate_ok_means_run_ok(fuzz_dir, config, network, requests):
    """What ``validate`` accepts, ``run`` runs to a trip log; what it
    rejects, ``run`` rejects with the same one line."""
    trip_log = fuzz_dir / "out" / "trip_log.csv"
    trip_log.unlink(missing_ok=True)
    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(fuzz_dir)
        for name, doc in (("config.json", config), ("net.json", network[0]),
                          ("req.json", requests[0])):
            (fuzz_dir / name).write_text(json.dumps(doc))
        for argv in (["validate"], ["run", "--out-dir", "out"]):
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main(argv + ["--config", "config.json"])
            results.append((code, err.getvalue()))
    (validated, why), (ran, run_err) = results
    if validated == 0:
        assert (ran, run_err) == (0, ""), run_err
        assert trip_log.exists()
    else:
        assert validated == ran == 2 and why == run_err, (why, run_err)
        assert why.count("\n") == 1
