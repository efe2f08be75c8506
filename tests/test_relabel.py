"""Node ids are labels: relabelling a network's nodes changes no answer.

The network numbers its nodes by rank of sorted id, and every input is
mapped to those positions and every output back to ids.  So a random
network on shuffled sparse ids and the same network labelled by the
ranks of those ids must route alike and produce the same trip log once
its ids are mapped to ranks.  The sparse network lists its nodes in
shuffled order and the ranked one in sorted order, so numbering nodes
in the order they are listed, instead of by rank, fails these tests.
"""

import json
import random

import pytest

from ridematch.network import RoadNetwork, Link
from ridematch.sim import example_config, run_scenario


def random_graph(seed):
    """Shuffled sparse ids and ``(from, to, time)`` links of a strongly
    connected random graph; link times of 40 or 80 s make many
    equal-cost routes, so tie-breaks matter."""
    rng = random.Random(seed)
    n = rng.randrange(8, 16)
    ids = rng.sample(range(10, 5000), n)
    ring = rng.sample(ids, n)  # a cycle through every node
    pairs = {(ring[k - 1], ring[k]) for k in range(n)}
    pairs |= {(a, b) for a in ids for b in ids
              if a != b and rng.random() < 0.25}
    return ids, [(a, b, rng.choice((40, 80))) for a, b in sorted(pairs)]


def both_labellings(seed):
    """The sparse-id network, its ranked twin and the id -> rank map."""
    ids, links = random_graph(seed)
    rank = {n: r for r, n in enumerate(sorted(ids))}
    sparse = RoadNetwork(ids, [Link(a, b, 10.0 * t, t) for a, b, t in links])
    ranked = RoadNetwork(range(len(ids)), [Link(rank[a], rank[b], 10.0 * t, t)
                                           for a, b, t in links])
    return ids, links, rank, sparse, ranked


@pytest.mark.parametrize("seed", range(6))
def test_routing_is_relabel_invariant(seed):
    ids, _, rank, sparse, ranked = both_labellings(seed)
    assert ranked.nodes == tuple(range(len(ids)))

    def as_rank(net, p):
        return rank[net.nodes[p]]

    for src in ids:
        for dst in ids:
            s, d = sparse.position[src], sparse.position[dst]
            r_src, r_dst = rank[src], rank[dst]
            assert sparse.shortest_travel_time(s, d) \
                == ranked.shortest_travel_time(r_src, r_dst)
            path = sparse.shortest_path(s, d)
            assert tuple(as_rank(sparse, p) for p in path) \
                == ranked.shortest_path(r_src, r_dst)
            hop, expect = sparse.next_link(s, d), ranked.next_link(r_src,
                                                                   r_dst)
            if expect is None:
                assert hop is None
            else:
                assert (as_rank(sparse, hop.src), as_rank(sparse, hop.dst),
                        hop.length_m, hop.travel_time_s) == expect


def write_network(path, nodes, links):
    path.write_text(json.dumps({
        "nodes": [{"id": n} for n in nodes],
        "links": [{"from": a, "to": b, "length_m": 10.0 * t,
                   "travel_time_s": t} for a, b, t in links]}))


def demand_docs(kind, ids, rank, tmp_path, rng):
    """The same demand of ``kind`` twice: over ids, and over ranks."""
    if kind == "uniform":
        doc = {"kind": "uniform", "requests_per_hour": 360}
        return doc, doc
    pairs = [tuple(rng.sample(ids, 2)) for _ in range(6)]
    if kind == "poisson":
        def poisson(label):
            return {"kind": "poisson", "od_rates": [
                {"origin": label(o), "destination": label(d),
                 "rate_per_hour": 60} for o, d in pairs]}
        return poisson(lambda n: n), poisson(rank.get)
    records = [(rng.randrange(0, 900), o, d) for o, d in pairs * 4]
    docs = []
    for name, label in (("sparse", lambda n: n), ("ranked", rank.get)):
        path = tmp_path / f"{name}_requests.json"
        path.write_text(json.dumps({"requests": [
            {"t_r": t, "origin": label(o), "destination": label(d)}
            for t, o, d in records]}))
        docs.append({"kind": "file", "path": str(path)})
    return tuple(docs)


@pytest.mark.parametrize("kind", ["uniform", "poisson", "file"])
@pytest.mark.parametrize("seed", range(3))
def test_trip_log_is_relabel_invariant(tmp_path, seed, kind):
    ids, links, rank, _, _ = both_labellings(seed)
    write_network(tmp_path / "sparse.json", ids, links)
    write_network(tmp_path / "ranked.json", range(len(ids)),
                  [(rank[a], rank[b], t) for a, b, t in links])
    sparse_demand, ranked_demand = demand_docs(
        kind, ids, rank, tmp_path, random.Random(seed))
    logs = []
    for name, demand in (("sparse", sparse_demand),
                         ("ranked", ranked_demand)):
        logs.append(run_scenario(example_config(
            network={"kind": "file", "path": str(tmp_path / f"{name}.json")},
            demand=demand, fleet_size=4, capacity=3, flexibility_s=240,
            seed=seed)).trip_records)
    sparse_log, ranked_log = logs
    assert any(r["status"] == "served" for r in ranked_log)
    assert [dict(r, O=rank[r["O"]], D=rank[r["D"]]) for r in sparse_log] \
        == ranked_log
