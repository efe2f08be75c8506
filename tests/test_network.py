import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ridematch import network
from ridematch.network import (MAX_NODES, Link, NetworkFormatError,
                               RoadNetwork, grid_network, load_network)

from oracles import bellman_ford, smallest_shortest_path


class TestRouting:
    def test_line_distances(self, line_net):
        assert line_net.shortest_travel_time(0, 4) == 240
        assert line_net.shortest_travel_time(4, 0) == 240
        assert line_net.shortest_travel_time(2, 2) == 0
        assert line_net.shortest_path(0, 3) == (0, 1, 2, 3)
        assert line_net.shortest_path(2, 2) == (2,)

    def test_grid_distance_is_manhattan(self, grid6):
        # uniform 40 s links: time = 40 x manhattan distance
        for a, b, manhattan in [(0, 35, 10), (0, 5, 5), (7, 28, 6)]:
            assert grid6.shortest_travel_time(a, b) == 40 * manhattan

    def test_unreachable_is_none(self):
        net = RoadNetwork([0, 1, 2], [Link(0, 1, 100.0, 10)])
        assert net.shortest_travel_time(0, 2) is None
        assert net.shortest_path(0, 2) is None
        assert net.shortest_travel_time(1, 0) is None  # one-way
        assert net.reachable_from(0) == {0, 1}
        assert net.reachable_from(2) == {2}

    def test_unknown_node_raises(self, line_net):
        with pytest.raises(KeyError):
            line_net.shortest_travel_time(0, 99)
        with pytest.raises(KeyError):
            line_net.next_link(0, 99)
        # a list row would read a negative position from its far end
        with pytest.raises(KeyError):
            line_net.shortest_travel_time(-1, 0)
        with pytest.raises(KeyError):
            line_net.travel_times_to(-1)
        with pytest.raises(KeyError):
            line_net.fill_rows([0, 5])

    def test_tie_breaks_to_smallest_next_node(self):
        # two equal-cost routes 0->1->3 and 0->2->3; 1 < 2 must win
        links = [Link(0, 1, 100.0, 10), Link(0, 2, 100.0, 10),
                 Link(1, 3, 100.0, 10), Link(2, 3, 100.0, 10)]
        net = RoadNetwork([0, 1, 2, 3], links)
        assert net.shortest_path(0, 3) == (0, 1, 3)

    def test_matches_bellman_ford_on_random_graphs(self):
        # shuffled sparse ids; the first node has no in-link and the last
        # no out-link, so some rows must leave nodes out
        rng = random.Random(7)
        for trial in range(30):
            n = rng.randrange(2, 13)
            ids = rng.sample(range(1000), n)
            no_in, no_out = ids[0], ids[-1]
            links = [Link(a, b, 100.0, rng.randrange(1, 10))
                     for a in ids for b in ids
                     if a != b and a != no_out and b != no_in
                     and rng.random() < 0.3]
            net = RoadNetwork(ids, links)
            pos = net.position
            assert net.nodes == tuple(sorted(ids))
            # the same rows filled in one batch, targets shuffled, repeated
            batched = RoadNetwork(ids, links)
            targets = list(range(n))
            # a second rng, so that the graphs drawn stay the same
            random.Random(trial).shuffle(targets)
            batched.fill_rows(targets + targets[:2])
            raw = [(l.src, l.dst, l.travel_time_s) for l in links]
            expect = {src: bellman_ford(ids, raw, src) for src in ids}
            for src in ids:
                assert {net.nodes[p] for p in net.reachable_from(pos[src])} \
                    == set(expect[src])
                for dst in ids:
                    assert net.shortest_travel_time(pos[src], pos[dst]) \
                        == expect[src].get(dst)
            for dst in ids:
                row = net.travel_times_to(pos[dst])
                # one entry per position: None exactly where dst cannot
                # be reached, a plain int everywhere else
                assert type(row) is list and len(row) == len(net.nodes)
                assert row == [expect[src].get(dst) for src in net.nodes]
                assert all(type(v) is int for v in row if v is not None)
                filled = batched.travel_times_to(pos[dst])
                assert filled == row
                assert all(type(v) is int for v in filled if v is not None)
                # the cache itself, not a copy, and not computed again
                assert batched.travel_times_to(pos[dst]) is filled
                assert (row[pos[no_out]] is not None) == (dst == no_out)
            assert net.travel_times_to(pos[no_in]) == [
                0 if n == no_in else None for n in net.nodes]

    def test_large_grid_rows_are_manhattan(self):
        net = grid_network(40, 40)
        for target in (0, 39, 821, 1599):
            tr, tc = divmod(target, 40)
            row = net.travel_times_to(target)
            # grid ids are row-major, so each is its own position
            assert row == [40 * (abs(r - tr) + abs(c - tc))
                           for r in range(40) for c in range(40)]
            assert all(type(v) is int for v in row)

    def test_paths_are_connected_and_optimal(self):
        rng = random.Random(11)
        for trial in range(15):
            n = rng.randrange(3, 10)
            links = []
            for a in range(n):
                for b in range(n):
                    if a != b and rng.random() < 0.4:
                        links.append(Link(a, b, 100.0, rng.randrange(1, 8)))
            net = RoadNetwork(range(n), links)
            for src in range(n):
                for dst in range(n):
                    path = net.shortest_path(src, dst)
                    total = net.shortest_travel_time(src, dst)
                    if total is None:
                        assert path is None
                        continue
                    assert path[0] == src and path[-1] == dst
                    walked = sum(net.link(a, b).travel_time_s
                                 for a, b in zip(path, path[1:]))
                    assert walked == total

    def test_tie_rule_matches_path_enumeration(self):
        # link times in {1, 2} make many equal-cost routes; shuffled sparse
        # ids keep the tie rule from leaning on id order matching layout
        rng = random.Random(23)
        for trial in range(40):
            n = rng.randrange(2, 8)
            ids = rng.sample(range(1000), n)
            links = [Link(a, b, 100.0, rng.choice((1, 2)))
                     for a in ids for b in ids
                     if a != b and rng.random() < 0.45]
            net = RoadNetwork(ids, links)
            pos = net.position
            raw = [(l.src, l.dst, l.travel_time_s) for l in links]
            for src in ids:
                for dst in ids:
                    expect = smallest_shortest_path(raw, src, dst)
                    path = net.shortest_path(pos[src], pos[dst])
                    assert (path if path is None else
                            tuple(net.nodes[p] for p in path)) == expect
                    hop = net.next_link(pos[src], pos[dst])
                    if expect is None or src == dst:
                        assert hop is None
                    else:
                        assert hop == net.link(pos[src], pos[expect[1]])

    def test_repeat_queries_identical(self, grid6):
        assert grid6.shortest_path(3, 32) == grid6.shortest_path(3, 32)


class TestBatchedRows:
    def test_fill_spans_chunks(self, monkeypatch):
        rng = random.Random(5)
        ids = list(range(12))
        links = [Link(a, b, 100.0, rng.randrange(1, 10))
                 for a in ids for b in ids if a != b and rng.random() < 0.4]
        single = RoadNetwork(ids, links)
        expect = [single.travel_times_to(dst) for dst in ids]
        net = RoadNetwork(ids, links)
        net.travel_times_to(4)
        batches = []
        real = RoadNetwork._dijkstra

        def spy(self, targets, *radius):
            batches.append(list(targets))
            return real(self, targets, *radius)

        monkeypatch.setattr(RoadNetwork, "_dijkstra", spy)
        # three targets per scipy call
        monkeypatch.setattr(network, "DIJKSTRA_ENTRIES", 3 * len(ids) + 2)
        net.fill_rows([9, 4, 0, 9, 11, 3, 7, 1, 2])
        # each missing target once, in order; the cached row 4 is kept
        assert batches == [[9, 0, 11], [3, 7, 1], [2]]
        net.fill_rows([0, 1, 2])
        assert len(batches) == 3
        for dst in ids:
            row = net.travel_times_to(dst)
            assert row == expect[dst]
            assert all(type(v) is int or v is None for v in row)
        # a query computes the one row it misses: 5, 6, 8 and 10
        assert batches[3:] == [[5], [6], [8], [10]]

    def test_fill_of_nothing(self):
        RoadNetwork([], []).fill_rows([])  # no nodes to size a batch by

    def test_rows_share_one_int_per_distinct_time(self):
        # a 40 x 40 grid row holds at most 79 distinct times in 1,600 slots
        net = grid_network(40, 40)
        for target in range(len(net.nodes)):
            row = net.travel_times_to(target)
            assert len(set(map(id, row))) == len(set(row))


def directed_network(rng, n, density):
    """``n`` shuffled ids in two parts.  Links are one-way or both ways,
    with times drawn per direction, and none leads from the second part
    back into the first, which the second part therefore cannot reach."""
    ids = rng.sample(range(100), n)
    first = set(ids[:rng.randrange(1, n + 1)])
    links = [Link(a, b, 100.0, rng.randrange(1, 30))
             for a in ids for b in ids
             if a != b and (a in first or b not in first)
             and rng.random() < density]
    return ids, links


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
       density=st.floats(0.1, 0.6))
def test_bounded_rows_agree_with_whole_rows(seed, n, density):
    rng = random.Random(seed)
    ids, links = directed_network(rng, n, density)
    whole = RoadNetwork(ids, links)
    rows = [whole.travel_times_to(dst) for dst in range(n)]
    top = max((d for row in rows for d in row if d is not None), default=0)
    for dst in range(n):
        net = RoadNetwork(ids, links)
        radii = sorted(rng.sample(range(top + 2), min(3, top + 2)))
        for radius in radii:  # each a regrowth of the one before
            net.fill_within({dst: radius})
            got, row = net._rows[dst]
            assert got == radius
            # exact out to the radius, None beyond
            assert row == [d if d is not None and d <= radius else None
                           for d in rows[dst]]
            assert net.travel_times_within(dst, radius) is row
            for src in range(n):
                if row[src] is not None:
                    assert net.next_link(src, dst) \
                        == whole.next_link(src, dst)
            # read from the bounded row: no whole row was computed
            assert net._rows[dst][1] is row
        net.fill_within({dst: radii[0]})  # a smaller radius keeps the row
        got, kept = net._rows[dst]
        assert got == radii[-1] and kept is row
        # a wider read, or a hop from beyond the radius, computes the
        # whole row, which then wins over any fill
        far = [src for src in range(n) if row[src] is None]
        if far:
            src = rng.choice(far)
            assert net.next_link(src, dst) == whole.next_link(src, dst)
        else:
            assert net.travel_times_within(dst, radii[-1] + 1) == rows[dst]
        assert net._rows[dst] == (math.inf, rows[dst])
        row = net._rows[dst][1]
        net.fill_within({dst: top + 1})
        assert net._rows[dst] == (math.inf, row)
        assert net.travel_times_within(dst, 0) is row
    # targets with different radii in one batch: each row reaches at
    # least its own radius, and records how far it does reach
    net = RoadNetwork(ids, links)
    asked = {dst: rng.randrange(top + 2) for dst in range(n)}
    net.fill_within(asked)
    for dst, radius in asked.items():
        reach, row = net._rows[dst]
        assert reach >= radius
        assert row == [d if d is not None and d <= reach else None
                       for d in rows[dst]]


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(NetworkFormatError, match="self-loop"):
            RoadNetwork([0], [Link(0, 0, 10.0, 1)])

    def test_rejects_nonpositive_travel_time(self):
        with pytest.raises(NetworkFormatError, match="travel time"):
            RoadNetwork([0, 1], [Link(0, 1, 10.0, 0)])

    def test_rejects_duplicate_link(self):
        with pytest.raises(NetworkFormatError, match="duplicate link"):
            RoadNetwork([0, 1], [Link(0, 1, 10.0, 5), Link(0, 1, 20.0, 7)])

    def test_rejects_dangling_endpoint(self):
        with pytest.raises(NetworkFormatError, match="unknown node"):
            RoadNetwork([0, 1], [Link(0, 2, 10.0, 5)])

    def test_rejects_total_time_beyond_exact_floats(self):
        # float64 distances stay exact only while every sum is below 2**53
        net = RoadNetwork([0, 1, 2], [Link(0, 1, 10.0, 2**52),
                                      Link(1, 2, 10.0, 2**52 - 1)])
        assert net.shortest_travel_time(0, 2) == 2**53 - 1
        for times in ([2**52, 2**52], [2**53 + 1, 1], [10**400, 1]):
            with pytest.raises(NetworkFormatError, match="2\\*\\*53"):
                RoadNetwork([0, 1, 2], [Link(0, 1, 10.0, times[0]),
                                        Link(1, 2, 10.0, times[1])])

    def test_rejects_bad_length(self):
        with pytest.raises(NetworkFormatError, match="length"):
            RoadNetwork([0, 1], [Link(0, 1, 0.0, 5)])


class TestGrid:
    def test_shape(self):
        net = grid_network(3, 4)
        assert len(net.nodes) == 12
        # horizontal: 3 rows x 3 gaps, vertical: 2 gaps x 4 cols, both ways
        assert len(net.links) == 2 * (3 * 3 + 2 * 4)
        assert net.shortest_travel_time(0, 1) == 40

    def test_custom_link_parameters(self):
        net = grid_network(2, 2, link_length_m=250.0, link_travel_time_s=25)
        assert net.link(0, 1).length_m == 250.0
        assert net.shortest_travel_time(0, 3) == 50

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            grid_network(0, 5)


class TestLoadNetwork:
    def doc(self):
        return {
            "nodes": [{"id": 0}, {"id": 1}, {"id": 2}],
            "links": [
                {"from": 0, "to": 1, "length_m": 300.0, "travel_time_s": 30},
                {"from": 1, "to": 2, "length_m": 300.0, "travel_time_s": 30},
            ],
        }

    def test_loads_dict_and_file(self, tmp_path):
        net = load_network(self.doc())
        assert net.shortest_travel_time(0, 2) == 60
        path = tmp_path / "net.json"
        path.write_text(json.dumps(self.doc()))
        net2 = load_network(path)
        assert net2.shortest_travel_time(0, 2) == 60

    def test_missing_file(self, tmp_path):
        with pytest.raises(NetworkFormatError, match="cannot read"):
            load_network(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(NetworkFormatError, match="invalid JSON"):
            load_network(path)

    def test_unknown_top_level_field(self):
        doc = self.doc()
        doc["extra"] = 1
        with pytest.raises(NetworkFormatError, match="unknown top-level"):
            load_network(doc)

    def test_unknown_node_field(self):
        doc = self.doc()
        doc["nodes"][0] = {"id": 0, "x": 1.0}
        with pytest.raises(NetworkFormatError, match="exactly 'id'"):
            load_network(doc)

    def test_unknown_link_field(self):
        doc = self.doc()
        doc["links"][0]["speed"] = 50
        with pytest.raises(NetworkFormatError, match="link record"):
            load_network(doc)

    def test_duplicate_node(self):
        doc = self.doc()
        doc["nodes"].append({"id": 0})
        with pytest.raises(NetworkFormatError, match="duplicate node"):
            load_network(doc)

    def test_dangling_link(self):
        doc = self.doc()
        doc["links"][0]["to"] = 9
        with pytest.raises(NetworkFormatError, match="unknown node"):
            load_network(doc)

    def test_node_cap_is_inclusive(self):
        doc = {"nodes": [{"id": n} for n in range(MAX_NODES)], "links": []}
        assert len(load_network(doc).nodes) == MAX_NODES
        doc["nodes"].append({"id": MAX_NODES})
        with pytest.raises(NetworkFormatError, match="more than the"):
            load_network(doc)

    def test_non_integer_travel_time(self):
        doc = self.doc()
        doc["links"][0]["travel_time_s"] = 30.5
        with pytest.raises(NetworkFormatError, match="integer"):
            load_network(doc)
