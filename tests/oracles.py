"""Independent reference implementations used to check the package.

Everything here is deliberately written with different algorithms than
the code under test: Bellman-Ford instead of Dijkstra, path enumeration
instead of next-hop routing, permutation
enumeration instead of the LAP solver, exhaustive matching enumeration
instead of blossom, and a separate tour evaluator driven by the
Bellman-Ford travel-time table.
"""

from __future__ import annotations

import itertools
import weakref

import numpy as np

from ridematch.model import PICKUP


def bellman_ford(nodes, links, source):
    """Distance map via edge relaxation; links are (src, dst, weight)."""
    dist = {source: 0}
    for _ in range(len(nodes) - 1):
        changed = False
        for src, dst, w in links:
            if src in dist and dist[src] + w < dist.get(dst, float("inf")):
                dist[dst] = dist[src] + w
                changed = True
        if not changed:
            break
    return dist


def smallest_shortest_path(links, src, dst):
    """Lexicographically smallest among the minimum-cost simple paths from
    ``src`` to ``dst``, by enumerating every simple path; None when there
    is none.  ``links`` are (src, dst, weight)."""
    out = {}
    for a, b, w in links:
        out.setdefault(a, []).append((b, w))
    best = None

    def walk(path, cost):
        nonlocal best
        node = path[-1]
        if node == dst:
            if best is None or (cost, path) < best:
                best = (cost, list(path))
            return
        for nxt, w in out.get(node, ()):
            if nxt not in path:
                path.append(nxt)
                walk(path, cost + w)
                path.pop()

    walk([src], 0)
    return None if best is None else tuple(best[1])


# keyed by the network itself: an id outlives its network and is reused
_times_cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def travel_times(net):
    """All-pairs travel-time table for a network, via Bellman-Ford, keyed
    by node positions like the network's links."""
    table = _times_cache.get(net)
    if table is None:
        links = [(l.src, l.dst, l.travel_time_s) for l in net.links]
        nodes = range(len(net.nodes))
        table = {}
        for src in nodes:
            for dst, d in bellman_ford(nodes, links, src).items():
                table[(src, dst)] = d
        _times_cache[net] = table
    return table


_perm_cache: dict[int, np.ndarray] = {}


def min_assignment_cost(matrix: np.ndarray) -> int:
    """Minimum total cost over all complete assignments of a square matrix."""
    n = matrix.shape[0]
    perms = _perm_cache.get(n)
    if perms is None:
        perms = np.array(list(itertools.permutations(range(n))))
        _perm_cache[n] = perms
    totals = matrix[np.arange(n), perms].sum(axis=1)
    return int(totals.min())


def best_matching_weight(edges) -> float:
    """Maximum total weight over every matching of an undirected graph.

    ``edges`` is a list of (u, v, weight); the empty matching counts, so
    the result is never below 0.
    """

    def solve(remaining, used):
        best = 0
        for idx, (u, v, w) in enumerate(remaining):
            if u in used or v in used:
                continue
            rest = remaining[idx + 1:]
            best = max(best, w + solve(rest, used | {u, v}))
        return best

    return solve(list(edges), frozenset())


def plan_arrivals(times, start_node, depart_t, tour, onboard_count,
                  capacity, windows):
    """Arrival times for a tour, or None when any constraint fails.

    ``windows`` maps request id to (q_r, l_r).  Checks pickup deadlines,
    dropoff deadlines, and running occupancy against capacity.
    """
    arrivals = []
    node, clock, load = start_node, depart_t, onboard_count
    for stop in tour:
        if (node, stop.node) not in times:
            return None
        clock += times[(node, stop.node)]
        q_r, l_r = windows[stop.request_id]
        if stop.kind == PICKUP:
            if clock > q_r:
                return None
            load += 1
            if load > capacity:
                return None
        else:
            if clock > l_r:
                return None
            load -= 1
        arrivals.append(clock)
        node = stop.node
    return arrivals


def precedence_valid(order, onboard_ids) -> bool:
    seen_pickup = set()
    for stop in order:
        if stop.kind == PICKUP:
            seen_pickup.add(stop.request_id)
        elif stop.request_id not in seen_pickup \
                and stop.request_id not in onboard_ids:
            return False
    return True


def all_orderings(stops, onboard_ids):
    """Every precedence-valid permutation of the stop multiset."""
    seen = set()
    for perm in itertools.permutations(range(len(stops))):
        order = tuple(stops[i] for i in perm)
        if order in seen:
            continue
        seen.add(order)
        if precedence_valid(order, onboard_ids):
            yield order


def all_pair_insertions(tour, pickup, dropoff):
    """Every tour formed by inserting pickup then a later dropoff."""
    out = []
    for i in range(len(tour) + 1):
        t1 = list(tour)
        t1.insert(i, pickup)
        for j in range(i + 1, len(t1) + 1):
            t2 = list(t1)
            t2.insert(j, dropoff)
            out.append(tuple(t2))
    return out


def all_block_merges(recipient_tour, part1, part2):
    """Every merge of two donor blocks into a recipient tour, in order."""
    out = []
    for i in range(len(recipient_tour) + 1):
        t1 = list(recipient_tour)
        t1[i:i] = list(part1)
        for j in range(i + len(part1), len(t1) + 1):
            t2 = list(t1)
            t2[j:j] = list(part2)
            out.append(tuple(t2))
    return out


def best_plan(times, t, start_node, depart_t, candidates, onboard_count,
              capacity, windows):
    """Cheapest feasible candidate tour and its cost, or (None, None)."""
    best_cost, best_tour = None, None
    for cand in candidates:
        arrivals = plan_arrivals(times, start_node, depart_t, cand,
                                 onboard_count, capacity, windows)
        if arrivals is None:
            continue
        cost = (arrivals[-1] - t) if arrivals else 0
        if best_cost is None or cost < best_cost:
            best_cost, best_tour = cost, tuple(cand)
    return best_cost, best_tour
