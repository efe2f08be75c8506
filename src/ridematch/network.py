"""Road network representation and shortest-path routing.

The network is a directed graph of nodes and links carrying a length in
meters and a travel time in whole seconds.  Nodes are labelled by
integer ids, but the network and everything that routes on it number
them densely: position ``i`` is the ``i``-th smallest id, ``nodes[i]``,
and ``position`` maps an id back.  Links, routing rows and every node a
query takes or returns are positions.  Ids are translated once each way,
where they enter (the network, request and demand inputs) and where they
leave (the trip log and error messages).  Positions are ranks of sorted
ids, so every smallest-id tie-break is a smallest-position one.

Travel times are static for the lifetime of a network object.  Every
query ends at a target, so the routing state is distance rows into
targets, kept once computed: a list indexed by position holding the
travel time into the target as an ``int``, or None where the target
cannot be reached; positions with the same time share one ``int``.
A row is exact out to its reach.  A whole row's reach is ``inf``: it
holds every time.  A bounded row holds the times up to its radius and
None beyond: pricing tests each leg it reads against a deadline, and a
leg longer than the time left until that deadline fails the test just
as a missing one does (``travel_times_within``).  Paths are walked hop
by hop from their target's row and never stored.  Rows are computed in
batches by ``scipy.sparse.csgraph.dijkstra`` from their targets over a
CSR matrix of the reversed links, a bounded row with its ``limit``.  It
computes in float64, so the network rejects link times that sum to
2**53 or more: below that every path length is an exact integer.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra


class NetworkFormatError(ValueError):
    """A network document failed parsing or validation."""


class Link(NamedTuple):
    """A directed link; ``src`` and ``dst`` are node ids where a network
    is given its links and positions in ``RoadNetwork.links``."""

    src: int
    dst: int
    length_m: float
    travel_time_s: int


# the most nodes a network file or grid config may have, checked before the
# network is built: a node takes about 2.3 KB, and each routing row one
# list slot per node
MAX_NODES = 250_000
# the most distances (targets x positions) one scipy Dijkstra call
# computes, so that its float64 result takes at most 2 MB
DIJKSTRA_ENTRIES = 2**18


class RoadNetwork:
    """Directed road graph with time-shortest routing.

    Built from node ids and links between ids; ``nodes`` keeps the ids in
    position order, ``position`` maps an id to its position, and
    ``links`` and every query speak positions.  The links never change,
    but any query may compute a row and cache it, so a network serves
    one thread; a sweep runs its scenarios in processes.  The routing
    state is one cache, ``_rows``, of distance rows computed by scipy's
    compiled Dijkstra over ``_reverse``, the reversed links as a CSR
    matrix whose row ``i`` holds the in-links of position ``i``.  It
    maps each target queried or filled so far to its reach and its row:
    the row is exact out to the reach, and a whole row's reach is
    ``inf``.  A row is only ever replaced by one of larger reach.
    ``fill_rows`` and ``fill_within`` compute many rows in batches of at
    most ``DIJKSTRA_ENTRIES`` distances, a query the one whole row it
    misses.  The total link time is below 2**53, so the float64
    distances are exact integers.  A row takes 8 bytes per position for
    its list slot plus one ``int`` object per distinct travel time in
    it, which its positions share; a 40 x 40 grid row holds at most 79
    of them.  The next hop towards ``dst`` is the smallest-position
    neighbour ``n`` with ``link time + dist_to[dst][n] ==
    dist_to[dst][here]``, so identical queries always return identical
    paths.
    """

    def __init__(self, nodes: Iterable[int], links: Iterable[Link]):
        self.nodes: tuple[int, ...] = tuple(sorted(set(nodes)))
        self.position: dict[int, int] = {
            n: i for i, n in enumerate(self.nodes)}
        self._out: list[list[Link]] = [[] for _ in self.nodes]
        self._link_by_pair: dict[tuple[int, int], Link] = {}
        total_time = 0
        for link in links:
            src = self.position.get(link.src)
            dst = self.position.get(link.dst)
            if src is None or dst is None:
                raise NetworkFormatError(
                    f"link {link.src}->{link.dst} references an unknown node")
            if src == dst:
                raise NetworkFormatError(f"self-loop link at node {link.src}")
            if link.travel_time_s <= 0:
                raise NetworkFormatError(
                    f"link {link.src}->{link.dst} has non-positive travel time")
            if not (link.length_m > 0 and math.isfinite(link.length_m)):
                raise NetworkFormatError(
                    f"link {link.src}->{link.dst} has invalid length")
            if (src, dst) in self._link_by_pair:
                raise NetworkFormatError(
                    f"duplicate link {link.src}->{link.dst}")
            if (src, dst) != (link.src, link.dst):  # ids are not positions
                link = Link(src, dst, link.length_m, link.travel_time_s)
            self._link_by_pair[(src, dst)] = link
            self._out[src].append(link)
            total_time += link.travel_time_s
        if total_time >= 2**53:
            raise NetworkFormatError(
                "link travel times sum to 2**53 s or more: path lengths "
                "would not be exact")
        self.links: tuple[Link, ...] = tuple(self._link_by_pair.values())
        for out in self._out:
            out.sort(key=lambda l: l.dst)
        self._reverse = self._reverse_csr()
        # lazy distance rows, keyed by target position, each with its
        # reach: inf for a whole row, a radius for a bounded one
        self._rows: dict[int, tuple[float, list[int | None]]] = {}

    def _reverse_csr(self) -> csr_matrix:
        """The links as a CSR matrix whose row ``i`` holds the in-links of
        position ``i``: source positions and times."""
        n, links = len(self.nodes), self.links
        dst = np.fromiter((l.dst for l in links), np.int32, len(links))
        src = np.fromiter((l.src for l in links), np.int32, len(links))
        time = np.fromiter((l.travel_time_s for l in links), np.float64,
                           len(links))
        order = np.argsort(dst, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(dst, minlength=n), out=indptr[1:])
        return csr_matrix((time[order], src[order], indptr), shape=(n, n))

    def link(self, src: int, dst: int) -> Link:
        return self._link_by_pair[(src, dst)]

    def _require(self, node: int) -> None:
        if not 0 <= node < len(self.nodes):
            raise KeyError(f"no node at position {node}")

    def _dijkstra(self, targets: list[int],
                  radius: float = math.inf) -> list[list[int | None]]:
        """The rows into ``targets``, from one scipy call: whole rows, or
        bounded rows out to ``radius``.  No other code calls scipy's
        ``dijkstra``: ``bench/tracer.py`` times this.  Each kind has its
        own builder, more than twice as fast as the other one on it: a
        bounded row's finite entries are few, and ``_bounded_row``
        touches those alone."""
        dists = dijkstra(self._reverse, indices=targets, limit=radius)
        build = _row if radius == math.inf else _bounded_row
        return [build(dist) for dist in dists]

    def fill_rows(self, targets: Iterable[int]) -> None:
        """Compute the whole row into each of ``targets`` that is not
        cached yet, ``DIJKSTRA_ENTRIES`` distances per scipy call; a
        batch costs less than a call per row."""
        self.fill_within(dict.fromkeys(targets, math.inf))

    def fill_within(self, radii: Mapping[int, float]) -> None:
        """Give each target in ``radii`` a row exact out to at least its
        radius, whole where that is ``inf``: a cached row of that reach
        stays, the others are computed in batches as ``fill_rows`` does,
        in order of radius.  A batch reaches out to its largest radius,
        and each of its rows records that one."""
        rows = self._rows
        missing = sorted((t for t, radius in radii.items()
                          if t not in rows or rows[t][0] < radius),
                         key=radii.__getitem__)
        for target in missing:
            self._require(target)
        step = max(1, DIJKSTRA_ENTRIES // max(len(self.nodes), 1))
        for i in range(0, len(missing), step):
            chunk = missing[i:i + step]
            radius = radii[chunk[-1]]
            built = self._dijkstra(chunk, radius)
            rows.update((t, (radius, row)) for t, row in zip(chunk, built))

    def shortest_travel_time(self, src: int, dst: int) -> int | None:
        """Minimal travel time in seconds over any directed path.

        Returns None when ``dst`` is unreachable from ``src``; a node is
        always reachable from itself at cost 0.
        """
        self._require(src)
        return self.travel_times_to(dst)[src]

    def travel_times_to(self, dst: int) -> list[int | None]:
        """Travel times to ``dst`` from every position, None where there
        is no route; the list is the routing cache itself, so do not
        modify it."""
        return self.travel_times_within(dst, math.inf)

    def travel_times_within(self, dst: int,
                            radius: float) -> list[int | None]:
        """Travel times to ``dst`` from every position, exact wherever
        they are at most ``radius``; beyond it an entry may read None.
        This is the cached row if it reaches ``radius``, else the whole
        row, computed; do not modify it.  A leg read at a clock of ``t``
        or later and tested against a deadline ``q`` needs no entry
        beyond ``q - t``: a longer leg misses the deadline, and so does a
        missing one."""
        cached = self._rows.get(dst)
        if cached is None or cached[0] < radius:
            self.fill_within({dst: math.inf})
            cached = self._rows[dst]
        return cached[1]

    def reachable_from(self, src: int) -> set[int]:
        """Every position some directed path from ``src`` reaches, ``src``
        included; a walk over the out-links that keeps no state."""
        self._require(src)
        seen = {src}
        stack = [src]
        while stack:
            for link in self._out[stack.pop()]:
                if link.dst not in seen:
                    seen.add(link.dst)
                    stack.append(link.dst)
        return seen

    def next_link(self, src: int, dst: int) -> Link | None:
        """First link of a time-shortest path from ``src`` to ``dst``, to the
        smallest position among equal-cost choices; None when ``src ==
        dst`` or ``dst`` is unreachable.

        Reads the cached row into ``dst`` if it has an entry at ``src``:
        on a bounded row every neighbour on a shortest path is nearer
        still, so it has its entry too, and no other neighbour matches.
        Else it reads the whole row, computed if need be."""
        self._require(src)
        cached = self._rows.get(dst)
        if cached is None or cached[1][src] is None:
            dist_to = self.travel_times_to(dst)
        else:
            dist_to = cached[1]
        remain = dist_to[src]
        if remain is None or src == dst:
            return None
        for link in self._out[src]:  # sorted by dst: first hit wins
            if dist_to[link.dst] == remain - link.travel_time_s:
                return link
        raise RuntimeError("inconsistent distance tables")

    def shortest_path(self, src: int, dst: int) -> tuple[int, ...] | None:
        """Positions along a time-shortest path, or None if unreachable.

        The path follows ``next_link``: among equal-cost paths, the one
        whose next position is smallest at every step.
        """
        path = [src]
        link = self.next_link(src, dst)
        while link is not None:
            path.append(link.dst)
            link = self.next_link(link.dst, dst)
        return tuple(path) if path[-1] == dst else None


def _row(dist: np.ndarray) -> list[int | None]:
    """A float64 distance array as a routing row, None for inf: every
    position with the same time holds the same ``int`` object."""
    times = np.unique(dist)  # sorted, so an inf comes last
    values = (times.astype(np.int64).tolist() if times[-1] < np.inf
              else times[:-1].astype(np.int64).tolist() + [None])
    return np.array(values, dtype=object)[times.searchsorted(dist)].tolist()


def _bounded_row(dist: np.ndarray) -> list[int | None]:
    """A float64 distance array cut off at a radius as a routing row,
    None for inf, built from its finite entries alone: every position
    with the same time holds the same ``int`` object."""
    row: list[int | None] = [None] * len(dist)
    at = np.flatnonzero(dist < np.inf)
    shared: dict[int, int] = {}
    for i, time in zip(at.tolist(), dist[at].astype(np.int64).tolist()):
        row[i] = shared.setdefault(time, time)
    return row


REQUIRED = object()  # the default of a field a record must give


class Field(NamedTuple):
    """One field of an input record.

    ``kind`` is ``int``, ``float`` (any finite number, integers too),
    ``str``, ``list``, ``dict`` (an object), or a tuple of the strings the
    field may hold.  ``minimum`` bounds a number from below, and a list's
    length.  A field with a ``default`` of None is optional and its reader
    supplies the value.
    """

    kind: type | tuple[str, ...]
    minimum: int | None = None
    default: object = REQUIRED


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}
_FLOAT_MAX = sys.float_info.max


def check_fields(doc, table: dict[str, Field], what: str,
                 error_cls: type[Exception]):
    """Return ``doc`` if it is a JSON object that ``table`` describes.

    Every field it gives must be in the table, of the field's kind and at
    least its minimum (a bool is never a number), and every required field
    must be given.  Otherwise raise ``error_cls`` with a one-line message
    naming ``what``.
    """
    if type(doc) is not dict:
        raise error_cls(f"{what} must be a JSON object")
    missing = []
    for name, (kind, minimum, default) in table.items():
        if name not in doc:
            if default is REQUIRED:
                missing.append(name)
            continue
        value = doc[name]
        if type(kind) is tuple:
            ok = type(value) is str and value in kind
        elif kind is float:  # the comparison is exact for ints, false for nan
            ok = type(value) in (int, float) and abs(value) <= _FLOAT_MAX
        else:
            ok = type(value) is kind
        if ok and minimum is not None:
            ok = (len(value) if kind is list else value) >= minimum
        if not ok:
            if type(kind) is tuple:
                expected = f"one of {sorted(kind)}"
            else:
                expected = _KIND_NAMES[kind]
            if minimum is not None:
                expected += (f" of length >= {minimum}" if kind is list
                             else f" >= {minimum}")
            raise error_cls(f"{what} {name} must be {expected}, "
                            f"got {value!r}")
    if missing or not doc.keys() <= table.keys():
        problem = (f"missing {what} fields {missing}" if missing else
                   f"unknown {what} fields {sorted(doc.keys() - table.keys())}")
        fields = ", ".join(repr(name) + ("" if f.default is REQUIRED else "?")
                           for name, f in table.items())
        raise error_cls(f"{problem}, expected exactly {fields}")
    return doc


def check_records(records: list, table: dict[str, Field], what: str,
                  error_cls: type[Exception]) -> None:
    """``check_fields`` on each of ``records``, naming a bad one by its
    index; good records of a table of numbers are recognised in bulk, one
    pass over the list per field, which costs less than a call each."""
    if not _numbers_ok(records, table):
        for i, rec in enumerate(records):
            check_fields(rec, table, f"{what} {i}", error_cls)


def _numbers_ok(records: list, table: dict[str, Field]) -> bool:
    if not set(map(type, records)) <= {dict}:
        return False
    required = {name for name, f in table.items() if f.default is REQUIRED}
    if not all(required <= keys <= table.keys()
               for keys in set(map(frozenset, records))):
        return False
    for name, (kind, minimum, _) in table.items():
        column = [rec[name] for rec in records if name in rec]
        types = set(map(type, column))
        if kind is int:
            ok = types <= {int}
        elif kind is float:
            ok = types <= {int, float} and all(abs(v) <= _FLOAT_MAX
                                               for v in column)
        else:
            return False
        if not ok or (minimum is not None and column
                      and min(column) < minimum):
            return False
    return True


def read_json(path: str | Path, error_cls: type[Exception], what: str):
    """Parse the JSON file at ``path``.

    A file that cannot be read or decoded raises ``error_cls`` with a
    one-line message naming ``what`` and the path.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error_cls(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides a syntax error: an integer too long to convert, or
        # arrays and objects nested too deep
        raise error_cls(f"invalid JSON in {path}: {exc}") from exc


# the field tables of a network document, its node records and its links
NETWORK_TABLE = {"nodes": Field(list), "links": Field(list)}
NODE_TABLE = {"id": Field(int)}
LINK_TABLE = {"from": Field(int), "to": Field(int), "length_m": Field(float),
              "travel_time_s": Field(int)}


def load_network(source: str | Path | dict) -> RoadNetwork:
    """Build a validated RoadNetwork from a JSON document.

    ``source`` is a path to a JSON file (as a string or a Path) or an
    already parsed dict.  The document has the shape::

        {"nodes": [{"id": 0}, ...],
         "links": [{"from": 0, "to": 1, "length_m": 400.0,
                    "travel_time_s": 40}, ...]}

    Parsing is strict: unknown fields, duplicate nodes or links, dangling
    endpoints, and non-positive travel times are all rejected.
    """
    if isinstance(source, dict):
        doc = source
    else:
        doc = read_json(source, NetworkFormatError, "network file")
    check_fields(doc, NETWORK_TABLE, "top-level", NetworkFormatError)
    if len(doc["nodes"]) > MAX_NODES:
        raise NetworkFormatError(f"network has {len(doc['nodes'])} nodes, "
                                 f"more than the {MAX_NODES} a network "
                                 f"may have")
    check_records(doc["nodes"], NODE_TABLE, "node record", NetworkFormatError)
    check_records(doc["links"], LINK_TABLE, "link record", NetworkFormatError)
    nodes: set[int] = set()
    for rec in doc["nodes"]:
        if rec["id"] in nodes:
            raise NetworkFormatError(f"duplicate node id {rec['id']}")
        nodes.add(rec["id"])
    links = [Link(rec["from"], rec["to"], float(rec["length_m"]),
                  rec["travel_time_s"]) for rec in doc["links"]]
    return RoadNetwork(nodes, links)


def grid_network(rows: int, cols: int, link_length_m: float = 400.0,
                 link_travel_time_s: int = 40) -> RoadNetwork:
    """Rectangular lattice with bidirectional links between neighbours.

    Node ids are row-major (``r * cols + c``), so each id is its own
    position.  This is the bundled synthetic network used by tests,
    demos, and demand presets.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and column")
    nodes = list(range(rows * cols))
    links = []
    for r in range(rows):
        for c in range(cols):
            n = r * cols + c
            if c + 1 < cols:
                links.append(Link(n, n + 1, link_length_m, link_travel_time_s))
                links.append(Link(n + 1, n, link_length_m, link_travel_time_s))
            if r + 1 < rows:
                links.append(Link(n, n + cols, link_length_m, link_travel_time_s))
                links.append(Link(n + cols, n, link_length_m, link_travel_time_s))
    return RoadNetwork(nodes, links)
