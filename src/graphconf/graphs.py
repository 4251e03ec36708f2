"""Finite graphs with possibly open edge ends.

A graph here is a 1-dimensional complex in which each edge end is either
attached to a vertex or open (dangling).  Open ends are first class: they
are produced by deleting valency-1 vertices, and an edge may have zero,
one, or two attached ends.  The convention throughout is that ``end_minus``
is the end at characteristic parameter -1 and ``end_plus`` the end at +1.
"""

import json
from dataclasses import dataclass
from enum import Enum

from .errors import DuplicateId, InputError, OpenEdge, UnknownEdge, UnknownVertex
from .nerve import min_roots


class EdgeClass(Enum):
    LOOP = "loop"
    BRANCH = "branch"
    CONNECTION = "connection"


@dataclass(frozen=True)
class Edge:
    id: str
    end_minus: str | None
    end_plus: str | None

    @property
    def ends(self) -> tuple[str | None, str | None]:
        return (self.end_minus, self.end_plus)


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        # an attribute, not a field, so equality, hashing and repr ignore it;
        # reversed so that a repeated id finds its first edge
        object.__setattr__(self, "_edge_by_id", {e.id: e for e in reversed(self.edges)})

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_by_id[edge_id]
        except KeyError:
            raise UnknownEdge(f"no edge {edge_id!r}") from None

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    def is_closed(self) -> bool:
        """True when every edge end is attached to a vertex."""
        return all(e.end_minus is not None and e.end_plus is not None for e in self.edges)


# characters that cell labels "(v,e#0)" and chain labels "a>d>b", "a|b|c"
# are built with; an id holding one could give two cells one label
_LABEL_SYNTAX = "(),#>|"


def _require_plain_id(name: str) -> None:
    if any(ch in _LABEL_SYNTAX for ch in name):
        raise InputError(f"id {name!r} holds one of {_LABEL_SYNTAX!r}, which build labels")


def build_graph(vertex_ids, edge_specs) -> Graph:
    """Validate and build a graph from ids and (id, end_minus, end_plus) triples.

    Ends given as None are open.  Identifiers must be unique, must not hold
    a character that cell and chain labels are built with, and referenced
    vertices must exist; nothing else is normalized.
    """
    verts = list(vertex_ids)
    for v in verts:
        _require_plain_id(v)
    if len(set(verts)) != len(verts):
        raise DuplicateId("duplicate vertex id")
    edges = []
    seen = set()
    vset = set(verts)
    for spec in edge_specs:
        eid, lo, hi = spec
        _require_plain_id(eid)
        if eid in seen:
            raise DuplicateId(f"duplicate edge id {eid!r}")
        seen.add(eid)
        for end in (lo, hi):
            if end is not None and end not in vset:
                raise UnknownVertex(f"edge {eid!r} references missing vertex {end!r}")
        edges.append(Edge(eid, lo, hi))
    edges.sort(key=lambda e: e.id)
    return Graph(tuple(sorted(verts)), tuple(edges))


def classify_edge(g: Graph, edge_id: str) -> EdgeClass:
    """Loop, connection, or branch, per the closure of the edge's ends."""
    e = g.edge(edge_id)
    if e.end_minus is not None and e.end_minus == e.end_plus:
        return EdgeClass.LOOP
    if e.end_minus is not None and e.end_plus is not None:
        # Both ends attached to distinct vertices: a connection needs each
        # endpoint to meet at least one other edge.
        if all(_meets_other_edge(g, v, edge_id) for v in (e.end_minus, e.end_plus)):
            return EdgeClass.CONNECTION
    return EdgeClass.BRANCH


def _meets_other_edge(g: Graph, v: str, edge_id: str) -> bool:
    return any(f.id != edge_id and v in f.ends for f in g.edges)


def valency(g: Graph, v: str) -> int:
    """Number of attached edge ends at v, loops counting twice."""
    if v not in g.vertices:
        raise UnknownVertex(f"no vertex {v!r}")
    total = 0
    for e in g.edges:
        total += (e.end_minus == v) + (e.end_plus == v)
    return total


def loops_at(g: Graph, v: str) -> int:
    return sum(1 for e in g.edges if e.end_minus == v and e.end_plus == v)


def remove_leaves(g: Graph) -> Graph:
    """Delete every valency-1 vertex, opening the edge ends attached there.

    A single pass suffices: opening an end never changes the valency at the
    other end.  An edge that keeps exactly one attached end is re-oriented so
    the surviving attachment sits at end_minus.
    """
    leaves = {v for v in g.vertices if valency(g, v) == 1}
    new_edges = []
    for e in g.edges:
        lo = None if e.end_minus in leaves else e.end_minus
        hi = None if e.end_plus in leaves else e.end_plus
        if lo is None and hi is not None:
            lo, hi = hi, None
        new_edges.append(Edge(e.id, lo, hi))
    keep = tuple(v for v in g.vertices if v not in leaves)
    return Graph(keep, tuple(new_edges))


def subdivide(g: Graph, n: int) -> Graph:
    """Replace each edge by a path of n edges through n-1 fresh vertices.

    Edge e's new vertices and edges take ids e.1, e.2, ..., a vertex's
    primed ("e.1'") while g has it.  Requires a closed graph; n = 1
    returns g unchanged.
    """
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    if n == 1:
        return g
    if not g.is_closed():
        raise OpenEdge("cannot subdivide a graph with open edge ends")
    verts = list(g.vertices)
    taken = set(verts)  # no new id ends in a prime, so only g's can collide
    edges = []
    for e in g.edges:
        stops = [e.end_minus]
        for i in range(1, n):
            w = f"{e.id}.{i}"
            while w in taken:
                w += "'"
            verts.append(w)
            stops.append(w)
        stops.append(e.end_plus)
        for j in range(n):
            edges.append((f"{e.id}.{j + 1}", stops[j], stops[j + 1]))
    return build_graph(verts, edges)


def essential_vertices(g: Graph) -> set[str]:
    """Vertices that are neither leaves nor plain through-vertices.

    A through-vertex has valency 2 and no loop, so it meets exactly two
    distinct non-loop edges; everything else of valency != 1 is essential.
    """
    return {
        v for v in g.vertices
        if (val := valency(g, v)) != 1 and not (val == 2 and loops_at(g, v) == 0)
    }


def component_count(g: Graph) -> int:
    """Connected components of the underlying space (open edges included)."""
    vertex = {v: i for i, v in enumerate(g.vertices)}
    first_edge = len(vertex)
    pairs = [
        (first_edge + j, vertex[end]) for j, e in enumerate(g.edges) for end in e.ends if end is not None
    ]
    return len(set(min_roots(first_edge + len(g.edges), pairs)))


def is_connected(g: Graph) -> bool:
    if not g.vertices and not g.edges:
        return False
    return component_count(g) == 1


def graph_betti(g: Graph) -> tuple[int, int]:
    """(b0, b1) of the underlying space for a closed graph."""
    if not g.is_closed():
        raise OpenEdge("betti numbers via counts need a closed graph")
    c = component_count(g)
    return c, len(g.edges) - len(g.vertices) + c


# -- JSON interchange --------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "ends": [e.end_minus, e.end_plus]} for e in g.edges],
    }


def graph_from_json(data) -> Graph:
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    try:
        verts = data["vertices"]
        specs = [(e["id"], e["ends"]) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    if not isinstance(verts, list):
        raise ValueError("graph JSON \"vertices\" must be a list")
    for v in verts:
        if not isinstance(v, str):
            raise ValueError(f"vertex id {v!r} is not a string")
    for eid, ends in specs:
        if not isinstance(eid, str):
            raise ValueError(f"edge id {eid!r} is not a string")
        if not isinstance(ends, list) or len(ends) != 2:
            raise ValueError(f"edge {eid!r} must have a list of exactly two ends, not {ends!r}")
        for end in ends:
            if end is not None and not isinstance(end, str):
                raise ValueError(f"edge {eid!r} has an end {end!r} that is neither a string nor null")
    return build_graph(verts, [(eid, lo, hi) for eid, (lo, hi) in specs])


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))


# -- shipped graph families --------------------------------------------------

def minimal_circle() -> Graph:
    return build_graph(["v"], [("a", "v", "v")])


def cycle_graph(n: int) -> Graph:
    return subdivide(minimal_circle(), n)


def y_graph() -> Graph:
    return build_graph(
        ["c", "x", "y", "z"],
        [("e1", "c", "x"), ("e2", "c", "y"), ("e3", "c", "z")],
    )


def path_graph(n: int) -> Graph:
    verts = [f"p{i}" for i in range(n + 1)]
    return build_graph(verts, [(f"e{i}", verts[i], verts[i + 1]) for i in range(n)])


def theta_graph() -> Graph:
    return build_graph(["u", "w"], [("t1", "u", "w"), ("t2", "u", "w"), ("t3", "u", "w")])


def hub_graph(branches: int, loops: int) -> Graph:
    """One hub with the given number of pendant branches and loops (closed form).

    Apply remove_leaves to get the open-branch form the models use.
    """
    verts = ["c"] + [f"t{i}" for i in range(1, branches + 1)]
    specs = [(f"b{i}", "c", f"t{i}") for i in range(1, branches + 1)]
    specs += [(f"a{i}", "c", "c") for i in range(1, loops + 1)]
    return build_graph(verts, specs)


def double_hub_graph(x: int, k: int, l: int, p: int, q: int) -> Graph:
    """Two hubs joined by x parallel edges, with (k, l) and (p, q) pendant
    branches and loops respectively.  Branches are emitted open (no leaf
    vertices), matching the leaf-removed form of the one-hub family.
    """
    verts = ["c1", "c2"]
    specs = [(f"m{i}", "c1", "c2") for i in range(1, x + 1)]
    specs += [(f"b{i}", "c1", None) for i in range(1, k + 1)]
    specs += [(f"a{i}", "c1", "c1") for i in range(1, l + 1)]
    specs += [(f"d{i}", "c2", None) for i in range(1, p + 1)]
    specs += [(f"g{i}", "c2", "c2") for i in range(1, q + 1)]
    return build_graph(verts, specs)
