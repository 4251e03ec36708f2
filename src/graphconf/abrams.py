"""Independent baseline: the discretized configuration-space complex.

Cube cells are k-tuples of closed cells of a closed graph whose closures
are pairwise disjoint; the cube dimension is the number of edge factors.
This complex is homotopy-correct only when the graph is subdivided finely
enough, which check_abrams_conditions reports: distinct essential vertices
must sit at distance >= k+1 and every cycle must have length >= k+1
(a loop counts as length 1 and a parallel edge pair as length 2).  Those
two conditions are the sufficient ones used for every shipped test graph;
they are reported, not silently trusted.
"""

from dataclasses import dataclass
from itertools import permutations

from .errors import NonFreeAction, OpenEdge
from .graphs import Graph, essential_vertices
from .homology import ChainComplex


@dataclass
class AbramsComplex:
    graph: Graph
    k: int
    cells: list  # per dimension, list of k-tuples of ("v", id) / ("e", id)

    def fvector(self) -> tuple[int, ...]:
        out = [len(level) for level in self.cells]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def all_cells(self):
        for level in self.cells:
            yield from level


def _closure(g: Graph, cell) -> frozenset:
    if cell[0] == "v":
        return frozenset([("v", cell[1])])
    e = g.edge(cell[1])
    out = {("e", e.id)}
    for end in e.ends:
        out.add(("v", end))
    return frozenset(out)


def abrams_complex(g: Graph, k: int) -> AbramsComplex:
    """All k-tuples of cells with pairwise disjoint closures, by dimension."""
    if not g.is_closed():
        raise OpenEdge("the discretized model needs a closed graph")
    if k < 1:
        raise ValueError("k must be >= 1")
    symbols = sorted(
        [("v", v) for v in g.vertices] + [("e", e.id) for e in g.edges]
    )
    closures = {s: _closure(g, s) for s in symbols}
    levels: list[list] = [[] for _ in range(k + 1)]

    def extend(prefix, used):
        if len(prefix) == k:
            dim = sum(1 for c in prefix if c[0] == "e")
            levels[dim].append(tuple(prefix))
            return
        for s in symbols:
            cs = closures[s]
            if cs & used:
                continue
            prefix.append(s)
            extend(prefix, used | cs)
            prefix.pop()

    extend([], frozenset())
    for level in levels:
        level.sort()
    while levels and not levels[-1]:
        levels.pop()
    return AbramsComplex(g, k, levels)


@dataclass
class ConditionReport:
    ok: bool
    min_essential_distance: int | None  # None when fewer than two essential vertices
    girth: int | None  # None for forests

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "min_essential_distance": self.min_essential_distance,
            "girth": self.girth,
        }


def check_abrams_conditions(g: Graph, k: int) -> ConditionReport:
    if not g.is_closed():
        raise OpenEdge("condition check needs a closed graph")
    dist = _min_essential_distance(g)
    girth = _girth(g)
    ok = (dist is None or dist >= k + 1) and (girth is None or girth >= k + 1)
    return ConditionReport(ok, dist, girth)


def _adjacency(g: Graph) -> dict:
    adj: dict[str, list] = {v: [] for v in g.vertices}
    for e in g.edges:
        if e.end_minus != e.end_plus:
            adj[e.end_minus].append((e.id, e.end_plus))
            adj[e.end_plus].append((e.id, e.end_minus))
    return adj


def _min_essential_distance(g: Graph) -> int | None:
    ess = sorted(essential_vertices(g))
    if len(ess) < 2:
        return None
    adj = _adjacency(g)
    best = None
    for src in ess:
        dist = {src: 0}
        queue = [src]
        while queue:
            nxt = []
            for v in queue:
                for _, w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            queue = nxt
        for tgt in ess:
            if tgt != src and tgt in dist:
                if best is None or dist[tgt] < best:
                    best = dist[tgt]
    return best


def _girth(g: Graph) -> int | None:
    if any(e.end_minus == e.end_plus and e.end_minus is not None for e in g.edges):
        return 1
    pairs = {}
    for e in g.edges:
        key = tuple(sorted(e.ends))
        pairs[key] = pairs.get(key, 0) + 1
    if any(n >= 2 for n in pairs.values()):
        return 2
    adj = _adjacency(g)
    best = None
    # shortest cycle through each edge: remove it, BFS between its endpoints
    for e in g.edges:
        dist = {e.end_minus: 0}
        queue = [e.end_minus]
        while queue and e.end_plus not in dist:
            nxt = []
            for v in queue:
                for eid, w in adj[v]:
                    if eid == e.id:
                        continue
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            queue = nxt
        if e.end_plus in dist:
            cycle = dist[e.end_plus] + 1
            if best is None or cycle < best:
                best = cycle
    return best


def _boundary_entries(g: Graph, level_hi, face_row) -> dict:
    """Cubical boundary: replace each edge factor by its two endpoints with
    sign (-1)^(number of earlier edge factors).  ``face_row`` maps each face
    to its row and the orientation sign it enters that row with."""
    entries: dict[tuple[int, int], int] = {}
    for j, cube in enumerate(level_hi):
        edge_positions = [i for i, c in enumerate(cube) if c[0] == "e"]
        for p, pos in enumerate(edge_positions):
            e = g.edge(cube[pos][1])
            sign = (-1) ** p
            for end, s in ((e.end_plus, sign), (e.end_minus, -sign)):
                row, orient = face_row[cube[:pos] + (("v", end),) + cube[pos + 1:]]
                key = (row, j)
                entries[key] = entries.get(key, 0) + s * orient
    return {k: v for k, v in entries.items() if v}


def cubical_chain_complex(a: AbramsComplex) -> ChainComplex:
    sizes = [len(level) for level in a.cells]
    boundaries = []
    for n in range(1, len(sizes)):
        face_row = {cell: (i, 1) for i, cell in enumerate(a.cells[n - 1])}
        boundaries.append(_boundary_entries(a.graph, a.cells[n], face_row))
    return ChainComplex(sizes, boundaries)


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _orbit_rep(cube) -> tuple[tuple, int]:
    """Sorted representative and the orientation sign of the relocation,
    i.e. the parity of the induced permutation on edge factors."""
    order = sorted(range(len(cube)), key=lambda i: cube[i])
    rep = tuple(cube[i] for i in order)
    edge_old = [i for i in range(len(cube)) if cube[i][0] == "e"]
    rank_old = {i: p for p, i in enumerate(edge_old)}
    edge_new_order = [i for i in order if i in rank_old]
    perm = [rank_old[i] for i in edge_new_order]
    return rep, _perm_sign(perm)


def quotient(a: AbramsComplex) -> ChainComplex:
    """Chain complex of the orbit complex under coordinate permutations.

    The action is free because cube factors are pairwise distinct; faces
    map to their sorted representatives with the orientation sign of the
    edge-factor relocation.
    """
    for cube in a.all_cells():
        for sigma in permutations(range(a.k)):
            if sigma != tuple(range(a.k)) and tuple(cube[i] for i in sigma) == cube:
                raise NonFreeAction("repeated factors in a cube cell")
    orbits = [{cube: _orbit_rep(cube) for cube in level} for level in a.cells]
    reps = [sorted({rep for rep, _ in orbit.values()}) for orbit in orbits]
    boundaries = []
    for n in range(1, len(reps)):
        rep_row = {rep: i for i, rep in enumerate(reps[n - 1])}
        face_row = {cube: (rep_row[rep], orient) for cube, (rep, orient) in orbits[n - 1].items()}
        boundaries.append(_boundary_entries(a.graph, reps[n], face_row))
    return ChainComplex([len(level) for level in reps], boundaries)
