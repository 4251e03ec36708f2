"""Simplified two-point model via the replacement table.

For two points, the full model glues the barycentric subdivision of every
configuration cell's domain.  Each replacement in the simplification table
is a subcomplex of that subdivision, and the values at vertex and
vertex-edge cells are untouched, so the whole simplified model is obtained
by filtering the chains of the full nerve: a chain survives according to
the rule attached to its top cell.

Rules per ordered 2-cell, stated orientation-free (bc = barycenter chain,
i.e. a length-1 chain whose datum has exactly one end entry; corner =
length-1 chain with two end entries; center = the length-0 chain at the
cell; triangles are the length-2 chains):

    same edge   loop        keep everything
                connection  keep nothing at top (corner point survives below)
                branch      keep nothing at top when the edge has an
                            attached end, else keep everything (a fully
                            open edge has nothing below to retract to)
    loop/loop   always keep everything
    loop/branch sharing a vertex: keep everything; disjoint: keep nothing
    branch/branch  same as loop/branch
    loop/conn   sharing: keep center and the two bc chains whose end entry
                sits on the connection coordinate; disjoint: keep everything
    branch/conn sharing: keep center, every corner chain, and the bc chain
                whose end entry sits on the connection coordinate at the
                shared vertex; disjoint: keep nothing at top
    conn/conn   sharing one vertex: keep nothing at top; sharing two:
                keep center and the corner chains; disjoint: keep everything
"""

from dataclasses import dataclass

from . import cells as cl
from .errors import Disconnected, EmptyComplex, HasLeaves, InternalError
from .graphs import EdgeClass, Graph, classify_edge, is_connected, valency
from .homology import ChainComplex
from .model import Model, build_model, symmetric_action
from .nerve import SemiSimplicialSet
from .pi1 import skeleton


@dataclass(frozen=True)
class TwoCellType:
    tag: str  # LL_same, LL_distinct, BL, CL, BB_same, BB_distinct, BC, CC_same, CC_distinct
    shared_vertices: int


def _edge_classes(g: Graph) -> dict:
    """Edge id -> its ``classify_edge`` class; each call scans every edge."""
    return {e.id: classify_edge(g, e.id) for e in g.edges}


def _attached(g: Graph, eid: str) -> frozenset:
    return frozenset(v for v in g.edge(eid).ends if v is not None)


def classify_2cells(g: Graph) -> list:
    """Tag every ordered pair of edges (equal pairs included)."""
    _require_leaf_free(g)
    classes = _edge_classes(g)
    short = {EdgeClass.LOOP: "L", EdgeClass.BRANCH: "B", EdgeClass.CONNECTION: "C"}
    out = []
    for a in g.edge_ids():
        for b in g.edge_ids():
            shared = len(_attached(g, a) & _attached(g, b))
            if a == b:
                tag = short[classes[a]] * 2 + "_same"
            else:
                pair = "".join(sorted((short[classes[a]], short[classes[b]])))
                tag = pair + "_distinct" if pair in ("LL", "BB", "CC") else pair
            out.append(((a, b), TwoCellType(tag, shared)))
    return out


def _require_leaf_free(g: Graph) -> None:
    for v in g.vertices:
        if valency(g, v) == 1:
            raise HasLeaves(f"vertex {v!r} has valency 1; remove leaves first")


@dataclass
class GluedComplex:
    """Cells with stable ids; 2-cells carry cyclic boundary words."""

    vertices: list  # ids
    edges: list  # (id, src_vertex, dst_vertex)
    faces2: list  # (id, word) with word = [(edge_id, +-1), ...] a closed walk
    complex: SemiSimplicialSet  # the same cells as a filtered nerve
    model: Model
    kept: list  # per dimension, original chain indices that survived

    def fvector(self) -> tuple[int, int, int]:
        return (len(self.vertices), len(self.edges), len(self.faces2))

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.faces2)


def _keep_chain(g: Graph, cell: cl.BraidCell, length: int, data, classes: dict) -> bool:
    """Retention rule for a chain of ``length`` morphisms whose top object
    is ``cell`` and whose last datum is ``data`` (None at length 0).  A
    chain below a 2-cell always stays.  ``classes`` is ``_edge_classes(g)``,
    made once for all chains of the graph."""
    if cell.dimension < 2:
        return True
    e0, e1 = cell.entries[0][1], cell.entries[1][1]
    if e0 == e1:
        kind = classes[e0]
        if kind == EdgeClass.LOOP:
            return True
        if kind == EdgeClass.BRANCH:
            return not _attached(g, e0)
        return False  # connection diagonal halves collapse to corner points

    k0, k1 = classes[e0], classes[e1]
    shared = _attached(g, e0) & _attached(g, e1)
    kinds = {k0, k1}

    if kinds == {EdgeClass.LOOP}:
        return True
    if kinds <= {EdgeClass.LOOP, EdgeClass.BRANCH}:
        return bool(shared)
    if kinds == {EdgeClass.LOOP, EdgeClass.CONNECTION}:
        if not shared:
            return True
        if length == 0:
            return True
        if length == 1:
            conn = 0 if k0 == EdgeClass.CONNECTION else 1
            ends = [i for i, d in enumerate(data) if d != cl.INTERIOR]
            return ends == [conn]
        return False
    if kinds == {EdgeClass.BRANCH, EdgeClass.CONNECTION}:
        if not shared:
            return False
        if length == 0:
            return True
        if length == 1:
            ends = [i for i, d in enumerate(data) if d != cl.INTERIOR]
            if len(ends) == 2:
                return True  # the existing corner
            conn = 0 if k0 == EdgeClass.CONNECTION else 1
            if ends != [conn]:
                return False
            edge = g.edge(cell.entries[conn][1])
            hit = edge.end_minus if data[conn] == cl.END_MINUS else edge.end_plus
            return hit in shared
        return False
    # two distinct connections
    if len(shared) == 0:
        return True
    if len(shared) == 1:
        return False
    if length == 0:
        return True
    if length == 1:
        return sum(1 for d in data if d != cl.INTERIOR) == 2
    return False


def build_reduced(g: Graph) -> GluedComplex:
    """The simplified two-point model of a connected leaf-free graph."""
    _require_leaf_free(g)
    if not is_connected(g):
        raise Disconnected("the simplified model needs a connected graph")
    model = build_model(g, 2)
    s = model.complex
    if s.size(0) == 0:
        raise EmptyComplex("no two-point configuration fits the graph")
    arrows = model.category.morphisms
    classes = _edge_classes(g)
    keep = [[i for i, cell in enumerate(model.cells) if _keep_chain(g, cell, 0, None, classes)]]
    last = range(s.size(1))  # last[i]: the last arrow of chain i, which d_0 keeps
    for n in range(1, s.dimensions):
        if n > 1:
            last = [last[fs[0]] for fs in s.faces[n]]
        tops = ((model.cells[arrows[m][1]], arrows[m][2]) for m in last)  # (top cell, last datum)
        keep.append(
            [i for i, (top, data) in enumerate(tops) if _keep_chain(g, top, n, data, classes)]
        )
    sub = s.restrict(keep)
    kept = keep[: sub.dimensions]

    sk = skeleton(sub)
    vertices = sub.labels[0]
    edges = [(label, vertices[src], vertices[dst]) for label, src, dst in sk.edges]
    faces2 = [
        (label, [(sk.edges[e][0], sign) for e, sign in word])
        for label, word in zip(sub.labels[2] if sub.dimensions > 2 else [], sk.words)
    ]
    return GluedComplex(vertices, edges, faces2, sub, model, kept)


def reduced_symmetric_action(gc: GluedComplex) -> list:
    """Swap action restricted to the surviving chains."""
    full = symmetric_action(gc.model)
    out = []
    for maps in full:
        restricted = []
        for n, level in enumerate(gc.kept):
            pos = {old: new for new, old in enumerate(level)}
            row = []
            for old in level:
                image = maps[n][old]
                if image not in pos:
                    raise InternalError("retained set is not action-invariant")
                row.append(pos[image])
            restricted.append(row)
        out.append(restricted)
    return out


def glued_chain_complex(c: GluedComplex) -> ChainComplex:
    """Chain complex with 2-cell boundaries read off the boundary words."""
    vpos = {v: i for i, v in enumerate(c.vertices)}
    epos = {e[0]: i for i, e in enumerate(c.edges)}
    d1: dict[tuple[int, int], int] = {}
    for j, (eid, src, dst) in enumerate(c.edges):
        for v, s in ((dst, 1), (src, -1)):
            key = (vpos[v], j)
            d1[key] = d1.get(key, 0) + s
    ends = {eid: (src, dst) for eid, src, dst in c.edges}
    d2: dict[tuple[int, int], int] = {}
    for j, (_, word) in enumerate(c.faces2):
        _require_closed_walk(ends, word)
        for eid, sign in word:
            key = (epos[eid], j)
            d2[key] = d2.get(key, 0) + sign
    sizes = [len(c.vertices)]
    boundaries = []
    if c.edges or c.faces2:
        sizes.append(len(c.edges))
        boundaries.append({k: v for k, v in d1.items() if v})
    if c.faces2:
        sizes.append(len(c.faces2))
        boundaries.append({k: v for k, v in d2.items() if v})
    return ChainComplex(sizes, boundaries)


def _require_closed_walk(ends: dict, word) -> None:
    """``ends``: edge id -> (source, target).  The words are the program's,
    not input, so an empty or open one is an ``InternalError``."""
    if not word:
        raise InternalError("empty boundary word")
    walk = [ends[eid] if sign == 1 else ends[eid][::-1] for eid, sign in word]
    for (_, stop), (start, _) in zip(walk, walk[1:] + walk[:1]):
        if stop != start:
            raise InternalError("boundary word is not a closed walk")
