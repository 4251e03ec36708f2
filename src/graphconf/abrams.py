"""Independent baseline: the discretized configuration-space complex.

Cube cells are k-tuples of closed cells of a closed graph whose closures
are pairwise disjoint; the cube dimension is the number of edge factors.
This complex is homotopy-correct only when the graph is subdivided finely
enough, which check_abrams_conditions reports: distinct essential vertices
must sit at distance >= k+1 and every cycle must have length >= k+1
(a loop counts as length 1 and a parallel edge pair as length 2).  Those
two conditions are the sufficient ones used for every shipped test graph;
they are reported, not silently trusted.

Faces are stored by index, as the nerve's are.  An n-cube lists its 2n
faces as (d_1^-, d_1^+, ..., d_n^-, d_n^+): d_p^- and d_p^+ put the minus
and the plus end of its p-th edge factor, in tuple order, in that
factor's place.  They satisfy the cubical identities
d_i^e d_j^f = d_{j-1}^f d_i^e for i < j, which
``AbramsComplex.validate_face_identities`` checks.  The boundary is
d = sum_p (-1)^(p-1) (d_p^+ - d_p^-), each end pair signed by the number of
edge factors before it, and the identities imply d^2 = 0 for it.

S_k acts freely on the cubes by permuting coordinates, as the factors of a
cube are pairwise distinct, and the quotient is Abrams' UD_k X (Abrams,
"Configuration spaces and braid groups of graphs", PhD thesis, UC
Berkeley 2000).  The orbit complex (``abrams_complex(g, k, quotient=True)``)
holds one cube c per orbit, the one whose factors ascend.  Edge cells sort
before vertex cells, so c's n edge factors sit at coordinates 0..n-1, in
slot order, and the other members of the orbit are never made.  Putting
end x in place of edge j gives a tuple that a relocation rho sorts into
the orbit face f: rho keeps the other edges in order, puts x after the q
vertex factors of c below x, and keeps the vertex factors in order, so it
depends only on (n, j, q).  Each face slot records the rank of rho^-1 in
``relocations``.

The ordered complex is the k!-sheeted cover of the orbit complex
(``lift``): the twisted cover of ``nerve.lift_faces`` with the twist
rho^-1 at every slot.  The cube sigma . c, whose coordinate sigma(i) holds
c's factor i, has at c's slot (j, e) the face (sigma o rho^-1) . f, and
lists its faces in its own tuple order, which takes c's edges j by
ascending sigma(j).  ``abrams_complex(g, k)`` is that cover with each level
in lexicographic order.  Homology, as ``compare`` reports it, is computed
on the lift of the orbit complex's free-face collapse, a collapse of the
ordered complex (``nerve.lift_faces``), which is exact over Z.  A loop
factor's two ends give one face that occurs twice in one cube, so it is
never free, in the orbit complex or in its cover.
"""

from dataclasses import dataclass, field
from operator import itemgetter

from .errors import InternalError, OpenEdge
from .graphs import Graph, essential_vertices
from .homology import ChainComplex, face_chain_complex
from .nerve import (
    Permutations,
    SemiSimplicialSet,
    collapse_free_faces,
    lift_faces,
    validate_faces,
    validate_twists,
)


@dataclass
class AbramsComplex:
    graph: Graph
    k: int
    cells: list  # per dimension, list of k-tuples of ("v", id) / ("e", id)
    # faces[n][c]: the 2n faces of cube c of dimension n, indices into
    # dimension n-1, in the order the module docstring gives; faces[0] = []
    faces: list
    # of the orbit complex: relocations[n][c], per face slot of cube c, the
    # rank of rho^-1 among the permutations of range(k) in lexicographic
    # order (the module docstring); relocations[0] = [].  Empty otherwise.
    relocations: list = field(default_factory=list)

    def fvector(self) -> tuple[int, ...]:
        out = [len(level) for level in self.cells]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * len(level) for n, level in enumerate(self.cells))

    def validate_face_identities(self) -> None:
        """Check that every n-cube (n >= 1) has 2n faces, each an index into
        dimension n-1, and that d_i^e d_j^f = d_{j-1}^f d_i^e for i < j.

        Any failure raises ``InternalError``.  The identities imply d^2 = 0
        for ``cubical_chain_complex``'s signs: in d d c the terms
        d_i^e d_j^f c and d_{j-1}^f d_i^e c (i < j) have signs
        (-1)^(i+j) s(e) s(f) and (-1)^(i+j-1) s(f) s(e), with s(-) = -1 and
        s(+) = 1, and cancel.
        """
        validate_faces(self.cells, self.faces, lambda n: 2 * n, _cube_identities)


def _cube_identities(n: int) -> list:
    """d_i^e d_j^f = d_{j-1}^f d_i^e (i < j) on n-cubes, as ``validate_faces``
    reads them: slot 2p + e holds d_{p+1}^e, e = 0 for minus, 1 for plus."""
    return [
        (2 * j + f, 2 * i + e, 2 * i + e, 2 * j - 2 + f)
        for j in range(1, n)
        for i in range(j)
        for e in (0, 1)
        for f in (0, 1)
    ]


def _cube_signs(n: int) -> list:
    """Sign of each face slot of an n-cube: -(-1)^p for d_{p+1}^-, (-1)^p for d_{p+1}^+."""
    return [(-1) ** (i // 2) * (1 if i % 2 else -1) for i in range(2 * n)]


def _extend(k, ends, compatible, found, bits, prefix, allowed, mask, n) -> None:
    """Append to ``found[n]`` and ``bits[n]`` every orbit cube, and its
    digit mask, that extends ``prefix`` (mask ``mask``, n edge digits) by
    digits of ``allowed``: those above prefix's last whose closures miss
    all of prefix's (``abrams_complex``)."""
    if len(prefix) == k:
        found[n].append(prefix)
        bits[n].append(mask)
        return
    while allowed:
        low = allowed & -allowed
        allowed ^= low
        d = low.bit_length() - 1
        _extend(
            k, ends, compatible, found, bits,
            prefix + (d,), allowed & compatible[d], mask | low, n + bool(ends[d]),
        )


def abrams_complex(g: Graph, k: int, quotient: bool = False) -> AbramsComplex:
    """All k-tuples of cells with pairwise disjoint closures, by dimension,
    each dimension in lexicographic order, with every cube's faces by index;
    with ``quotient``, the orbit complex: one ascending tuple per orbit, with
    its relocations (the module docstring).

    A cell's digit is its position in the sorted cell list.  The orbit
    cubes are the strictly increasing digit tuples, found depth-first by
    extending each prefix with every larger digit whose closure meets none
    of the prefix's, which yields each dimension in lexicographic order with
    no sort.  The ordered complex is their cover (``lift``), sorted.
    """
    if not g.is_closed():
        raise OpenEdge("the discretized model needs a closed graph")
    if k < 1:
        raise ValueError("k must be >= 1")
    symbols = sorted(
        [("v", v) for v in g.vertices] + [("e", e.id) for e in g.edges]
    )
    digit = {s: d for d, s in enumerate(symbols)}
    # ends[d]: the digits of the minus and plus end of edge cell d, () for a
    # vertex; a cell's closure, as a bit mask, is it and its ends; and
    # compatible[d]: the digits whose closures miss d's
    ends = [
        tuple(digit[("v", x)] for x in g.edge(s[1]).ends) if s[0] == "e" else ()
        for s in symbols
    ]
    closures = [1 << d | sum(1 << x for x in set(xs)) for d, xs in enumerate(ends)]
    compatible = [
        sum(1 << x for x, other in enumerate(closures) if not other & mine) for mine in closures
    ]
    # per dimension: the digit tuples, and their digit sets as bit masks
    found: list[list] = [[] for _ in range(k + 1)]
    bits: list[list] = [[] for _ in range(k + 1)]
    _extend(k, ends, compatible, found, bits, (), (1 << len(symbols)) - 1, 0, 0)
    while found and not found[-1]:
        found.pop()
    faces, relocations = [[] for _ in found[:1]], [[] for _ in found[:1]]
    rank = Permutations(k).rank if len(found) > 1 else None
    for n in range(1, len(found)):
        where = {mask: i for i, mask in enumerate(bits[n - 1])}
        # the rank of rho^-1 for the face of an n-cube that puts an end after q
        # vertex factors in place of edge j: rho^-1 takes the face's position
        # n-1+q to j, the positions from j up to it one up, and keeps the rest
        table = [
            [
                rank[tuple(range(j)) + tuple(range(j + 1, n + q)) + (j,) + tuple(range(n + q, k))]
                for q in range(k - n + 1)
            ]
            for j in range(n)
        ]
        level_faces, level_relocations = [], []
        for cube, mask in zip(found[n], bits[n]):
            level_faces.append(
                tuple([where[mask - (1 << d) + (1 << x)] for d in cube[:n] for x in ends[d]])
            )
            # q: the vertex factors below x, the digits below it past the n edges
            level_relocations.append(
                tuple([
                    table[j][(mask & ((1 << x) - 1)).bit_count() - n]
                    for j, d in enumerate(cube[:n])
                    for x in ends[d]
                ])
            )
        faces.append(level_faces)
        relocations.append(level_relocations)
    cells = [[tuple(map(symbols.__getitem__, cube)) for cube in level] for level in found]
    orbit = AbramsComplex(g, k, cells, faces, relocations)
    if quotient:
        return orbit
    a = lift(orbit)
    keep = [sorted(range(len(level)), key=level.__getitem__) for level in a.cells]
    s = SemiSimplicialSet(a.cells, a.faces).restrict(keep)
    return AbramsComplex(g, k, s.labels, s.faces)


def lift(q: AbramsComplex) -> AbramsComplex:
    """The k!-sheeted cover of the orbit complex ``q`` (``nerve.lift_faces``),
    each cube with its faces in its own tuple order (the module docstring)."""
    if not q.cells:
        return AbramsComplex(q.graph, q.k, [], [])
    group = Permutations(q.k)
    # perms[i] . c holds c's factor inverse[i][x] at coordinate x
    inverse = group.inverse
    cells = [[tuple(map(cube.__getitem__, p)) for cube in lv for p in inverse] for lv in q.cells]
    # order[n][i] picks c's face slots in the tuple order of perms[i] . c
    order = [[]] + [
        [itemgetter(*[2 * j + e for j in sorted(range(n), key=p.__getitem__) for e in (0, 1)])
         for p in group.perms]
        for n in range(1, len(q.cells))
    ]
    return AbramsComplex(q.graph, q.k, cells, lift_faces(q.faces, _twists(q), group, order))


def _twists(q: AbramsComplex) -> list:
    """``q``'s relocations by level and slot, as ``nerve.lift_faces`` reads twists."""
    return [[list(slot) for slot in zip(*level)] for level in q.relocations]


def validate_cover(q: AbramsComplex) -> None:
    """Check that ``lift(q)`` satisfies the cubical identities, with no cube
    of it made: ``nerve.validate_twists`` with the twists pi_{c,s}, the
    relocation rho^-1 of face slot s of cube c, and, after the range check,
    the edge property: pi_{c,(j,e)} takes the face's edge coordinates
    p < n - 1 to p below j and to p + 1 from j up, as every rho^-1 does.

    Given it, the lift's identities, in each cube's tuple order, hold
    exactly when the orbit identities and the cocycles do.  Take a lifted
    cube (c, sigma) and two of its edge positions a < b, which hold c's
    edges J' and J with sigma(J') < sigma(J).  Its face at b, end f, is
    (g, sigma o pi), g = c_(J,f) and pi = pi_{c,(J,f)}, which takes g's
    edges in the order of sigma o pi; pi keeps the order of the edges other
    than J, so its position a is the edge i of g that J' becomes (J' if
    J' < J, J' - 1 if J' > J).  Likewise position b - 1 of the face at a,
    end e, (g', sigma o pi'), is the edge i' of g' that J becomes.  So
    D_a^e D_b^f (c, sigma) = (g_(i,e), sigma o pi o pi_{g,(i,e)}) and
    D_{b-1}^f D_a^e (c, sigma) = (g'_(i',f), sigma o pi' o pi_{g',(i',f)}),
    equal exactly when c's identity for the edges J' and J and its cocycle
    hold.  As sigma runs over S_k, (J', J) runs over every ordered pair of
    c's edges, and both orders of a pair give its one identity.
    """
    if len(q.relocations) != len(q.cells):
        raise InternalError("relocation levels do not match cube levels")
    for n, level in enumerate(q.relocations[1:], 1):
        if len(level) != len(q.cells[n]) or any(len(rs) != 2 * n for rs in level):
            raise InternalError(f"a cube at dim {n} does not have {2 * n} relocations")
    group = Permutations(q.k) if len(q.cells) > 1 else []

    def keeps_edges(n: int, twists: list) -> None:
        for s, ranks in enumerate(twists):
            keep = tuple(range(s // 2)) + tuple(range(s // 2 + 1, n))
            if any(group.perms[r][: n - 1] != keep for r in set(ranks)):
                raise InternalError(f"a relocation at dim {n} moves the edges (face {s})")

    validate_twists(
        q.cells, q.faces, lambda n: 2 * n, _cube_identities, _twists(q), group, keeps_edges,
        "relocation cocycle fails at dim {n} cube {idx}",
    )


def free_face_collapse(a: AbramsComplex) -> AbramsComplex:
    """The free-face collapse of ``a`` (``nerve.collapse_free_faces``), with
    the relocations of the cubes it keeps: a subcomplex with the same
    homology over Z, as the module docstring argues."""
    small = collapse_free_faces(
        SemiSimplicialSet([range(len(level)) for level in a.cells], a.faces)
    )
    cells, relocations = [], [[]] if a.relocations and small.labels else []
    for n, kept in enumerate(small.labels):
        cells.append(list(map(a.cells[n].__getitem__, kept)))
        if n and a.relocations:
            relocations.append(list(map(a.relocations[n].__getitem__, kept)))
    return AbramsComplex(a.graph, a.k, cells, small.faces, relocations)


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


def cubical_chain_complex(a: AbramsComplex) -> ChainComplex:
    """Cellular chain complex, d = sum_p (-1)^(p-1) (d_p^+ - d_p^-)."""
    return face_chain_complex(a.cells, a.faces, _cube_signs)
