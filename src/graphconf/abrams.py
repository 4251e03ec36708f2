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

Homology, as ``compare`` reports it, is computed on the free-face collapse
(``free_face_collapse``).  That is exact over Z: a free face has one coface and
occurs in it once, so its row of the boundary holds a single +-1, a unit
pivot whose elimination creates no fill.  A loop factor's two ends give
one face that occurs twice in one cube, so it is never free.
"""

from dataclasses import dataclass
from itertools import permutations

from .errors import NonFreeAction, OpenEdge
from .graphs import Graph, essential_vertices
from .homology import ChainComplex, face_chain_complex
from .nerve import SemiSimplicialSet, collapse_free_faces, validate_faces


@dataclass
class AbramsComplex:
    graph: Graph
    k: int
    cells: list  # per dimension, list of k-tuples of ("v", id) / ("e", id)
    # faces[n][c]: the 2n faces of cube c of dimension n, indices into
    # dimension n-1, in the order the module docstring gives; faces[0] = []
    faces: list

    def fvector(self) -> tuple[int, ...]:
        out = [len(level) for level in self.cells]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * len(level) for n, level in enumerate(self.cells))

    def all_cells(self):
        for level in self.cells:
            yield from level

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


def _closure(g: Graph, cell) -> frozenset:
    if cell[0] == "v":
        return frozenset([("v", cell[1])])
    e = g.edge(cell[1])
    out = {("e", e.id)}
    for end in e.ends:
        out.add(("v", end))
    return frozenset(out)


def abrams_complex(g: Graph, k: int) -> AbramsComplex:
    """All k-tuples of cells with pairwise disjoint closures, by dimension,
    each dimension in lexicographic order, with every cube's faces by index.

    Tuples are extended depth-first through the sorted cell list, which
    yields each dimension in lexicographic order with no sort.  A tuple's
    code reads the positions of its cells in that list as base-b digits,
    b the number of cells, so the face that puts end x in place of the
    edge cell with digit d at position p has code code + (x - d) * b^(k-1-p).
    The enumeration carries these shifts, minus end then plus end for each
    edge factor, and one code index per dimension turns them into faces.
    """
    if not g.is_closed():
        raise OpenEdge("the discretized model needs a closed graph")
    if k < 1:
        raise ValueError("k must be >= 1")
    symbols = sorted(
        [("v", v) for v in g.vertices] + [("e", e.id) for e in g.edges]
    )
    digit = {s: d for d, s in enumerate(symbols)}
    closures = [_closure(g, s) for s in symbols]
    # ends[d]: digits of the minus and plus end of edge cell d; () for a vertex
    ends = [
        tuple(digit[("v", x)] for x in g.edge(s[1]).ends) if s[0] == "e" else ()
        for s in symbols
    ]
    base = len(symbols)
    # shifts[p][d]: the code shifts to the faces of digit d at position p
    shifts = [
        [tuple((x - d) * base ** (k - 1 - p) for x in xs) for d, xs in enumerate(ends)]
        for p in range(k)
    ]
    cells: list[list] = [[] for _ in range(k + 1)]
    found: list[list] = [[] for _ in range(k + 1)]  # per dimension: (code, face shifts)

    def extend(prefix, used, code, face_shifts):
        if len(prefix) == k:
            cells[len(face_shifts) // 2].append(tuple(prefix))
            found[len(face_shifts) // 2].append((code, face_shifts))
            return
        shift = shifts[len(prefix)]
        for d, cs in enumerate(closures):
            if cs & used:
                continue
            prefix.append(symbols[d])
            extend(prefix, used | cs, code * base + d, face_shifts + shift[d])
            prefix.pop()

    extend([], frozenset(), 0, ())
    while cells and not cells[-1]:
        cells.pop()
    faces = [[]] if cells else []
    for n in range(1, len(cells)):
        where = {code: i for i, (code, _) in enumerate(found[n - 1])}
        faces.append([tuple([where[code + s] for s in fs]) for code, fs in found[n]])
    return AbramsComplex(g, k, cells, faces)


def free_face_collapse(a: AbramsComplex) -> AbramsComplex:
    """The free-face collapse of ``a`` (``nerve.collapse_free_faces``): a
    subcomplex with the same homology over Z, as the module docstring
    argues."""
    small = collapse_free_faces(SemiSimplicialSet(a.cells, a.faces))
    return AbramsComplex(a.graph, a.k, small.labels, small.faces)


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

    The action is free because cube factors are pairwise distinct.  Each
    orbit is represented by its sorted member, whose faces are read by
    index; a face goes to the row of its orbit with the orientation sign of
    its edge-factor relocation.
    """
    for cube in a.all_cells():
        for sigma in permutations(range(a.k)):
            if sigma != tuple(range(a.k)) and tuple(cube[i] for i in sigma) == cube:
                raise NonFreeAction("repeated factors in a cube cell")
    sizes, boundaries = [], []
    for n, level in enumerate(a.cells):
        orbits = [_orbit_rep(cube) for cube in level]
        reps = sorted({rep for rep, _ in orbits})
        if n:
            position = {cube: i for i, cube in enumerate(level)}
            signs, mat = _cube_signs(n), {}
            for j, rep in enumerate(reps):
                for f, sign in zip(a.faces[n][position[rep]], signs):
                    key = (row[f], j)
                    mat[key] = mat.get(key, 0) + sign * orient[f]
            boundaries.append({key: v for key, v in mat.items() if v})
        # row[f], orient[f]: the orbit row of cube f and its sign there,
        # read as faces by the level above
        rep_row = {rep: i for i, rep in enumerate(reps)}
        row = [rep_row[rep] for rep, _ in orbits]
        orient = [sign for _, sign in orbits]
        sizes.append(len(reps))
    return ChainComplex(sizes, boundaries)
