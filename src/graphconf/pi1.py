"""Fundamental group presentations from the 2-skeleton of a complex.

The edge-path group: pick a spanning tree, one generator per non-tree
1-cell, one relator per 2-cell.  For a nerve 2-chain with faces d0, d1, d2
the boundary reads d2 then d0 against the composite d1, giving the relator
g(d2) g(d0) g(d1)^-1; a glued 2-cell contributes its boundary word as-is.
Only abelianization-level consequences are certified downstream (group
isomorphism testing is out of scope), and the abelianization is
cross-checked against first homology.
"""

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import Disconnected, NotOneDimensional
from .homology import smith_normal_form
from .nerve import SemiSimplicialSet


@dataclass
class Presentation:
    generators: list  # edge labels of non-tree 1-cells
    relators: list  # words: lists of (generator, +-1)

    def to_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "relators": [[[g, e] for g, e in word] for word in self.relators],
        }


@dataclass
class EdgeSkeleton:
    """Uniform 2-skeleton view: vertices, edges with endpoints, boundary words."""

    vertex_count: int
    edges: list  # (label, src, dst)
    words: list  # per 2-cell: list of (edge index, +-1)


def skeleton(s) -> EdgeSkeleton:
    """The 2-skeleton of a semi-simplicial set or a glued complex."""
    if isinstance(s, SemiSimplicialSet):
        edges = []
        if s.dimensions > 1:
            for i, fs in enumerate(s.faces[1]):
                edges.append((s.labels[1][i], fs[1], fs[0]))  # d1 = source, d0 = target
        words = []
        if s.dimensions > 2:
            for fs in s.faces[2]:
                words.append([(fs[2], 1), (fs[0], 1), (fs[1], -1)])
        return EdgeSkeleton(s.size(0), edges, words)
    # duck-typed glued complexes: see reduced.GluedComplex
    idx = {v: i for i, v in enumerate(s.vertices)}
    eidx = {e[0]: i for i, e in enumerate(s.edges)}
    edges = [(e[0], idx[e[1]], idx[e[2]]) for e in s.edges]
    words = [[(eidx[eid], sign) for eid, sign in word] for _, word in s.faces2]
    return EdgeSkeleton(len(s.vertices), edges, words)


def spanning_tree(s) -> set:
    """Indices of 1-cells in a breadth-first tree from the least 0-cell."""
    return _spanning_tree(skeleton(s))


def _spanning_tree(sk: EdgeSkeleton) -> set:
    if sk.vertex_count == 0:
        raise Disconnected("empty complex has no spanning tree")
    adj: dict[int, list] = {v: [] for v in range(sk.vertex_count)}
    for i, (_, a, b) in enumerate(sk.edges):
        adj[a].append((i, b))
        adj[b].append((i, a))
    seen = {0}
    tree = set()
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for i, w in sorted(adj[v]):
            if w not in seen:
                seen.add(w)
                tree.add(i)
                queue.append(w)
    if len(seen) != sk.vertex_count:
        raise Disconnected("complex is not connected")
    return tree


def presentation(s) -> Presentation:
    """Edge-path presentation of the fundamental group of the 2-skeleton."""
    sk = skeleton(s)
    tree = _spanning_tree(sk)
    # one generator per non-tree 1-cell, in index order
    gen_of_edge = {i: label for i, (label, _, _) in enumerate(sk.edges) if i not in tree}
    relators = []
    for word in sk.words:
        rel = [(gen_of_edge[i], sign) for i, sign in word if i in gen_of_edge]
        relators.append(_free_reduce(rel))
    return Presentation(list(gen_of_edge.values()), relators)


def _free_reduce(word: list) -> list:
    out = []
    for g, e in word:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    # cyclic reduction: relators are defined up to conjugation
    i, j = 0, len(out) - 1
    while i < j and out[i][0] == out[j][0] and out[i][1] == -out[j][1]:
        i += 1
        j -= 1
    return out[i:j + 1] if i else out


def _first_single(word: list) -> int | None:
    """Position of the first letter whose generator occurs exactly once in
    ``word``, a list of signed ints, or None."""
    counts: dict = {}
    for x in word:
        g = abs(x)
        counts[g] = counts.get(g, 0) + 1
    for pos, x in enumerate(word):
        if counts[abs(x)] == 1:
            return pos
    return None


def _substitute(word: list, x: int, inv: list, vu: list) -> list:
    """``word`` with the letter x replaced by ``inv`` and -x by ``vu``,
    freely and cyclically reduced, in one pass.  ``word`` and both pieces
    are reduced, so letters cancel only where two pieces meet."""
    out = []
    for y in word:
        if y == x or y == -x:
            piece = inv if y == x else vu
            i, n = 0, len(piece)
            while i < n and out and out[-1] == -piece[i]:
                out.pop()
                i += 1
            out.extend(piece[i:] if i else piece)
        elif out and out[-1] == -y:
            out.pop()
        else:
            out.append(y)
    i, j = 0, len(out) - 1
    while i < j and out[i] == -out[j]:
        i += 1
        j -= 1
    return out[i:j + 1] if i else out


def simplify(p: Presentation) -> Presentation:
    """Safe Tietze moves: drop empty relators, free reduction, and eliminate
    any generator occurring exactly once (exponent +-1) in some relator.

    The output depends on the elimination order, which is: take the first
    relator, in input order, that has a generator occurring exactly once;
    eliminate its first such generator g (the relator u g^e v gives
    g^e = u^-1 v^-1, substituted into every other relator, and is dropped);
    repeat until no relator has one.

    Letters are signed ints, +-(position of the generator + 1).  Only the
    relators holding g change, so an occurrence index (generator -> ids of
    relators that have held it; it only grows, and a listed relator that no
    longer holds g is skipped) finds them.  The schedule is a sweep: a
    pointer runs over the relator ids, and a min-heap holds the ids below
    the pointer of the relators a rewrite changed.  The next relator checked
    for a candidate is the heap's least id, or the pointer's if the heap is
    empty.  That is the least id that can hold a candidate: a relator below
    the pointer that no rewrite has changed since its check still has none,
    and every id in the heap is below every id not yet checked.  So each
    elimination is the one the first-relator rule picks, and a relator is
    checked when it is reached, not after every rewrite.  The cost is the
    total length of the input and of every rewritten relator, with a log
    factor only for the relators a rewrite changes behind the pointer.
    """
    code = {g: j for j, g in enumerate(p.generators, 1)}
    words = [[e * code[g] for g, e in _free_reduce(list(w))] for w in p.relators]
    occ: dict = {}
    for i, word in enumerate(words):
        for g in set(map(abs, word)):
            occ.setdefault(g, []).append(i)
    heap: list = []
    waiting = bytearray(len(words))  # ids in the heap
    eliminated = set()
    pointer = 0
    while heap or pointer < len(words):
        if heap:
            ri = heappop(heap)
            waiting[ri] = 0
        else:
            ri = pointer
            pointer += 1
        word = words[ri]
        pos = _first_single(word) if word else None
        if pos is None:
            continue
        # word = u x v with x = g^e, so x = u^-1 v^-1 = (v u)^-1
        x = word[pos]
        g = abs(x)
        vu = word[pos + 1:] + word[:pos]
        inv = [-y for y in reversed(vu)]
        words[ri] = None
        eliminated.add(g)
        brought = set(map(abs, vu))
        for rj in occ.pop(g):
            old = words[rj]
            if not old or (x not in old and -x not in old):
                continue
            words[rj] = _substitute(old, x, inv, vu)
            for h in brought:
                occ[h].append(rj)
            if rj < pointer and not waiting[rj]:
                waiting[rj] = 1
                heappush(heap, rj)
    names = p.generators
    gens = [h for h in names if code[h] not in eliminated]
    relators = [[(names[abs(y) - 1], 1 if y > 0 else -1) for y in w] for w in words if w]
    return Presentation(gens, relators)


def abelianization(p: Presentation) -> tuple[int, list]:
    """(free rank, torsion coefficients) of the abelianized group."""
    gen_pos = {g: j for j, g in enumerate(p.generators)}
    entries = {}
    for i, word in enumerate(p.relators):
        for g, e in word:
            key = (i, gen_pos[g])
            entries[key] = entries.get(key, 0) + e
    entries = {k: v for k, v in entries.items() if v}
    factors, rank = smith_normal_form(entries)
    return len(p.generators) - rank, [f for f in factors if f > 1]


def free_rank(s) -> int:
    """Rank 1 - chi of a connected 1-dimensional complex.  A semi-simplicial
    set with 2-chains is refused before any boundary word is made."""
    if isinstance(s, SemiSimplicialSet) and s.dimensions > 2 and s.faces[2]:
        raise NotOneDimensional("complex has 2-cells")
    sk = skeleton(s)
    if sk.words:
        raise NotOneDimensional("complex has 2-cells")
    if isinstance(s, SemiSimplicialSet) and s.dimensions > 2 and any(s.labels[2:]):
        raise NotOneDimensional("complex has chains above dimension 1")
    _spanning_tree(sk)  # raises Disconnected if needed
    return 1 - (sk.vertex_count - len(sk.edges))
