"""Cells of the braid stratification of a k-fold graph product.

A braid cell assigns each of the k coordinates to a vertex or an edge and,
for every edge used m times, records an ordered partition of those m
coordinates (the braid-arrangement stratum of the repeated factor).  Cells
disjoint from the discriminant (all blocks singletons, all vertex entries
distinct) are the configuration cells.  A face-category morphism between
configuration cells is a (source, target, datum) triple, where the datum
holds one entry per coordinate:

    Interior     the coordinate keeps its entry,
    End(eps)     the coordinate was on an edge in the target and sits at
                 that edge's eps end in the source (eps in {-1, +1}).

Because characteristic maps are injective on configuration strata, a lift
of a characteristic map is determined by which boundary stratum each
coordinate hits, so this datum is a faithful encoding of the face-category
morphisms.  The closure order on an edge's coordinates forces extremality:
only the first coordinate of the target's order may hit the minus end and
only the last may hit the plus end.

``face_moves`` is the one enumeration of the morphisms into a cell: it
lists each one's moves (coordinate, end, vertex) and builds no source.
``faces_into`` applies them and names each source by its key ``(entries,
blocks)``, which identifies a configuration cell, for the face category
to look up in an index of its cells; the orbit category applies them to
integer codes of the symbols and sorts those (``model.OrbitCategory``).
``compose_data`` composes data, and ``act_on_cell`` with ``relocate`` on
data is the S_k action.

Both models start from the least cell of each orbit, which
``canonical_cells`` generates directly from the multisets of vertices and
edges, k!-fold fewer cells and no braid cell: the unordered model is the
nerve of the orbit category on them, and the ordered model its S_k-cover.
``configuration_cells`` keeps the braid cells outside the discriminant; it
is read only by the face category on every cell (``model.build_model``),
which the two-point model filters.
"""

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, product

from .errors import WrongDegree
from .graphs import Graph

# Per-coordinate morphism data.
INTERIOR = 0
END_MINUS = -1
END_PLUS = 1

_DATA_SYMBOL = {INTERIOR: ".", END_MINUS: "-", END_PLUS: "+"}


def compose_data(d2: tuple, d1: tuple) -> tuple:
    """Datum of d1 followed by d2.

    Per coordinate the composite datum is whichever morphism first sent the
    coordinate to an end: d2's entry if it is an end, else d1's (both taken
    relative to the final target's edges, which agree with the middle
    cell's on d2-interior coordinates).  ``INTERIOR`` is 0 and the ends
    are not, so that entry is ``b or a``.
    """
    return tuple([b or a for a, b in zip(d1, d2)])


def data_label(data: tuple) -> str:
    return "".join(map(_DATA_SYMBOL.__getitem__, data))


def relocate(sigma: tuple[int, ...], seq: tuple) -> tuple:
    """Move the entry at coordinate j to coordinate sigma[j]."""
    out = list(seq)
    for s, x in zip(sigma, seq):
        out[s] = x
    return tuple(out)

# Entry kinds: entries are ("v", id) or ("e", id); kind rank orders vertices
# before edges so sorting cells is well defined.
_KIND_RANK = {"v": 0, "e": 1}


def _entry_key(entry):
    return (_KIND_RANK[entry[0]], entry[1])


def symbols(g: Graph) -> list:
    """The entries a cell of g can hold, ascending by ``_entry_key``: the
    vertices by id, then the edges by id."""
    return sorted([("v", v) for v in g.vertices] + [("e", e.id) for e in g.edges], key=_entry_key)


@dataclass(frozen=True)
class BraidCell:
    """One cell of the braid stratification of the k-fold product."""

    k: int
    entries: tuple  # length k, each ("v", vid) or ("e", eid)
    blocks: tuple  # ((edge_id, ((i, ...), ...)), ...) ascending edge id
    graph: Graph = field(compare=False, repr=False)

    def sort_key(self):
        return (
            tuple(_entry_key(x) for x in self.entries),
            self.blocks,
        )

    @property
    def dimension(self) -> int:
        return sum(len(part) for _, part in self.blocks)

    def label(self) -> str:
        return cell_label(self.label_parts())

    def label_parts(self) -> tuple:
        """The label's entry per coordinate: a vertex id, or an edge id
        and the position of the coordinate's block in the edge's order."""
        # along[i]: the position, in its edge's order, of coordinate i's block
        along = {i: pos for _, part in self.blocks for pos, blk in enumerate(part) for i in blk}
        return tuple(
            entry[1] if entry[0] == "v" else f"{entry[1]}#{along[i]}"
            for i, entry in enumerate(self.entries)
        )


def cell_label(parts) -> str:
    """A cell's label from its per-coordinate parts."""
    return "(" + ",".join(parts) + ")"


def ordered_partitions(items: tuple):
    """All ordered partitions of items into disjoint nonempty blocks."""
    items = tuple(items)
    if not items:
        yield ()
        return
    n = len(items)
    first = items[0]
    rest = items[1:]
    # Choose the block containing the first item via bitmask over the rest,
    # then interleave the recursive partitions of the remainder.
    for mask in range(1 << (n - 1)):
        block = tuple(sorted((first,) + tuple(rest[j] for j in range(n - 1) if mask >> j & 1)))
        remaining = tuple(x for x in rest if x not in block)
        for sub in ordered_partitions(remaining):
            for pos in range(len(sub) + 1):
                yield sub[:pos] + (block,) + sub[pos:]


def enumerate_braid_cells(g: Graph, k: int) -> list[BraidCell]:
    """Every braid cell of the k-fold product, in ``sort_key`` order.

    The cells are not sorted as a whole.  The symbols are listed by
    ``_entry_key`` (``symbols``), so ``product`` yields the entry
    tuples in ``sort_key`` order, and only the cells of one entry tuple
    remain to be ordered, by ``blocks``.  Their edge groups come in
    ascending edge id, and each group's ordered partitions are sorted once
    per coordinate tuple, so ``product`` of the groups' choices yields the
    blocks in ascending order too.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    partitions: dict[tuple, list] = {}  # coordinate tuple -> its ordered partitions, sorted
    cells = []
    for entries in product(symbols(g), repeat=k):
        groups: dict[str, list[int]] = {}
        for i, entry in enumerate(entries):
            if entry[0] == "e":
                groups.setdefault(entry[1], []).append(i)
        choices = []
        for eid, coords in sorted(groups.items()):
            coords = tuple(coords)
            parts = partitions.get(coords)
            if parts is None:
                parts = partitions[coords] = sorted(ordered_partitions(coords))
            choices.append([(eid, part) for part in parts])
        cells.extend(BraidCell(k, entries, blocks, g) for blocks in product(*choices))
    return cells


def in_discriminant(c: BraidCell) -> bool:
    """True iff the whole cell lies inside the discriminant.

    Every braid cell is either contained in the discriminant or disjoint
    from it: a block of size >= 2 pins two coordinates together on an edge,
    and two equal vertex entries pin them at a vertex.
    """
    verts = [x[1] for x in c.entries if x[0] == "v"]
    # every block is a singleton exactly when each edge coordinate has its own
    return c.dimension != c.k - len(verts) or len(set(verts)) != len(verts)


def configuration_cells(g: Graph, k: int) -> list[BraidCell]:
    return [c for c in enumerate_braid_cells(g, k) if not in_discriminant(c)]


def canonical_cells(g: Graph, k: int) -> list[BraidCell]:
    """The least configuration cell of each S_k orbit, in ``sort_key`` order.

    The least cell of an orbit lists its entries in ascending order: j
    distinct vertices on coordinates 0..j-1, then a multiset of k-j edges,
    each edge's coordinates in ascending order as singleton blocks.  So the
    orbits are the multisets of k symbols that repeat no vertex
    (Swiatkowski's 0-cells, sum_j C(|V|, j) C(|E|+k-j-1, k-j) of them), and
    the cells are generated from them directly, with no braid cell, no
    filter and no recursion.  A cell is its vertex set and its edge
    multiset, and its entries compare as their ranks in ``symbols`` do.  Of
    two cells the one whose vertex set comes first in that order comes
    first, where a set that is a prefix of the other comes after it: at the
    first coordinate past the shorter set the longer has a vertex, the
    other an edge.  So the vertex sets are sorted once, by their ranks
    followed by |V|, and each one's edge multisets follow in the order
    ``combinations_with_replacement`` yields them.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    nv, syms = len(g.vertices), symbols(g)
    verts, edges = syms[:nv], syms[nv:]
    # with no edge, a cell is k vertices
    sizes = range(min(nv, k) + 1) if edges else [k] if k <= nv else []
    subsets = sorted(
        (vs for j in sizes for vs in combinations(range(nv), j)), key=lambda vs: vs + (nv,)
    )
    # per vertex count j, the edge multisets on coordinates j..k-1 with their blocks
    tails = {j: [(t, _singleton_blocks(t, j)) for t in combinations_with_replacement(edges, k - j)]
             for j in sizes}
    return [
        BraidCell(k, tuple(map(verts.__getitem__, vs)) + tail, blocks, g)
        for vs in subsets for tail, blocks in tails[len(vs)]
    ]


def _singleton_blocks(tail: tuple, first: int) -> tuple:
    """The blocks of the edge entries ``tail`` on coordinates ``first`` on:
    each edge's coordinates as singletons, in order, edges ascending as
    ``tail`` does."""
    groups: dict[str, list] = {}
    for i, entry in enumerate(tail, first):
        groups.setdefault(entry[1], []).append((i,))
    return tuple((eid, tuple(part)) for eid, part in groups.items())


def face_moves(d: BraidCell):
    """Every nonidentity face-category morphism with target d, as the list
    of its moves (coordinate, end, vertex), unsorted.

    This is the one enumeration of face data.  A move (i, eps, v) drops
    coordinate i to its edge's eps end (``END_MINUS`` or ``END_PLUS``), at
    vertex v; every other coordinate stays interior.  For each edge group of the
    configuration cell d, the first coordinate of the order may drop to the
    minus end and the last to the plus end (when those ends are attached).
    Sources must again be configuration cells, so no two coordinates may
    land on one vertex, nor on a vertex d already holds.  Distinct data
    with equal sources are distinct morphisms; a loop edge used once
    contributes two (its two endpoint lifts).
    """
    g = d.graph
    taken = {x[1] for x in d.entries if x[0] == "v"}
    per_group = []
    for eid, part in d.blocks:
        edge = g.edge(eid)
        first, last = part[0][0], part[-1][0]  # configuration cells: singleton blocks
        options = [()]
        if edge.end_minus is not None:
            options.append(((first, END_MINUS, edge.end_minus),))
        if edge.end_plus is not None:
            if len(part) > 1:
                options += [moves + ((last, END_PLUS, edge.end_plus),) for moves in options]
            else:
                options.append(((first, END_PLUS, edge.end_plus),))
        per_group.append(options)

    for combo in product(*per_group):
        moves = [move for group in combo for move in group]
        if not moves:
            continue  # identity
        landed = [v for _, _, v in moves]
        if len(set(landed)) != len(landed) or not taken.isdisjoint(landed):
            continue  # source would touch the discriminant
        yield moves


def faces_into(d: BraidCell):
    """Every nonidentity face-category morphism with target d, as
    ((source entries, source blocks), datum) pairs, unsorted: the moves of
    ``face_moves`` applied to d.

    The source is given by its key, the ``(entries, blocks)`` pair that
    identifies a configuration cell, so callers look it up in an index of
    the cells they hold instead of building and hashing a ``BraidCell``.
    Each moved coordinate leaves its block, which is its edge's first or
    last; the other blocks keep their order, and d's edge groups are listed
    by ascending edge id, so the source's blocks need no sort.
    """
    for moves in face_moves(d):
        entries, data = list(d.entries), [INTERIOR] * d.k
        for i, eps, v in moves:
            entries[i] = ("v", v)
            data[i] = eps
        moved = {i for i, _, _ in moves}
        blocks = []
        for eid, part in d.blocks:
            if part[0][0] in moved:
                part = part[1:]
            if part and part[-1][0] in moved:
                part = part[:-1]
            if part:
                blocks.append((eid, part))
        yield (tuple(entries), tuple(blocks)), tuple(data)


def act_on_cell(sigma: tuple[int, ...], c: BraidCell) -> BraidCell:
    """Relocate coordinates by the permutation: entry_i of the image is
    entry_{sigma^-1(i)}, and block members are relabeled by sigma."""
    if len(sigma) != c.k:
        raise WrongDegree("permutation degree differs from k")
    # relabelling keeps each block with its edge, so the blocks stay in edge order
    blocks = tuple(
        (eid, tuple(tuple(sorted(sigma[j] for j in blk)) for blk in part)) for eid, part in c.blocks
    )
    return BraidCell(c.k, relocate(sigma, c.entries), blocks, c.graph)

