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

``faces_into`` is the one enumeration of the morphisms into a cell.  It
names each source by its key ``(entries, blocks)``, which identifies a
configuration cell, and builds no ``BraidCell``: the face category looks
keys up in an index of its cells, and the orbit category canonicalises
them.  ``morphisms_into`` is its cell-level view, sorted, for callers that
want source cells.  ``compose_data`` composes data, and ``act_on_cell`` with ``relocate`` on
data is the S_k action.  ``canonical_order`` names the least cell of a
cell's orbit and the permutation between them without acting on a cell.

Both models start from the least cell of each orbit, which
``canonical_cells`` generates directly from the multisets of vertices and
edges, k!-fold fewer cells and no braid cell: the unordered model is the
nerve of the orbit category on them, and the ordered model its S_k-cover.
``configuration_cells`` keeps the braid cells outside the discriminant; it
is read only by the face category on every cell (``model.build_model``),
which the two-point model filters.
"""

from dataclasses import dataclass, field
from itertools import product

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
    cell's on d2-interior coordinates).
    """
    return tuple(b if b != INTERIOR else a for a, b in zip(d1, d2))


def data_label(data: tuple) -> str:
    return "".join(map(_DATA_SYMBOL.__getitem__, data))


def relocate(sigma: tuple[int, ...], seq: tuple) -> tuple:
    """Move the entry at coordinate j to coordinate sigma[j]."""
    out = list(seq)
    for j, s in enumerate(sigma):
        out[s] = seq[j]
    return tuple(out)

# Entry kinds: entries are ("v", id) or ("e", id); kind rank orders vertices
# before edges so sorting cells is well defined.
_KIND_RANK = {"v": 0, "e": 1}


def _entry_key(entry):
    return (_KIND_RANK[entry[0]], entry[1])


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
    ``_entry_key``, so ``product`` yields the entry
    tuples in ``sort_key`` order, and only the cells of one entry tuple
    remain to be ordered, by ``blocks``.  Their edge groups come in
    ascending edge id, and each group's ordered partitions are sorted once
    per coordinate tuple, so ``product`` of the groups' choices yields the
    blocks in ascending order too.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    symbols = [("v", v) for v in g.vertices] + [("e", e.id) for e in g.edges]
    symbols.sort(key=_entry_key)
    partitions: dict[tuple, list] = {}  # coordinate tuple -> its ordered partitions, sorted
    cells = []
    for entries in product(symbols, repeat=k):
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

    The least cell of an orbit lists its entries in ascending order
    (``canonical_order``): j distinct vertices on coordinates 0..j-1, then
    a multiset of k-j edges, each edge's coordinates in ascending order as
    singleton blocks.  So the orbits are the multisets of k symbols that
    repeat no vertex (Swiatkowski's 0-cells, sum_j C(|V|, j) C(|E|+k-j-1, k-j)
    of them), and the cells are generated from them directly, with no braid
    cell and no filter.  The symbols are listed by ``_entry_key``, and the
    multisets are grown in that order, each symbol followed only by itself
    (an edge) or by later symbols, so they come out in ``sort_key`` order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    symbols = [("v", v) for v in g.vertices] + [("e", e.id) for e in g.edges]
    symbols.sort(key=_entry_key)
    cells: list[BraidCell] = []
    _grow(g, k, symbols, len(g.vertices), (), 0, cells)
    return cells


def _grow(g: Graph, k: int, symbols: list, nv: int, entries: tuple, lo: int, cells: list) -> None:
    """Append to ``cells`` every canonical cell whose entries extend
    ``entries`` by symbols from ``lo`` on (``canonical_cells``); the first
    ``nv`` symbols are the vertices, which do not repeat."""
    if len(entries) == k:
        groups: dict[str, list] = {}  # ascending edge id, as entries ascend
        for i, entry in enumerate(entries):
            if entry[0] == "e":
                groups.setdefault(entry[1], []).append((i,))
        blocks = tuple((eid, tuple(part)) for eid, part in groups.items())
        cells.append(BraidCell(k, entries, blocks, g))
        return
    for s in range(lo, len(symbols)):
        _grow(g, k, symbols, nv, entries + (symbols[s],), s + (s < nv), cells)


def faces_into(d: BraidCell):
    """Every nonidentity face-category morphism with target d, as
    ((source entries, source blocks), datum) pairs, unsorted.

    This is the one enumeration of face data.  The source is given by its
    key, the ``(entries, blocks)`` pair that identifies a configuration
    cell, so callers look it up in an index of the cells they hold instead
    of building and hashing a ``BraidCell``.

    The admissible per-coordinate data are listed directly: for each edge
    group of the configuration cell d, the first coordinate of the order
    may drop to the minus end and the last to the plus end (when those ends
    are attached); everything else stays interior.  Sources must again be
    configuration cells, so no two coordinates may land on one vertex.
    Distinct data with equal sources are distinct morphisms; a loop edge
    used once contributes two (its two endpoint lifts).  Dropping
    coordinates keeps the other blocks in order, and d's edge groups are
    listed by ascending edge id, so the source's blocks need no sort.
    """
    g = d.graph
    taken = {x[1] for x in d.entries if x[0] == "v"}
    per_group = []
    for eid, part in d.blocks:
        edge = g.edge(eid)
        first, last = part[0][0], part[-1][0]  # configuration cells: singleton blocks
        # each option: its (coordinate, end, vertex) moves and the group's
        # block in the source, which loses the moved ends of the order
        options = [((), (eid, part))]
        if edge.end_minus is not None:
            options.append((((first, END_MINUS, edge.end_minus),), (eid, part[1:])))
        if edge.end_plus is not None:
            if len(part) > 1:
                options += [
                    (moves + ((last, END_PLUS, edge.end_plus),), (eid, kept[:-1]))
                    for moves, (_, kept) in options
                ]
            else:
                options.append((((first, END_PLUS, edge.end_plus),), (eid, ())))
        per_group.append(options)

    for combo in product(*per_group):
        moves = [move for group, _ in combo for move in group]
        if not moves:
            continue  # identity
        landed = [v for _, _, v in moves]
        if len(set(landed)) != len(landed) or not taken.isdisjoint(landed):
            continue  # source would touch the discriminant
        entries = list(d.entries)
        data = [INTERIOR] * d.k
        for i, eps, v in moves:
            entries[i] = ("v", v)
            data[i] = eps
        blocks = tuple(block for _, block in combo if block[1])
        yield (tuple(entries), blocks), tuple(data)


def morphisms_into(d: BraidCell) -> list[tuple]:
    """All nonidentity face-category morphisms with target d, as
    (source cell, datum) pairs sorted by (source sort key, datum).

    The cell-level view of ``faces_into``: the same morphisms with each
    source built as a ``BraidCell``.
    """
    out = [
        (BraidCell(d.k, entries, blocks, d.graph), data)
        for (entries, blocks), data in faces_into(d)
    ]
    out.sort(key=lambda m: (m[0].sort_key(), m[1]))
    return out


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


def canonical_order(entries: tuple, blocks: tuple) -> tuple[int, ...]:
    """The coordinates of the configuration cell ``(entries, blocks)``
    ranked by (entry key, position along the edge).

    Sending coordinate j to its rank (the permutation sigma) takes the cell
    to the least cell of its orbit under coordinate permutations: that
    cell lists its entries in ascending order, and the coordinates sharing
    an edge take the positions of their entry in the order they run along
    the edge, since that makes every edge's block order ascending.  So the
    least cell is fixed by its sorted entries, ``entries[j]`` for j in this
    order, and it is the one cell of the orbit whose order is the identity.
    The order itself is sigma's inverse, which takes the least cell to this
    one (``relocate`` by it).

    Vertex entries rank first and are distinct, so they are sorted by id.
    The edge coordinates follow in block order: the blocks list the edges
    in ascending id and each edge's coordinates in the order along it.
    """
    verts = sorted([(x[1], j) for j, x in enumerate(entries) if x[0] == "v"])
    return tuple([j for _, j in verts] + [blk[0] for _, part in blocks for blk in part])
