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
configuration cell, and builds no ``BraidCell``: the face category and the
orbit category look keys up in an index of their cells.  ``morphisms_into`` is
its cell-level view, sorted, for callers that want source cells.
``compose_data`` composes data, and ``act_on_cell`` with ``relocate`` on
data is the S_k action.
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
    return "".join(_DATA_SYMBOL[d] for d in data)


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

    def edge_order(self, edge_id: str) -> tuple:
        for eid, part in self.blocks:
            if eid == edge_id:
                return part
        raise KeyError(edge_id)

    def label(self) -> str:
        parts = []
        for i, entry in enumerate(self.entries):
            if entry[0] == "v":
                parts.append(entry[1])
            else:
                pos = next(
                    j for j, blk in enumerate(self.edge_order(entry[1])) if i in blk
                )
                parts.append(f"{entry[1]}#{pos}")
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


def _make_cell(g: Graph, entries, parts_by_edge) -> BraidCell:
    blocks = tuple(sorted((eid, part) for eid, part in parts_by_edge.items()))
    return BraidCell(len(entries), tuple(entries), blocks, g)


def enumerate_braid_cells(g: Graph, k: int) -> list[BraidCell]:
    """Every braid cell of the k-fold product, in lexicographic order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    symbols = [("v", v) for v in g.vertices] + [("e", e.id) for e in g.edges]
    symbols.sort(key=_entry_key)
    cells = []
    for entries in product(symbols, repeat=k):
        groups: dict[str, list[int]] = {}
        for i, entry in enumerate(entries):
            if entry[0] == "e":
                groups.setdefault(entry[1], []).append(i)
        choices = [
            [(eid, part) for part in ordered_partitions(tuple(coords))]
            for eid, coords in sorted(groups.items())
        ]
        for combo in product(*choices):
            cells.append(_make_cell(g, entries, dict(combo)))
    cells.sort(key=BraidCell.sort_key)
    return cells


def in_discriminant(c: BraidCell) -> bool:
    """True iff the whole cell lies inside the discriminant.

    Every braid cell is either contained in the discriminant or disjoint
    from it: a block of size >= 2 pins two coordinates together on an edge,
    and two equal vertex entries pin them at a vertex.
    """
    for _, part in c.blocks:
        if any(len(b) > 1 for b in part):
            return True
    verts = [x[1] for x in c.entries if x[0] == "v"]
    return len(set(verts)) != len(verts)


def configuration_cells(g: Graph, k: int) -> list[BraidCell]:
    return [c for c in enumerate_braid_cells(g, k) if not in_discriminant(c)]


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
        options = [()]  # each option: (coordinate, end, vertex) moves
        if edge.end_minus is not None:
            options.append(((first, END_MINUS, edge.end_minus),))
        if edge.end_plus is not None:
            if len(part) > 1:
                options += [opt + ((last, END_PLUS, edge.end_plus),) for opt in options]
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
        entries = list(d.entries)
        data = [INTERIOR] * d.k
        for i, eps, v in moves:
            entries[i] = ("v", v)
            data[i] = eps
        blocks = []
        for eid, part in d.blocks:
            kept = tuple(b for b in part if data[b[0]] == INTERIOR)
            if kept:
                blocks.append((eid, kept))
        yield (tuple(entries), tuple(blocks)), tuple(data)


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
    entries = relocate(sigma, c.entries)
    parts = {}
    for eid, part in c.blocks:
        parts[eid] = tuple(tuple(sorted(sigma[j] for j in blk)) for blk in part)
    return _make_cell(c.graph, entries, parts)


def canonical_permutation(c: BraidCell) -> tuple[int, ...]:
    """The permutation sigma for which act_on_cell(sigma, c) is the least
    cell of the configuration cell c's orbit under coordinate permutations.

    The least cell lists its entries in ascending order, and the
    coordinates sharing an edge take the positions of their entry in the
    order they run along the edge, since that makes every edge's block
    order ascending.  So coordinate j goes to its rank under (entry key,
    position along the edge).
    """
    along = {blk[0]: pos for _, part in c.blocks for pos, blk in enumerate(part)}
    order = sorted(range(c.k), key=lambda j: (_entry_key(c.entries[j]), along.get(j, 0)))
    sigma = [0] * c.k
    for rank, j in enumerate(order):
        sigma[j] = rank
    return tuple(sigma)
