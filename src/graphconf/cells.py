"""Cells of the braid stratification of a k-fold graph product.

A braid cell assigns each of the k coordinates to a vertex or an edge and,
for every edge used m times, records an ordered partition of those m
coordinates (the braid-arrangement stratum of the repeated factor).  Cells
disjoint from the discriminant (all blocks singletons, all vertex entries
distinct) are the configuration cells; morphisms between configuration
cells are stored in a canonical per-coordinate form:

    Interior     the coordinate keeps its entry,
    End(eps)     the coordinate was on an edge in the target and sits at
                 that edge's eps end in the source (eps in {-1, +1}).

Because characteristic maps are injective on configuration strata, a lift
of a characteristic map is determined by which boundary stratum each
coordinate hits, so this datum is a faithful encoding of the face-category
morphisms.  The closure order on an edge's coordinates forces extremality:
only the first coordinate of the target's order may hit the minus end and
only the last may hit the plus end.
"""

from dataclasses import dataclass, field
from itertools import product

from .errors import MismatchedGraph, MismatchedK, NonComposable, WrongDegree
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


@dataclass(frozen=True)
class CellMorphism:
    """Face-category morphism between configuration cells, canonical form."""

    source: BraidCell
    target: BraidCell
    data: tuple  # length k of INTERIOR / END_MINUS / END_PLUS

    def is_identity(self) -> bool:
        return all(d == INTERIOR for d in self.data) and self.source == self.target

    def label(self) -> str:
        return f"{self.source.label()}>{data_label(self.data)}>{self.target.label()}"


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


def braid_cell_faces(c: BraidCell) -> list[BraidCell]:
    """One-step faces: merge two adjacent blocks of an edge group, or send
    its first (last) block to the edge's minus (plus) end when attached."""
    g = c.graph
    out = []
    for eid, part in c.blocks:
        edge = g.edge(eid)
        others = {e: p for e, p in c.blocks if e != eid}
        for i in range(len(part) - 1):
            merged = part[:i] + (tuple(sorted(part[i] + part[i + 1])),) + part[i + 2:]
            out.append(_make_cell(g, c.entries, {**others, eid: merged}))
        for which, end in ((0, edge.end_minus), (-1, edge.end_plus)):
            if end is None:
                continue
            block = part[which]
            entries = list(c.entries)
            for j in block:
                entries[j] = ("v", end)
            rest = part[1:] if which == 0 else part[:-1]
            new_parts = dict(others)
            if rest:
                new_parts[eid] = rest
            out.append(_make_cell(g, entries, new_parts))
    return out


def braid_cell_closure(c: BraidCell) -> set[BraidCell]:
    """All iterated faces of c, including c itself."""
    seen = {c}
    stack = [c]
    while stack:
        for f in braid_cell_faces(stack.pop()):
            if f not in seen:
                seen.add(f)
                stack.append(f)
    return seen


def _check_same_setting(c: BraidCell, d: BraidCell) -> None:
    if c.graph != d.graph:
        raise MismatchedGraph("cells live on different graphs")
    if c.k != d.k:
        raise MismatchedK("cells have different numbers of points")


def morphisms_into(d: BraidCell) -> list[CellMorphism]:
    """All nonidentity face-category morphisms with target d.

    Enumerates the admissible per-coordinate data directly: for each edge
    group of the target, the first coordinate of the order may drop to the
    minus end and the last to the plus end (when those ends are attached);
    everything else stays interior.  Sources must again be configuration
    cells.  Distinct data with equal sources are distinct morphisms; a loop
    edge used once contributes two (its two endpoint lifts).
    """
    g = d.graph
    per_group = []
    for eid, part in d.blocks:
        edge = g.edge(eid)
        coords = [b[0] for b in part]  # configuration cells: singleton blocks
        options = [()]
        if edge.end_minus is not None:
            options.append(((coords[0], END_MINUS),))
        if edge.end_plus is not None:
            if len(coords) > 1:
                base = list(options)
                options = base + [opt + ((coords[-1], END_PLUS),) for opt in base]
            else:
                options.append(((coords[0], END_PLUS),))
        per_group.append(options)

    out = []
    for combo in product(*per_group):
        assignment = dict(pair for group in combo for pair in group)
        if not assignment:
            continue  # identity
        entries = list(d.entries)
        for i, eps in assignment.items():
            edge = g.edge(entries[i][1])
            entries[i] = ("v", edge.end_minus if eps == END_MINUS else edge.end_plus)
        verts = [x[1] for x in entries if x[0] == "v"]
        if len(set(verts)) != len(verts):
            continue  # source would touch the discriminant
        parts = {}
        for eid, part in d.blocks:
            kept = tuple(b for b in part if b[0] not in assignment)
            if kept:
                parts[eid] = kept
        source = _make_cell(g, entries, parts)
        data = tuple(assignment.get(i, INTERIOR) for i in range(d.k))
        out.append(CellMorphism(source, d, data))
    out.sort(key=lambda m: (m.source.sort_key(), m.data))
    return out


def enumerate_morphisms(c: BraidCell, d: BraidCell) -> list[CellMorphism]:
    """All morphisms c -> d; the singleton identity when c = d."""
    _check_same_setting(c, d)
    if c == d:
        return [CellMorphism(c, d, (INTERIOR,) * c.k)]
    return [m for m in morphisms_into(d) if m.source == c]


def compose(m2: CellMorphism, m1: CellMorphism) -> CellMorphism:
    """Composite of m1: c -> d with m2: d -> f; its datum is compose_data."""
    if m1.target != m2.source:
        raise NonComposable("target of first morphism differs from source of second")
    return CellMorphism(m1.source, m2.target, compose_data(m2.data, m1.data))


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


def act_on_morphism(sigma: tuple[int, ...], m: CellMorphism) -> CellMorphism:
    if len(sigma) != m.target.k:
        raise WrongDegree("permutation degree differs from k")
    return CellMorphism(
        act_on_cell(sigma, m.source), act_on_cell(sigma, m.target), relocate(sigma, m.data)
    )


def act(sigma: tuple[int, ...], x):
    if isinstance(x, BraidCell):
        return act_on_cell(sigma, x)
    if isinstance(x, CellMorphism):
        return act_on_morphism(sigma, x)
    raise TypeError(f"cannot act on {type(x).__name__}")
