"""The orbit category on integer symbol codes against the construction it
replaces.

``ReferenceOrbitCategory`` builds each arrow as the orbit category did
before: ``cells.faces_into`` gives the source's entries and blocks,
``canonical_order`` ranks its coordinates by (entry key, position along
the edge), ``_least`` reads the least cell of its orbit off them, and a
member's sort key holds entry keys.  ``model.OrbitCategory`` moves the
codes of a canonical cell's symbols and sorts those.  Both must give the
same arrows, positions, member ids, after() lists and member order.
``reference_canonical_cells`` grows the canonical cells by recursion k
deep, as ``cells.canonical_cells`` did; it must list the same cells in
the same order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from graphconf import cells as cl
from graphconf import graphs as gr
from graphconf.model import OrbitCategory
from graphconf.nerve import build_nerve
from test_graphs import open_multigraphs
from test_orbit_nerve import k4, k33, xb


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


def _least(entries: tuple, blocks: tuple) -> tuple:
    """(lift, key) of the configuration cell ``(entries, blocks)``: the
    permutation taking the least cell of its orbit to it, and that cell's
    key, its sorted entries (``canonical_order``)."""
    lift = canonical_order(entries, blocks)
    return lift, tuple(map(entries.__getitem__, lift))


class ReferenceOrbitCategory(OrbitCategory):
    """The orbit category built from the sources' entries and blocks, with
    entry-key member keys; ``after`` and the rest are inherited."""

    def __init__(self, canon: list):
        self._canon, self._lift, self._keys = [], [], []
        self._members = {}
        self._templates = [(c.sort_key()[0], c.k - c.dimension) for c in canon]
        self._cells, self._parts, self._labels = canon, {}, {}
        identity = tuple(range(canon[0].k)) if canon else ()
        for r in range(len(canon)):
            self.member(r, identity)
        self.objects = range(len(canon))
        canon_of = {c.entries: r for r, c in enumerate(canon)}
        self._out = {r: [] for r in range(len(canon))}
        self._place = {}
        for d, c in enumerate(canon):
            for (entries, blocks), data in cl.faces_into(c):
                lift, key = _least(entries, blocks)
                sigma = tuple(sorted(range(len(lift)), key=lift.__getitem__))
                m = (canon_of[key], self.member(d, sigma), cl.relocate(sigma, data))
                self._out[m[0]].append(m)
        for r in range(len(canon)):
            self._listed(r, sorted(self._out[r], key=self._order))
        self.arrows = [m for r in range(len(canon)) for m in self._out[r]]
        self.position = self._place.__getitem__

    def member(self, r: int, lift: tuple) -> int:
        got = self._members.get((r, lift))
        if got is None:
            got = self._members[r, lift] = len(self._lift)
            entry_keys, verts = self._templates[r]
            self._canon.append(r)
            self._lift.append(lift)
            self._keys.append(cl.relocate(lift, entry_keys) + lift[verts:])
        return got


def assert_same_orbit_category(g, k):
    canon = cl.canonical_cells(g, k)
    cat, ref = OrbitCategory(canon), ReferenceOrbitCategory(canon)
    assert cat.arrows == ref.arrows
    assert build_nerve(cat, labels=False).faces == build_nerve(ref, labels=False).faces
    # every member a chain reached, and every member made, has the same
    # after() list, made in the same order
    for t in range(len(ref._lift)):
        assert cat.after((None, t, None)) == ref.after((None, t, None))
    assert (cat._canon, cat._lift, cat._members) == (ref._canon, ref._lift, ref._members)
    assert cat._out == ref._out
    assert cat._place == ref._place
    members = range(len(cat._keys))
    assert sorted(members, key=cat.key) == sorted(members, key=ref.key)
    assert len(set(cat._keys)) == len(cat._keys)
    assert [cat.label(t) for t in members] == [ref.label(t) for t in members]


CORPUS = [
    ("theta", gr.theta_graph()), ("k4", k4()), ("k33", k33()), ("xb", xb()),
    ("w31", gr.hub_graph(3, 1)),
]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("graph", [g for _, g in CORPUS], ids=[name for name, _ in CORPUS])
def test_orbit_category_matches_reference(graph, k):
    assert_same_orbit_category(graph, k)


@settings(max_examples=80, deadline=None)
@given(open_multigraphs(), st.integers(1, 3))
def test_orbit_category_matches_reference_on_open_multigraphs(graph, k):
    assert_same_orbit_category(graph, k)


def test_least_cell_order_is_a_stable_sort_of_codes():
    # the lift of every face of a canonical cell is the stable sort of its
    # moved codes, as ``model.OrbitCategory`` takes it
    for g, k in [(gr.theta_graph(), 4), (k4(), 3), (xb(), 3)]:
        code = {x: i for i, x in enumerate(cl.symbols(g))}
        for c in cl.canonical_cells(g, k):
            for (entries, blocks), _ in cl.faces_into(c):
                codes = [code[x] for x in entries]
                assert canonical_order(entries, blocks) == tuple(
                    sorted(range(k), key=codes.__getitem__)
                )


def reference_canonical_cells(g, k):
    """The least cell of each orbit, grown one symbol at a time by
    recursion, each symbol followed only by itself (an edge) or by later
    symbols, so in ``sort_key`` order."""
    syms, nv, cells = cl.symbols(g), len(g.vertices), []

    def grow(entries, lo):
        if len(entries) == k:
            groups = {}
            for i, entry in enumerate(entries):
                if entry[0] == "e":
                    groups.setdefault(entry[1], []).append((i,))
            blocks = tuple((eid, tuple(part)) for eid, part in groups.items())
            cells.append(cl.BraidCell(k, entries, blocks, g))
            return
        for s in range(lo, len(syms)):
            grow(entries + (syms[s],), s + (s < nv))

    grow((), 0)
    return cells


@settings(max_examples=80, deadline=None)
@given(open_multigraphs(), st.integers(1, 6))
def test_canonical_cells_match_recursive_reference(graph, k):
    got = cl.canonical_cells(graph, k)
    expected = reference_canonical_cells(graph, k)
    assert [c.sort_key() for c in got] == [c.sort_key() for c in expected]
    assert got == expected
