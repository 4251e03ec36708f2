"""Cell enumeration and orbit canonicalisation against the constructions
they replace.

``reference_enumerate_braid_cells`` builds every cell of the full product
and sorts them all by ``sort_key``; the library sorts only the partitions
of one coordinate tuple.  ``reference_canonical`` finds each cell's orbit
representative by acting on the cell with ``reference_canonical_permutation``
and looking the image up in an index of the cells; the library reads it off
the cell's own entries.  Both must give the same cells and the same
canonical cells, lifts and members.  ``canonical_cells`` generates the
least cells directly: they must be the configuration cells whose
``canonical_order`` is the identity, as many as Swiatkowski's 0-cells.
"""

from itertools import permutations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from graphconf import cells as cl
from graphconf import graphs as gr
from graphconf.model import OrbitCategory, _least
from test_orbit_nerve import k4, k33, small_multigraphs, xb


def reference_enumerate_braid_cells(g, k):
    symbols = [("v", v) for v in g.vertices] + [("e", e.id) for e in g.edges]
    cells = []
    for entries in product(symbols, repeat=k):
        groups = {}
        for i, entry in enumerate(entries):
            if entry[0] == "e":
                groups.setdefault(entry[1], []).append(i)
        choices = [
            [(eid, part) for part in cl.ordered_partitions(tuple(coords))]
            for eid, coords in groups.items()
        ]
        for combo in product(*choices):
            cells.append(cl.BraidCell(k, entries, tuple(sorted(combo)), g))
    cells.sort(key=cl.BraidCell.sort_key)
    return cells


def reference_canonical_permutation(c):
    """sigma with act_on_cell(sigma, c) the least cell of c's orbit:
    coordinate j goes to its rank under (entry key, position along the edge)."""
    along = {blk[0]: pos for _, part in c.blocks for pos, blk in enumerate(part)}
    order = sorted(range(c.k), key=lambda j: (cl._entry_key(c.entries[j]), along.get(j, 0)))
    sigma = [0] * c.k
    for rank, j in enumerate(order):
        sigma[j] = rank
    return tuple(sigma)


def reference_canonical(objs):
    """[i]: (index of the canonical cell of cell i, the permutation taking
    that cell to cell i)."""
    index = {c: i for i, c in enumerate(objs)}
    out = []
    for c in objs:
        sigma = reference_canonical_permutation(c)
        out.append((index[cl.act_on_cell(sigma, c)], cl.relocate(sigma, tuple(range(c.k)))))
    return out


def assert_enumeration_matches(g, k):
    got = cl.enumerate_braid_cells(g, k)
    expected = reference_enumerate_braid_cells(g, k)
    assert [c.sort_key() for c in got] == [c.sort_key() for c in expected]
    assert got == expected


def assert_canonical_matches(g, k):
    objs = cl.configuration_cells(g, k)
    canon = cl.canonical_cells(g, k)
    cat = OrbitCategory(canon)
    expected = reference_canonical(objs)
    # position[r]: the place of the least cell objs[r] among the canonical cells
    position = {r: p for p, r in enumerate(sorted({r for r, _ in expected}))}
    assert canon == [objs[r] for r in position]
    # member r is canonical cell r, with the identity lift
    assert cat._canon[: len(canon)] == list(range(len(canon)))
    assert cat._lift[: len(canon)] == [tuple(range(k))] * len(canon)
    members = []
    for i, (r, lift) in enumerate(expected):
        # each cell is canonicalised from its own entries and blocks
        assert _least(objs[i].entries, objs[i].blocks) == (lift, objs[r].entries)
        m = cat.member(position[r], lift)
        assert (cat._canon[m], cat._lift[m]) == (position[r], lift)
        assert cat.top_label((None, m, None)) == objs[i].label()
        members.append(m)
        # the canonical cell is the least of the orbit, and the lift takes it to cell i
        orbit = [cl.act_on_cell(sigma, objs[i]) for sigma in permutations(range(k))]
        assert objs[r] == min(orbit, key=cl.BraidCell.sort_key)
        assert cl.act_on_cell(lift, objs[r]) == objs[i]
    # the members are the cells, one each, and their keys ascend as the
    # cells' sort keys do
    assert cat._members == {(position[r], lift): m for (r, lift), m in zip(expected, members)}
    assert [cat._keys[m] for m in members] == sorted({cat._keys[m] for m in members})


def swiatkowski_zero_cells(g, k):
    """sum_j C(|V|, j) C(|E|+k-j-1, k-j): the multisets of k vertices and
    edges that repeat no vertex, Swiatkowski's 0-cells (Colloq. Math. 2001)."""
    edges = len(g.edges)
    return sum(
        comb(len(g.vertices), j) * (comb(edges + k - j - 1, k - j) if j < k else 1)
        for j in range(k + 1)
    )


def assert_canonical_cells_match(g, k):
    identity = tuple(range(k))
    expected = [
        c for c in cl.configuration_cells(g, k)
        if cl.canonical_order(c.entries, c.blocks) == identity
    ]
    got = cl.canonical_cells(g, k)
    assert [c.sort_key() for c in got] == [c.sort_key() for c in expected]
    assert got == expected
    assert len(got) == swiatkowski_zero_cells(g, k)


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_enumeration_matches_reference_on_random_multigraphs(graph, k):
    assert_enumeration_matches(graph, k)


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_canonical_cells_match_reference_on_random_multigraphs(graph, k):
    assert_canonical_matches(graph, k)


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_canonical_cells_are_the_least_configuration_cells_on_random_multigraphs(graph, k):
    assert_canonical_cells_match(graph, k)


BENCHMARK_GRAPHS = [(gr.theta_graph(), 4), (k4(), 3), (xb(), 3), (k33(), 2)]
BENCHMARK_IDS = ["theta-4", "k4-3", "xb-3", "k33-2"]


@pytest.mark.parametrize("graph, k", BENCHMARK_GRAPHS, ids=BENCHMARK_IDS)
def test_enumeration_matches_reference(graph, k):
    assert_enumeration_matches(graph, k)


@pytest.mark.parametrize("graph, k", BENCHMARK_GRAPHS, ids=BENCHMARK_IDS)
def test_canonical_cells_match_reference(graph, k):
    assert_canonical_matches(graph, k)


@pytest.mark.parametrize("graph, k", BENCHMARK_GRAPHS, ids=BENCHMARK_IDS)
def test_canonical_cells_are_the_least_configuration_cells(graph, k):
    assert_canonical_cells_match(graph, k)


@pytest.mark.parametrize(
    "graph, k, count",
    [(gr.theta_graph(), 4, 41), (k4(), 3, 180), (gr.theta_graph(), 6, 85), (k4(), 5, 1182),
     (k33(), 4, 2355)],
    ids=["theta-4", "k4-3", "theta-6", "k4-5", "k33-4"],
)
def test_canonical_cells_count_swiatkowski_zero_cells(graph, k, count):
    cells = cl.canonical_cells(graph, k)
    assert len(cells) == swiatkowski_zero_cells(graph, k) == count
    identity = tuple(range(k))
    assert all(cl.canonical_order(c.entries, c.blocks) == identity for c in cells)
    assert [c.sort_key() for c in cells] == sorted(c.sort_key() for c in cells)
