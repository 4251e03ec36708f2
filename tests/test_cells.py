from itertools import permutations

import pytest

from graphconf import cells as cl
from graphconf import graphs as gr
from graphconf.errors import NonComposable, WrongDegree
from graphconf.model import face_category


def cell_of(g, entries, blocks=()):
    return cl.BraidCell(len(entries), tuple(entries), tuple(sorted(blocks)), g)


def morphisms_into(d):
    """All nonidentity face-category morphisms with target d, as
    (source cell, datum) pairs sorted by (source sort key, datum): the
    morphisms of ``faces_into`` with each source built as a ``BraidCell``."""
    out = [
        (cl.BraidCell(d.k, entries, blocks, d.graph), data)
        for (entries, blocks), data in cl.faces_into(d)
    ]
    out.sort(key=lambda m: (m[0].sort_key(), m[1]))
    return out


def braid_cell_faces(c):
    """One-step faces: merge two adjacent blocks of an edge group, or send
    its first (last) block to the edge's minus (plus) end when attached."""
    g = c.graph
    out = []
    for eid, part in c.blocks:
        edge = g.edge(eid)
        others = [(e, p) for e, p in c.blocks if e != eid]
        for i in range(len(part) - 1):
            merged = part[:i] + (tuple(sorted(part[i] + part[i + 1])),) + part[i + 2:]
            out.append(cell_of(g, c.entries, others + [(eid, merged)]))
        for which, end in ((0, edge.end_minus), (-1, edge.end_plus)):
            if end is None:
                continue
            entries = list(c.entries)
            for j in part[which]:
                entries[j] = ("v", end)
            rest = part[1:] if which == 0 else part[:-1]
            out.append(cell_of(g, entries, others + ([(eid, rest)] if rest else [])))
    return out


def braid_cell_closure(c):
    """All iterated faces of c, including c itself."""
    seen = {c}
    stack = [c]
    while stack:
        for f in braid_cell_faces(stack.pop()):
            if f not in seen:
                seen.add(f)
                stack.append(f)
    return seen


def data_between(src, tgt):
    """Data of the morphisms src -> tgt, in the order morphisms_into lists them."""
    return [data for source, data in morphisms_into(tgt) if source == src]


def test_braid_cells_minimal_circle_k2():
    # (v,v); (v,a); (a,v); and the loop square split into two halves plus
    # the merged-block diagonal cell
    g = gr.minimal_circle()
    cells = cl.enumerate_braid_cells(g, 2)
    assert len(cells) == 6
    assert sorted(c.label() for c in cells) == [
        "(a#0,a#0)",
        "(a#0,a#1)",
        "(a#0,v)",
        "(a#1,a#0)",
        "(v,a#0)",
        "(v,v)",
    ]
    diag = [c for c in cells if cl.in_discriminant(c)]
    assert len(diag) == 2  # (v,v) and the merged-block cell


def test_braid_cells_k1():
    g = gr.y_graph()
    assert len(cl.enumerate_braid_cells(g, 1)) == len(g.vertices) + len(g.edges)


def test_braid_cells_edgeless():
    g = gr.build_graph(["u", "w"], [])
    assert len(cl.enumerate_braid_cells(g, 2)) == 4


def test_discriminant_examples():
    g = gr.minimal_circle()
    merged = cell_of(g, [("e", "a"), ("e", "a")], [("a", ((0, 1),))])
    assert cl.in_discriminant(merged)
    split = cell_of(g, [("e", "a"), ("e", "a")], [("a", ((0,), (1,)))])
    assert not cl.in_discriminant(split)
    assert cl.in_discriminant(cell_of(g, [("v", "v"), ("v", "v")]))


def test_discriminant_closed_under_faces():
    for g in [gr.minimal_circle(), gr.cycle_graph(2), gr.remove_leaves(gr.hub_graph(1, 1))]:
        for k in (2, 3):
            for c in cl.enumerate_braid_cells(g, k):
                if cl.in_discriminant(c):
                    assert all(cl.in_discriminant(f) for f in braid_cell_closure(c))


def test_configuration_cell_counts_k2():
    for g in [gr.minimal_circle(), gr.remove_leaves(gr.y_graph()), gr.theta_graph(), gr.double_hub_graph(1, 1, 1, 0, 1)]:
        v, e = len(g.vertices), len(g.edges)
        assert len(cl.configuration_cells(g, 2)) == v * (v - 1) + 2 * v * e + e * e + e


def test_configuration_cells_y_open():
    assert len(cl.configuration_cells(gr.remove_leaves(gr.y_graph()), 2)) == 18


def test_configuration_cells_match_filter():
    g = gr.cycle_graph(2)
    everything = cl.enumerate_braid_cells(g, 2)
    conf = cl.configuration_cells(g, 2)
    assert conf == [c for c in everything if not cl.in_discriminant(c)]


def test_morphisms_loop_square():
    g = gr.minimal_circle()
    src = cell_of(g, [("v", "v"), ("e", "a")], [("a", ((1,),))])
    tgt = cell_of(g, [("e", "a"), ("e", "a")], [("a", ((0,), (1,)))])
    assert data_between(src, tgt) == [(cl.END_MINUS, cl.INTERIOR)]


def test_morphisms_k1_loop_two_lifts():
    g = gr.minimal_circle()
    src = cell_of(g, [("v", "v")])
    tgt = cell_of(g, [("e", "a")], [("a", ((0,),))])
    assert sorted(data_between(src, tgt)) == [(cl.END_MINUS,), (cl.END_PLUS,)]


def test_morphisms_hub_loop_branch():
    g = gr.remove_leaves(gr.hub_graph(1, 1))  # loop a1, branch b1 at hub c
    src = cell_of(g, [("v", "c"), ("e", "b1")], [("b1", ((1,),))])
    tgt = cell_of(g, [("e", "a1"), ("e", "b1")], [("a1", ((0,),)), ("b1", ((1,),))])
    assert len(data_between(src, tgt)) == 2  # the loop coordinate may drop to either end


def test_morphism_identity_singleton():
    # the identity is the only morphism c -> c, and morphisms_into never lists it
    for c in cl.configuration_cells(gr.minimal_circle(), 2):
        assert data_between(c, c) == []


def test_morphisms_respect_extremality():
    # in a two-coordinate edge group only the first may exit at minus
    g = gr.minimal_circle()
    tgt = cell_of(g, [("e", "a"), ("e", "a")], [("a", ((1,), (0,)))])
    src = cell_of(g, [("v", "v"), ("e", "a")], [("a", ((1,),))])
    assert data_between(src, tgt) == [(cl.END_PLUS, cl.INTERIOR)]


def test_compose_unit_laws():
    g = gr.cycle_graph(2)
    cells = cl.configuration_cells(g, 2)
    identity = (cl.INTERIOR,) * 2
    for d in cells:
        for _, data in morphisms_into(d):
            assert cl.compose_data(data, identity) == data
            assert cl.compose_data(identity, data) == data


def test_compose_associative_exhaustive():
    # composable triples need rank chains 0 < 1 < 2 < 3, so three points on
    # a three-vertex circle; the leaf-removed Y category has none at all
    g = gr.cycle_graph(3)
    cells = cl.configuration_cells(g, 3)
    out_of = {}
    for d in cells:
        for source, data in morphisms_into(d):
            out_of.setdefault(source, []).append((d, data))
    triples = 0
    for c in cells:
        for t1, d1 in out_of.get(c, []):
            for t2, d2 in out_of.get(t1, []):
                for _, d3 in out_of.get(t2, []):
                    left = cl.compose_data(d3, cl.compose_data(d2, d1))
                    right = cl.compose_data(cl.compose_data(d3, d2), d1)
                    assert left == right
                    triples += 1
    assert triples > 0


def test_compose_rejects_noncomposable():
    g = gr.minimal_circle()
    cells = cl.configuration_cells(g, 2)
    cat = face_category(cells)
    index = {c: i for i, c in enumerate(cells)}
    tgt = cell_of(g, [("e", "a"), ("e", "a")], [("a", ((0,), (1,)))])
    source, data = morphisms_into(tgt)[0]
    m = cat.morphism_index[(index[source], index[tgt], data)]
    with pytest.raises(NonComposable):
        cat.compose(m, m)


def test_morphism_forces_rank_increase():
    g = gr.remove_leaves(gr.hub_graph(1, 1))
    cells = cl.configuration_cells(g, 2)
    for d in cells:
        for source, _ in morphisms_into(d):
            assert source.dimension < d.dimension
            assert source != d


def test_act_examples():
    g = gr.minimal_circle()
    swap = (1, 0)
    va = cell_of(g, [("v", "v"), ("e", "a")], [("a", ((1,),))])
    av = cell_of(g, [("e", "a"), ("v", "v")], [("a", ((0,),))])
    assert cl.act_on_cell(swap, va) == av
    lo = cell_of(g, [("e", "a"), ("e", "a")], [("a", ((0,), (1,)))])
    hi = cell_of(g, [("e", "a"), ("e", "a")], [("a", ((1,), (0,)))])
    assert cl.act_on_cell(swap, lo) == hi
    assert cl.act_on_cell((0, 1), lo) == lo


def test_act_wrong_degree():
    g = gr.minimal_circle()
    with pytest.raises(WrongDegree):
        cl.act_on_cell((0, 1, 2), cell_of(g, [("v", "v"), ("e", "a")], [("a", ((1,),))]))


def test_action_preserves_structure():
    g = gr.cycle_graph(2)
    k = 2
    cells = cl.configuration_cells(g, k)
    index = set(cells)
    for sigma in permutations(range(k)):
        for c in cells:
            image = cl.act_on_cell(sigma, c)
            assert image in index
            assert cl.in_discriminant(image) == cl.in_discriminant(c)
            assert image.dimension == c.dimension
        for d in cells:
            # a morphism goes to the one with the moved cells and datum
            into_image = morphisms_into(cl.act_on_cell(sigma, d))
            for source, data in morphisms_into(d):
                assert (cl.act_on_cell(sigma, source), cl.relocate(sigma, data)) in into_image


def test_action_free_on_configuration_cells():
    for g in [gr.minimal_circle(), gr.cycle_graph(2), gr.remove_leaves(gr.y_graph())]:
        for k in (2, 3):
            for c in cl.configuration_cells(g, k):
                for sigma in permutations(range(k)):
                    if sigma != tuple(range(k)):
                        assert cl.act_on_cell(sigma, c) != c


def test_morphisms_into_agrees_with_pairwise():
    # c is a source of a morphism into d exactly when c is a configuration
    # cell in the closure of d other than d, the closure being built from
    # one-step braid faces with no use of morphisms_into
    cases = [
        (gr.minimal_circle(), 2),
        (gr.cycle_graph(2), 3),
        (gr.theta_graph(), 3),
        (gr.remove_leaves(gr.hub_graph(1, 1)), 2),
        (gr.y_graph(), 3),
    ]
    for graph, k in cases:
        for d in cl.configuration_cells(graph, k):
            into = morphisms_into(d)
            assert into == sorted(into, key=lambda m: (m[0].sort_key(), m[1]))
            faces = {c for c in braid_cell_closure(d) if c != d and not cl.in_discriminant(c)}
            assert {source for source, _ in into} == faces


def test_no_end_data_on_open_ends():
    g = gr.remove_leaves(gr.y_graph())  # all branches open at plus
    for d in cl.configuration_cells(g, 2):
        for _, data in morphisms_into(d):
            for i, datum in enumerate(data):
                if datum == cl.END_PLUS:
                    assert g.edge(d.entries[i][1]).end_plus is not None
                if datum == cl.END_MINUS:
                    assert g.edge(d.entries[i][1]).end_minus is not None
