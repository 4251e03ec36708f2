import dataclasses

import pytest
from hypothesis import given, strategies as st

from graphconf import graphs as gr
from graphconf.errors import DuplicateId, InputError, OpenEdge, UnknownEdge, UnknownVertex
from graphconf.graphs import EdgeClass


def test_build_minimal_circle():
    g = gr.build_graph(["v"], [("a", "v", "v")])
    assert g.vertices == ("v",)
    assert g.edges[0].ends == ("v", "v")


def test_build_empty():
    g = gr.build_graph([], [])
    assert g.vertices == () and g.edges == ()


def test_build_y():
    g = gr.y_graph()
    assert len(g.vertices) == 4 and len(g.edges) == 3


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateId):
        gr.build_graph(["v", "v"], [])
    with pytest.raises(DuplicateId):
        gr.build_graph(["v"], [("a", "v", "v"), ("a", "v", "v")])


def test_build_rejects_unknown_vertex():
    with pytest.raises(UnknownVertex):
        gr.build_graph(["v"], [("a", "v", "w")])


@pytest.mark.parametrize("char", "(),#>|")
def test_build_rejects_ids_holding_label_syntax(char):
    with pytest.raises(InputError):
        gr.build_graph(["v", f"w{char}"], [])
    with pytest.raises(InputError):
        gr.build_graph(["v"], [(f"a{char}", "v", "v")])


def test_classify_loop():
    g = gr.minimal_circle()
    assert gr.classify_edge(g, "a") == EdgeClass.LOOP


def test_classify_branch_on_y():
    g = gr.y_graph()
    assert gr.classify_edge(g, "e1") == EdgeClass.BRANCH


def test_classify_connection_between_hubs():
    g = gr.double_hub_graph(2, 1, 1, 1, 1)
    for eid in ("m1", "m2"):
        assert gr.classify_edge(g, eid) == EdgeClass.CONNECTION


def test_edge_lookup_keeps_graph_identity():
    # the id -> edge table is not a field: equal graphs built separately
    # still compare, hash, print and serialise alike
    a, b = gr.theta_graph(), gr.theta_graph()
    assert a.edge("t2") == a.edges[1]
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert gr.graph_to_json(a) == gr.graph_to_json(b)
    assert [f.name for f in dataclasses.fields(gr.Graph)] == ["vertices", "edges"]
    with pytest.raises(UnknownEdge):
        a.edge("zz")


def test_classify_unknown_edge():
    with pytest.raises(UnknownEdge):
        gr.classify_edge(gr.minimal_circle(), "zz")


def test_classify_partitions_edges():
    for g in [gr.minimal_circle(), gr.y_graph(), gr.theta_graph(), gr.double_hub_graph(1, 2, 1, 0, 2)]:
        classes = [gr.classify_edge(g, e.id) for e in g.edges]
        assert len(classes) == len(g.edges)


def test_valency():
    assert gr.valency(gr.minimal_circle(), "v") == 2
    y = gr.y_graph()
    assert gr.valency(y, "c") == 3
    assert gr.valency(y, "x") == 1
    with pytest.raises(UnknownVertex):
        gr.valency(y, "nope")


def test_remove_leaves_y():
    g = gr.remove_leaves(gr.y_graph())
    assert g.vertices == ("c",)
    assert all(e.end_minus == "c" and e.end_plus is None for e in g.edges)


def test_remove_leaves_fixed_point_on_circle():
    g = gr.minimal_circle()
    assert gr.remove_leaves(g) == g


def test_remove_leaves_path_both_ends():
    g = gr.path_graph(1)
    out = gr.remove_leaves(g)
    assert out.vertices == ()
    assert out.edges[0].ends == (None, None)


def test_remove_leaves_idempotent():
    for g in [gr.y_graph(), gr.hub_graph(3, 2), gr.path_graph(3)]:
        once = gr.remove_leaves(g)
        assert gr.remove_leaves(once) == once


def test_subdivide_circle():
    g = gr.cycle_graph(3)
    assert len(g.vertices) == 3 and len(g.edges) == 3


def test_subdivide_identity():
    g = gr.y_graph()
    assert gr.subdivide(g, 1) == g


def test_subdivide_y_counts():
    g = gr.subdivide(gr.y_graph(), 2)
    assert len(g.vertices) == 7 and len(g.edges) == 6


def test_subdivide_rejects_open():
    with pytest.raises(OpenEdge):
        gr.subdivide(gr.remove_leaves(gr.y_graph()), 2)


@given(st.integers(min_value=1, max_value=5))
def test_subdivide_counts(n):
    g = gr.theta_graph()
    out = gr.subdivide(g, n)
    assert len(out.vertices) == len(g.vertices) + (n - 1) * len(g.edges)
    assert len(out.edges) == n * len(g.edges)


def test_essential_vertices():
    assert gr.essential_vertices(gr.y_graph()) == {"c"}
    assert gr.essential_vertices(gr.cycle_graph(3)) == set()
    assert gr.essential_vertices(gr.minimal_circle()) == {"v"}
    w = gr.remove_leaves(gr.hub_graph(2, 1))
    assert gr.essential_vertices(w) == {"c"}
    # two plain branches only: a through-vertex, not essential
    assert gr.essential_vertices(gr.remove_leaves(gr.hub_graph(2, 0))) == set()


def test_valency_counts_attached_ends():
    g = gr.double_hub_graph(2, 1, 2, 0, 1)
    total = sum(gr.valency(g, v) for v in g.vertices)
    attached = sum((e.end_minus is not None) + (e.end_plus is not None) for e in g.edges)
    assert total == attached


def test_json_round_trip():
    g = gr.double_hub_graph(1, 1, 1, 1, 0)
    assert gr.graph_from_json(gr.graph_to_json(g)) == g


def test_json_open_end_is_null():
    data = gr.graph_to_json(gr.remove_leaves(gr.y_graph()))
    assert data["edges"][0]["ends"][1] is None


def reference_component_count(g):
    """Components by breadth-first search over vertices and edges, an edge
    meeting the vertices its attached ends name."""
    nodes = [("v", v) for v in g.vertices] + [("e", e.id) for e in g.edges]
    adjacent = {x: set() for x in nodes}
    for e in g.edges:
        for end in e.ends:
            if end is not None:
                adjacent["e", e.id].add(("v", end))
                adjacent["v", end].add(("e", e.id))
    seen, count = set(), 0
    for x in nodes:
        if x in seen:
            continue
        count += 1
        seen.add(x)
        todo = [x]
        while todo:
            for y in adjacent[todo.pop()] - seen:
                seen.add(y)
                todo.append(y)
    return count


@st.composite
def open_multigraphs(draw):
    """Up to four vertices and four edges; loops, parallel edges, open ends,
    edges with no attached end and isolated vertices all occur."""
    verts = [f"v{i}" for i in range(draw(st.integers(0, 4)))]
    end = st.one_of(st.none(), st.sampled_from(verts)) if verts else st.none()
    return gr.build_graph(verts, [(f"e{i}", draw(end), draw(end)) for i in range(draw(st.integers(0, 4)))])


@given(open_multigraphs())
def test_component_count_matches_search(g):
    count = reference_component_count(g)
    assert gr.component_count(g) == count
    assert gr.is_connected(g) == (count == 1)
    if g.is_closed():
        assert gr.graph_betti(g) == (count, len(g.edges) - len(g.vertices) + count)


def test_component_count_examples():
    assert gr.component_count(gr.build_graph([], [])) == 0
    assert not gr.is_connected(gr.build_graph([], []))
    # an edge with no attached end is a component of its own
    assert gr.component_count(gr.build_graph(["a"], [("e", None, None)])) == 2
    assert gr.is_connected(gr.remove_leaves(gr.y_graph()))
    assert gr.graph_betti(gr.theta_graph()) == (1, 2)
    assert gr.graph_betti(gr.build_graph(["a", "b"], [("l", "a", "a")])) == (2, 1)
