"""``graphs.subdivide`` gives each new vertex an id no vertex has.

Edge e's new vertices are named e.1, e.2, ...; a graph may already hold a
vertex of that name, and then the new one takes a fresh id instead.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from graphconf import graphs as gr
from test_cli import run


def theta_like(third):
    """Two edges from u to w and a path u - ``third`` - w.  With ``third``
    t1.1, the graph already holds the id of t1's first new vertex."""
    edges = [("t1", "u", "w"), ("t2", "u", "w"), ("t3", "u", third), ("t4", "w", third)]
    return gr.build_graph(["u", "w", third], edges)


@pytest.mark.parametrize("n", [2, 3])
def test_compare_subdivides_a_graph_holding_a_new_id(capsys, tmp_path, n):
    outs = []
    for third in ("t1.1", "x"):
        path = tmp_path / f"{third}.json"
        path.write_text(json.dumps(gr.graph_to_json(theta_like(third))))
        code, out, err = run(capsys, "compare", "--graph", str(path), "-k", "2", "--subdivide", str(n))
        assert code == 0, err
        outs.append(out)
    # compare prints counts only, which no renaming changes
    assert outs[0] == outs[1]


def test_subdivide_keeps_the_names_when_none_collides():
    fine = gr.subdivide(gr.theta_graph(), 3)
    assert fine.vertices == ("t1.1", "t1.2", "t2.1", "t2.2", "t3.1", "t3.2", "u", "w")
    assert fine.edge_ids()[:3] == ("t1.1", "t1.2", "t1.3")


def test_subdivide_renames_a_colliding_vertex():
    fine = gr.subdivide(theta_like("t1.1"), 2)
    assert "t1.1'" in fine.vertices
    assert fine.edge("t1.1").ends == ("u", "t1.1'")
    assert fine.edge("t3.1").ends == ("u", "t3.1")


# ids that the new vertices and edges of e0, e1 and e0.1 would take
VERTEX_IDS = ["v", "e0.1", "e0.2", "e0.1'", "e1.1", "e0.1.1", "e1.1'"]
EDGE_IDS = ["e0", "e1", "e0.1", "e1.1"]


@st.composite
def closed_multigraphs(draw):
    """Up to four vertices and edges, with loops and ids that collide with
    the ones ``subdivide`` makes."""
    verts = draw(st.lists(st.sampled_from(VERTEX_IDS), min_size=1, max_size=4, unique=True))
    ids = draw(st.lists(st.sampled_from(EDGE_IDS), max_size=4, unique=True))
    end = st.sampled_from(verts)
    return gr.build_graph(verts, [(e, draw(end), draw(end)) for e in ids])


@settings(max_examples=60, deadline=None)
@given(closed_multigraphs(), st.integers(1, 4))
def test_subdivide_ids_are_distinct_on_random_multigraphs(graph, n):
    fine = gr.subdivide(graph, n)  # build_graph refuses a repeated id
    v, e = len(graph.vertices), len(graph.edges)
    assert len(set(fine.vertices)) == len(fine.vertices) == v + (n - 1) * e
    assert len(set(fine.edge_ids())) == len(fine.edges) == n * e
    assert set(graph.vertices) <= set(fine.vertices)
