"""``essential_vertices`` against the first formula: a through-vertex has
no loop and exactly two non-loop edge ends."""

from hypothesis import given, settings

from graphconf import graphs as gr
from test_orbit_nerve import small_multigraphs


def reference_essential_vertices(g):
    out = set()
    for v in g.vertices:
        if gr.valency(g, v) == 1:
            continue
        nonloop = sum(
            (e.end_minus == v) + (e.end_plus == v)
            for e in g.edges
            if not (e.end_minus == v and e.end_plus == v)
        )
        if gr.loops_at(g, v) == 0 and nonloop == 2:
            continue
        out.add(v)
    return out


@settings(max_examples=300, deadline=None)
@given(small_multigraphs())
def test_essential_vertices_match_reference(g):
    assert gr.essential_vertices(g) == reference_essential_vertices(g)


def test_essential_vertices_match_reference_on_families():
    for g in [
        gr.y_graph(),
        gr.theta_graph(),
        gr.minimal_circle(),
        gr.cycle_graph(3),
        gr.hub_graph(2, 1),
        gr.remove_leaves(gr.hub_graph(2, 0)),
        gr.double_hub_graph(2, 1, 1, 1, 1),
        gr.path_graph(3),
    ]:
        assert gr.essential_vertices(g) == reference_essential_vertices(g)
