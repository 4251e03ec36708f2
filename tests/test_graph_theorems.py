"""Theorems about configuration spaces of graphs, checked on generated graphs.

Both models, ordered and unordered, on connected multigraphs with loops and
open edge ends:

- H_i = 0 for i > max(1, min(k, m)), m the number of vertices of valency
  at least 3 (Ghrist, "Configuration spaces and braid groups on graphs in
  robotics", 2001; Swiatkowski, Colloq. Math. 2001).  The 1 covers a
  circle, which has no such vertex and still has H_1.
- H_1 is torsion-free on a planar graph (Ko-Park, "Characteristics of
  graph braid groups", DCG 2012), and every graph on at most four vertices
  is planar.
"""

from hypothesis import given, settings, strategies as st

from graphconf import graphs as gr
from graphconf.homology import chain_complex, homology
from graphconf.model import model_complex


@st.composite
def open_connected_multigraphs(draw):
    """Connected multigraphs on up to four vertices with up to five edges.

    A spanning tree joins the vertices; the other edges have at least one
    attached end, so loops, parallel edges and open ends occur but no
    edge floats free of the rest."""
    verts = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    edges = [(f"t{i}", draw(st.sampled_from(verts[:i])), v) for i, v in enumerate(verts) if i]
    end = st.one_of(st.none(), st.sampled_from(verts))
    for i in range(draw(st.integers(0, 5 - len(edges)))):
        ends = (draw(st.sampled_from(verts)), draw(end))
        edges.append((f"e{i}", *(ends if draw(st.booleans()) else ends[::-1])))
    return gr.build_graph(verts, edges)


def essential_count(g):
    return sum(1 for v in g.vertices if gr.valency(g, v) >= 3)


@settings(max_examples=60, deadline=None)
@given(open_connected_multigraphs(), st.integers(1, 3), st.booleans())
def test_homology_vanishes_above_essential_bound_and_h1_torsion_free(graph, k, quotient):
    s = model_complex(graph, k, quotient=quotient)
    # vertices and generators are keyed by these labels
    for level in s.labels[:2]:
        assert len(set(level)) == len(level)
    res = homology(chain_complex(s))
    bound = max(1, min(k, essential_count(graph)))
    for i in range(bound + 1, len(res.betti)):
        assert res.betti[i] == 0 and res.torsion[i] == [], (i, res)
    if len(res.torsion) > 1:
        assert res.torsion[1] == []
