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

And on single graphs, each the report the CLI prints:

- Ko-Park: ordered Conf_2 of K5 and of K3,3 are closed orientable
  surfaces, and UConf_2 of each a closed nonorientable one, with Z/2 in
  H_1.
- Chettih-Luetgehetmann ("The homology of configuration spaces of trees
  with loops", AGT 2018): Conf_k of a tree with loops has torsion-free
  homology.
"""

from hypothesis import given, settings, strategies as st

from graphconf import cli
from graphconf import graphs as gr
from graphconf.homology import chain_complex, homology
from graphconf.model import collapsed_cover, model_complex
from test_orbit_nerve import k33


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


def k5():
    verts = [f"v{i}" for i in range(5)]
    return gr.build_graph(
        verts, [(f"e{u}{v}", u, v) for i, u in enumerate(verts) for v in verts[i + 1:]]
    )


def ordered_report(g, k):
    return cli._collapsed_report(*collapsed_cover(g, k))


def test_ordered_two_point_spaces_of_k5_and_k33_are_orientable_surfaces():
    # genus 6 and 4: beta_2 = 1 and no torsion
    for g, betti in [(k5(), [1, 12, 1]), (k33(), [1, 8, 1])]:
        report = ordered_report(g, 2)
        assert report["betti"] == betti
        assert report["torsion"] == [[], [], []]


def test_unordered_two_point_spaces_of_k5_and_k33_have_two_torsion():
    # closed nonorientable surfaces: H_1 = Z^6 + Z/2 and Z^4 + Z/2
    for g, betti in [(k5(), [1, 6, 0]), (k33(), [1, 4, 0])]:
        report = cli._report_of_complex(model_complex(g, 2, quotient=True))
        assert report["betti"] == betti
        assert report["torsion"] == [[], [2], []]


def test_tree_with_loops_at_k4_has_torsion_free_homology():
    # `gen xb -x 1 -l 2 -q 2`: two hubs on one edge, each with two loops
    report = ordered_report(gr.double_hub_graph(1, 0, 2, 0, 2), 4)
    assert report["betti"] == [1, 1031, 1750]
    assert report["euler"] == 720
    assert report["torsion"] == [[], [], []]
