import pytest

from graphconf import graphs as gr
from graphconf.errors import Disconnected, HasLeaves
from graphconf.homology import chain_complex, homology
from graphconf.nerve import SemiSimplicialSet, quotient_by_free_action
from graphconf.reduced import (
    GluedComplex,
    build_reduced,
    classify_2cells,
    glued_chain_complex,
    reduced_symmetric_action,
)
from reference_model import model_complex


def reduced_betti(res):
    b = list(res.betti)
    while b and b[-1] == 0:
        b.pop()
    return b


def tag_counts(g):
    counts = {}
    for _, t in classify_2cells(g):
        counts[t.tag] = counts.get(t.tag, 0) + 1
    return counts


def test_classify_hub_family_counts():
    for k, l in [(2, 1), (1, 2), (3, 3)]:
        w = gr.remove_leaves(gr.hub_graph(k, l))
        counts = tag_counts(w)
        expect = {}
        if l:
            expect["LL_same"] = l
        if l > 1:
            expect["LL_distinct"] = l * (l - 1)
        if k and l:
            expect["BL"] = 2 * k * l
        if k:
            expect["BB_same"] = k
        if k > 1:
            expect["BB_distinct"] = k * (k - 1)
        normalized = {("BL" if t in ("BL", "LB") else t): n for t, n in counts.items()}
        assert normalized == expect
        assert not any(t.startswith("C") or t.endswith("C") for t in counts)


def test_classify_minimal_circle():
    assert tag_counts(gr.minimal_circle()) == {"LL_same": 1}


def test_classify_double_hub_has_connection_types():
    g = gr.double_hub_graph(1, 0, 1, 0, 1)
    counts = tag_counts(g)
    assert counts.get("CC_same") == 1
    assert counts.get("CL") == 4  # each loop against the connection, both orders


def test_classify_shared_vertex_counts():
    g = gr.theta_graph()
    for (_, t) in classify_2cells(g):
        assert t.tag in ("CC_same", "CC_distinct")
        assert t.shared_vertices == 2


def test_classify_rejects_leaves():
    with pytest.raises(HasLeaves):
        classify_2cells(gr.y_graph())


def test_build_reduced_rejects_leaves_and_disconnected():
    with pytest.raises(HasLeaves):
        build_reduced(gr.y_graph())
    two = gr.build_graph(["u", "w"], [("a", "u", "u"), ("b", "w", "w")])
    with pytest.raises(Disconnected):
        build_reduced(two)


def test_hub_family_fvectors():
    for k in range(4):
        for l in range(4):
            if k + l == 0:
                continue
            w = gr.remove_leaves(gr.hub_graph(k, l))
            gc = build_reduced(w)
            assert gc.fvector() == (
                2 * k * l + k * k + k + l * l + 3 * l,
                6 * k * l + 2 * k * k - 2 * k + 4 * l * l,
                0,
            )
            assert gc.euler_characteristic() == -(k + l) * (k + 3 * l - 3)


def test_minimal_circle_is_square_boundary():
    gc = build_reduced(gr.minimal_circle())
    assert gc.fvector() == (4, 4, 0)
    assert homology(glued_chain_complex(gc)).betti == [1, 1]


def test_double_hub_contains_torus_pieces():
    gc = build_reduced(gr.double_hub_graph(1, 0, 1, 0, 1))
    assert len(gc.faces2) == 16  # two tori, eight triangles each
    res = homology(glued_chain_complex(gc))
    assert res.betti == [1, 7, 2]


def test_torus_grid_homology():
    # independent construction of the 1x1 grid torus with a length-4 word
    torus = GluedComplex(
        vertices=["p"],
        edges=[("a", "p", "p"), ("b", "p", "p")],
        faces2=[("f", [("a", 1), ("b", 1), ("a", -1), ("b", -1)])],
        complex=SemiSimplicialSet([["p"]], [[]]),
        model=None,
        kept=[],
    )
    res = homology(glued_chain_complex(torus))
    assert res.betti == [1, 2, 1] and res.torsion == [[], [], []]


def test_point_complex():
    point = GluedComplex(
        vertices=["p"],
        edges=[],
        faces2=[],
        complex=SemiSimplicialSet([["p"]], [[]]),
        model=None,
        kept=[],
    )
    assert homology(glued_chain_complex(point)).betti == [1]


def test_open_path_two_points():
    # two open branches at a vertex: two ordered configurations, no cycles
    gc = build_reduced(gr.remove_leaves(gr.path_graph(2)))
    assert gc.fvector() == (6, 4, 0)
    assert reduced_betti(homology(glued_chain_complex(gc))) == [2]


def test_fully_open_edge_keeps_centers():
    g = gr.remove_leaves(gr.path_graph(1))
    gc = build_reduced(g)
    assert gc.fvector() == (2, 0, 0)
    assert homology(glued_chain_complex(gc)).betti == [2]


def test_betti_cross_check_against_full_model():
    graphs = [
        gr.minimal_circle(),
        gr.theta_graph(),
        gr.remove_leaves(gr.y_graph()),
        gr.remove_leaves(gr.hub_graph(2, 2)),
        gr.double_hub_graph(1, 1, 0, 0, 1),
        gr.double_hub_graph(2, 1, 1, 0, 0),
        gr.cycle_graph(2),
        gr.cycle_graph(3),
    ]
    for g in graphs:
        full = reduced_betti(homology(chain_complex(model_complex(g, 2))))
        red = reduced_betti(homology(glued_chain_complex(build_reduced(g))))
        assert full == red, g


def test_reduced_complex_view_matches_glued():
    gc = build_reduced(gr.theta_graph())
    via_nerve = homology(chain_complex(gc.complex))
    via_words = homology(glued_chain_complex(gc))
    assert reduced_betti(via_nerve) == reduced_betti(via_words)


def test_swap_action_free_and_halving():
    for g in [gr.minimal_circle(), gr.theta_graph(), gr.remove_leaves(gr.hub_graph(1, 2))]:
        gc = build_reduced(g)
        q = quotient_by_free_action(gc.complex, reduced_symmetric_action(gc))
        assert 2 * q.euler_characteristic() == gc.euler_characteristic()


def test_boundary_words_are_closed_walks():
    gc = build_reduced(gr.double_hub_graph(2, 0, 1, 0, 1))
    glued_chain_complex(gc)  # validates every word and boundary squared
    for _, word in gc.faces2:
        assert len(word) == 3
