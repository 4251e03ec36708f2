"""The ordered model as the S_k-cover of the orbit nerve.

``model_complex(g, k)`` builds the ordered model from one cell per orbit
(``model.ordered_nerve``).  Its labels and faces must be those of the nerve
of the face category on every configuration cell, ``build_model(g, k)``,
chain by chain.  The theorem checks run on the cover at sizes the face
category reaches only slowly.
"""

from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from graphconf import cells as cl
from graphconf import graphs as gr
from graphconf import model
from graphconf.homology import chain_complex, homology
from graphconf.model import build_model
from graphconf.nerve import collapse_free_faces
from reference_model import model_complex
from test_orbit_nerve import gal_euler, k4, k33, small_multigraphs, xb


def assert_same_as_face_category_nerve(g, k):
    expected = build_model(g, k).complex
    got = model_complex(g, k)
    assert len(got.labels) == len(expected.labels)
    for n, (labels, faces) in enumerate(zip(expected.labels, expected.faces)):
        assert got.labels[n] == labels, f"labels differ at dim {n}"
        assert got.faces[n] == faces, f"faces differ at dim {n}"


OPEN_EDGES = gr.build_graph(["v", "w"], [("a", "v", "v"), ("b", "v", None), ("c", None, "w"), ("d", "v", "w")])


@pytest.mark.parametrize(
    "graph, k",
    [
        (gr.theta_graph(), 2),
        (gr.theta_graph(), 3),
        (gr.theta_graph(), 4),
        (gr.theta_graph(), 5),
        (k4(), 2),
        (k4(), 3),
        (xb(), 3),
        (k33(), 2),
        (k33(), 3),
        (gr.remove_leaves(gr.hub_graph(3, 1)), 3),
        (gr.minimal_circle(), 2),
        (gr.y_graph(), 1),
        (gr.build_graph(["a"], []), 2),
        (gr.build_graph(["a", "b"], []), 3),
        (OPEN_EDGES, 2),
    ],
    ids=[
        "theta-2", "theta-3", "theta-4", "theta-5", "k4-2", "k4-3", "xb-3", "k33-2", "k33-3",
        "w31-leafless-3", "minimal-circle-2", "y-1", "one-vertex-2", "two-vertices-3",
        "open-edges-2",
    ],
)
def test_ordered_nerve_is_the_face_category_nerve(graph, k):
    assert_same_as_face_category_nerve(graph, k)


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_ordered_nerve_is_the_face_category_nerve_on_random_multigraphs(graph, k):
    assert_same_as_face_category_nerve(graph, k)


def refuse_configuration_cells(monkeypatch):
    """Make every maker of configuration cells, of their action and of the
    face category on them raise."""

    def refuse(*args):
        raise AssertionError("the ordered model made configuration cells or a face category")

    for module, name in [
        (cl, "configuration_cells"),
        (cl, "enumerate_braid_cells"),
        (cl, "act_on_cell"),
        (model, "face_category"),
    ]:
        monkeypatch.setattr(module, name, refuse)


def test_ordered_model_makes_no_configuration_cells(monkeypatch):
    refuse_configuration_cells(monkeypatch)
    s = model_complex(k4(), 3)
    assert s.fvector() == (1080, 6264, 9072, 3888)


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_ordered_euler_characteristic_is_k_factorial_times_gal(graph, k):
    # S_k acts freely, so chi(Conf_k) = k! chi(UConf_k), which is Gal's value
    assert model_complex(graph, k).euler_characteristic() == factorial(k) * gal_euler(graph, k)


def test_tree_with_loops_has_torsion_free_homology():
    # Chettih-Luetgehetmann (AGT 2018): Conf_k of a tree with loops has
    # torsion-free homology.  `gen xb -x 1 -k 1 -l 1 -p 1 -q 1` is a tree
    # with two loops and two open ends; chi = -120 = 4! * (-5), Gal's value.
    g = gr.double_hub_graph(1, 1, 1, 1, 1)
    s = model_complex(g, 4)
    assert s.euler_characteristic() == -120 == factorial(4) * gal_euler(g, 4)
    res = homology(chain_complex(collapse_free_faces(s)))
    assert res.betti == [1, 639, 518]
    assert res.torsion == [[], [], []]
