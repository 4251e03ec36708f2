from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from graphconf import graphs as gr
from graphconf.model import build_model, model_complex, symmetric_action
from graphconf.nerve import quotient_by_free_action


def k4():
    verts = ["a", "b", "c", "d"]
    return gr.build_graph(
        verts, [(f"e{u}{v}", u, v) for i, u in enumerate(verts) for v in verts[i + 1:]]
    )


def k33():
    verts = [f"a{i}" for i in (1, 2, 3)] + [f"b{j}" for j in (1, 2, 3)]
    return gr.build_graph(
        verts, [(f"e{i}{j}", f"a{i}", f"b{j}") for i in (1, 2, 3) for j in (1, 2, 3)]
    )


def xb():
    return gr.double_hub_graph(2, 1, 1, 1, 1)


def assert_quotient_of_ordered(g, k):
    """The unordered model, built without the ordered nerve, equals the
    ordered nerve divided by the chain-level S_k action."""
    m = build_model(g, k)
    expected = quotient_by_free_action(m.complex, symmetric_action(m))
    got = model_complex(g, k, quotient=True)
    assert got.labels == expected.labels
    assert got.faces == expected.faces


@pytest.mark.parametrize(
    "graph, k",
    [
        (gr.theta_graph(), 2),
        (gr.theta_graph(), 3),
        (gr.theta_graph(), 4),
        (k4(), 3),
        (xb(), 3),
        (k33(), 2),
        (gr.remove_leaves(gr.hub_graph(3, 1)), 3),
        (gr.minimal_circle(), 2),
        (gr.y_graph(), 1),
        (gr.build_graph(["a"], []), 2),
        (gr.build_graph(["a", "b"], []), 3),
    ],
    ids=[
        "theta-2", "theta-3", "theta-4", "k4-3", "xb-3", "k33-2", "w31-leafless-3",
        "minimal-circle-2", "y-1", "one-vertex-2", "two-vertices-3",
    ],
)
def test_orbit_nerve_is_quotient_of_ordered_nerve(graph, k):
    assert_quotient_of_ordered(graph, k)


@st.composite
def small_multigraphs(draw):
    """Up to three vertices and three edges; loops, open ends and isolated
    vertices all occur."""
    verts = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    end = st.one_of(st.none(), st.sampled_from(verts))
    edges = [(f"e{i}", draw(end), draw(end)) for i in range(draw(st.integers(0, 3)))]
    return gr.build_graph(verts, edges)


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_orbit_nerve_is_quotient_on_random_multigraphs(graph, k):
    assert_quotient_of_ordered(graph, k)


def gal_euler(g, k):
    """chi(UConf_k G) as the coefficient of t^k in Gal's series
    prod_v (1 + (1 - val v) t) / (1 - t)^|E|  (Colloq. Math. 2001).

    An open edge end meets no vertex; it counts as a leaf, whose factor is 1.
    """
    poly = [1]  # coefficients of the product over vertices
    for v in g.vertices:
        a = 1 - gr.valency(g, v)
        poly = [x + a * y for x, y in zip(poly + [0], [0] + poly)]
    edges = len(g.edges)
    # the coefficient of t^n in (1 - t)^-|E| is C(n + |E| - 1, n)
    return sum(c * comb(k - j + edges - 1, k - j) for j, c in enumerate(poly[: k + 1]))


def test_gal_hand_values():
    # chi = -2 unordered and -12 ordered for theta k=3, 0 for K4 k=3
    assert gal_euler(gr.theta_graph(), 3) == -2
    assert gal_euler(k4(), 3) == 0


@pytest.mark.parametrize(
    "graph, k",
    [
        (gr.theta_graph(), 2),
        (gr.theta_graph(), 3),
        (gr.theta_graph(), 4),
        (k4(), 3),
        (k33(), 2),
        (xb(), 3),
    ],
    ids=["theta-2", "theta-3", "theta-4", "k4-3", "k33-2", "xb-3"],
)
def test_euler_characteristic_matches_gal(graph, k):
    chi = gal_euler(graph, k)
    assert model_complex(graph, k, quotient=True).euler_characteristic() == chi
    assert model_complex(graph, k).euler_characteristic() == factorial(k) * chi

