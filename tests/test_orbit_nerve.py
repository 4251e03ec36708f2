from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from graphconf import cells as cl
from graphconf import graphs as gr
from graphconf import model
from graphconf.homology import chain_complex, homology
from graphconf.model import OrbitCategory, build_model, symmetric_action
from graphconf.nerve import build_nerve, quotient_by_free_action
from reference_model import model_complex


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


def all_members(cat, canon, k):
    """{id: cell} of every member of every orbit, reached or not."""
    return {
        cat.member(r, lift): cl.act_on_cell(lift, c)
        for r, c in enumerate(canon) for lift in permutations(range(k))
    }


@pytest.mark.parametrize(
    "graph, k",
    [(gr.theta_graph(), 3), (k4(), 3), (xb(), 3), (k33(), 2)],
    ids=["theta-3", "k4-3", "xb-3", "k33-2"],
)
def test_orbit_category_after_lists_ascend(graph, k):
    # build_nerve's order argument needs every after() list ascending, as
    # the ordered model orders arrows: by target cell, then datum.  Moving a
    # canonical cell's list to another member of its orbit reorders it for
    # some members (on these graphs, only members no chain reaches).
    canon = cl.canonical_cells(graph, k)
    cat = OrbitCategory(canon)
    cells = all_members(cat, canon, k)
    for t in cells:
        arrows = cat.after((None, t, None))
        keys = [(cells[u].sort_key(), data) for _, u, data in arrows]
        assert keys == sorted(keys)
        assert all(m[0] == t for m in arrows)


def orbit_members(graph, k):
    """The orbit category on (graph, k), {id: cell} of every member of every
    orbit, and its inverse."""
    canon = cl.canonical_cells(graph, k)
    cat = OrbitCategory(canon)
    cells = all_members(cat, canon, k)
    return cat, cells, {c: m for m, c in cells.items()}


def moved_positions(cat, cells, index, t, tau):
    """[j]: where arrow j of member t's after() list lands in the list of
    tau . t once moved by tau, found from cells, not from the category."""
    e = index[cl.act_on_cell(tau, cells[t])]
    target = cat.after((None, e, None))
    moved = [
        (e, index[cl.act_on_cell(tau, cells[u])], cl.relocate(tau, data))
        for _, u, data in cat.after((None, t, None))
    ]
    return [target.index(m) for m in moved]


def assert_d0_keeps_positions(cat, cells, index, k):
    """For every chain of the orbit nerve, ending at t with d_0 ending at e,
    moving after(t) to e keeps every position: the rule ``build_nerve``
    uses for d_0, which ``OrbitCategory`` proves."""
    nerve = build_nerve(cat)
    perms = list(permutations(range(k)))
    ends = range(len(cat.objects))  # where each chain of the level below ends
    lasts = list(cat.arrows)  # the last arrow of each chain of the level
    for n, level in enumerate(nerve.faces[1:], 1):
        if n > 1:
            # a chain extends its last face by the arrow at its rank among
            # that face's children, which are consecutive
            first = {}
            lasts = [
                cat.after(lasts[fs[-1]])[c - first.setdefault(fs[-1], c)]
                for c, fs in enumerate(level)
            ]
        for m, fs in zip(lasts, level, strict=True):
            t, e = m[1], ends[fs[0]]
            tau = next(p for p in perms if cl.act_on_cell(p, cells[t]) == cells[e])
            positions = moved_positions(cat, cells, index, t, tau)
            assert positions == list(range(len(positions)))
        ends = [m[1] for m in lasts]


@pytest.mark.parametrize(
    "graph, k",
    [
        (gr.theta_graph(), 3),
        (k4(), 3),
        (k33(), 2),
        (gr.double_hub_graph(1, 0, 2, 0, 2), 3),
    ],
    ids=["theta-3", "k4-3", "k33-2", "xb-loops-3"],
)
def test_orbit_nerve_d0_keeps_positions(graph, k):
    # every d_0 keeps positions, although moving an after() list between
    # some pairs of members of an orbit reorders it: pairs no d_0 reaches
    cat, cells, index = orbit_members(graph, k)
    assert_d0_keeps_positions(cat, cells, index, k)
    reordered = 0
    for t in cells:
        for tau in permutations(range(k)):
            positions = moved_positions(cat, cells, index, t, tau)
            reordered += positions != sorted(positions)
    assert reordered


def test_unordered_model_makes_no_ordered_cells(monkeypatch):
    # theta k=6 has 61,200 configuration cells in 85 orbits; the unordered
    # model generates the 85 and makes another member of an orbit only
    # when a chain reaches it, so no more members than chains
    def refuse(*args):
        raise AssertionError("the unordered model enumerated ordered cells")

    monkeypatch.setattr(cl, "configuration_cells", refuse)
    monkeypatch.setattr(cl, "enumerate_braid_cells", refuse)
    built = []

    class Recorded(OrbitCategory):
        def __init__(self, canon):
            super().__init__(canon)
            built.append(self)

    monkeypatch.setattr(model, "OrbitCategory", Recorded)
    s = model_complex(gr.theta_graph(), 6, quotient=True)
    assert s.fvector() == (85, 351, 270)
    (cat,) = built
    assert len(cat._lift) <= sum(s.fvector())
    assert len(cat._out) <= sum(s.fvector())


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


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_orbit_nerve_d0_keeps_positions_on_random_multigraphs(graph, k):
    assert_d0_keeps_positions(*orbit_members(graph, k), k)


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
    # the coefficient of t^n in (1 - t)^-|E| is C(n + |E| - 1, n), and 1 or
    # 0 (n = 0 or not) with no edge
    return sum(
        c * (comb(k - j + edges - 1, k - j) if edges else int(j == k))
        for j, c in enumerate(poly[: k + 1])
    )


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



@st.composite
def connected_multigraphs(draw):
    """Connected closed multigraphs: up to three vertices and four edges,
    loops and parallel edges included."""
    verts = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    edges = [(f"t{i}", draw(st.sampled_from(verts[:i])), v) for i, v in enumerate(verts) if i]
    for i in range(draw(st.integers(0, 4 - len(edges)))):
        edges.append((f"e{i}", draw(st.sampled_from(verts)), draw(st.sampled_from(verts))))
    return gr.build_graph(verts, edges)


def trimmed_homology(g, k, quotient=True):
    res = homology(chain_complex(model_complex(g, k, quotient=quotient)))
    betti, torsion = list(res.betti), list(res.torsion)
    while betti and betti[-1] == 0 and not torsion[-1]:
        betti.pop()
        torsion.pop()
    return betti, torsion


@settings(max_examples=25, deadline=None)
@given(connected_multigraphs(), st.integers(1, 3))
def test_unordered_homology_invariant_under_subdivision(graph, k):
    # the model is a model of UConf_k of the space, not of the cell structure
    assert trimmed_homology(graph, k) == trimmed_homology(gr.subdivide(graph, 2), k)


@settings(max_examples=25, deadline=None)
@given(connected_multigraphs(), st.integers(1, 2))
def test_ordered_homology_invariant_under_subdivision(graph, k):
    assert trimmed_homology(graph, k, quotient=False) == trimmed_homology(
        gr.subdivide(graph, 2), k, quotient=False
    )


@pytest.mark.parametrize("k", range(4, 11))
def test_theta_betti_growth_at_large_k(k):
    # a k the ordered cells put out of reach (theta k=10 has 10! = 3,628,800
    # members in each of its 221 orbits): beta_2 grows as C(k-2, 2), a
    # polynomial of degree 2 = Delta^2 - 1 (An-Drummond-Cole-Knudsen,
    # Geom. Topol. 2022), and chi is Gal's value
    s = model_complex(gr.theta_graph(), k, quotient=True)
    assert s.euler_characteristic() == gal_euler(gr.theta_graph(), k)
    assert trimmed_homology(gr.theta_graph(), k) == ([1, 3, comb(k - 2, 2)], [[], [], []])


@pytest.mark.parametrize("k, beta_1", [(2, 13), (3, 29), (4, 51), (5, 79)])
def test_xb_betti_growth(k, beta_1):
    # `gen xb -x 2 -k 1 -l 1 -p 1 -q 1`: beta_1 = 3k^2 + k - 1 grows as a
    # polynomial in k (An-Drummond-Cole-Knudsen, Geom. Topol. 2022), here
    # of degree 2, and chi is Gal's value
    s = model_complex(xb(), k, quotient=True)
    assert s.euler_characteristic() == gal_euler(xb(), k)
    betti, torsion = trimmed_homology(xb(), k)
    assert betti[:2] == [1, beta_1] and torsion[1] == []
