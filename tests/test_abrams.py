from itertools import chain, permutations

import pytest

from graphconf import graphs as gr
from graphconf.abrams import (
    _cube_signs,
    abrams_complex,
    check_abrams_conditions,
    cubical_chain_complex,
)
from graphconf.errors import NonFreeAction, OpenEdge
from graphconf.homology import ChainComplex, chain_complex, homology
from graphconf.model import model_complex


# The chain complex of an ordered cube complex divided by S_k, orbit by
# orbit: the reference for the orbit complex, abrams_complex(g, k,
# quotient=True), which replaced it in the program.

def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def orbit_rep(cube) -> tuple[tuple, int]:
    """Sorted representative and the orientation sign of the relocation,
    i.e. the parity of the induced permutation on edge factors."""
    order = sorted(range(len(cube)), key=lambda i: cube[i])
    rep = tuple(cube[i] for i in order)
    edge_old = [i for i in range(len(cube)) if cube[i][0] == "e"]
    rank_old = {i: p for p, i in enumerate(edge_old)}
    edge_new_order = [i for i in order if i in rank_old]
    perm = [rank_old[i] for i in edge_new_order]
    return rep, perm_sign(perm)


def quotient(a) -> ChainComplex:
    """Chain complex of the orbit complex under coordinate permutations.

    The action is free because cube factors are pairwise distinct.  Each
    orbit is represented by its sorted member, whose faces are read by
    index; a face goes to the row of its orbit with the orientation sign of
    its edge-factor relocation.
    """
    for cube in chain.from_iterable(a.cells):
        for sigma in permutations(range(a.k)):
            if sigma != tuple(range(a.k)) and tuple(cube[i] for i in sigma) == cube:
                raise NonFreeAction("repeated factors in a cube cell")
    sizes, boundaries = [], []
    for n, level in enumerate(a.cells):
        orbits = [orbit_rep(cube) for cube in level]
        reps = sorted({rep for rep, _ in orbits})
        if n:
            position = {cube: i for i, cube in enumerate(level)}
            signs, mat = _cube_signs(n), {}
            for j, rep in enumerate(reps):
                for f, sign in zip(a.faces[n][position[rep]], signs):
                    key = (row[f], j)
                    mat[key] = mat.get(key, 0) + sign * orient[f]
            boundaries.append({key: v for key, v in mat.items() if v})
        # row[f], orient[f]: the orbit row of cube f and its sign there,
        # read as faces by the level above
        rep_row = {rep: i for i, rep in enumerate(reps)}
        row = [rep_row[rep] for rep, _ in orbits]
        orient = [sign for _, sign in orbits]
        sizes.append(len(reps))
    return ChainComplex(sizes, boundaries)


def reduced_betti(res):
    b = list(res.betti)
    while b and b[-1] == 0:
        b.pop()
    return b


def test_minimal_circle_empty():
    a = abrams_complex(gr.minimal_circle(), 2)
    assert a.fvector() == ()


def test_two_vertex_circle_two_points():
    a = abrams_complex(gr.cycle_graph(2), 2)
    assert a.fvector() == (2,)
    assert homology(cubical_chain_complex(a)).betti == [2]


def test_three_cycle_hexagon():
    a = abrams_complex(gr.cycle_graph(3), 2)
    assert a.fvector() == (6, 6)
    assert homology(cubical_chain_complex(a)).betti == [1, 1]


def test_rejects_open_graph():
    with pytest.raises(OpenEdge):
        abrams_complex(gr.remove_leaves(gr.y_graph()), 2)
    with pytest.raises(OpenEdge):
        check_abrams_conditions(gr.remove_leaves(gr.y_graph()), 2)


def test_every_face_present_and_dd_zero():
    for g, k in [(gr.cycle_graph(3), 2), (gr.subdivide(gr.y_graph(), 3), 2), (gr.subdivide(gr.theta_graph(), 3), 2)]:
        a = abrams_complex(g, k)
        present = {cell for level in a.cells for cell in level}
        for level in a.cells[1:]:
            for cube in level:
                for pos, c in enumerate(cube):
                    if c[0] != "e":
                        continue
                    e = g.edge(c[1])
                    for end in e.ends:
                        face = cube[:pos] + (("v", end),) + cube[pos + 1:]
                        assert face in present
        cubical_chain_complex(a)  # NotAComplex would propagate


def test_conditions_three_cycle():
    rep = check_abrams_conditions(gr.cycle_graph(3), 2)
    assert rep.ok and rep.girth == 3 and rep.min_essential_distance is None


def test_conditions_minimal_circle():
    rep = check_abrams_conditions(gr.minimal_circle(), 2)
    assert not rep.ok and rep.girth == 1


def test_conditions_subdivided_y():
    rep = check_abrams_conditions(gr.subdivide(gr.y_graph(), 3), 2)
    assert rep.ok and rep.girth is None


def test_conditions_parallel_pair_girth():
    rep = check_abrams_conditions(gr.theta_graph(), 2)
    assert rep.girth == 2 and not rep.ok


def test_conditions_essential_distance():
    # two essential hubs joined by one edge, with pendant leaves
    verts = ["c1", "c2", "x1", "x2", "x3", "x4"]
    specs = [
        ("m1", "c1", "c2"),
        ("b1", "c1", "x1"),
        ("b2", "c1", "x2"),
        ("d1", "c2", "x3"),
        ("d2", "c2", "x4"),
    ]
    h = gr.build_graph(verts, specs)
    rep = check_abrams_conditions(h, 2)
    assert rep.min_essential_distance == 1 and not rep.ok
    rep3 = check_abrams_conditions(gr.subdivide(h, 3), 2)
    assert rep3.min_essential_distance == 3 and rep3.ok


def test_subdivided_y_matches_model():
    a = abrams_complex(gr.subdivide(gr.y_graph(), 3), 2)
    res = homology(cubical_chain_complex(a))
    assert reduced_betti(res) == [1, 1]
    model = homology(chain_complex(model_complex(gr.y_graph(), 2)))
    assert reduced_betti(model) == [1, 1]


def test_quotient_hexagon_is_triangle():
    a = abrams_complex(gr.cycle_graph(3), 2)
    q = quotient(a)
    assert q.sizes == [3, 3]
    assert homology(q).betti == [1, 1]


def test_quotient_empty():
    a = abrams_complex(gr.minimal_circle(), 2)
    assert quotient(a).sizes == []


def test_quotient_subdivided_hub():
    a = abrams_complex(gr.subdivide(gr.hub_graph(1, 1), 3), 2)
    res = homology(quotient(a))
    assert reduced_betti(res) == [1, 2]


def test_quotient_k3_dd_zero_with_orientations():
    a = abrams_complex(gr.subdivide(gr.theta_graph(), 4), 3)
    q = quotient(a)  # ChainComplex construction asserts boundary squared = 0
    ordered = homology(cubical_chain_complex(a))
    unordered = homology(q)
    assert ordered.betti[0] == unordered.betti[0] == 1


@pytest.mark.parametrize(
    "cube, rep, sign",
    [
        # two edge factors out of order: sorting swaps them
        ((("e", "b"), ("e", "a")), (("e", "a"), ("e", "b")), -1),
        ((("v", "x"), ("e", "b"), ("e", "a")), (("e", "a"), ("e", "b"), ("v", "x")), -1),
        # edge factors rotated as a 3-cycle, an even permutation
        ((("e", "b"), ("e", "c"), ("e", "a")), (("e", "a"), ("e", "b"), ("e", "c")), 1),
        ((("e", "c"), ("v", "x"), ("e", "a"), ("e", "b")),
         (("e", "a"), ("e", "b"), ("e", "c"), ("v", "x")), 1),
    ],
    ids=["swap", "swap-past-vertex", "three-cycle", "three-cycle-past-vertex"],
)
def test_orbit_rep_orientation_sign(cube, rep, sign):
    # the sign is the parity of the reordering of the edge factors alone
    assert orbit_rep(cube) == (rep, sign)


def test_free_action_on_cubes():
    a = abrams_complex(gr.cycle_graph(3), 2)
    for cube in chain.from_iterable(a.cells):
        for sigma in permutations(range(2)):
            if sigma != (0, 1):
                assert tuple(cube[i] for i in sigma) != cube
