import pytest

from graphconf import graphs as gr
from graphconf.errors import EmptyComplex, InternalError, InvalidCategory, NonFreeAction
from graphconf.homology import chain_complex, homology
from graphconf.model import build_model, model_complex, symmetric_action
from graphconf.nerve import (
    AcyclicCategory,
    SemiSimplicialSet,
    build_nerve,
    collapse_free_faces,
    dimension,
    quotient_by_free_action,
)


def poset_category(relations, ranks):
    """Category of a poset given by its full order relation (no multiplicity)."""
    objs = sorted(ranks)
    idx = {o: i for i, o in enumerate(objs)}
    morphisms = [(idx[a], idx[b], "<") for a, b in relations]
    return AcyclicCategory(objs, [ranks[o] for o in objs], morphisms, lambda k2, k1: "<")


def square_boundary_category():
    # poset of the boundary of a square: 4 vertices, 4 edges
    rel = []
    verts = ["p0", "p1", "p2", "p3"]
    edges = ["q01", "q12", "q23", "q30"]
    for i in range(4):
        rel.append((verts[i], edges[i]))
        rel.append((verts[(i + 1) % 4], edges[i]))
    ranks = {v: 0 for v in verts} | {e: 1 for e in edges}
    return poset_category(rel, ranks)


def test_build_nerve_square_boundary():
    s = build_nerve(square_boundary_category())
    assert s.fvector() == (8, 8)
    assert dimension(s) == 1


def test_build_nerve_minimal_circle_model():
    s = model_complex(gr.minimal_circle(), 2)
    assert s.fvector() == (4, 4)
    assert dimension(s) == 1


def test_build_nerve_y_open_model():
    s = model_complex(gr.y_graph(), 2, drop_leaves=True)
    assert s.fvector() == (18, 18)


def test_build_nerve_k1_circle():
    s = model_complex(gr.minimal_circle(), 1)
    assert s.fvector() == (2, 2)


def test_face_identities_on_models():
    for g, k in [
        (gr.cycle_graph(2), 2),
        (gr.remove_leaves(gr.hub_graph(1, 1)), 2),
        (gr.cycle_graph(3), 3),
        (gr.theta_graph(), 2),
    ]:
        model_complex(g, k).validate_face_identities()


def test_invalid_category_bad_rank():
    with pytest.raises(InvalidCategory):
        AcyclicCategory(["a", "b"], [1, 0], [(0, 1, "u")], lambda a, b: "u")


def test_invalid_category_missing_composite():
    # chain a -> b -> c whose composite is not registered
    objs = ["a", "b", "c"]
    morphisms = [(0, 1, "u"), (1, 2, "u")]
    cat = AcyclicCategory(objs, [0, 1, 2], morphisms, lambda k2, k1: "uu")
    with pytest.raises(InvalidCategory):
        build_nerve(cat)


def test_dimension_examples():
    assert dimension(model_complex(gr.minimal_circle(), 2)) == 1
    assert dimension(model_complex(gr.cycle_graph(2), 2)) == 2
    assert dimension(model_complex(gr.y_graph(), 1)) == 1


def test_dimension_k1_edgeless():
    g = gr.build_graph(["u", "w"], [])
    assert dimension(model_complex(g, 1)) == 0


def test_dimension_empty_raises():
    g = gr.build_graph(["u"], [])
    s = model_complex(g, 2)  # a single vertex holds no two distinct points
    with pytest.raises(EmptyComplex):
        dimension(s)


def test_dimension_bound_small_sample():
    for g, v in [(gr.minimal_circle(), 1), (gr.cycle_graph(2), 2), (gr.y_graph(), 4)]:
        for k in (2, 3):
            s = model_complex(g, k)
            if s.size(0):
                assert dimension(s) <= min(k, v)


def test_quotient_square_to_circle():
    m = build_model(gr.minimal_circle(), 2)
    q = quotient_by_free_action(m.complex, symmetric_action(m))
    assert q.fvector() == (2, 2)
    assert homology(chain_complex(q)).betti == [1, 1]


def test_quotient_halves_hub_model():
    m = build_model(gr.remove_leaves(gr.hub_graph(1, 1)), 2)
    assert m.complex.fvector() == (10, 12)
    q = quotient_by_free_action(m.complex, symmetric_action(m))
    assert q.fvector() == (5, 6)


def test_quotient_trivial_group():
    s = model_complex(gr.minimal_circle(), 2)
    assert quotient_by_free_action(s, []).fvector() == s.fvector()


def test_quotient_euler_ratio():
    for g, k in [(gr.cycle_graph(2), 2), (gr.theta_graph(), 2), (gr.cycle_graph(3), 3)]:
        m = build_model(g, k)
        action = symmetric_action(m)
        q = quotient_by_free_action(m.complex, action)
        order = len(action) + 1
        assert m.complex.euler_characteristic() == order * q.euler_characteristic()


def test_quotient_rejects_nonfree():
    s = build_nerve(square_boundary_category())
    # a reflection fixing two vertices
    perm0 = [0, 3, 2, 1]
    with pytest.raises(NonFreeAction):
        quotient_by_free_action(s, [[perm0, list(range(8))]])


def test_collapse_y_open_to_dodecagon():
    s = model_complex(gr.y_graph(), 2, drop_leaves=True)
    out = collapse_free_faces(s)
    assert out.fvector() == (12, 12)


def test_restrict_renumbers_faces_and_refuses_a_dropped_face():
    # the segment p < q > r: chains p, q, r and the arrows p->q, r->q
    s = build_nerve(poset_category([("p", "q"), ("r", "q")], {"p": 0, "r": 0, "q": 1}))
    out = s.restrict([[1, 2], [1]])
    assert out.labels == [[s.labels[0][1], s.labels[0][2]], [s.labels[1][1]]]
    assert out.faces == [[], [(0, 1)]]  # r->q has faces (q, r) at their new positions
    assert s.restrict([[0], []]).fvector() == (1,)  # trailing empty levels are dropped
    with pytest.raises(InternalError):
        s.restrict([[0, 1], [1]])  # r->q keeps r, which is dropped


def test_collapse_segment_to_point():
    cat = poset_category([("p", "q"), ("r", "q")], {"p": 0, "r": 0, "q": 1})
    out = collapse_free_faces(build_nerve(cat))
    assert out.fvector() == (1,)


def test_collapse_fixed_point():
    s = model_complex(gr.minimal_circle(), 2)  # a circle: nothing is free
    assert collapse_free_faces(s).fvector() == s.fvector()


def collapse_by_rescan(s):
    """Reference collapse: recount the alive cofaces of every chain before
    testing it, scanning by ascending dimension then index to a fixed point.
    Returns the surviving chain indices per dimension."""
    alive = [[True] * len(level) for level in s.labels]
    changed = True
    while changed:
        changed = False
        for n in range(len(s.labels) - 1):
            for t in range(len(s.labels[n])):
                inc = [c for c, fs in enumerate(s.faces[n + 1]) if alive[n + 1][c] for f in fs if f == t]
                if alive[n][t] and len(inc) == 1:
                    alive[n][t] = alive[n + 1][inc[0]] = False
                    changed = True
    return [[i for i, ok in enumerate(level) if ok] for level in alive]


@pytest.mark.parametrize(
    "g, k, fvector",
    [(gr.theta_graph(), 3, (24, 36)), (gr.y_graph(), 2, (12, 12))],
    ids=["theta-k3", "y-k2"],
)
def test_collapse_matches_rescan_reference(g, k, fvector):
    s = model_complex(g, k)
    out = collapse_free_faces(s)
    assert out.fvector() == fvector
    kept = [level for level in collapse_by_rescan(s) if level]
    assert out.labels == [[s.labels[n][i] for i in level] for n, level in enumerate(kept)]
    for n in range(1, len(kept)):
        pos = {i: j for j, i in enumerate(kept[n - 1])}
        assert out.faces[n] == [tuple(pos[f] for f in s.faces[n][i]) for i in kept[n]]


def test_face_identity_failure_is_internal_error():
    s = model_complex(gr.theta_graph(), 2)
    faces = [list(level) for level in s.faces]
    a, b, c = faces[2][0]
    faces[2][0] = (a, c, b)
    with pytest.raises(InternalError):
        SemiSimplicialSet(s.labels, faces).validate_face_identities()


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("change", [lambda fs: fs[:-1], lambda fs: fs + (0,)], ids=["short", "long"])
def test_face_arity_failure_is_internal_error(level, change):
    # chain_complex would take every listed face, so a chain must have n+1
    s = model_complex(gr.theta_graph(), 2)
    faces = [list(lv) for lv in s.faces]
    faces[level][0] = change(faces[level][0])
    with pytest.raises(InternalError, match=f"does not have {level + 1} faces"):
        SemiSimplicialSet(s.labels, faces).validate_face_identities()


def test_face_list_shape_failure_is_internal_error():
    s = model_complex(gr.theta_graph(), 2)
    with pytest.raises(InternalError, match="face levels"):
        SemiSimplicialSet(s.labels, s.faces[:-1]).validate_face_identities()
    faces = [list(lv) for lv in s.faces]
    faces[1].append(faces[1][0])
    with pytest.raises(InternalError, match="face count"):
        SemiSimplicialSet(s.labels, faces).validate_face_identities()


def test_collapse_preserves_betti():
    for g, k in [(gr.cycle_graph(2), 2), (gr.y_graph(), 2), (gr.remove_leaves(gr.hub_graph(2, 1)), 2)]:
        s = model_complex(g, k)
        before = homology(chain_complex(s)).betti
        after = homology(chain_complex(collapse_free_faces(s))).betti
        n = max(len(before), len(after))
        assert before + [0] * (n - len(before)) == after + [0] * (n - len(after))


def test_k1_model_matches_graph_betti():
    for g in [gr.cycle_graph(3), gr.y_graph(), gr.theta_graph(), gr.hub_graph(2, 2)]:
        s = model_complex(g, 1)
        b = homology(chain_complex(s)).betti
        b0, b1 = gr.graph_betti(g)
        assert b[0] == b0 and (b[1] if len(b) > 1 else 0) == b1
