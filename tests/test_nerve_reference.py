"""The face category and its nerve against the cell-object construction.

``reference_face_category`` finds each source through ``test_cells.morphisms_into`` and
an index of ``BraidCell`` objects, and ``reference_build_nerve`` sorts every
level, looks every face up and joins every label from its objects.  The
library builds both from source keys and positions; the results must be
identical, and so must the unordered model built from them.

A complex stores no chain tuples.  ``rebuilt_chains`` reads them back from
its faces alone: a chain of length n >= 2 is its first arrow followed by
its d_0.  Every face but d_0 and d_1 keeps the first arrow; it is read from
d_2, which is the last face only at length 2, so from length 3 up "the last
face is the chain it extends" is checked, not built in.
"""

import pytest
from hypothesis import given, settings, strategies as st

from graphconf import cells as cl
from graphconf import graphs as gr
from graphconf.model import Model, OrbitCategory, build_model, face_category, symmetric_action
from graphconf.nerve import (
    AcyclicCategory,
    SemiSimplicialSet,
    build_nerve,
    chain_label,
    quotient_by_free_action,
)
from graphconf.reduced import _keep_chain, build_reduced
from test_cells import morphisms_into
from test_orbit_category_reference import canonical_order
from test_orbit_nerve import k4, k33, small_multigraphs, xb


def reference_face_category(objs):
    index = {c: i for i, c in enumerate(objs)}
    morphisms = []
    for tgt, d in enumerate(objs):
        for source, data in morphisms_into(d):
            morphisms.append((index[source], tgt, data))
    return AcyclicCategory(
        [c.label() for c in objs],
        [c.dimension for c in objs],
        morphisms,
        cl.compose_data,
        key_label=cl.data_label,
    )


def reference_build_nerve(cat):
    labels = [[cat.object_label(i) for i in range(len(cat.objects))]]
    faces = [[]]
    chains = [[(i,) for i in range(len(cat.objects))]]
    if not cat.objects:
        return SemiSimplicialSet([], []), []
    level = [(m,) for m in range(len(cat.morphisms))]
    index = {ch: i for i, ch in enumerate(level)}
    if level:
        labels.append([cat.morphism_label(m) for (m,) in level])
        faces.append([(cat.morphisms[m][1], cat.morphisms[m][0]) for (m,) in level])
        chains.append(level)
    while level:
        nxt = sorted(ch + (m,) for ch in level for m in cat.out_of[cat.morphisms[ch[-1]][1]])
        if not nxt:
            break
        n = len(nxt[0])
        new_faces = []
        for ch in nxt:
            row = []
            for i in range(n + 1):
                if i == 0:
                    f = ch[1:]
                elif i == n:
                    f = ch[:-1]
                else:
                    f = ch[: i - 1] + (cat.compose(ch[i], ch[i - 1]),) + ch[i + 1:]
                row.append(index[f])
            new_faces.append(tuple(row))
        chain_objs = [[cat.morphisms[ch[0]][0]] + [cat.morphisms[m][1] for m in ch] for ch in nxt]
        labels.append([chain_label(cat.object_label(o) for o in objs) for objs in chain_objs])
        faces.append(new_faces)
        chains.append(nxt)
        level, index = nxt, {ch: i for i, ch in enumerate(nxt)}
    return SemiSimplicialSet(labels, faces), chains


def rebuilt_chains(s):
    """Each level of ``s`` as tuples of arrows (objects at level 0), read
    from d_0 and the first arrow, which d_2 keeps."""
    if not s.labels:
        return []
    chains = [[(i,) for i in range(s.size(0))]]
    first = list(range(s.size(1)))
    if s.size(1):
        chains.append([(a,) for a in first])
    for n in range(2, s.dimensions):
        first = [first[fs[2]] for fs in s.faces[n]]
        chains.append([(a,) + chains[n - 1][fs[0]] for a, fs in zip(first, s.faces[n])])
    return chains


def orbit_nerve(objs):
    """The nerve of the face category on the configuration cells ``objs``
    (listed in canonical order) divided by the free action of S_k, built
    from the orbit category on their canonical cells, the ones whose
    ``canonical_order`` is the identity, as ``model_complex(g, k,
    quotient=True)`` builds it from ``canonical_cells``."""
    canon = [c for c in objs if canonical_order(c.entries, c.blocks) == tuple(range(c.k))]
    return build_nerve(OrbitCategory(canon))


def assert_matches_reference(g, k):
    objs = cl.configuration_cells(g, k)
    cat, ref_cat = face_category(objs), reference_face_category(objs)
    assert cat.objects == ref_cat.objects
    assert cat.morphisms == ref_cat.morphisms
    s, (ref, ref_chains) = build_nerve(cat), reference_build_nerve(ref_cat)
    assert s.labels == ref.labels
    assert s.faces == ref.faces
    assert rebuilt_chains(s) == ref_chains
    unordered = quotient_by_free_action(ref, symmetric_action(Model(g, k, ref_cat, ref, objs)))
    got = orbit_nerve(objs)
    assert got.labels == unordered.labels
    assert got.faces == unordered.faces


@pytest.mark.parametrize(
    "graph, k",
    [(k4(), 3), (gr.theta_graph(), 4), (xb(), 3), (k33(), 2)],
    ids=["k4-3", "theta-4", "xb-3", "k33-2"],
)
def test_face_category_and_nerve_match_reference(graph, k):
    assert_matches_reference(graph, k)


@settings(max_examples=40, deadline=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_face_category_and_nerve_match_reference_on_random_multigraphs(graph, k):
    assert_matches_reference(graph, k)


def assert_levels_ascend_and_extend(graph, k):
    # each level is strictly increasing, and a chain's last face is the
    # chain it extends (for a single morphism, its source object)
    m = build_model(graph, k)
    s, morphisms = m.complex, m.category.morphisms
    chains = rebuilt_chains(s)
    for n in range(1, len(chains)):
        level = chains[n]
        assert all(a < b for a, b in zip(level, level[1:]))
        below = {ch: i for i, ch in enumerate(chains[n - 1])}
        for ch, fs in zip(level, s.faces[n]):
            parent = ch[:-1] if n > 1 else (morphisms[ch[0]][0],)
            assert fs[-1] == below[parent]


@settings(max_examples=40, deadline=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_nerve_levels_ascend_and_extend(graph, k):
    assert_levels_ascend_and_extend(graph, k)


def test_nerve_levels_ascend_and_extend_to_length_3():
    # the small multigraphs above rarely reach length 3, where the parent
    # check reads the first arrow from a middle face
    assert_levels_ascend_and_extend(k4(), 3)


def reference_kept(g):
    """``build_reduced``'s kept chains, filtered on chain tuples as the
    filter was first written: a chain's top cell and last datum come from
    its last arrow."""
    m = build_model(g, 2)
    _, chains = reference_build_nerve(m.category)
    classes = {e.id: gr.classify_edge(g, e.id) for e in g.edges}
    keep = []
    for n, level in enumerate(chains):
        keep.append([])
        for i, ch in enumerate(level):
            _, top, data = m.category.morphisms[ch[-1]] if n else (None, ch[0], None)
            if _keep_chain(g, m.cells[top], n, data, classes):
                keep[-1].append(i)
    while keep and not keep[-1]:
        keep.pop()
    return keep


@pytest.mark.parametrize(
    "graph",
    [
        gr.minimal_circle(),
        gr.theta_graph(),
        gr.remove_leaves(gr.y_graph()),
        gr.remove_leaves(gr.hub_graph(2, 2)),
        gr.remove_leaves(gr.hub_graph(3, 3)),
        gr.remove_leaves(gr.hub_graph(1, 2)),
        gr.remove_leaves(gr.path_graph(1)),
        gr.remove_leaves(gr.path_graph(2)),
        gr.double_hub_graph(1, 0, 1, 0, 1),
        gr.double_hub_graph(1, 1, 0, 0, 1),
        gr.double_hub_graph(2, 1, 1, 0, 0),
        gr.double_hub_graph(2, 0, 1, 0, 1),
        gr.cycle_graph(2),
        gr.cycle_graph(3),
    ],
    ids=[
        "circle", "theta", "y-leafless", "w22-leafless", "w33-leafless", "w12-leafless",
        "path1-leafless", "path2-leafless", "xb10101", "xb11001", "xb21100", "xb20101",
        "cycle2", "cycle3",
    ],
)
def test_reduced_filter_matches_chain_tuple_filter(graph):
    assert build_reduced(graph).kept == reference_kept(graph)
