"""`model --collapse` reports the lifted collapse of the orbit nerve.

Ordered `model --collapse` prints the f-vector of ``cover(small, right)``,
``small`` the free-face collapse of the orbit nerve (``model.collapsed_cover``),
with no ordered model built.  It used to print the rescan collapse of the
whole renumbered ordered model, ``collapse_free_faces(ordered_nerve(...))``,
which stays here as the reference: both are maximal free-face collapses of
the ordered model, and their f-vectors, dimensions and components must
agree.  The redefinition rests on two facts pinned here: the cover of
``small`` has no free face left, and its f-vector is k! times that of the
unordered model's collapse, which ``model --quotient --collapse`` prints.
"""

import json
import random
from math import factorial

import pytest

from graphconf import graphs as gr
from graphconf import model
from graphconf.homology import connected_components
from graphconf.nerve import collapse_free_faces
from test_orbit_nerve import k4, k33, xb
from test_ordered_report import graph_file, run


def rescan(g, k, drop_leaves=False):
    """f-vector, dimension and components of the old `model --collapse`:
    the rescan collapse of the whole renumbered ordered model."""
    if drop_leaves:
        g = gr.remove_leaves(g)
    small = collapse_free_faces(model.ordered_nerve(model.orbit_cover(g, k)))
    fvector = list(small.fvector())
    return fvector, len(fvector) - 1 if fvector else None, len(connected_components(small))


def model_report(tmp_path, g, k, *flags):
    code, out, err = run(["model", "--graph", graph_file(tmp_path, g), "-k", str(k), *flags])
    assert code == 0, err
    return json.loads(out)


def assert_collapse_is_the_rescans(tmp_path, g, k, drop_leaves=False):
    leaves = ["--remove-leaves"] if drop_leaves else []
    got = model_report(tmp_path, g, k, "--collapse", *leaves)
    assert (got["fvector"], got["dimension"], got["components"]) == rescan(g, k, drop_leaves)
    unordered = model_report(tmp_path, g, k, "--quotient", "--collapse", *leaves)
    assert got["fvector"] == [factorial(k) * n for n in unordered["fvector"]]
    # the lifted collapse is maximal: a lifted chain has as many cofaces as its orbit
    _, small, right = model.collapsed_cover(g, k, drop_leaves)
    lifted = model.cover(small, right)
    assert collapse_free_faces(lifted).fvector() == lifted.fvector() == tuple(got["fvector"])


W31 = gr.hub_graph(3, 1)
CORPUS = (
    [(f"theta-{k}", gr.theta_graph(), k, False) for k in range(1, 6)]
    + [(f"k4-{k}", k4(), k, False) for k in (2, 3, 4)]
    + [
        ("xb-3", xb(), 3, False),
        ("k33-2", k33(), 2, False),
        ("k33-3", k33(), 3, False),
        ("w31-3", W31, 3, False),
        ("w31-leafless-3", W31, 3, True),
        ("minimal-circle-2", gr.minimal_circle(), 2, False),
        ("y-2", gr.y_graph(), 2, False),
        ("path-2", gr.path_graph(2), 2, False),
    ]
)


@pytest.mark.parametrize(
    "graph, k, drop_leaves", [case[1:] for case in CORPUS], ids=[case[0] for case in CORPUS]
)
def test_collapse_is_the_rescans_on_the_corpus(tmp_path, graph, k, drop_leaves):
    assert_collapse_is_the_rescans(tmp_path, graph, k, drop_leaves)


def random_multigraph(rng):
    """Up to four vertices and four edges; loops, open ends and isolated
    vertices all occur."""
    verts = [f"v{i}" for i in range(rng.randint(1, 4))]
    ends = [None, *verts]
    edges = [(f"e{i}", rng.choice(ends), rng.choice(ends)) for i in range(rng.randint(0, 4))]
    return gr.build_graph(verts, edges)


def test_collapse_is_the_rescans_on_random_multigraphs(tmp_path):
    rng = random.Random(44)
    for _ in range(250):
        assert_collapse_is_the_rescans(tmp_path, random_multigraph(rng), rng.randint(1, 3))

