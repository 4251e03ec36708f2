"""Labels only where a report prints them.

``build_nerve(cat, labels=False)`` builds the same faces as the labelled
nerve, with each level a ``range`` and no label method called.  The
homology reports (``model``, ``model --quotient``, ``compare``) print no
chain label, so they make none; ``braidgroup`` labels the unordered model's
level 1 from the orbit category, which is what ``build_nerve`` puts there.
"""

import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from graphconf import cells as cl
from graphconf import graphs as gr
from graphconf import nerve, pi1
from graphconf.errors import NotOneDimensional
from graphconf.model import OrbitCategory, face_category
from graphconf.nerve import build_nerve
from test_cli import run
from test_orbit_nerve import k4, k33, small_multigraphs, xb

CORPUS = [
    ("theta-2", gr.theta_graph(), 2),
    ("theta-3", gr.theta_graph(), 3),
    ("k4-3", k4(), 3),
    ("xb-3", xb(), 3),
    ("k33-2", k33(), 2),
    ("w31-3", gr.hub_graph(3, 1), 3),
    ("y-1", gr.y_graph(), 1),
    ("one-vertex-2", gr.build_graph(["a"], []), 2),
]


def orbit_category(g, k):
    return OrbitCategory(cl.canonical_cells(g, k))


def ordered_category(g, k):
    return face_category(cl.configuration_cells(g, k))


def refuse_labels(cat):
    """Make the label methods of ``cat`` raise."""

    def refuse(*args):
        raise AssertionError("an unlabelled nerve made a label")

    cat.object_label = cat.morphism_label = cat.top_label = refuse
    return cat


def assert_unlabelled_is_labelled(make, g, k):
    """The unlabelled nerve has the labelled one's faces and level sizes, and
    level 1 of the labelled one is the category's morphism labels."""
    cat = make(g, k)
    labelled = build_nerve(cat)
    unlabelled = build_nerve(refuse_labels(make(g, k)), labels=False)
    assert unlabelled.faces == labelled.faces
    assert all(isinstance(level, range) for level in unlabelled.labels)
    assert unlabelled.labels == [range(len(level)) for level in labelled.labels]
    if len(labelled.labels) > 1:
        assert [cat.morphism_label(a) for a in cat.arrows] == labelled.labels[1]


@pytest.mark.parametrize("make", [orbit_category, ordered_category], ids=["orbit", "face"])
@pytest.mark.parametrize("graph, k", [c[1:] for c in CORPUS], ids=[c[0] for c in CORPUS])
def test_unlabelled_nerve_on_the_corpus(make, graph, k):
    assert_unlabelled_is_labelled(make, graph, k)


@settings(max_examples=40, deadline=None)
@given(small_multigraphs(), st.integers(1, 3), st.sampled_from([orbit_category, ordered_category]))
def test_unlabelled_nerve_on_random_multigraphs(graph, k, make):
    assert_unlabelled_is_labelled(make, graph, k)


@pytest.mark.parametrize(
    "graph, rank", [(gr.theta_graph(), 2), (k4(), 3), (gr.y_graph(), 0)], ids=["theta", "k4", "y"]
)
def test_free_rank_reads_no_label(graph, rank):
    # k = 1: the orbit nerve is a subdivision of the graph, one-dimensional
    cat = orbit_category(graph, 1)
    labelled, unlabelled = build_nerve(cat), build_nerve(cat, labels=False)
    assert pi1.free_rank(labelled) == pi1.free_rank(unlabelled) == rank
    two_dimensional = build_nerve(orbit_category(graph, 2), labels=False)
    with pytest.raises(NotOneDimensional):
        pi1.free_rank(two_dimensional)


def refuse_chain_labels(monkeypatch):
    """Make ``cell_label``, ``chain_label`` and ``arrow_label`` raise, in
    every graphconf module that binds them."""
    for home, name in [(cl, "cell_label"), (nerve, "chain_label"), (nerve, "arrow_label")]:
        real = getattr(home, name)

        def refuse(*args, name=name):
            raise AssertionError(f"a homology report called {name}")

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "graphconf" and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, refuse)


REPORTS = [
    ("model",),
    ("model", "--collapse"),
    ("model", "--quotient"),
    ("model", "--quotient", "--collapse"),
    ("compare", "--subdivide", "4"),
]


@pytest.mark.parametrize("graph", [gr.theta_graph(), k4()], ids=["theta", "k4"])
def test_no_report_makes_a_label(capsys, tmp_path, monkeypatch, graph):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(gr.graph_to_json(graph)))
    argv = [[command, "--graph", str(path), "-k", "3", *flags] for command, *flags in REPORTS]
    expected = []
    for args in argv:
        code, out, err = run(capsys, *args)
        assert code == 0, err
        expected.append(out)
    refuse_chain_labels(monkeypatch)
    for args, want in zip(argv, expected):
        code, out, err = run(capsys, *args)
        assert code == 0, err
        assert out == want, args
