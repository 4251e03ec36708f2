"""Ordered homology reports from the cover of the collapsed orbit nerve.

``model`` without ``--collapse`` and ``compare``'s model side report the
ordered model from ``model.collapsed_cover``: the orbit nerve is checked
(``validate_cover``) and collapsed, and only its collapse is lifted to the
ordered model.  The report must be the one ``cli._report_of_complex``
makes from the whole ordered model, key by key, and the guard must fail
exactly where the face check of the whole cover fails.
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from graphconf import cli
from graphconf import graphs as gr
from graphconf import model
from graphconf.errors import InternalError
from graphconf.homology import connected_components
from graphconf.nerve import SemiSimplicialSet
from test_ordered_nerve import OPEN_EDGES
from test_orbit_nerve import k4, k33, small_multigraphs, xb


def assert_report_is_the_full_models(g, k, drop_leaves=False):
    full = model.model_complex(g, k, drop_leaves=drop_leaves)
    expected = cli._report_of_complex(full)
    got = cli._collapsed_report(*model.collapsed_cover(g, k, drop_leaves=drop_leaves))
    assert got == expected
    assert got["components"] == len(connected_components(full))


W31 = gr.hub_graph(3, 1)


@pytest.mark.parametrize(
    "graph, k, drop_leaves",
    [(gr.theta_graph(), k, False) for k in range(1, 6)]
    + [(k4(), k, False) for k in (2, 3, 4)]
    + [
        (xb(), 3, False),
        (k33(), 2, False),
        (k33(), 3, False),
        (W31, 3, False),
        (W31, 3, True),
        (gr.minimal_circle(), 2, False),
        (gr.y_graph(), 2, False),
        (gr.path_graph(2), 2, False),
        (OPEN_EDGES, 2, False),
        (gr.build_graph(["a"], []), 2, False),
        (gr.build_graph(["a", "b"], []), 3, False),
    ],
    ids=[f"theta-{k}" for k in range(1, 6)]
    + [f"k4-{k}" for k in (2, 3, 4)]
    + [
        "xb-3", "k33-2", "k33-3", "w31-3", "w31-leafless-3", "minimal-circle-2", "y-2",
        "path-2", "open-edges-2", "one-vertex-2", "two-vertices-3",
    ],
)
def test_report_is_the_full_models(graph, k, drop_leaves):
    assert_report_is_the_full_models(graph, k, drop_leaves)


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_report_is_the_full_models_on_random_multigraphs(graph, k):
    assert_report_is_the_full_models(graph, k)


def run(argv):
    """Exit code, stdout and stderr of the CLI."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def graph_file(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(gr.graph_to_json(g)), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "graph, k", [(gr.build_graph(["a"], []), 2), (gr.build_graph(["a", "b"], []), 3)]
)
def test_empty_model_prints_an_empty_report(tmp_path, graph, k):
    code, out, _ = run(["model", "--graph", graph_file(tmp_path, graph), "-k", str(k)])
    assert code == 0
    assert out == (
        '{"betti":[],"components":0,"dimension":null,"euler":0,"fvector":[],"torsion":[]}\n'
    )


def test_reports_build_no_ordered_model(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the ordered model was built")

    monkeypatch.setattr(model, "ordered_nerve", refuse)
    monkeypatch.setattr(cli, "ordered_nerve", refuse)
    k4_path = graph_file(tmp_path, k4(), "k4.json")
    for flags in ([], ["--collapse"], ["--remove-leaves", "--collapse"]):
        code, out, err = run(["model", "--graph", k4_path, "-k", "3", *flags])
        assert code == 0, err
        assert json.loads(out)["betti"] == [1, 12, 11, 0][: 3 if flags else 4]
    theta = graph_file(tmp_path, gr.theta_graph(), "theta.json")
    code, out, err = run(["compare", "--graph", theta, "-k", "3", "--subdivide", "4"])
    assert code == 0, err
    assert json.loads(out)["match"] is True
    # no cell fits: the empty model
    empty = graph_file(tmp_path, gr.build_graph(["a", "b"], []), "empty.json")
    code, out, err = run(["model", "--graph", empty, "-k", "3", "--collapse"])
    assert code == 0, err
    assert json.loads(out) == {
        "betti": [], "components": 0, "dimension": None, "euler": 0, "fvector": [], "torsion": [],
    }


def raises(check) -> bool:
    try:
        check()
    except InternalError:
        return True
    return False


@st.composite
def corrupted_covers(draw):
    """(orbit, right, bad): the lam-labelled orbit nerve of a small graph,
    its table of ranks, and a copy with one lam entry or one face index
    set to a value in range, which may be the one it had."""
    graph, k = draw(small_multigraphs()), draw(st.integers(2, 3))
    _, orbit, _, right, _ = model.orbit_cover(graph, k)
    levels = len(orbit.labels)
    if levels < 2:
        return orbit, right, None
    n = draw(st.integers(1, levels - 1), label="level")
    c = draw(st.integers(0, len(orbit.faces[n]) - 1), label="chain")
    labels = [list(level) for level in orbit.labels]
    faces = [list(level) for level in orbit.faces]
    if draw(st.booleans(), label="corrupt lam"):
        labels[n][c] = draw(st.integers(0, len(right) - 1), label="new lam")
    else:
        slot = draw(st.integers(0, n), label="face")
        row = list(faces[n][c])
        row[slot] = draw(st.integers(0, len(orbit.labels[n - 1]) - 1), label="new face")
        faces[n][c] = tuple(row)
    return orbit, right, SemiSimplicialSet(labels, faces)


@settings(max_examples=150, deadline=None)
@given(corrupted_covers())
def test_cover_guard_fails_exactly_where_the_cover_does(tmp_path_factory, data):
    orbit, right, bad = data
    model.validate_cover(orbit, right)
    model.cover(orbit, right).validate_face_identities()
    if bad is None:
        return
    caught = raises(lambda: model.validate_cover(bad, right))
    assert caught == raises(lambda: model.cover(bad, right).validate_face_identities())
    if caught:
        path = graph_file(tmp_path_factory.mktemp("graph"), gr.theta_graph())
        with mock.patch.object(model, "orbit_cover", lambda *a: (None, bad, None, right, None)):
            code, out, err = run(["model", "--graph", path, "-k", "2"])
        assert code == 4 and out == "" and err.startswith("internal error:"), err


def test_cover_guard_catches_a_broken_cocycle():
    # theta k=3 has chains of dimension 2, each with a face d_1 whose lam
    # must be lam_c o lam_{d_0}; a wrong lam_c breaks that and d_0 d_1 = d_0 d_0
    _, orbit, _, right, _ = model.orbit_cover(gr.theta_graph(), 3)
    labels = [list(level) for level in orbit.labels]
    labels[2][0] = (labels[2][0] + 1) % len(right)
    bad = SemiSimplicialSet(labels, orbit.faces)
    with pytest.raises(InternalError, match="lift cocycle fails at dim 2 chain 0"):
        model.validate_cover(bad, right)
    with pytest.raises(InternalError, match="face identity fails at dim 2"):
        model.cover(bad, right).validate_face_identities()

