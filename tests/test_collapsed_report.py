"""Model reports computed on the free-face collapse.

``cli._report_of_complex`` checks the full complex by its face identities
and computes homology and components on ``collapse_free_faces`` of it.  Its
Betti numbers, torsion, Euler characteristic and components must equal
those of the uncollapsed complex, and its guard must catch every
corruption that the d^2 check of the uncollapsed chain complex catches.
"""

from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from graphconf import cli
from graphconf import graphs as gr
from graphconf.errors import InputError, InternalError, NotAComplex
from graphconf.homology import chain_complex, connected_components, homology
from graphconf.nerve import SemiSimplicialSet, collapse_free_faces, quotient_by_free_action
from graphconf.reduced import build_reduced, reduced_symmetric_action
from reference_model import model_complex
from test_graph_theorems import open_connected_multigraphs
from test_orbit_nerve import k4


def assert_report_matches_uncollapsed(s):
    report = cli._report_of_complex(s)
    cc = chain_complex(s)
    ref = homology(cc)
    assert report["betti"] == ref.betti
    assert report["torsion"] == ref.torsion
    assert report["euler"] == cc.euler_characteristic()
    assert report["fvector"] == list(s.fvector())
    assert report["components"] == len(connected_components(s))


@settings(max_examples=40, deadline=None)
@given(open_connected_multigraphs(), st.integers(1, 3))
def test_report_matches_uncollapsed_reference(graph, k):
    for quotient in (False, True):
        assert_report_matches_uncollapsed(model_complex(graph, k, quotient=quotient))
    try:
        gc = build_reduced(gr.remove_leaves(graph))
    except InputError:  # no two-point configuration fits, as `reduced` reports
        return
    assert_report_matches_uncollapsed(quotient_by_free_action(gc.complex, reduced_symmetric_action(gc)))


def test_k4_3_report_pads_the_level_the_collapse_empties():
    s = model_complex(k4(), 3)
    assert len(collapse_free_faces(s).labels) == len(s.labels) - 1 == 3
    assert_report_matches_uncollapsed(s)
    assert cli._report_of_complex(s)["betti"] == [1, 12, 11, 0]


def run_model_on(s, graph_path, collapse):
    """Exit code and stderr of `model --quotient`, with ``--collapse`` if
    ``collapse``, when the complex it builds is ``s``: the one command that
    still builds a whole model and guards it with ``_report_of_complex``.
    Ordered `model` reports from ``model.collapsed_cover`` and builds no
    complex that ``s`` could stand in for."""
    flags = ["--collapse"] if collapse else []
    out, err = StringIO(), StringIO()
    with mock.patch.object(cli, "unordered_model", lambda *a: (None, s)):
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["model", "--graph", graph_path, "-k", "2", "--quotient", *flags])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "theta.json"
    assert cli.main(["gen", "theta", "--out", str(path)]) == 0
    return str(path)


@settings(max_examples=40, deadline=None)
@given(open_connected_multigraphs(), st.integers(1, 2), st.booleans(), st.data())
def test_face_guard_catches_what_d2_check_caught(graph_path, graph, k, quotient, data):
    s = model_complex(graph, k, quotient=quotient)
    assume(len(s.labels) > 1)
    n = data.draw(st.integers(1, len(s.labels) - 1), label="level")
    idx = data.draw(st.integers(0, len(s.faces[n]) - 1), label="chain")
    slot = data.draw(st.integers(0, n), label="face")
    value = data.draw(st.integers(0, len(s.labels[n - 1]) - 1), label="new index")
    faces = [list(level) for level in s.faces]
    row = list(faces[n][idx])
    row[slot] = value
    faces[n][idx] = tuple(row)
    bad = SemiSimplicialSet(s.labels, faces)
    try:
        chain_complex(bad)
        old_caught = False
    except NotAComplex:
        old_caught = True
    try:
        cli._report_of_complex(bad)
        new_caught = False
    except InternalError:
        new_caught = True
    if old_caught:
        assert new_caught
        for collapse in (False, True):
            code, err = run_model_on(bad, graph_path, collapse)
            assert code == 4 and err.startswith("internal error:"), err


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("where", ["too-large", "negative"])
def test_out_of_range_face_exits_4(graph_path, level, where):
    s = model_complex(gr.theta_graph(), 2)
    faces = [list(lv) for lv in s.faces]
    _, *rest = faces[level][0]
    faces[level][0] = (len(s.labels[level - 1]) if where == "too-large" else -1, *rest)
    bad = SemiSimplicialSet(s.labels, faces)
    with pytest.raises(InternalError, match="out of range"):
        bad.validate_face_identities()
    for collapse in (False, True):
        code, err = run_model_on(bad, graph_path, collapse)
        assert code == 4 and "out of range" in err, err
