"""Abrams reports computed on the free-face collapse.

``cli._abrams_report`` checks the full cube complex by its cubical face
identities and computes homology on ``abrams.free_face_collapse`` of it.
Its Betti numbers and torsion must equal those of the full complex, whose
boundary the reference below assembles by looking up each face as a tuple,
and its guard must catch every corruption that the d^2 check of the full
chain complex catches.
"""

from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from graphconf import cli
from graphconf import graphs as gr
from graphconf.abrams import (
    AbramsComplex,
    _orbit_rep,
    abrams_complex,
    cubical_chain_complex,
    free_face_collapse,
    quotient,
)
from graphconf.errors import InternalError, NotAComplex
from graphconf.homology import ChainComplex, homology


def reference_boundary(g, level_hi, face_row) -> dict:
    """Cubical boundary by tuple lookup: each edge factor goes to its two
    ends with sign (-1)^(number of earlier edge factors); ``face_row`` maps
    each face tuple to its row and the orientation sign it enters with."""
    entries: dict[tuple[int, int], int] = {}
    for j, cube in enumerate(level_hi):
        edge_positions = [i for i, c in enumerate(cube) if c[0] == "e"]
        for p, pos in enumerate(edge_positions):
            e = g.edge(cube[pos][1])
            sign = (-1) ** p
            for end, s in ((e.end_plus, sign), (e.end_minus, -sign)):
                row, orient = face_row[cube[:pos] + (("v", end),) + cube[pos + 1:]]
                key = (row, j)
                entries[key] = entries.get(key, 0) + s * orient
    return {k: v for k, v in entries.items() if v}


def reference_chain_complex(a) -> ChainComplex:
    boundaries = []
    for n in range(1, len(a.cells)):
        face_row = {cell: (i, 1) for i, cell in enumerate(a.cells[n - 1])}
        boundaries.append(reference_boundary(a.graph, a.cells[n], face_row))
    return ChainComplex([len(level) for level in a.cells], boundaries)


def reference_quotient(a) -> ChainComplex:
    orbits = [{cube: _orbit_rep(cube) for cube in level} for level in a.cells]
    reps = [sorted({rep for rep, _ in orbit.values()}) for orbit in orbits]
    boundaries = []
    for n in range(1, len(reps)):
        rep_row = {rep: i for i, rep in enumerate(reps[n - 1])}
        face_row = {cube: (rep_row[rep], orient) for cube, (rep, orient) in orbits[n - 1].items()}
        boundaries.append(reference_boundary(a.graph, reps[n], face_row))
    return ChainComplex([len(level) for level in reps], boundaries)


@st.composite
def closed_multigraphs(draw):
    """Up to three vertices and four edges, every end attached; loops,
    parallel edges and isolated vertices all occur."""
    verts = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    end = st.sampled_from(verts)
    edges = [(f"e{i}", draw(end), draw(end)) for i in range(draw(st.integers(0, 4)))]
    return gr.build_graph(verts, edges)


def assert_report_matches_full(a):
    full = reference_chain_complex(a)
    assert cubical_chain_complex(a).boundaries == full.boundaries
    ref = homology(full)
    report = cli._abrams_report(a)
    assert report["betti"] == ref.betti
    assert report["torsion"] == ref.torsion
    assert report["fvector"] == full.sizes
    assert report["euler"] == full.euler_characteristic()


@settings(max_examples=100, deadline=None)
@given(closed_multigraphs(), st.integers(1, 3), st.integers(1, 3))
def test_report_matches_full_complex(graph, times, k):
    a = abrams_complex(gr.subdivide(graph, times), k)
    assert_report_matches_full(a)
    assert quotient(a) == reference_quotient(a)


def test_w31_report_pads_the_levels_the_collapse_empties():
    a = abrams_complex(gr.subdivide(gr.hub_graph(3, 1), 4), 3)
    assert len(free_face_collapse(a).cells) == len(a.cells) - 2 == 2
    assert_report_matches_full(a)
    assert cli._abrams_report(a)["betti"] == [1, 121, 0, 0]


def test_loop_face_is_never_free():
    # a loop at v and a vertex u: the loop factor's two ends are one face
    a = abrams_complex(gr.build_graph(["u", "v"], [("l", "v", "v")]), 2)
    assert all(fs[0] == fs[1] for fs in a.faces[1])
    assert free_face_collapse(a).cells == a.cells


def run_compare_on(a, graph_path):
    """Exit code and stderr of `compare` when the Abrams complex built is ``a``."""
    out, err = StringIO(), StringIO()
    with mock.patch.object(cli, "abrams_complex", lambda *args, **kw: a):
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["compare", "--graph", graph_path, "-k", "2"])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "theta.json"
    assert cli.main(["gen", "theta", "--out", str(path)]) == 0
    return str(path)


def with_faces(a, faces):
    return AbramsComplex(a.graph, a.k, a.cells, faces)


@settings(max_examples=40, deadline=None)
@given(closed_multigraphs(), st.integers(1, 3), st.integers(2, 3), st.data())
def test_face_guard_catches_what_d2_check_caught(graph_path, graph, times, k, data):
    a = abrams_complex(gr.subdivide(graph, times), k)
    assume(len(a.cells) > 1)
    n = data.draw(st.integers(1, len(a.cells) - 1), label="level")
    idx = data.draw(st.integers(0, len(a.faces[n]) - 1), label="cube")
    slot = data.draw(st.integers(0, 2 * n - 1), label="face")
    value = data.draw(st.integers(0, len(a.cells[n - 1]) - 1), label="new index")
    faces = [list(level) for level in a.faces]
    row = list(faces[n][idx])
    row[slot] = value
    faces[n][idx] = tuple(row)
    bad = with_faces(a, faces)
    try:
        cubical_chain_complex(bad)
        old_caught = False
    except NotAComplex:
        old_caught = True
    try:
        cli._abrams_report(bad)
        new_caught = False
    except InternalError:
        new_caught = True
    if old_caught:
        assert new_caught
        code, err = run_compare_on(bad, graph_path)
        assert code == 4 and err.startswith("internal error:"), err


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize(
    "where, message",
    [
        ("too-large", "out of range"),
        ("negative", "out of range"),
        ("short", "does not have"),
        ("extra", "does not have"),
    ],
)
def test_bad_face_index_exits_4(graph_path, level, where, message):
    a = abrams_complex(gr.subdivide(gr.theta_graph(), 3), 2)
    assert len(a.cells) == 3
    faces = [list(lv) for lv in a.faces]
    first, *rest = faces[level][0]
    faces[level][0] = {
        "too-large": (len(a.cells[level - 1]), *rest),
        "negative": (-1, *rest),
        "short": tuple(rest),
        "extra": (first, *rest, first),
    }[where]
    bad = with_faces(a, faces)
    with pytest.raises(InternalError, match=message):
        bad.validate_face_identities()
    code, err = run_compare_on(bad, graph_path)
    assert code == 4 and message in err, err


@pytest.mark.parametrize("where", ["levels", "count"])
def test_face_lists_must_match_cells(graph_path, where):
    a = abrams_complex(gr.subdivide(gr.theta_graph(), 3), 2)
    faces = [list(lv) for lv in a.faces]
    if where == "levels":
        faces.pop()
    else:
        faces[2].pop()
    bad = with_faces(a, faces)
    with pytest.raises(InternalError):
        bad.validate_face_identities()
    code, err = run_compare_on(bad, graph_path)
    assert code == 4 and err.startswith("internal error:"), err
