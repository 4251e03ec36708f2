"""Abrams reports computed from the orbit complex.

``cli._abrams_report`` takes the orbit complex (``abrams_complex(g, k,
quotient=True)``), checks it with ``abrams.validate_cover`` (its cubical
face identities and the cocycle conditions on its relocations), and
computes homology on ``lift`` of its ``free_face_collapse``.  Its Betti
numbers and torsion must equal those of the full ordered complex, whose
boundary the reference below assembles by looking up each face as a tuple.
Its guard must fail exactly where the face check of the full ordered
complex, the orbit complex's lift, fails, and so catch every corruption
that the d^2 check of the lifted chain complex catches.
"""

from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from math import factorial
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from graphconf import cli
from graphconf import graphs as gr
from graphconf import abrams
from graphconf.abrams import (
    AbramsComplex,
    abrams_complex,
    cubical_chain_complex,
    free_face_collapse,
    lift,
    validate_cover,
)
from graphconf.errors import InternalError, NotAComplex
from graphconf.homology import ChainComplex, homology
from test_abrams import orbit_rep, quotient


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
    orbits = [{cube: orbit_rep(cube) for cube in level} for level in a.cells]
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


def assert_report_matches_full(g, k):
    """The report from the orbit complex of (g, k) against the homology of
    the full ordered complex."""
    a = abrams_complex(g, k)
    full = reference_chain_complex(a)
    assert cubical_chain_complex(a).boundaries == full.boundaries
    ref = homology(full)
    report = cli._abrams_report(abrams_complex(g, k, quotient=True))
    assert report["betti"] == ref.betti
    assert report["torsion"] == ref.torsion
    assert report["fvector"] == full.sizes
    assert report["euler"] == full.euler_characteristic()


@settings(max_examples=100, deadline=None)
@given(closed_multigraphs(), st.integers(1, 3), st.integers(1, 3))
def test_report_matches_full_complex(graph, times, k):
    fine = gr.subdivide(graph, times)
    assert_report_matches_full(fine, k)
    a = abrams_complex(fine, k)
    assert quotient(a) == reference_quotient(a)


def test_w31_report_pads_the_levels_the_collapse_empties():
    fine = gr.subdivide(gr.hub_graph(3, 1), 4)
    q = abrams_complex(fine, 3, quotient=True)
    assert len(free_face_collapse(q).cells) == len(q.cells) - 2 == 2
    assert_report_matches_full(fine, 3)
    assert cli._abrams_report(q)["betti"] == [1, 121, 0, 0]


def test_loop_face_is_never_free():
    # a loop at v and a vertex u: the loop factor's two ends are one face
    a = abrams_complex(gr.build_graph(["u", "v"], [("l", "v", "v")]), 2)
    assert all(fs[0] == fs[1] for fs in a.faces[1])
    assert free_face_collapse(a).cells == a.cells


def test_loop_face_is_never_free_in_the_orbit_complex():
    # both ends of the loop give one orbit face with one relocation
    q = abrams_complex(gr.build_graph(["u", "v"], [("l", "v", "v")]), 2, quotient=True)
    assert all(fs[0] == fs[1] for fs in q.faces[1])
    assert all(rs[0] == rs[1] for rs in q.relocations[1])
    assert free_face_collapse(q) == q


def run_compare_on(q, graph_path):
    """Exit code and stderr of `compare` when the orbit complex built is ``q``."""
    out, err = StringIO(), StringIO()
    with mock.patch.object(cli, "abrams_complex", lambda *args, **kw: q):
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["compare", "--graph", graph_path, "-k", "2"])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "theta.json"
    assert cli.main(["gen", "theta", "--out", str(path)]) == 0
    return str(path)


def with_faces(q, faces):
    return AbramsComplex(q.graph, q.k, q.cells, faces, q.relocations)


def with_relocations(q, relocations):
    return AbramsComplex(q.graph, q.k, q.cells, q.faces, relocations)


def raises(check, error=InternalError) -> bool:
    try:
        check()
    except error:
        return True
    return False


def corrupt(q, data):
    """``q`` with one face index or one relocation rank of one cube set to a
    value in range, which may be the one it had."""
    n = data.draw(st.integers(1, len(q.cells) - 1), label="level")
    idx = data.draw(st.integers(0, len(q.faces[n]) - 1), label="cube")
    slot = data.draw(st.integers(0, 2 * n - 1), label="slot")
    if data.draw(st.booleans(), label="corrupt a relocation"):
        table, value = q.relocations, data.draw(st.integers(0, factorial(q.k) - 1), label="rank")
    else:
        table, value = q.faces, data.draw(st.integers(0, len(q.cells[n - 1]) - 1), label="index")
    levels = [list(level) for level in table]
    row = list(levels[n][idx])
    row[slot] = value
    levels[n][idx] = tuple(row)
    return with_relocations(q, levels) if table is q.relocations else with_faces(q, levels)


@settings(max_examples=40, deadline=None)
@given(closed_multigraphs(), st.integers(1, 3), st.integers(2, 3), st.data())
def test_face_guard_catches_what_d2_check_caught(graph_path, graph, times, k, data):
    q = abrams_complex(gr.subdivide(graph, times), k, quotient=True)
    assume(len(q.cells) > 1)
    bad = corrupt(q, data)
    old_caught = raises(lambda: cubical_chain_complex(lift(bad)), NotAComplex)
    new_caught = raises(lambda: cli._abrams_report(bad))
    if old_caught:
        assert new_caught
        code, err = run_compare_on(bad, graph_path)
        assert code == 4 and err.startswith("internal error:"), err


@settings(max_examples=150, deadline=None)
@given(closed_multigraphs(), st.integers(1, 3), st.integers(2, 3), st.data())
def test_cover_guard_fails_exactly_where_the_lift_does(graph_path, graph, times, k, data):
    q = abrams_complex(gr.subdivide(graph, times), k, quotient=True)
    validate_cover(q)
    lift(q).validate_face_identities()
    assume(len(q.cells) > 1)
    bad = corrupt(q, data)
    caught = raises(lambda: validate_cover(bad))
    assert caught == raises(lambda: lift(bad).validate_face_identities())
    if caught:
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
    q = abrams_complex(gr.subdivide(gr.theta_graph(), 3), 2, quotient=True)
    assert len(q.cells) == 3
    faces = [list(lv) for lv in q.faces]
    first, *rest = faces[level][0]
    faces[level][0] = {
        "too-large": (len(q.cells[level - 1]), *rest),
        "negative": (-1, *rest),
        "short": tuple(rest),
        "extra": (first, *rest, first),
    }[where]
    bad = with_faces(q, faces)
    with pytest.raises(InternalError, match=message):
        validate_cover(bad)
    code, err = run_compare_on(bad, graph_path)
    assert code == 4 and message in err, err


@pytest.mark.parametrize(
    "where, message",
    [
        ("too-large", "out of range"),
        ("negative", "out of range"),
        ("short", "does not have"),
        ("extra", "does not have"),
        ("edges", "moves the edges"),
        ("cocycle", "relocation cocycle fails at dim 2 cube 0"),
    ],
)
def test_bad_relocation_exits_4(graph_path, where, message):
    q = abrams_complex(gr.subdivide(gr.theta_graph(), 4), 3, quotient=True)
    assert len(q.cells) == 4
    relocations = [list(lv) for lv in q.relocations]
    first, *rest = relocations[2][0]
    if where == "cocycle":
        # the 1-cube d_1^- of square 0 gets another relocation at its minus
        # end: a 1-cube has no edge coordinate to move, but the composites
        # along d_0^- d_1^- = d_0^- d_0^- of square 0 now differ
        edge = q.faces[2][0][0]
        minus, plus = relocations[1][edge]
        relocations[1][edge] = ((minus + 1) % factorial(3), plus)
    else:
        relocations[2][0] = {
            "too-large": (factorial(3), *rest),
            "negative": (-1, *rest),
            "short": tuple(rest),
            "extra": (first, *rest, first),
            # rank 1 is (0, 2, 1): it keeps the face's edge coordinate 0 at
            # 0, where d_1^- of a square, which drops edge 0, needs it at 1
            "edges": (1, *rest),
        }[where]
    bad = with_relocations(q, relocations)
    with pytest.raises(InternalError, match=message):
        validate_cover(bad)
    code, err = run_compare_on(bad, graph_path)
    assert code == 4 and message in err, err


@pytest.mark.parametrize("where", ["levels", "count"])
def test_face_lists_must_match_cells(graph_path, where):
    q = abrams_complex(gr.subdivide(gr.theta_graph(), 3), 2, quotient=True)
    faces = [list(lv) for lv in q.faces]
    if where == "levels":
        faces.pop()
    else:
        faces[2].pop()
    bad = with_faces(q, faces)
    with pytest.raises(InternalError):
        validate_cover(bad)
    code, err = run_compare_on(bad, graph_path)
    assert code == 4 and err.startswith("internal error:"), err


@pytest.mark.parametrize("where", ["levels", "count"])
def test_relocation_lists_must_match_cells(graph_path, where):
    q = abrams_complex(gr.subdivide(gr.theta_graph(), 3), 2, quotient=True)
    relocations = [list(lv) for lv in q.relocations]
    if where == "levels":
        relocations.pop()
    else:
        relocations[2].pop()
    bad = with_relocations(q, relocations)
    with pytest.raises(InternalError):
        validate_cover(bad)
    code, err = run_compare_on(bad, graph_path)
    assert code == 4 and err.startswith("internal error:"), err


def test_compare_builds_no_ordered_complex(graph_path, monkeypatch):
    # abrams_complex(g, k) is the sorted lift; compare lifts only the collapse
    def refuse(*args):
        raise AssertionError("the ordered complex was built")

    lifted = []

    def counting_lift(q):
        lifted.append(sum(map(len, q.cells)))
        return lift(q)

    monkeypatch.setattr(abrams, "lift", refuse)
    monkeypatch.setattr(cli, "lift", counting_lift)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["compare", "--graph", graph_path, "-k", "3", "--subdivide", "4"])
    assert code == 0, err.getvalue()
    assert '"match":true' in out.getvalue()
    orbit = abrams_complex(gr.subdivide(gr.theta_graph(), 4), 3, quotient=True)
    assert len(lifted) == 1 and lifted[0] < sum(map(len, orbit.cells))
