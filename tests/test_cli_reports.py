import hashlib
import json

import pytest

from graphconf import cells, cli, model, nerve, reduced
from graphconf import graphs as gr
from test_cli import run, write_graph
from test_orbit_nerve import k4, k33
from test_ordered_nerve import refuse_configuration_cells

# Recorded from the two-build implementation; a single build must print
# the same bytes.
BRAIDGROUP_THETA_2 = (
    '{"ordered":{"abelianization":{"rank":5,"torsion":[]},"free_rank":null,'
    '"presentation":{"generators":["(w,t1#0)>+.>(t3#0,t1#0)","(w,t3#0)>+.>(t2#0,t3#0)",'
    '"(t2#0,u)>.->(t2#0,t3#0)","(t3#0,u)>.->(t3#0,t2#0)","(t3#0,u)>.->(t3#1,t3#0)"],'
    '"relators":[]}},"unordered":{"abelianization":{"rank":3,"torsion":[]},"free_rank":null,'
    '"presentation":{"generators":["(u,w)>-+>(t2#0,t1#0)","(u,w)>-+>(t3#0,t1#0)",'
    '"(u,w)>-+>(t3#0,t2#0)"],"relators":[]}}}\n'
)
BRAIDGROUP_HUB_2 = (
    '{"ordered":{"abelianization":{"rank":7,"torsion":[]},"free_rank":7,'
    '"presentation":{"generators":["(c,b1#0)>+.>(a1#0,b1#0)","(c,b1#0)>-.>(b2#0,b1#0)",'
    '"(c,b2#0)>+.>(a1#0,b2#0)","(c,b2#0)>-.>(b1#0,b2#0)","(a1#0,c)>.->(a1#1,a1#0)",'
    '"(b1#0,c)>.+>(b1#0,a1#0)","(b2#0,c)>.+>(b2#0,a1#0)"],"relators":[]}},'
    '"unordered":{"abelianization":{"rank":4,"torsion":[]},"free_rank":4,'
    '"presentation":{"generators":["(c,a1#0)>+.>(a1#1,a1#0)","(c,b1#0)>+.>(a1#0,b1#0)",'
    '"(c,b2#0)>+.>(a1#0,b2#0)","(c,b2#0)>-.>(b1#0,b2#0)"],"relators":[]}}}\n'
)


@pytest.mark.parametrize(
    "gen, flags, expected",
    [
        (("theta",), (), BRAIDGROUP_THETA_2),
        (("w", "-k", "2", "-l", "1"), ("--remove-leaves",), BRAIDGROUP_HUB_2),
    ],
    ids=["theta", "hub-2-1"],
)
def test_braidgroup_stdout_pinned(capsys, tmp_path, gen, flags, expected):
    path = write_graph(capsys, tmp_path, *gen)
    code, out, err = run(capsys, "braidgroup", "--graph", path, "-k", "2", *flags)
    assert code == 0, err
    assert out == expected


# sha256 of `braidgroup` stdout on `gen xb -x 2 -k 1 -l 1 -p 1 -q 1`, k=3,
# recorded from the rescan-from-the-first-relator Tietze simplification;
# this job has the longest elimination sequence of the benchmark corpus.
BRAIDGROUP_XB_3_SHA256 = "21ea4ac6f207298ff792f351da73597a2a801c9a8414c6030a126b908de07fe8"


def test_braidgroup_xb_3_stdout_pinned(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "xb", "-x", "2", "-k", "1", "-l", "1", "-p", "1", "-q", "1")
    code, out, err = run(capsys, "braidgroup", "--graph", path, "-k", "3")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == BRAIDGROUP_XB_3_SHA256


# sha256 of `braidgroup` stdout on K4, k=3, recorded before the ordered model
# was sorted from the orbit nerve's lift.  Its ordered model, of
# 1080/6264/9072/3888 chains, is the largest of the pinned braidgroup jobs.
BRAIDGROUP_K4_3_SHA256 = "d689ec1af8078bc32fb4c6c0781e93812b246b9c212c0f48f7db1a379c18ae39"


def test_braidgroup_k4_3_stdout_pinned(capsys, tmp_path):
    g = k4()
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(gr.graph_to_json(g)))
    code, out, err = run(capsys, "braidgroup", "--graph", str(path), "-k", "3")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == BRAIDGROUP_K4_3_SHA256


def test_braidgroup_builds_one_model(capsys, tmp_path, monkeypatch):
    # one ordered model, built as the cover of the orbit nerve
    path = write_graph(capsys, tmp_path, "theta")
    calls = count_calls(monkeypatch, model, "ordered_nerve")
    code, _, err = run(capsys, "braidgroup", "--graph", path, "-k", "2")
    assert code == 0, err
    assert len(calls) == 1


def test_compare_match_requires_conditions(capsys, tmp_path):
    # the Betti numbers agree, but subdividing twice leaves the essential
    # vertices at distance 2 < k+1, so the cross-check has not passed
    path = write_graph(capsys, tmp_path, "theta")
    code, out, err = run(capsys, "compare", "--graph", path, "-k", "2", "--subdivide", "2")
    assert code == 0, err
    report = json.loads(out)
    assert report["model"]["betti"] == report["abrams"]["betti"] == [1, 5, 0]
    assert report["conditions"]["ok"] is False
    assert report["match"] is False


# W(3,1) k=3 subdivided 4 times, where the free-face collapse of the cube
# complex empties its top two levels; euler is 3! times Gal's value -20
W31_ABRAMS_3 = {
    "betti": [1, 121, 0, 0],
    "euler": -120,
    "fvector": [3360, 8736, 7056, 1800],
    "torsion": [[], [], [], []],
}


def test_compare_w31_abrams_report_pinned(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "w", "-k", "3", "-l", "1")
    code, out, err = run(capsys, "compare", "--graph", path, "-k", "3", "--subdivide", "4")
    assert code == 0, err
    report = json.loads(out)
    assert report["abrams"] == W31_ABRAMS_3
    assert report["match"] is True


def count_calls(monkeypatch, module, name):
    """Count the calls of module.name, also through every graphconf module
    that imported it by name."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in (cells, cli, model, nerve, reduced):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("flags", [(), ("--collapse",)], ids=["quotient", "collapse"])
def test_model_quotient_builds_no_ordered_model(capsys, tmp_path, monkeypatch, flags):
    path = write_graph(capsys, tmp_path, "theta")
    counts = [
        count_calls(monkeypatch, model, "build_model"),
        count_calls(monkeypatch, model, "symmetric_action"),
        count_calls(monkeypatch, nerve, "quotient_by_free_action"),
    ]
    code, _, err = run(capsys, "model", "--graph", path, "-k", "3", "--quotient", *flags)
    assert code == 0, err
    assert counts == [[], [], []]


@pytest.mark.parametrize(
    "command, flags, builds",
    [("model", ("--quotient",), 1), ("braidgroup", (), 1), ("model", ("--collapse",), 1)],
    ids=["model-quotient", "braidgroup", "model-collapse"],
)
def test_one_chain_extension_loop(capsys, tmp_path, monkeypatch, command, flags, builds):
    # the unordered model extends its chains through build_nerve, as the
    # ordered one does; braidgroup reports on that orbit nerve and builds
    # the ordered model as its cover, and model --collapse reports the
    # cover of that orbit nerve's collapse
    path = write_graph(capsys, tmp_path, "theta")
    calls = count_calls(monkeypatch, nerve, "build_nerve")
    code, _, err = run(capsys, command, "--graph", path, "-k", "3", *flags)
    assert code == 0, err
    assert len(calls) == builds


def test_braidgroup_lifts_the_orbit_nerve(capsys, tmp_path, monkeypatch):
    # the ordered model is the orbit nerve's S_k-cover, lifted once through
    # nerve.lift_faces, the lift the homology reports and Abrams' complex use
    path = write_graph(capsys, tmp_path, "theta")
    calls = count_calls(monkeypatch, nerve, "lift_faces")
    code, _, err = run(capsys, "braidgroup", "--graph", path, "-k", "3")
    assert code == 0, err
    assert len(calls) == 1


def test_braidgroup_makes_no_configuration_cells(capsys, tmp_path, monkeypatch):
    # both sides are built from one cell per orbit: the ordered side as the
    # S_k-cover of the orbit nerve, with no braid cell, face category or
    # action on a cell
    path = write_graph(capsys, tmp_path, "theta")
    refuse_configuration_cells(monkeypatch)
    code, out, err = run(capsys, "braidgroup", "--graph", path, "-k", "3")
    assert code == 0, err
    report = json.loads(out)
    assert report["ordered"]["abelianization"] == {"rank": 13, "torsion": []}
    assert report["unordered"]["abelianization"] == {"rank": 3, "torsion": []}


def test_model_quotient_acts_on_each_cell_about_once(capsys, tmp_path, monkeypatch):
    # theta k=4 has 984 configuration cells; acting with all 23 nonidentity
    # permutations on each of them made 22,632 calls
    path = write_graph(capsys, tmp_path, "theta")
    calls = count_calls(monkeypatch, cells, "act_on_cell")
    code, out, err = run(capsys, "model", "--graph", path, "-k", "4", "--quotient")
    assert code == 0, err
    assert json.loads(out)["fvector"] == [41, 150, 108]
    assert len(calls) <= 2 * 984


# Unordered K3,3 k=3.  The Z/2 in H_1 (K3,3 is non-planar; Ko-Park, DCG 2012)
# comes from boundaries[1], whose columns the unit pivots of boundaries[2]
# clear; chi = 5 is Gal's value.
K33_3_QUOTIENT = (
    '{"betti":[1,4,8,0],"components":1,"dimension":3,"euler":5,'
    '"fvector":[590,4095,6750,3240],"torsion":[[],[2],[],[]]}\n'
)


def test_model_quotient_k33_3_pinned(capsys, tmp_path):
    g = k33()
    path = tmp_path / "k33.json"
    path.write_text(json.dumps({
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "ends": [e.end_minus, e.end_plus]} for e in g.edges],
    }))
    code, out, err = run(capsys, "model", "--graph", str(path), "-k", "3", "--quotient")
    assert code == 0, err
    assert out == K33_3_QUOTIENT


# The two jobs of the ordered-homology benchmark workload.  Ordered K4 k=3:
# chi = 3! * 0, Gal's value.
K4_3_MODEL = (
    '{"betti":[1,12,11,0],"components":1,"dimension":3,"euler":0,'
    '"fvector":[1080,6264,9072,3888],"torsion":[[],[],[],[]]}\n'
)
THETA_4_COLLAPSE = (
    '{"betti":[1,32,7],"components":1,"dimension":2,"euler":-24,'
    '"fvector":[624,2232,1584],"torsion":[[],[],[]]}\n'
)


def test_model_k4_3_pinned(capsys, tmp_path):
    g = k4()
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "ends": [e.end_minus, e.end_plus]} for e in g.edges],
    }))
    code, out, err = run(capsys, "model", "--graph", str(path), "-k", "3")
    assert code == 0, err
    assert out == K4_3_MODEL


def test_model_theta_4_collapse_pinned(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "theta")
    code, out, err = run(capsys, "model", "--graph", path, "-k", "4", "--collapse")
    assert code == 0, err
    assert out == THETA_4_COLLAPSE


@pytest.mark.parametrize(
    "graph, k, expected",
    [
        # one edge a-b: its configuration space is contractible, chi = 1 (Gal)
        ({"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a", "b"]}]}, 2000,
         '{"betti":[1,0,0],"components":1,"dimension":2,"euler":1,'
         '"fvector":[4,5,2],"torsion":[[],[],[]]}\n'),
        # the minimal circle, one loop at one vertex: a circle, chi = 0
        ({"vertices": ["v"], "edges": [{"id": "a", "ends": ["v", "v"]}]}, 1200,
         '{"betti":[1,1],"components":1,"dimension":1,"euler":0,'
         '"fvector":[2,2],"torsion":[[],[]]}\n'),
    ],
    ids=["interval-2000", "circle-1200"],
)
def test_quotient_at_k_beyond_the_recursion_limit(capsys, tmp_path, graph, k, expected):
    # the canonical cells are k symbols long, and are built with no
    # recursion k deep
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code, out, err = run(capsys, "model", "--graph", str(path), "-k", str(k), "--quotient")
    assert (code, err) == (0, "")
    assert out == expected


def test_braidgroup_lifts_levels_0_to_2(capsys, tmp_path, monkeypatch):
    # the presentation reads the faces of levels 1 and 2 and the free rank
    # whether level 2 is empty, so K4 k=3's level 3 of 3,888 ordered chains
    # is not lifted
    g = k4()
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "ends": [e.end_minus, e.end_plus]} for e in g.edges],
    }))
    real, levels = model.lift_faces, []

    def recorded(faces, *args):
        levels.append(len(faces))
        return real(faces, *args)

    monkeypatch.setattr(model, "lift_faces", recorded)
    code, out, err = run(capsys, "braidgroup", "--graph", str(path), "-k", "3")
    assert code == 0, err
    assert levels and max(levels) <= 3
    report = json.loads(out)
    assert report["ordered"]["abelianization"] == {"rank": 12, "torsion": []}
