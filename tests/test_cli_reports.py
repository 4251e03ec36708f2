import hashlib
import json

import pytest

from graphconf import cells, cli, model, nerve, reduced
from test_cli import run, write_graph

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


def test_braidgroup_builds_one_model(capsys, tmp_path, monkeypatch):
    path = write_graph(capsys, tmp_path, "theta")
    calls = []
    real = model.build_model

    def counted(g, k):
        calls.append(k)
        return real(g, k)

    monkeypatch.setattr(model, "build_model", counted)
    monkeypatch.setattr(cli, "build_model", counted, raising=False)
    code, _, err = run(capsys, "braidgroup", "--graph", path, "-k", "2")
    assert code == 0, err
    assert calls == [2]


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


def test_braidgroup_enumerates_cells_once(capsys, tmp_path, monkeypatch):
    path = write_graph(capsys, tmp_path, "theta")
    calls = count_calls(monkeypatch, cells, "enumerate_braid_cells")
    code, _, err = run(capsys, "braidgroup", "--graph", path, "-k", "2")
    assert code == 0, err
    assert len(calls) == 1


def test_model_quotient_acts_on_each_cell_about_once(capsys, tmp_path, monkeypatch):
    # theta k=4 has 984 configuration cells; acting with all 23 nonidentity
    # permutations on each of them made 22,632 calls
    path = write_graph(capsys, tmp_path, "theta")
    calls = count_calls(monkeypatch, cells, "act_on_cell")
    code, out, err = run(capsys, "model", "--graph", path, "-k", "4", "--quotient")
    assert code == 0, err
    assert json.loads(out)["fvector"] == [41, 150, 108]
    assert len(calls) <= 2 * 984
