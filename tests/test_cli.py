import json
import sys

import pytest

from graphconf import pi1
from graphconf.cli import main
from graphconf.nerve import collapse_free_faces
from graphconf.pi1 import skeleton


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_graph(capsys, tmp_path, family, *params):
    path = tmp_path / f"{family}.json"
    code, out, err = run(capsys, "gen", family, *params, "--out", str(path))
    assert code == 0, err
    return str(path)


def test_gen_writes_graph(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "s1_min")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["vertices"] == ["v"]
    assert data["edges"][0]["ends"] == ["v", "v"]


def test_gen_families(capsys, tmp_path):
    for args in [("s1_sd", "-n", "3"), ("y",), ("w", "-k", "2", "-l", "1"), ("theta",), ("path", "-n", "2"), ("xb", "-x", "1", "-k", "1", "-l", "1", "-p", "0", "-q", "1")]:
        code, out, _ = run(capsys, "gen", *args)
        assert code == 0
        json.loads(out)


def test_gen_rejects_out_of_range(capsys):
    code, _, err = run(capsys, "gen", "s1_sd", "-n", "9")
    assert code == 3 and "parameter" in err


@pytest.mark.parametrize("args", [["theta", "-k", "3", "-n", "4"], ["s1_min", "-n", "1"], ["w", "-x", "1"]])
def test_gen_refuses_parameters_its_family_does_not_use(capsys, args):
    code, out, err = run(capsys, "gen", *args)
    assert code == 3 and out == "" and "is not a parameter of" in err


def test_gen_parameter_not_given_takes_its_floor(capsys):
    assert run(capsys, "gen", "s1_sd") == run(capsys, "gen", "s1_sd", "-n", "1")
    assert run(capsys, "gen", "w") == run(capsys, "gen", "w", "-k", "0", "-l", "0")


def test_model_square(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "s1_min")
    code, out, _ = run(capsys, "model", "--graph", path, "-k", "2")
    report = json.loads(out)
    assert report["fvector"] == [4, 4]
    assert report["betti"] == [1, 1]
    assert report["dimension"] == 1
    assert report["components"] == 1


def test_model_quotient(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "s1_min")
    code, out, _ = run(capsys, "model", "--graph", path, "-k", "2", "--quotient")
    report = json.loads(out)
    assert report["fvector"] == [2, 2] and report["betti"] == [1, 1]


def test_model_collapse_dodecagon(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "y")
    code, out, _ = run(capsys, "model", "--graph", path, "-k", "2", "--remove-leaves", "--collapse")
    report = json.loads(out)
    assert report["fvector"] == [12, 12]


def test_model_collapse_collapses_once(capsys, tmp_path, monkeypatch):
    calls = []

    def counted(s):
        calls.append(s.fvector())
        return collapse_free_faces(s)

    # every graphconf module that binds the function, whichever one calls it
    for name, module in list(sys.modules.items()):
        bound = getattr(module, "collapse_free_faces", None)
        if name.startswith("graphconf") and bound is collapse_free_faces:
            monkeypatch.setattr(module, "collapse_free_faces", counted)
    path = write_graph(capsys, tmp_path, "theta")
    code, out, err = run(capsys, "model", "--graph", path, "-k", "3", "--collapse")
    assert code == 0, err
    assert len(calls) == 1
    assert json.loads(out)["fvector"] != list(calls[0])  # the collapsed f-vector is reported


def test_model_output_byte_stable(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "w", "-k", "1", "-l", "1")
    _, out1, _ = run(capsys, "model", "--graph", path, "-k", "2")
    _, out2, _ = run(capsys, "model", "--graph", path, "-k", "2")
    assert out1 == out2


def test_braidgroup_hub(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "w", "-k", "2", "-l", "1")
    code, out, _ = run(capsys, "braidgroup", "--graph", path, "-k", "2", "--remove-leaves")
    report = json.loads(out)
    assert report["ordered"]["abelianization"]["rank"] == 7
    assert report["unordered"]["abelianization"]["rank"] == 4
    assert report["ordered"]["free_rank"] == 7
    assert len(report["ordered"]["presentation"]["generators"]) == 7


def test_braidgroup_circle(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "w", "-k", "0", "-l", "1")
    code, out, _ = run(capsys, "braidgroup", "--graph", path, "-k", "2")
    report = json.loads(out)
    assert report["ordered"]["abelianization"]["rank"] == 1
    assert report["unordered"]["abelianization"]["rank"] == 1


def test_braidgroup_double_hub_rank(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "xb", "-x", "1", "-k", "1", "-l", "1", "-p", "1", "-q", "1")
    code, out, _ = run(capsys, "braidgroup", "--graph", path, "-k", "2")
    report = json.loads(out)
    assert report["unordered"]["abelianization"]["rank"] == 8


def test_braidgroup_builds_one_skeleton_per_side(capsys, tmp_path, monkeypatch):
    # the free rank of a 1-dimensional side is read off its presentation,
    # whose relators are its 2-chains, with no second skeleton
    calls = []

    def counted(s):
        calls.append(s)
        return skeleton(s)

    monkeypatch.setattr(pi1, "skeleton", counted)
    path = write_graph(capsys, tmp_path, "s1_min")
    code, out, err = run(capsys, "braidgroup", "--graph", path, "-k", "2")
    assert code == 0, err
    report = json.loads(out)
    assert report["ordered"]["free_rank"] == report["unordered"]["free_rank"] == 1
    assert len(calls) == 2


@pytest.mark.parametrize(
    "graph, k, message",
    [
        ({"vertices": ["a"], "edges": []}, 2, "empty complex has no spanning tree"),
        ({"vertices": ["a", "b"], "edges": []}, 1, "complex is not connected"),
    ],
    ids=["empty", "disconnected"],
)
def test_braidgroup_refuses_what_the_shared_orbit_nerve_cannot_present(
    capsys, tmp_path, graph, k, message
):
    # no two points fit on one vertex, so the orbit nerve both sides share is
    # empty; two isolated vertices give a nerve of two points
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, out, err = run(capsys, "braidgroup", "--graph", str(path), "-k", str(k))
    assert code == 3 and out == "" and message in err, err


def test_compare_circle(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "s1_min")
    code, out, _ = run(capsys, "compare", "--graph", path, "-k", "2", "--subdivide", "3")
    report = json.loads(out)
    assert report["match"] is True
    assert report["abrams"]["fvector"] == [6, 6]
    assert report["model"]["fvector"] == [4, 4]
    assert report["conditions"]["ok"] is True


def test_compare_unsubdivided_circle_mismatch(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "s1_min")
    code, out, _ = run(capsys, "compare", "--graph", path, "-k", "2")
    report = json.loads(out)
    assert code == 0
    assert report["match"] is False
    assert report["conditions"]["ok"] is False


def test_compare_y(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "y")
    code, out, _ = run(capsys, "compare", "--graph", path, "-k", "2", "--subdivide", "3")
    report = json.loads(out)
    assert report["match"] is True
    assert report["model"]["betti"][:2] == [1, 1]


def test_reduced_command(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "w", "-k", "1", "-l", "1")
    code, out, _ = run(capsys, "reduced", "--graph", path, "--remove-leaves")
    report = json.loads(out)
    assert report["fvector"] == [8, 10, 0]
    assert report["betti"] == [1, 3]
    assert len(report["cells"]["edges"]) == 10
    assert report["cells"]["faces"] == []


def test_reduced_quotient(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "s1_min")
    code, out, _ = run(capsys, "reduced", "--graph", path, "--quotient")
    report = json.loads(out)
    assert report["fvector"] == [2, 2] and report["betti"] == [1, 1]


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "model", "--graph", str(bad), "-k", "2")
    assert code == 2 and out == "" and err


def test_exit_code_invalid_graph_content(capsys, tmp_path):
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps({"vertices": ["v", "v"], "edges": []}))
    code, _, _ = run(capsys, "model", "--graph", str(bad), "-k", "2")
    assert code == 2


def test_exit_code_invalid_config(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "s1_min")
    code, _, _ = run(capsys, "model", "--graph", path, "-k", "0")
    assert code == 3
    code, _, _ = run(capsys, "reduced", "--graph", path, "-k", "3")
    assert code == 3


def test_reduced_rejects_leaves(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "y")
    code, _, err = run(capsys, "reduced", "--graph", path)
    assert code == 3 and "leaves" in err


def test_stdout_carries_json_only(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "s1_min")
    code, out, _ = run(capsys, "model", "--graph", path, "-k", "2")
    json.loads(out)  # a single JSON document, nothing else
    assert out.endswith("\n") and out.count("\n") == 1


@pytest.mark.parametrize(
    "graph",
    [
        {"vertices": [1, "a"], "edges": []},
        {"vertices": "ab", "edges": []},
        {"vertices": ["a"], "edges": [{"id": 7, "ends": ["a", "a"]}]},
        {"vertices": ["a"], "edges": [{"id": "e", "ends": ["a", ["a"]]}]},
        {"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a", "b", "a"]}]},
        {"vertices": ["a"], "edges": [{"id": "e", "ends": ["a"]}]},
        {"vertices": ["a", "b"], "edges": [{"id": "e", "ends": "ab"}]},
        # a 4-cycle plus chord whose ids make "(x,y,z)" name two cells
        {
            "vertices": ["x", "y,z", "x,y", "z"],
            "edges": [
                {"id": "e1", "ends": ["x", "y,z"]},
                {"id": "e2", "ends": ["y,z", "x,y"]},
                {"id": "e3", "ends": ["x,y", "z"]},
                {"id": "e4", "ends": ["z", "x"]},
                {"id": "e5", "ends": ["x", "x,y"]},
            ],
        },
        {"vertices": ["a"], "edges": [{"id": "e#0", "ends": ["a", "a"]}]},
    ],
    ids=[
        "int-vertex-id",
        "string-vertices",
        "int-edge-id",
        "list-edge-end",
        "three-edge-ends",
        "one-edge-end",
        "string-edge-ends",
        "comma-vertex-ids",
        "hash-edge-id",
    ],
)
def test_exit_code_ids_not_strings(capsys, tmp_path, graph):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(graph))
    code, out, err = run(capsys, "model", "--graph", str(bad), "-k", "2")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("command", ["gen", "model"])
def test_unwritable_out_path(capsys, tmp_path, command):
    # the report is computed, then writing it fails: exit 2, no traceback
    target = str(tmp_path / "missing-dir" / "out.json")
    if command == "gen":
        argv = ["gen", "theta"]
    else:
        argv = ["model", "--graph", write_graph(capsys, tmp_path, "theta"), "-k", "2"]
    code, out, err = run(capsys, *argv, "--out", target)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "command, flags",
    [
        ("compare", ["--quotient"]),
        ("compare", ["--collapse"]),
        ("braidgroup", ["--quotient"]),
        ("braidgroup", ["--collapse"]),
        ("reduced", ["--collapse"]),
        ("model", ["--subdivide", "0"]),
    ],
)
def test_unused_flags_refused(capsys, tmp_path, command, flags):
    path = write_graph(capsys, tmp_path, "s1_min")
    code, out, err = run(capsys, command, "--graph", path, "-k", "2", *flags)
    assert code == 3 and out == "" and f"{flags[0]} is only used by" in err


@pytest.mark.parametrize("flags", [[], ["--quotient"]], ids=["plain", "quotient"])
def test_reduced_empty_configuration_space(capsys, tmp_path, flags):
    # two points cannot sit on one vertex with no edges: exit 3, no traceback
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"vertices": ["a"], "edges": []}))
    code, out, err = run(capsys, "reduced", "--graph", str(path), "-k", "2", *flags)
    assert code == 3 and out == "" and err.startswith("error:")


EMPTY_MODEL_REPORT = '{"betti":[],"components":0,"dimension":null,"euler":0,"fvector":[],"torsion":[]}\n'


@pytest.mark.parametrize(
    "graph, k",
    [({"vertices": ["a"], "edges": []}, 2), ({"vertices": ["a", "b"], "edges": []}, 3)],
    ids=["one-vertex-2", "two-vertices-3"],
)
@pytest.mark.parametrize(
    "flags", [[], ["--quotient"], ["--quotient", "--collapse"]], ids=["plain", "quotient", "collapse"]
)
def test_model_empty_configuration_space(capsys, tmp_path, graph, k, flags):
    # no configuration fits: every form of the model is the empty complex
    path = tmp_path / "points.json"
    path.write_text(json.dumps(graph))
    code, out, err = run(capsys, "model", "--graph", str(path), "-k", str(k), *flags)
    assert code == 0, err
    assert out == EMPTY_MODEL_REPORT
