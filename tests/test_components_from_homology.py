"""A report's component count is its H_0.

Rank H_0 is the number of path components, so every report reads
``"components"`` off the Betti numbers it has computed: no report runs
``homology.connected_components`` beside its homology, and the ordered
reports lift no level of the orbit nerve to count them
(``nerve.lift_faces``).  The disconnected cases below check that count
against the union-find on the full model, the tests' reference.
"""

import json
import sys

import pytest

from graphconf import graphs as gr
from graphconf import homology, nerve
from graphconf.model import model_complex
from graphconf.reduced import build_reduced
from test_cli import run
from test_orbit_nerve import k4


def refuse(monkeypatch, home, name):
    """Make ``home.name`` raise, in every graphconf module that binds it."""
    real = getattr(home, name)

    def refused(*args):
        raise AssertionError(f"a report called {name}")

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "graphconf" and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, refused)


def write(tmp_path, graph):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(gr.graph_to_json(graph)))
    return str(path)


def outputs(capsys, argv):
    got = []
    for args in argv:
        code, out, err = run(capsys, *args)
        assert code == 0, err
        got.append(out)
    return got


# (command, k, flags...); the first ORDERED are the ordered model's reports
REPORTS = [
    ("model", 3),
    ("model", 3, "--collapse"),
    ("model", 3, "--quotient"),
    ("compare", 3, "--subdivide", "4"),
    ("reduced", 2),
    ("reduced", 2, "--quotient"),
]
ORDERED = 2


@pytest.mark.parametrize("graph", [gr.theta_graph(), k4()], ids=["theta", "k4"])
def test_no_report_counts_components_a_second_way(capsys, tmp_path, monkeypatch, graph):
    path = write(tmp_path, graph)
    argv = [[command, "--graph", path, "-k", str(k), *flags] for command, k, *flags in REPORTS]
    expected = outputs(capsys, argv)
    refuse(monkeypatch, homology, "connected_components")
    assert outputs(capsys, argv) == expected
    # the ordered reports lift no level of the orbit nerve
    refuse(monkeypatch, nerve, "lift_faces")
    assert outputs(capsys, argv[:ORDERED]) == expected[:ORDERED]


def two_loops():
    return gr.build_graph(["u", "w"], [("a", "u", "u"), ("b", "w", "w")])


@pytest.mark.parametrize(
    "graph, k, ordered, unordered",
    [
        (two_loops(), 2, 4, 3),
        # 2 + 2 with all three points on one loop, 3 + 3 with them split
        (two_loops(), 3, 10, 4),
        (gr.path_graph(1), 2, 2, 1),
    ],
    ids=["two-loops-2", "two-loops-3", "path-1-2"],
)
def test_disconnected_models(capsys, tmp_path, graph, k, ordered, unordered):
    path = write(tmp_path, graph)
    for flags, count, quotient in [((), ordered, False), (("--quotient",), unordered, True)]:
        code, out, err = run(capsys, "model", "--graph", path, "-k", str(k), *flags)
        assert code == 0, err
        report = json.loads(out)
        full = model_complex(graph, k, quotient=quotient)
        assert report["components"] == report["betti"][0] == count
        assert len(homology.connected_components(full)) == count


def test_reduced_open_edge(capsys, tmp_path):
    graph = gr.build_graph([], [("e", None, None)])
    code, out, err = run(capsys, "reduced", "--graph", write(tmp_path, graph), "-k", "2")
    assert code == 0, err
    report = json.loads(out)
    assert report["components"] == 2
    assert report["betti"] == [2]
    assert len(homology.connected_components(build_reduced(graph).complex)) == 2
