"""``--remove-leaves`` is applied by the CLI alone, to the graph that each
report's model reads: the model layer takes the graph it is given.  So a
command run with the flag prints what the same command prints on the graph
with its leaves removed, written to a file.  ``compare`` removes them on its
model side only: the Abrams side subdivides, and so reads, the closed
graph."""

import json

import pytest

from graphconf import graphs as gr
from test_cli import run, write_graph

GRAPHS = {
    "w31": ("w", "-k", "3", "-l", "1"),
    "y": ("y",),
    "path-2": ("path", "-n", "2"),
    "interval": ("path",),
    "theta": ("theta",),
}

COMMANDS = {
    "model": ("model",),
    "model-quotient": ("model", "--quotient"),
    "model-collapse": ("model", "--collapse"),
    "model-quotient-collapse": ("model", "--quotient", "--collapse"),
    "braidgroup": ("braidgroup",),
    "reduced": ("reduced",),
    "reduced-quotient": ("reduced", "--quotient"),
}


def leafless_file(tmp_path, path):
    """``remove_leaves`` of the graph at ``path``, written to a file."""
    out = tmp_path / "leafless.json"
    out.write_text(json.dumps(gr.graph_to_json(gr.remove_leaves(gr.load_graph(path)))))
    return str(out)


@pytest.mark.parametrize("graph", GRAPHS, ids=list(GRAPHS))
@pytest.mark.parametrize("command", COMMANDS, ids=list(COMMANDS))
def test_flag_is_the_command_on_the_leafless_graph(capsys, tmp_path, graph, command):
    path = write_graph(capsys, tmp_path, *GRAPHS[graph])
    name, *flags = COMMANDS[command]
    got = run(capsys, name, "--graph", path, "-k", "2", *flags, "--remove-leaves")
    want = run(capsys, name, "--graph", leafless_file(tmp_path, path), "-k", "2", *flags)
    assert got == want


def test_compare_removes_leaves_on_its_model_side_alone(capsys, tmp_path):
    path = write_graph(capsys, tmp_path, "w", "-k", "3", "-l", "1")
    args = ["--graph", path, "-k", "2"]
    code, out, err = run(capsys, "compare", *args, "--subdivide", "3", "--remove-leaves")
    assert code == 0, err
    got = json.loads(out)
    code, out, err = run(capsys, "model", *args, "--remove-leaves")
    assert code == 0, err
    assert got["model"] == json.loads(out)
    assert got["model"]["betti"] == [1, 13] and got["model"]["fvector"] == [28, 40]
    code, out, err = run(capsys, "compare", *args, "--subdivide", "3")
    assert code == 0, err
    closed = json.loads(out)
    assert got["abrams"] == closed["abrams"]
    assert got["conditions"] == closed["conditions"]
    assert got["match"] is True
