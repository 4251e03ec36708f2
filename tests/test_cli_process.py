"""Several CLI calls in one process, as a caller of ``cli.main`` makes them:
each prints what a fresh process prints, and none leaves cyclic garbage,
which would wait for the collector's next full collection."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphconf.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh(argv):
    """Exit code and stdout of ``graphconf argv`` in a new process."""
    child = subprocess.run(
        [sys.executable, "-m", "graphconf", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    return child.returncode, child.stdout


def test_calls_after_a_parse_error_print_what_fresh_calls_print(capsys, tmp_path):
    graph = str(tmp_path / "theta.json")
    assert main(["gen", "theta", "--out", graph]) == 0
    bad = ["model", "-k"]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    capsys.readouterr()
    assert (exc.value.code, "") == fresh(bad)
    for argv in (["gen", "theta"], ["model", "--graph", graph, "-k", "2"]):
        code = main(argv)
        assert (code, capsys.readouterr().out) == fresh(argv), argv


def test_no_cli_job_leaves_cyclic_garbage(capsys, tmp_path):
    graph = str(tmp_path / "theta.json")
    assert main(["gen", "theta", "--out", graph]) == 0
    jobs = [
        ["model", "-k", "3"],
        ["model", "-k", "3", "--quotient"],
        ["model", "-k", "3", "--collapse"],
        ["braidgroup", "-k", "3"],
        ["compare", "-k", "3", "--subdivide", "4"],
        ["reduced", "-k", "2"],
        ["reduced", "-k", "2", "--quotient"],
    ]
    gc.disable()
    try:
        assert main(["model", "--graph", graph, "-k", "2"]) == 0  # warm-up
        gc.collect()
        for command, *flags in jobs:
            assert main([command, "--graph", graph, *flags]) == 0
            assert gc.collect() == 0, [command, *flags]
    finally:
        gc.enable()
    capsys.readouterr()
