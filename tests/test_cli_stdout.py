"""A report that cannot be written to stdout ends in exit 2 and an
``error:`` line, as an unwritable ``--out`` does: no traceback, and no
second failure when the interpreter flushes stdout at exit."""

import io
import os
import subprocess
import sys
from pathlib import Path

from graphconf.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_failed_stdout_write_exits_2(capsys, monkeypatch):
    stub = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", stub)
    code = main(["gen", "theta"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: [Errno 32] Broken pipe\n"
    assert stub.closed


def test_stdout_pipe_closed_by_the_reader(tmp_path):
    graph = tmp_path / "theta.json"
    assert main(["gen", "theta", "--out", str(graph)]) == 0
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the child writes anything
    env = {**os.environ, "PYTHONPATH": SRC}
    try:
        child = subprocess.run(
            [sys.executable, "-m", "graphconf", "braidgroup", "--graph", str(graph), "-k", "3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    err = child.stderr.decode()
    assert child.returncode == 2, err
    assert err == "error: [Errno 32] Broken pipe\n"


def test_stdout_closed_at_start_exits_2():
    # with fd 1 closed the interpreter sets sys.stdout to None, and print
    # would drop the report without an error
    env = {**os.environ, "PYTHONPATH": SRC}
    child = subprocess.run(
        ["sh", "-c", 'exec "$0" -m graphconf gen theta >&-', sys.executable],
        stderr=subprocess.PIPE,
        env=env,
        timeout=120,
    )
    err = child.stderr.decode()
    assert child.returncode == 2, err
    assert err == "error: no standard output to write the report to\n"
