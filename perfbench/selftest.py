"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

They run every workload once, traced, so they take about a minute; the
file name keeps them out of the repository's default test run.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
THETA = {"vertices": ["u", "w"], "edges": [{"id": f"t{i}", "ends": ["u", "w"]} for i in (1, 2, 3)]}


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module")
def traced():
    results = {}
    for workload in corpus.WORKLOADS:
        proc = bench(workload, 1)
        assert proc.returncode == 0, proc.stderr
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    return results


def test_gal_reproduces_hand_values():
    assert corpus.gal_euler(THETA, 3) == -2
    assert corpus.gal_euler(corpus.complete_graph_k4(), 3) == 0
    assert corpus.gal_euler(corpus.complete_bipartite_k33(), 2) == -3
    assert corpus.gal_euler(corpus.complete_bipartite_k33(), 3) == 5


def test_gal_counts_open_edge_ends_as_leaves():
    xb = {"vertices": ["c1", "c2"], "edges": [
        {"id": "a1", "ends": ["c1", "c1"]}, {"id": "b1", "ends": ["c1", None]},
        {"id": "d1", "ends": ["c2", None]}, {"id": "g1", "ends": ["c2", "c2"]},
        {"id": "m1", "ends": ["c1", "c2"]}, {"id": "m2", "ends": ["c1", "c2"]},
    ]}
    assert corpus.gal_euler(xb, 3) == -16


def test_relabeling_is_a_seeded_bijection():
    a = corpus.relabel(corpus.complete_bipartite_k33(), random.Random("labels:7:k33"))
    b = corpus.relabel(corpus.complete_bipartite_k33(), random.Random("labels:7:k33"))
    assert a == b
    assert sorted(a["vertices"]) == sorted(corpus.complete_bipartite_k33()["vertices"])
    assert corpus.gal_euler(a, 2) == -3


def test_traced_runs_are_correct_and_print_the_same_bytes(traced):
    # correct includes: every pass, traced or not, printed the same bytes,
    # and under seed 0 those bytes hash to the recorded values
    for workload, result in traced.items():
        assert result["correct"] and result["failed"] == 0, workload


def test_every_listed_span_and_counter_fires(traced):
    listed = {m["name"] for m in BENCHMARK["per_layer"]}
    for result in traced.values():
        assert set(result["metrics"]) == listed
    silent = [name for name in sorted(listed)
              if not any(r["metrics"][name]["value"] for r in traced.values())]
    assert silent == []


def test_untraced_run_reports_the_end_to_end_metrics():
    proc = bench("unordered-quotient", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    listed = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_removed_function_reads_as_zero():
    sys.path.insert(0, str(ROOT / "src"))
    import graphconf  # noqa: F401

    t = tracer.Tracer([tracer.Probe("model", "no_such_function", "model.gone")])
    with t:
        pass
    assert t.calls["model.gone"] == 0 and t.self_s["model.gone"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("ordered-homology", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
