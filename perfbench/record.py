"""Record the stdout sha256 and label-free invariants of every job.

    python3 perfbench/record.py

Runs each job once with seed 0 and rewrites expected.json.  The H_1 table
that braidgroup's abelianization is checked against comes from ``model``
runs, so it is computed by the homology path rather than by pi1.  Re-record
only when a change is meant to alter what the program prints.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import corpus
from worker import graphconf, run_job


def run_report(argv: list) -> str:
    code, out, err, _ = run_job(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}: {err}")
    return out


def main() -> None:
    jobs = {job.id: job for workload in corpus.WORKLOADS.values() for job in workload}
    corpus.WORK_DIR.mkdir(exist_ok=True)
    expected = {"jobs": {}, "h1": {}}
    with tempfile.TemporaryDirectory(dir=corpus.WORK_DIR) as tmp:
        graph_dir = Path(tmp)
        corpus.write_graphs(list(jobs.values()), 0, graph_dir, graphconf.cli.main)
        for job_id, job in sorted(jobs.items()):
            out = run_report(job.argv(graph_dir))
            expected["jobs"][job_id] = {
                "sha256": hashlib.sha256(out.encode()).hexdigest(),
                "invariants": corpus.invariants(job, json.loads(out)),
            }
            if job.command != "braidgroup":
                continue
            for side, flags in (("ordered", ()), ("unordered", ("--quotient",))):
                model = corpus.Job("model", job.graph, job.k, flags)
                report = json.loads(run_report(model.argv(graph_dir)))
                h1 = [report["betti"][1], report["torsion"][1]]
                expected["h1"][corpus.h1_key(job.graph, job.k, side)] = h1
    corpus.WORK_DIR.rmdir()
    corpus.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
