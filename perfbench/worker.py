"""One workload in one fresh Python process, as a closed loop.

One client issues the workload's jobs one after another through
``graphconf.cli.main(argv)`` with stdout captured, checks each job's
output, and repeats the job list as long as another pass fits in ``--seconds``.  With
``--trace 1`` untraced and traced passes alternate, so the per-layer
numbers and the tracing overhead come from the same process.  The result
is one JSON line on stdout; ``run.py`` starts this script and reads it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import mean, median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import graphconf  # noqa: E402  (the program under test, from this checkout)
import graphconf.cli  # noqa: E402

import corpus  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402


def run_job(argv: list):
    """(exit code, stdout, stderr, seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = graphconf.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed job, not a failed benchmark
            traceback.print_exc()
            code = "uncaught exception"
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_pass(jobs, graph_dir, graphs, expected, seed, meter):
    """Run the job list once; return (seconds, failures, digest, stdout bytes).

    After each job the speed meter takes samples worth 5% of the job's time.
    """
    seconds, failures, outputs = 0.0, [], {}
    for job in jobs:
        code, out, err, dt = run_job(job.argv(graph_dir))
        seconds += dt
        meter.sample(0.05 * dt)
        outputs[job.id] = out
        if code != 0:
            failures.append(f"{job.id}: exit {code}: {err.strip()[-500:]}")
            continue
        problems = []
        if seed == 0:
            digest = hashlib.sha256(out.encode()).hexdigest()
            if digest != expected["jobs"][job.id]["sha256"]:
                problems.append(f"stdout sha256 {digest} differs from the recorded one")
        try:
            problems += corpus.check(job, graphs[job.graph], json.loads(out), expected)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
        if problems:
            failures.append(f"{job.id}: " + "; ".join(problems))
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    return seconds, failures, digest, sum(len(o.encode()) for o in outputs.values())


def layer_metrics(traced: list, overhead: float) -> dict:
    """Per-layer metrics: self times are medians over traced passes, counts
    come from the last traced pass (they repeat exactly for one seed)."""
    last, stdout_bytes = traced[-1]
    c = last.counts
    out = {}
    for probe in tracer.PROBES:
        if probe.timed:
            out[f"{probe.name}.self_s"] = (median(t.self_s[probe.name] for t, _ in traced), "s")

    def ratio(num, den, empty):
        return num / den if den else empty

    out.update({
        "cells.braid_cells": (c["cells.braid_cells"], "count"),
        # cells made directly, with no braid cells to filter, waste nothing
        "cells.config_yield": (ratio(c["cells.config_cells"], c["cells.braid_cells"],
                                     1.0 if c["cells.config_cells"] else 0.0), "ratio"),
        "cells.act_on_cell.calls": (last.calls["cells.act_on_cell"], "count"),
        "model.morphisms": (c["model.morphisms"], "count"),
        "nerve.chains": (c["nerve.chains"], "count"),
        "nerve.orbit_ratio": (ratio(c["nerve.quotient_in"], c["nerve.quotient_out"], 0.0), "ratio"),
        "nerve.collapsed_pairs": (c["nerve.collapsed_pairs"], "count"),
        "homology.snf_calls": (last.calls["homology.smith_normal_form"], "count"),
        "homology.boundary_nnz": (c["homology.boundary_nnz"], "count"),
        "homology.unit_pivots": (c["homology.unit_pivots"], "count"),
        "homology.core_entries": (c["homology.core_entries"], "count"),
        "homology.unit_share": (ratio(c["homology.unit_pivots"], c["homology.rank"], 0.0), "ratio"),
        "pi1.generators_in": (c["pi1.generators_in"], "count"),
        "pi1.generators_out": (c["pi1.generators_out"], "count"),
        "abrams.cells": (c["abrams.cells"], "count"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "trace.overhead_s": (overhead, "s"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    expected = corpus.load_expected()
    jobs = corpus.plan(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=corpus.WORK_DIR) as tmp:
        graph_dir = Path(tmp)
        graphs = corpus.write_graphs(jobs, args.seed, graph_dir, graphconf.cli.main)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        passes = {False: [], True: []}  # seconds per pass, untraced and traced
        meter = speed.Meter()
        traced, failures, digests, attempted = [], [], set(), 0
        start = time.perf_counter()
        while True:
            with_trace = bool(args.trace) and len(passes[False]) > len(passes[True])
            if with_trace:
                with tracer.Tracer() as t:
                    seconds, bad, digest, nbytes = run_pass(jobs, graph_dir, graphs, expected, args.seed, meter)
                traced.append((t, nbytes))
            else:
                seconds, bad, digest, nbytes = run_pass(jobs, graph_dir, graphs, expected, args.seed, meter)
            passes[with_trace].append(seconds)
            attempted += len(jobs)
            failures += bad
            digests.add(digest)
            # never start a pass that would end after --seconds, so a run's
            # length stays bounded on a slow machine too
            done = len(passes[False]) + len(passes[True])
            elapsed = time.perf_counter() - start
            enough = passes[False] and (passes[True] or not args.trace)
            if enough and elapsed * (done + 1) / done > args.seconds:
                break

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": len(failures),
        # every pass, traced or not, must print exactly the same bytes
        "same_stdout": len(digests) == 1,
        "pass_walls": passes[False] + passes[True],
        "speed_factor": meter.factor(),
    }
    if args.trace:
        overhead = mean(passes[True]) - mean(passes[False])
        result["metrics"] = layer_metrics(traced, overhead)
    else:
        result["metrics"] = {
            # passes repeat the same work; the mean over the run, scaled to
            # the reference speed, is what a user waits for one job list
            "wall_s": {"value": mean(passes[False]) * meter.factor(), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
