"""Benchmark for graphconf.

    python3 perfbench/run.py --workload ordered-homology --seed 0 --seconds 36 --trace 0

Run from the root of a checkout.  The workload runs in a fresh Python
process (``worker.py``) that drives ``graphconf.cli.main`` as one closed-loop
client.  ``--trace 0`` reports the end-to-end metrics (wall_s, peak_rss_mb,
setup_s); ``--trace 1`` reports the per-layer metrics of a traced run.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and the metric map.
"""

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import corpus
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10  # extra processes that only set up; setup_s is the median
TIME_LIMIT = 170.0  # seconds for the whole run


def spawn(args, timeout: float, setup_only: bool) -> dict:
    """Start a worker, wait for it and return its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> dict:
    started = time.monotonic()
    corpus.WORK_DIR.mkdir(exist_ok=True)
    try:
        setups, meter = [], speed.Meter()
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(args, 30.0, True)["setup_s"])
                meter.sample(0.0)
        result = spawn(args, TIME_LIMIT - (time.monotonic() - started), False)
    finally:
        try:
            corpus.WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it
    if not args.trace:
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = {"value": median(setups) * meter.factor(), "unit": "s"}
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="0 keeps labels and job order, so stdout hashes are checked too")
    ap.add_argument("--seconds", type=float, default=36.0,
                    help="repeat the job list while another pass fits in this many seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "graphconf" / "cli.py").is_file():
        print(f"error: no graphconf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"failed_frac={failed / attempted:g} ({failed}/{attempted}) "
          f"speed_factor={result['speed_factor']:.3f} "
          f"raw_pass_s={[round(w, 3) for w in result['pass_walls']]}")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and result["same_stdout"],
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
