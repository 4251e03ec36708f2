"""Graph corpus, workload job lists and output checks for the benchmark.

Graphs come from ``graphconf gen`` (theta, xb, w) plus K4 and K3,3, which
are written here.  A workload seed permutes the job order and relabels
vertex and edge ids with a seeded bijection; seed 0 keeps both as they are.
The program only ever sees the graph files written by ``write_graphs``.

Every job's stdout is checked against invariants that do not depend on
labels: the recorded f-vector, Betti numbers and torsion, Gal's closed form
for the Euler characteristic, ``compare``'s match and subdivision
conditions, and the braid-group abelianization against H_1 computed by the
homology path.  Under seed 0 the stdout sha256 must also equal the value
recorded in ``expected.json``.
"""

import json
import random
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
# graph files go to temporary directories under here, inside the checkout
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench_work"

# Graph name -> gen arguments; None marks a graph written by the harness.
GEN_ARGS = {
    "theta": ["theta"],
    "xb": ["xb", "-x", "2", "-k", "1", "-l", "1", "-p", "1", "-q", "1"],
    "w31": ["w", "-k", "3", "-l", "1"],
    "k4": None,
    "k33": None,
}


def complete_graph_k4() -> dict:
    pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    return {
        "vertices": ["a", "b", "c", "d"],
        "edges": [{"id": f"e{u}{v}", "ends": [u, v]} for u, v in pairs],
    }


def complete_bipartite_k33() -> dict:
    return {
        "vertices": ["a1", "a2", "a3", "b1", "b2", "b3"],
        "edges": [
            {"id": f"e{i}{j}", "ends": [f"a{i}", f"b{j}"]} for i in (1, 2, 3) for j in (1, 2, 3)
        ],
    }


@dataclass(frozen=True)
class Job:
    command: str  # model, braidgroup, compare or reduced
    graph: str  # key of GEN_ARGS
    k: int
    flags: tuple = ()

    @property
    def id(self) -> str:
        return " ".join([self.command, self.graph, f"k={self.k}", *self.flags])

    def argv(self, graph_dir: Path) -> list:
        path = str(graph_dir / f"{self.graph}.json")
        return [self.command, "--graph", path, "-k", str(self.k), *self.flags]


# Why each workload exists is written up in README.md next to this file.
WORKLOADS = {
    "ordered-homology": [
        Job("model", "k4", 3),
        Job("model", "theta", 4, ("--collapse",)),
    ],
    "unordered-quotient": [
        Job("model", "theta", 4, ("--quotient",)),
        Job("model", "k4", 3, ("--quotient",)),
        Job("model", "xb", 3, ("--quotient",)),
        Job("model", "k33", 2, ("--quotient",)),
    ],
    "braid-crosscheck": [
        Job("braidgroup", "xb", 3),
        Job("braidgroup", "theta", 3),
        Job("braidgroup", "k33", 2),
        Job("compare", "theta", 3, ("--subdivide", "4")),
        Job("compare", "w31", 3, ("--subdivide", "4")),
        Job("reduced", "k4", 2),
        Job("reduced", "theta", 2, ("--quotient",)),
    ],
}


def relabel(graph: dict, rng: random.Random) -> dict:
    """Permute vertex ids among themselves and edge ids among themselves."""
    verts = list(graph["vertices"])
    eids = [e["id"] for e in graph["edges"]]
    vmap = dict(zip(verts, rng.sample(verts, len(verts))))
    emap = dict(zip(eids, rng.sample(eids, len(eids))))
    return {
        "vertices": sorted(vmap[v] for v in verts),
        "edges": sorted(
            (
                {"id": emap[e["id"]], "ends": [None if v is None else vmap[v] for v in e["ends"]]}
                for e in graph["edges"]
            ),
            key=lambda e: e["id"],
        ),
    }


def plan(workload: str, seed: int) -> list:
    """The workload's jobs in the order the seed gives them."""
    jobs = list(WORKLOADS[workload])
    if seed:
        random.Random(f"order:{seed}").shuffle(jobs)
    return jobs


def write_graphs(jobs: list, seed: int, graph_dir: Path, cli_main) -> dict:
    """Write each graph the jobs need and return them as parsed JSON."""
    graphs = {}
    for name in sorted({job.graph for job in jobs}):
        path = graph_dir / f"{name}.json"
        args = GEN_ARGS[name]
        if args is None:
            data = complete_graph_k4() if name == "k4" else complete_bipartite_k33()
        else:
            if cli_main(["gen", *args, "--out", str(path)]) != 0:
                raise RuntimeError(f"graphconf gen {' '.join(args)} failed")
            data = json.loads(path.read_text(encoding="utf-8"))
        if seed:
            data = relabel(data, random.Random(f"labels:{seed}:{name}"))
        if seed or args is None:
            path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
        graphs[name] = data
    return graphs


# -- Gal's Euler characteristic ----------------------------------------------

def gal_euler(graph: dict, k: int) -> int:
    """chi(UConf_k G) from Gal's series
    sum_k chi(UConf_k G) t^k = prod_v (1 + (1 - val v) t) / (1 - t)^|E|.

    An open edge end counts as a leaf, whose factor is 1.
    """
    val = {v: 0 for v in graph["vertices"]}
    for e in graph["edges"]:
        for v in e["ends"]:
            if v is not None:
                val[v] += 1
    numerator = [1]
    for v in graph["vertices"]:
        a = 1 - val[v]
        numerator = [x + (a * numerator[i - 1] if i else 0) for i, x in enumerate(numerator + [0])]
    n_edges = len(graph["edges"])
    # coefficient of t^j in (1 - t)^-|E| is C(j + |E| - 1, j)
    return sum(
        c * (comb(k - i + n_edges - 1, k - i) if n_edges else int(i == k))
        for i, c in enumerate(numerator[: k + 1])
    )


# -- output checks -----------------------------------------------------------

def _homology_view(report: dict) -> dict:
    return {key: report[key] for key in ("fvector", "euler", "betti", "torsion") if key in report}


def invariants(job: Job, report: dict) -> dict:
    """The label-free part of a job's report."""
    if job.command == "model":
        return {**_homology_view(report), "dimension": report["dimension"],
                "components": report["components"]}
    if job.command == "reduced":
        return {**_homology_view(report), "components": report["components"]}
    if job.command == "compare":
        return {
            "model": _homology_view(report["model"]),
            "abrams": _homology_view(report["abrams"]),
            "conditions": report["conditions"],
            "match": report["match"],
        }
    if job.command == "braidgroup":
        return {
            side: {"abelianization": report[side]["abelianization"],
                   "free_rank": report[side]["free_rank"]}
            for side in ("ordered", "unordered")
        }
    raise ValueError(f"unknown command {job.command}")


def h1_key(graph: str, k: int, side: str) -> str:
    """Key of the H_1 table in expected.json; side is ordered or unordered."""
    return f"{graph} k={k} {side}"


def check(job: Job, graph: dict, report: dict, expected: dict) -> list:
    """Problems with one job's parsed report; empty when it is correct."""
    problems = []
    want = expected["jobs"][job.id]["invariants"]
    got = invariants(job, report)
    if got != want:
        problems.append(f"invariants {got} != recorded {want}")
    chi = gal_euler(graph, job.k)
    ordered_chi = factorial(job.k) * chi
    if job.command in ("model", "reduced"):
        target = chi if "--quotient" in job.flags else ordered_chi
        if report["euler"] != target:
            problems.append(f"euler {report['euler']} != Gal {target}")
    elif job.command == "compare":
        if report["model"]["euler"] != ordered_chi:
            problems.append(f"model euler {report['model']['euler']} != Gal {ordered_chi}")
        if not report["conditions"]["ok"]:
            problems.append("subdivision does not meet the Abrams conditions")
        elif report["abrams"]["euler"] != ordered_chi:
            problems.append(f"abrams euler {report['abrams']['euler']} != Gal {ordered_chi}")
        if not report["match"]:
            problems.append("model and Abrams Betti numbers differ")
    elif job.command == "braidgroup":
        for side in ("ordered", "unordered"):
            ab = report[side]["abelianization"]
            rank, torsion = expected["h1"][h1_key(job.graph, job.k, side)]
            if (ab["rank"], ab["torsion"]) != (rank, torsion):
                problems.append(f"{side} abelianization {ab} != H_1 ({rank}, {torsion})")
    return problems


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
