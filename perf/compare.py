#!/usr/bin/env python3
"""Compare two sets of benchmark runs under the bounds in BENCHMARK.json.

    python3 perf/compare.py SET_A SET_B

Each argument is a set file written by ``perf/run.py --all`` or its
name in perf/out/.  SET_A is the baseline.  One row per workload and
end-to-end metric gives each side's median and quartiles and a verdict:

* ``unresolved``: either side's spread (quartile distance over median)
  is wider than the bound, unless every run of B reads better than
  every run of A, which is ``better``;
* ``worse`` or ``better``: the medians differ by more than the bound;
* ``unchanged`` otherwise.

The failed fraction of cells is compared as well, and when both sets
used one seed, so are the output digests.  Exits 1 when a metric got
worse, the failed fraction rose or a digest moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

from run import OUT, load_spec, quartiles


def load_set(name: str) -> dict:
    path = Path(name)
    if not path.exists():
        path = OUT / f"{name}.json"
    return json.loads(path.read_text())


def values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric] for run in runs
            if run["workload"] == workload]


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    sign = 1 if better == "higher" else -1
    qa, qb = quartiles(a), quartiles(b)
    spread = max((q["q3"] - q["q1"]) / q["median"] for q in (qa, qb))
    change = sign * (qb["median"] - qa["median"]) / qa["median"]
    if spread > bound:
        all_better = min(sign * x for x in b) > max(sign * x for x in a)
        return "better" if all_better else "unresolved"
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "unchanged"


def failed_frac(runs: List[dict], workload: str) -> float:
    mine = [run for run in runs if run["workload"] == workload]
    return (sum(run["failed"] for run in mine)
            / max(1, sum(run["attempted"] for run in mine)))


def digests_moved(set_a: dict, set_b: dict, workload: str) -> bool:
    """Whether the two sets' runs of ``workload`` disagree on any digest."""
    seen = {json.dumps(run["digests"], sort_keys=True)
            for run in set_a["runs"] + set_b["runs"]
            if run["workload"] == workload}
    return len(seen) > 1


def compare(set_a: dict, set_b: dict, spec: dict) -> List[Dict[str, object]]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = values(set_a["runs"], workload, metric["name"])
            b = values(set_b["runs"], workload, metric["name"])
            rows.append({
                "workload": workload, "metric": metric["name"],
                "a": quartiles(a), "b": quartiles(b),
                "verdict": verdict(a, b, metric["better"], metric["bound"])})
        fa = failed_frac(set_a["runs"], workload)
        fb = failed_frac(set_b["runs"], workload)
        rows.append({"workload": workload, "metric": "failed_frac",
                     "a": {"median": fa, "q1": fa, "q3": fa},
                     "b": {"median": fb, "q1": fb, "q3": fb},
                     "verdict": "worse" if fb > fa else "unchanged"})
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    set_a, set_b = load_set(argv[0]), load_set(argv[1])
    spec = load_spec()
    rows = compare(set_a, set_b, spec)
    print(f"{'workload':14} {'metric':26} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34}  verdict")
    for row in rows:
        a, b = (f"{q['median']:.5g} [{q['q1']:.5g}, {q['q3']:.5g}]"
                for q in (row["a"], row["b"]))
        print(f"{row['workload']:14} {row['metric']:26} {a:>34} {b:>34}  "
              f"{row['verdict']}")
    moved = []
    if set_a["seed"] == set_b["seed"]:
        moved = [w["name"] for w in spec["workloads"]
                 if digests_moved(set_a, set_b, w["name"])]
        print(f"digests: {'moved on ' + ', '.join(moved) if moved else 'identical'}")
    worse = any(row["verdict"] == "worse" for row in rows)
    return 1 if worse or moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
