"""Compare two sets of benchmark results, workload by workload.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds records written by run.py (a checkout's .bench_results,
or a copy of it); runs of the two sides are paired by seed.  For every
workload and every metric of BENCHMARK.json this prints each side's median
and quartiles and one verdict:

  better      the change wins at least 9 in 10 pairs, ties counting for
              neither, and the medians differ by more than the distance
              between the parent's quartiles
  worse       the change's median is worse than the parent's by more than
              the metric's bound (for per-layer metrics, which have no
              bound: the win rule met in the parent's favour)
  unresolved  either side's spread, quartile distance over median, is wider
              than the bound, unless every change run beats every parent run
  same        none of these

A metric whose runs on one side all read the same integer, such as
search.nodes or certified, is printed as that exact count, so a change that
makes the search visit fewer nodes reads apart from one that makes each node
cheaper.  A gain does not count when the change fails more ops.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(directory: Path) -> dict:
    """(workload, trace) -> seed -> record."""
    runs = defaultdict(dict)
    for path in sorted(directory.rglob("*.json")):
        rec = json.loads(path.read_text())
        if {"workload", "trace", "metrics", "environment"} <= rec.keys():
            runs[(rec["workload"], rec["trace"])][rec["environment"]["seed"]] = rec
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def show(values: list[float], q: tuple[float, float, float]) -> str:
    if all(v == values[0] for v in values) and float(values[0]).is_integer():
        return f"{int(values[0])} (exact)"
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def verdict(metric: dict, parent: list[float], change: list[float], pairs, qp, qc) -> str:
    lower = metric["better"] == "lower"

    def beats(a, b):
        return a < b if lower else a > b

    wins = sum(beats(c, p) for p, c in pairs)
    losses = sum(beats(p, c) for p, c in pairs)
    gap = abs(qc[1] - qp[1])
    if wins >= WIN_SHARE * len(pairs) and beats(qc[1], qp[1]) and gap > qp[2] - qp[0]:
        return "better"
    bound = metric.get("bound")
    if bound is None:
        if losses >= WIN_SHARE * len(pairs) and beats(qp[1], qc[1]) and gap > qp[2] - qp[0]:
            return "worse"
        return "-"
    if beats(qp[1], qc[1]) and gap > bound * abs(qp[1]):
        return "worse"
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qp, qc))
    if spread > bound and not all(beats(c, p) for c in change for p in parent):
        return "unresolved"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)

    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        print(f"== {workload}")
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            p_runs, c_runs = parent.get((workload, trace), {}), change.get((workload, trace), {})
            if not p_runs or not c_runs:
                continue
            p_failed = sum(r["failed"] for r in p_runs.values())
            c_failed = sum(r["failed"] for r in c_runs.values())
            print(
                f"  {'end-to-end' if trace == 0 else 'per-layer (traced)'}: parent {len(p_runs)} runs, "
                f"{p_failed} failed ops; change {len(c_runs)} runs, {c_failed} failed ops"
            )
            seeds = sorted(set(p_runs) & set(c_runs))
            if not seeds:
                print("    no seed was run on both sides; the win rule needs seed-paired runs")
                continue
            for metric in metrics:
                name = metric["name"]
                pv = [r["metrics"][name]["value"] for r in p_runs.values()]
                cv = [r["metrics"][name]["value"] for r in c_runs.values()]
                pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"]) for s in seeds]
                qp, qc = quartiles(pv), quartiles(cv)
                v = verdict(metric, pv, cv, pairs, qp, qc)
                if v == "better" and c_failed > p_failed:
                    v = "void (more failed ops)"
                delta = (qc[1] - qp[1]) / abs(qp[1]) * 100 if qp[1] else 0.0
                print(
                    f"    {name:26} {metric['unit']:6} {show(pv, qp):>32} -> {show(cv, qc):<32} "
                    f"{delta:+7.1f}%  {v}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
