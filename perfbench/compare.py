"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py PARENT_RESULTS.jsonl CHANGE_RESULTS.jsonl

Each file holds the JSON lines that run.py appends to
perfbench/out/results.jsonl, one per run.  Run both commits with the same
--seconds and seeds, alternating which goes first; the i-th untraced run of
a workload in one file is paired with the i-th in the other.  For every
(workload, end-to-end metric) pair it prints one verdict:

- improved: the change wins at least 9 of 10 pairs (ties count for
  neither), with at least 10 pairs, and the medians differ by more than the
  interquartile range of the parent's runs;
- unresolved: the runs spread (interquartile range over median, on either
  side) wider than the metric's bound, unless every change run reads better
  than every parent run;
- no worse: the change's median is within the bound of the parent's;
- regressed: otherwise.

Bounds and directions come from BENCHMARK.json.  The exit code is 1 when a
metric regressed or the change failed more items than the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load_runs(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            run = json.loads(line)
            if run.get("trace") == 0:
                runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> dict:
    """Apply the comparison rule to one (workload, metric) pair."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    worse_by = sign * (pmed - cmed) / abs(pmed) if pmed else 0.0
    separated = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (cmed - pmed) > pq3 - pq1):
        result = "improved"
    elif spread > bound and not separated:
        result = "unresolved"
    elif worse_by <= bound:
        result = "no worse"
    else:
        result = "regressed"
    return {"verdict": result, "wins": wins, "pairs": len(pairs), "parent": (pq1, pmed, pq3),
            "change": (cq1, cmed, cq3), "spread": spread, "worse_by": worse_by}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load_runs(args.parent), load_runs(args.change)
    bad = False
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload}: no runs in {'parent' if not p_runs else 'change'}")
            continue
        lengths = {r["seconds"] for r in p_runs + c_runs}
        if len(lengths) > 1:
            print(f"{workload}: runs of different lengths {sorted(lengths)}; not compared")
            bad = True
            continue
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        print(f"{workload}: {len(p_runs)} parent runs ({p_failed} failed items), "
              f"{len(c_runs)} change runs ({c_failed} failed items)")
        if c_failed > p_failed:
            print("  the change fails more items than the parent: no gain counts")
            bad = True
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            v = verdict(pv, cv, m["bound"], m["better"])
            bad |= v["verdict"] == "regressed"
            print(f"  {name} ({m['unit']}, {m['better']} is better, bound {m['bound']}): "
                  f"{v['verdict']}; parent median {v['parent'][1]:.6g} "
                  f"[{v['parent'][0]:.6g}, {v['parent'][2]:.6g}], change median "
                  f"{v['change'][1]:.6g} [{v['change'][0]:.6g}, {v['change'][2]:.6g}], "
                  f"change wins {v['wins']}/{v['pairs']}, spread {v['spread']:.3f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
