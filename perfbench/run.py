"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload stratum_roundtrip --seed 1 --seconds 30 --trace 0

With --trace 0 it measures set-up time in several fresh processes, then runs
a closed loop (one client, the next item starts once the previous one is
verified) in another fresh process, for the whole passes of the seeded item
stream that take about --seconds, and prints the end-to-end metrics.  Every
timing is scaled to a reference host speed measured by perfbench/hostspeed.py
in the same process (see there); the raw timings are printed and kept too.
With --trace 1 it runs the first pass of the seeded item stream
twice, traced and untraced, and prints the per-layer metrics and the tracing
overhead.  The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Every run is also appended to perfbench/out/results.jsonl for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, ROOT)

from perfbench.hostspeed import local_scales, scale  # noqa: E402

# Set-up is measured this many times in separate processes, plus once in
# the timed process; the median is reported.
SETUP_PROBES = 6
# The tail latency is the highest percentile with this many items beyond it.
TAIL_BEYOND = 10
MAX_WORKER_SECONDS = 170

END_TO_END_UNITS = {
    "items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start a worker in a fresh interpreter; return (spawn time, its JSON)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    env["PYTHONHASHSEED"] = "0"
    spawned = time.time()
    proc = subprocess.Popen([sys.executable, "-m", "perfbench.worker", *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} did not finish within {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND items
    beyond it; with fewer items than that, the slowest item."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - TAIL_BEYOND - 1, 0) if n > TAIL_BEYOND else n - 1
    return xs[k], 100.0 * (k + 1) / n


def end_to_end(setups: list[float], timed: dict, scales: list[float] | None = None
               ) -> tuple[dict, dict]:
    """The end-to-end metrics of a timed run.  Item latencies are multiplied
    by their host-speed scales (none: raw); set-up times come scaled."""
    lat = timed["latencies"]
    if scales is not None:
        lat = [k * x for k, x in zip(scales, lat)]
    verified = timed["attempted"] - timed["failed"]
    tail, pct = tail_latency(lat)
    metrics = {
        "items_per_s": verified / sum(lat),
        "item_p50_ms": 1000.0 * statistics.median(lat),
        "item_tail_ms": 1000.0 * tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["rss_kb"] / 1024.0,
    }
    info = {
        "tail_percentile": round(pct, 2), "samples": len(lat),
        "fail_ratio": timed["failed"] / timed["attempted"],
        "setup_samples_s": setups, "wall_s": timed["wall_s"],
        "families": {f: timed["families"].count(f) for f in sorted(set(timed["families"]))},
        "src_lines": src_lines(),
    }
    return metrics, info


def src_lines() -> int:
    """Lines of library source, tracked beside the benchmark but not gated."""
    src = os.path.join(ROOT, "src", "levelalg")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def measure(workload: str, seed: int, seconds: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups, raw_setups = [], []
    for _ in range(SETUP_PROBES):
        spawned, res = _worker([*common, "--mode", "setup"], MAX_WORKER_SECONDS)
        raw_setups.append(res["ready"] - spawned)
        setups.append(raw_setups[-1] * scale(res["probes"]))
    spawned, timed = _worker([*common, "--mode", "timed", "--seconds", str(seconds)],
                             MAX_WORKER_SECONDS)
    probe_s = [d for _, d in timed["probes"]]
    raw_setups.append(timed["ready"] - spawned)
    setups.append(raw_setups[-1] * scale(probe_s[:1]))
    scales = local_scales(timed["item_spans"], timed["probes"])
    metrics, info = end_to_end(setups, timed, scales)
    raw, _ = end_to_end(raw_setups, timed)
    info.update(raw=raw, host_scale=statistics.median(scales))
    print(f"{workload} seed {seed}: {info['samples']} items in {info['wall_s']:.2f} s, "
          f"tail = p{info['tail_percentile']}, families {info['families']}, "
          f"src_lines {info['src_lines']}")
    print(f"  host speed: {len(probe_s)} probes, median {1000 * statistics.median(probe_s):.3f} ms, "
          f"item timings scaled by {min(scales):.4f} to {max(scales):.4f} "
          f"(median {info['host_scale']:.4f})")
    print(f"  fail_ratio: {info['fail_ratio']:.4f} ({timed['failed']} of {timed['attempted']})")
    for name, value in metrics.items():
        print(f"  {name}: {value:.6g} {END_TO_END_UNITS[name]} (raw {raw[name]:.6g})")
    for failure in timed["failures"]:
        print(f"  FAILED {failure}")
    return {"correct": timed["failed"] == 0, "attempted": timed["attempted"],
            "failed": timed["failed"],
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            "info": info}


def measure_traced(workload: str, seed: int) -> dict:
    from perfbench.layers import METRICS

    common = ["--workload", workload, "--seed", str(seed), "--mode", "items"]
    _, traced = _worker([*common, "--trace"], MAX_WORKER_SECONDS)
    _, plain = _worker(common, MAX_WORKER_SECONDS)
    count = traced["attempted"]
    overhead = traced["wall_s"] - plain["wall_s"]
    checks_ok = (not traced["unpatched"] and not traced["left_patched"]
                 and 0.95 <= traced["coverage"] <= 1.0 + 1e-9)
    print(f"{workload} seed {seed}: traced {count} items in {traced['wall_s']:.2f} s, "
          f"untraced {plain['wall_s']:.2f} s, tracing overhead {overhead:.2f} s "
          f"({100 * overhead / plain['wall_s']:.1f}%)")
    print(f"  layer self times cover {100 * traced['coverage']:.2f}% of the traced wall time; "
          f"{traced['spans']} spans in {traced['spans_file']}")
    for layer, value in sorted(traced["layer_self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  self {layer}: {value:.4f} s")
    if traced["unpatched"]:
        print(f"  UNTRACED names: {traced['unpatched']}")
    if traced["left_patched"]:
        print(f"  NOT RESTORED: {traced['left_patched']}")
    for name, value in traced["metrics"].items():
        print(f"  {name}: {value:.6g} {METRICS[name]}")
    for failure in traced["failures"] + plain["failures"]:
        print(f"  FAILED {failure}")
    failed = traced["failed"] + plain["failed"]
    return {"correct": failed == 0 and checks_ok, "attempted": 2 * count, "failed": failed,
            "metrics": {k: {"value": v, "unit": METRICS[k]} for k, v in traced["metrics"].items()},
            "info": {"overhead_s": overhead, "coverage": traced["coverage"],
                     "traced_wall_s": traced["wall_s"], "untraced_wall_s": plain["wall_s"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="levelalg benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("stratum_roundtrip", "tangent_burch", "rank_loci_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "levelalg", "__init__.py")):
        print("perfbench: no levelalg sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace, **result}) + "\n")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
