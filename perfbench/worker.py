"""One benchmark process: set up a workload, then run its items.

    python3 -m perfbench.worker --workload W --seed N --mode setup
    python3 -m perfbench.worker --workload W --seed N --mode timed --seconds S
    python3 -m perfbench.worker --workload W --seed N --mode items [--trace]

`run.py` starts every worker in a fresh interpreter with `src` on the path,
so the library's lru_caches start empty, as a command-line user's do.  The
worker prints one JSON object on its last stdout line:

- setup: the wall-clock time at which the first item was ready to run, and
  the times of host-speed probes run after that;
- timed: a closed loop, one client, for `workloads.passes(W, S)` whole
  passes (about S seconds at the reference host speed), with a host-speed
  probe between items every PROBE_EVERY_S of item time;
- items: exactly the items of the first pass of the seeded stream,
  optionally traced (spans go to perfbench/out/spans-W-seedN.jsonl).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

from perfbench import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Item time between two host-speed probes of a timed run.
PROBE_EVERY_S = 0.1
# On a very slow host a timed run stops after this many times --seconds of
# wall time, even partway through a pass.
WALL_LIMIT = 1.5
# Host-speed probes run by a set-up worker once its first item is ready.
SETUP_HOST_PROBES = 9


def _import_workloads():
    from perfbench import workloads

    import levelalg

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(levelalg.__file__).startswith(src):
        raise ImportError(f"levelalg imported from {levelalg.__file__}, not from {src}")
    return workloads


def _execute(run_fn, item, failures: list, mismatch) -> bool:
    try:
        run_fn(item)
        return True
    except mismatch as exc:
        reason = str(exc)
    except Exception:  # a failing item is counted; it must not stop the run
        if len(failures) < 10:
            traceback.print_exc(file=sys.stderr)
        reason = traceback.format_exc().strip().splitlines()[-1]
    if len(failures) < 10:
        failures.append(f"{item.family} {item.key}: {reason}")
    return False


def run_setup(workloads, workload, seed):
    stream_fn, _ = workloads.STREAMS[workload]
    stream = stream_fn(seed)
    item = next(stream)
    item.prepare()
    return stream, item


def _probe() -> tuple[float, float]:
    """(midpoint, duration) of one host-speed probe."""
    start = time.perf_counter()
    duration = hostspeed.probe()
    return start + duration / 2, duration


def run_timed(workloads, workload, seed, seconds):
    """The closed loop.  Item generation and the probes between items are
    not timed: wall_s is the sum of the item latencies."""
    stream, item = run_setup(workloads, workload, seed)
    ready = time.time()
    _, run_fn = workloads.STREAMS[workload]
    latencies, starts, families, failures = [], [], [], []
    probes = [_probe()]
    failed = 0
    since_probe = 0.0
    total = workloads.pass_size(workload) * workloads.passes(workload, seconds)
    limit = time.perf_counter() + WALL_LIMIT * seconds
    while True:
        t0 = time.perf_counter()
        ok = _execute(run_fn, item, failures, workloads.Mismatch)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        starts.append(t0)
        families.append(item.family)
        failed += not ok
        since_probe += t1 - t0
        if since_probe >= PROBE_EVERY_S:
            probes.append(_probe())
            since_probe = 0.0
        if len(latencies) == total or t1 >= limit:
            break
        item = next(stream)
        item.prepare()
    if since_probe:
        probes.append(_probe())
    return {
        "ready": ready, "wall_s": sum(latencies), "latencies": latencies,
        "item_spans": list(zip(starts, latencies)),
        "probes": probes, "families": families,
        "attempted": len(latencies), "failed": failed, "failures": failures,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def run_items(workloads, workload, seed, trace):
    stream_fn, run_fn = workloads.STREAMS[workload]
    stream = stream_fn(seed)
    items = [next(stream) for _ in range(workloads.pass_size(workload))]
    for item in items:
        item.prepare()
    failures = []
    failed = 0
    out = {}
    if trace:
        from perfbench import layers
        from perfbench.tracer import Tracer

        counters = layers.LayerCounters()
        tracer = Tracer(observers=counters.observers())
        caches_before = layers.cache_counts()
        tracer.install()
        try:
            out["unpatched"] = tracer.unpatched_refs()
            start = time.perf_counter()
            for k, item in enumerate(items):
                tracer.item_id = k
                ok = tracer.span("bench.item", _execute, run_fn, item, failures,
                                 workloads.Mismatch)
                failed += not ok
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        out["left_patched"] = tracer.wrapped_refs()
        caches_after = layers.cache_counts()
        self_times = tracer.layer_self_times()
        out["layer_self_s"] = self_times
        out["coverage"] = sum(self_times.values()) / wall
        out["metrics"] = layers.layer_metrics(tracer, counters, caches_before, caches_after)
        spans_path = os.path.join(ROOT, "perfbench", "out", f"spans-{workload}-seed{seed}.jsonl")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        tracer.write_spans(spans_path)
        out["spans_file"] = spans_path
        out["spans"] = len(tracer.spans)
    else:
        start = time.perf_counter()
        for item in items:
            failed += not _execute(run_fn, item, failures, workloads.Mismatch)
        wall = time.perf_counter() - start
    out.update(wall_s=wall, attempted=len(items), failed=failed, failures=failures)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "items"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    try:
        workloads = _import_workloads()
    except (ImportError, OSError) as exc:
        print(f"perfbench worker: cannot load the library: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.STREAMS:
        print(f"perfbench worker: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        run_setup(workloads, args.workload, args.seed)
        ready = time.time()
        result = {"ready": ready, "probes": [hostspeed.probe() for _ in range(SETUP_HOST_PROBES)]}
    elif args.mode == "timed":
        result = run_timed(workloads, args.workload, args.seed, args.seconds)
    else:
        result = run_items(workloads, args.workload, args.seed, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
