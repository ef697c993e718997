#!/usr/bin/env python3
"""The simulator benchmark: build the harness, run one workload, check, report.

    python3 perfbench/run.py --workload hid-steady --seed 7 --seconds 30 --trace 0

Each simulation runs as one single-threaded core::Experiment in its own
harness process (perfbench/harness.cpp), so getrusage's peak RSS belongs to
that simulation alone.

--trace 0  repeats the workload until --seconds have been measured (at least
           MIN_RUNS times) and reports the end-to-end metrics over the set
           (see end_to_end for how run time is estimated).
--trace 1  runs the workload once untraced and once traced, and reports the
           per-layer metrics of the traced run.

Every run's output is checked outside the timed region: per-message-type
conservation, one trajectory fingerprint across the whole set, and (traced
run) the full scenario invariant check.  A run that fails a check counts in
"failed", makes "correct" false and the exit code 1.  Numbers from a build
that is not Release, or that has assertions enabled, are refused (exit 3,
no result).  See perfbench/README.md for every metric.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
HARNESS = BUILD_DIR / "perfbench_harness"

WORKLOADS = ("hid-steady", "hid-churn", "newscast-steady", "hid-large")
MIN_RUNS = 3
RUN_TIMEOUT_S = 120

END_TO_END = {
    "events_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_bytes_per_node": "B/node",
}

MSG_TYPES = ("state-update", "index-diffuse", "index-probe", "duty-query",
             "index-agent", "index-jump", "found-notice", "gossip",
             "khdn-spread", "dispatch", "maintenance")
# Memory buckets Experiment::mem_breakdown() reports for the protocols the
# workloads run; a bucket a protocol lacks reads 0.
MEM_BUCKETS = ("sim.event_queue", "net.bus_pending", "core.host_table",
               "core.in_flight", "core.parked", "can.space", "index.state",
               "gossip.views")

PER_LAYER = {
    "core.construct_s": "s", "core.setup_s": "s", "core.results_s": "s",
    "core.wall_s": "s",
    "trace.overhead_frac": "frac", "trace.unaccounted_frac": "frac",
    "sim.events": "count", "sim.step_s": "s", "sim.step_ns.p50": "ns",
    "sim.step_ns.p99": "ns", "sim.non_handler_s": "s",
    "sim.pending_peak": "count",
    "net.messages_sent": "count", "net.messages_lost": "count",
    "net.handler_s": "s",
    **{f"net.handler.{t}.{k}": u for t in MSG_TYPES
       for k, u in (("count", "count"), ("s", "s"))},
    "can.route_ns": "ns", "can.route_hops": "count", "can.hop_ns": "ns",
    "index.handler_s": "s", "index.diffusion_relays": "count",
    "index.invalidations": "count",
    "query.handler_s": "s", "query.submitted": "count",
    "query.satisfied_frac": "frac", "query.visited_nodes_mean": "count",
    "gossip.handler_s": "s", "gossip.queries": "count",
    "psm.handler_s": "s", "psm.checkpoint_restarts": "count",
    "psm.tasks_killed": "count",
    **{f"mem.{b}.bytes_per_node": "B/node" for b in MEM_BUCKETS},
    "mem.peak_rss.bytes_per_node": "B/node", "mem.accounted_frac": "frac",
}


class Refused(Exception):
    """The benchmark cannot produce trustworthy numbers here."""


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise Refused(f"{ROOT} is not a checkout of the simulator "
                      "(CMakeLists.txt and src/ are missing)")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_harness", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise Refused("build failed: " + " ".join(cmd))


def host_info():
    info = {"cpu": "unknown", "nproc": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            info[f"l{level}"] = size
    return info


def run_harness(workload, seed, traced):
    """One simulation in its own process; returns its record or an error."""
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()}"}
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        return {"error": f"unparsable harness output: {e}"}


def check_build(run):
    build = run.get("build", {})
    if build.get("type") != "Release" or build.get("ndebug") is not True:
        raise Refused(f"refusing to report from build {build}: "
                      "perfbench numbers need a Release build without "
                      "assertions")


def check_run(run, fingerprint):
    """Problems with one run's output; empty when the run is correct."""
    if "error" in run:
        return [run["error"]]
    problems = []
    for t in run["traffic"]:
        resolved = (t["delivered"] + t["lost"] + t["partitioned"] +
                    t["in_flight"] + t["synthetic"])
        if t["sent"] != resolved:
            problems.append(f"{t['type']}: sent {t['sent']} != delivered+lost"
                            f"+partitioned+in_flight+synthetic {resolved}")
    if run["run_events"] <= 0:
        problems.append("no events executed")
    if run["fingerprint"] != fingerprint:
        problems.append(f"trajectory fingerprint {run['fingerprint']} != "
                        f"{fingerprint} of the rest of the set")
    for v in run.get("invariants", {}).get("violations", []):
        problems.append("invariant: " + v)
    return problems


def check_set(runs):
    """Per-run problem lists for a set of runs of one workload and seed.

    All runs of a set simulate the same trajectory, so every fingerprint
    must equal the set's most common one.
    """
    fps = collections.Counter(r["fingerprint"] for r in runs if "error" not in r)
    reference = fps.most_common(1)[0][0] if fps else None
    return [check_run(r, reference) for r in runs]


def mem_per_node(run):
    nodes = run["nodes"]
    out = {f"mem.{b}.bytes_per_node": run["mem"].get(b, 0) / nodes
           for b in MEM_BUCKETS}
    out["mem.peak_rss.bytes_per_node"] = run["peak_rss_bytes"] / nodes
    out["mem.accounted_frac"] = sum(run["mem"].values()) / run["peak_rss_bytes"]
    return out


def end_to_end(runs):
    """End-to-end metrics of a set of identical runs.

    Host contention on a shared machine only ever slows a deterministic
    computation, by up to ~1.8x and for seconds at a time.  Every run of a
    set executes the identical trajectory (the fingerprint check enforces
    it), so slice k of the step loop is the identical computation in every
    run; the run time is reassembled from each slice's fastest observation,
    which is far more repeatable than any one run.  Set-up time and memory
    report the median run.
    """
    def fastest(f):
        return min(f(r) for r in runs)

    def median(f):
        return statistics.median(f(r) for r in runs)

    run_s = sum(min(s) for s in zip(*(r["run_slices_s"] for r in runs)))
    setup = lambda r: r["timing"]["construct_s"] + r["timing"]["setup_s"]
    return {
        "events_per_s": runs[0]["run_events"] / run_s,
        "wall_s": fastest(setup) + run_s + fastest(lambda r: r["timing"]["results_s"]),
        "setup_s": median(setup),
        "peak_rss_bytes_per_node": median(lambda r: r["peak_rss_bytes"] / r["nodes"]),
    }


def per_layer(plain, traced):
    """Layer metrics of the traced run; memory comes from the untraced run,
    whose peak RSS does not hold the traced run's per-step samples."""
    m = dict(traced["layers"])
    m["trace.overhead_frac"] = (traced["timing"]["wall_s"] /
                                plain["timing"]["wall_s"] - 1.0)
    m.update(mem_per_node(plain))
    return {k: m[k] for k in PER_LAYER}


def print_memory_ledger(run):
    nodes, rss = run["nodes"], run["peak_rss_bytes"]
    print(f"memory ledger ({nodes} nodes, peak RSS {rss / nodes:.0f} B/node)")
    for bucket, b in sorted(run["mem"].items(), key=lambda kv: -kv[1]):
        print(f"  mem.{bucket:<18} {b / nodes:10.1f} B/node  "
              f"{100.0 * b / rss:5.1f}% of RSS")
    total = sum(run["mem"].values())
    print(f"  {'accounted':<22} {total / nodes:10.1f} B/node  "
          f"{100.0 * total / rss:5.1f}% of RSS")


def measure(workload, seed, seconds, trace):
    build()
    print("host " + json.dumps(host_info()))
    runs = []
    if trace:
        runs = [run_harness(workload, seed, False),
                run_harness(workload, seed, True)]
    else:
        start = time.monotonic()
        while True:
            runs.append(run_harness(workload, seed, False))
            if "error" in runs[-1]:
                break
            elapsed = time.monotonic() - start
            if len(runs) >= MIN_RUNS and elapsed * (len(runs) + 1) / len(runs) > seconds:
                break
    good = [r for r in runs if "error" not in r]
    if good:
        check_build(good[0])
        print("build " + json.dumps(good[0]["build"]))
    problems = check_set(runs)
    clean = [r for r, p in zip(runs, problems) if not p]
    for i, (r, p) in enumerate(zip(runs, problems)):
        status = "ok" if not p else "FAILED: " + "; ".join(p)
        wall = r.get("timing", {}).get("wall_s", float("nan"))
        print(f"run {i} {r.get('mode', '?')} seed={seed} wall={wall:.3f}s "
              f"events={r.get('events', 0)} fp={r.get('fingerprint', '-')} {status}")
    failed = sum(1 for p in problems if p)
    print(f"runs_failed {failed}/{len(runs)}")
    metrics, units = {}, {}
    if trace and len(clean) == 2:
        metrics = per_layer(*clean)
        units = PER_LAYER
        print_memory_ledger(clean[0])
    elif not trace and clean:
        metrics = end_to_end(clean)
        units = END_TO_END
        print_memory_ledger(clean[-1])
        walls = sorted(r["timing"]["wall_s"] for r in clean)
        print(f"{len(clean)} runs: wall_s median {statistics.median(walls):.4f} "
              f"fastest {walls[0]:.4f} slowest {walls[-1]:.4f}")
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6g} {units[name]}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        return measure(args.workload, args.seed, args.seconds, args.trace == 1)
    except Refused as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
