#!/usr/bin/env python3
"""sfcvis end-to-end benchmark driver.

Builds the sfcvis libraries and the sfcbench binary from this checkout's
sources, runs one workload in one process, and prints a human-readable
report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end set of BENCHMARK.json, with
--trace 1 the per-layer set (read partly from the sfcvis run report the
library's TraceSession writes during the traced section).

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Build trees, seeded inputs and per-run detail files go under .bench_build/
at the checkout root (or $CARGO_TARGET_DIR when set).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# name -> (sfcbench --kind, volume edge)
WORKLOADS = {
    "bilateral-192": ("bilateral", 192),
    "raycast-orbit-256": ("raycast", 256),
    "bricked-96": ("bricked", 96),
}

# Workload-specific named results, printed beside the contract metrics:
# name -> (unit, better).
NAMED = {
    "bilateral": {"array.mvox_s": ("Mvoxel/s", "higher"),
                  "zorder.mvox_s": ("Mvoxel/s", "higher")},
    "raycast": {"array.frame_ms": ("ms", "lower"), "zorder.frame_ms": ("ms", "lower"),
                "array.against_grain_ms": ("ms", "lower"),
                "zorder.against_grain_ms": ("ms", "lower")},
    "bricked": {"bricked_mmap.mvox_s": ("Mvoxel/s", "higher"),
                "bricked_stream.mvox_s": ("Mvoxel/s", "higher"),
                "incore_zorder.mvox_s": ("Mvoxel/s", "higher")},
}

# What the paper's ds compares on each workload.
DS_LABEL = {
    "bilateral": "ds = (array - zorder) / zorder, pass time",
    "raycast": "ds = (array - zorder) / zorder, frame time",
    "bricked": "ds = (mmap - stream) / stream, pass time",
}

# Wall-clock limits of one invocation: the first run in a checkout builds
# from scratch; later runs only check that the build is up to date.
FIRST_RUN_LIMIT_S = 880
RUN_LIMIT_S = 175


def fail(message, code):
    """Exit without a result line."""
    sys.stdout.flush()
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build(deadline):
    """Configure (once) and build sfcbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no sfcvis sources at the checkout root; nothing to build", 3)
    bdir = os.path.join(build_root(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "sfcbench", "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1.0, deadline - time.time())).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path, 3)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed; see " + log_path, 3)
    return os.path.join(bdir, "sfcbench")


def source_digest():
    """git HEAD when the checkout is a git repository, else a digest of the
    library sources and build files."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "git " + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return "sources sha1 " + h.hexdigest()


def report_metrics(report_path):
    """Per-layer numbers read from the sfcvis run report of the traced
    section: the JobRecord split, per-thread imbalance, dropped spans."""
    with open(report_path) as f:
        report = json.load(f)
    out = {}
    jobs = [j for j in report["jobs"]["jobs"] if not j["kernel"].startswith("perfbench.")]
    wait = sorted(j["queue_wait_ns"] / 1e6 for j in jobs)
    run = sorted(j["run_ns"] / 1e6 for j in jobs)
    out["exec.queue_wait_ms"] = wait[len(wait) // 2] if wait else 0.0
    out["exec.run_ms"] = run[len(run) // 2] if run else 0.0
    hits = sum(j["structure_cache_hits"] for j in jobs)
    lookups = hits + sum(j["structure_cache_misses"] for j in jobs)
    if lookups:  # only the macrocell raycast looks structures up
        out["exec.cache_hit_rate"] = hits / lookups
    tiles = [p for p in report["phases"] if p["name"] in ("bilateral.pencil", "raycast.tile")]
    busiest = max(tiles, key=lambda p: p["total_ms"], default=None)
    out["threads.imbalance"] = busiest["imbalance"] if busiest else 0.0
    out["trace.dropped_spans"] = float(report["dropped_spans"])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", type=int, default=0,
                        help="override the workload's volume edge (self-test)")
    args = parser.parse_args()
    start = time.time()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (have: %s)" % (args.workload, ", ".join(WORKLOADS)), 2)
    kind, edge = WORKLOADS[args.workload]
    edge = args.size or edge

    fresh = not os.path.isfile(os.path.join(build_root(), "perfbench", "CMakeCache.txt"))
    run_deadline = start + (FIRST_RUN_LIMIT_S if fresh else RUN_LIMIT_S)
    exe = build(run_deadline - 60)
    work = os.path.join(build_root(), "perfbench-runs", "%s-s%d-t%d" % (
        args.workload, args.seed, args.trace))
    os.makedirs(work, exist_ok=True)
    result_path = os.path.join(work, "result.json")
    report_path = os.path.join(work, "run_report.json")
    for stale in (result_path, report_path):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = [exe, "--workload", args.workload, "--kind", kind, "--size", str(edge),
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--out", result_path, "--work-dir", work,
           "--cache-dir", os.path.join(build_root(), "perfbench-inputs")]
    # Input generation runs in its own process first, so the measured
    # process (and its peak RSS) does not depend on whether the seeded
    # input was already cached.
    for step in (cmd + ["--prepare", "1"], cmd):
        sys.stdout.flush()
        proc = subprocess.Popen(step)
        try:
            rc = proc.wait(timeout=max(1.0, run_deadline - time.time()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("sfcbench did not finish within the run's time limit", 4)
        if rc != 0:
            fail("sfcbench exited with %d" % rc, 4)
    with open(result_path) as f:
        result = json.load(f)
    measured = dict(result["metrics"])
    if args.trace:
        measured.update(report_metrics(report_path))

    host = result["host"]
    host["source"] = source_digest()
    host["copy_gbs"] = measured.get("host.copy_gbs")
    l3 = host["l3_bytes"]
    flag = None
    if not l3:
        flag = "L3 size unknown: cannot tell whether the volume exceeds the last-level cache"
    elif result["volume_bytes"] < 4 * l3:
        flag = ("volume is %.1f MiB, under 4x L3 (%.0f MiB): not an out-of-LLC measurement"
                % (result["volume_bytes"] / 2**20, 4 * l3 / 2**20))
    result["size_flag"] = flag

    section = "per_layer" if args.trace else "end_to_end"
    metrics, absent = {}, []
    for m in spec[section]:
        name = m["name"]
        if name in measured:
            metrics[name] = {"value": measured[name], "unit": m["unit"]}
        elif args.trace:
            absent.append(name)  # a layer this workload does not exercise
            metrics[name] = {"value": 0.0, "unit": m["unit"]}
        else:
            fail("workload did not produce end-to-end metric " + name, 5)
    checks = result["checks"]
    attempted, failed = checks["attempted"], checks["failed"]

    print()
    print("== %s  seed %d  trace %d  (%s, %d^3)" % (args.workload, args.seed, args.trace,
                                                   kind, edge))
    print("host: %s | nproc %d | L3 %.0f MiB | RAM %.1f GiB | copy %.2f GB/s" % (
        host["cpu_model"], host["nproc"], l3 / 2**20, host["ram_bytes"] / 2**30,
        host["copy_gbs"] or 0.0))
    print("build: %s %s -march=%s | %s" % (host["compiler"], host["build_type"],
                                           host["march"], host["source"]))
    if flag:
        print("SIZE FLAG: " + flag)
    print("checks: %d attempted, %d failed, error_rate %.6f (fraction, lower is better)" % (
        attempted, failed, failed / attempted if attempted else 1.0))
    for reason in checks["failures"]:
        print("  failed: " + reason)
    better = {m["name"]: m.get("better", "-") for m in spec[section]}
    print("%s metrics:" % section.replace("_", "-"))
    for name, m in metrics.items():
        note = "  (not exercised by this workload)" if name in absent else ""
        print("  %-30s %16.6f %-10s %s is better%s" % (name, m["value"], m["unit"],
                                                    better[name], note))
    if not args.trace:
        print("  base = %s; alt = %s" % (result["notes"]["base"], result["notes"]["alt"]))
        print("workload metrics (not gated; base.ms and alt.ms gate the same passes):")
        for name, (unit, direction) in NAMED[kind].items():
            print("  %-30s %16.6f %-10s %s is better" % (name, measured[name], unit, direction))
        print("paper table: %s = %+.4f  [not gated: a pure array-order speed-up would "
              "read as a regression]" % (DS_LABEL[kind], measured["paper.ds"]))

    self_time = sorted(result["self_time_s"].items(), key=lambda kv: -kv[1])
    print("benchmark spans, self time (span minus its children), run %s:" % result["run_id"])
    for name, secs in self_time[:8]:
        print("  %-30s %10.3f s" % (name, secs))

    detail = dict(result)
    detail["contract_metrics"] = metrics
    detail["not_exercised"] = absent
    detail["all_metrics"] = measured
    with open(os.path.join(work, "detail.json"), "w") as f:
        json.dump(detail, f, indent=1)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
