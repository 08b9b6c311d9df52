#!/usr/bin/env python3
"""Self-test of the perfbench benchmark, in tiny mode.

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and checks that each run

  * ends with one JSON line holding exactly correct/attempted/failed/metrics,
    with every output check passing;
  * reports every end-to-end (untraced) or per-layer (traced) metric of
    BENCHMARK.json, each with its unit, and names each of them with its unit
    in the human-readable report;
  * prints the workload's own named metrics and the paper's ds table.

It also checks BENCHMARK.json against the benchmark contract's limits, and
that run.py fails without a result line in a directory holding only
BENCHMARK.json and perfbench/.

Usage: python3 perfbench/selftest.py        (from the repository root)
"""

import json
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (workload table and named metrics)

# Tiny volume edges. The bricked workload needs enough brick-cache slots at
# a quarter-volume budget for four workers' pinned bricks, so it keeps its
# real size.
TINY = {"bilateral": 32, "raycast": 32, "bricked": 96}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what)


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json keys")
    expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    names = []
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
               "workload %s: name + one-line why" % w.get("name"))
        expect(w["name"] in run.WORKLOADS, "workload %s known to run.py" % w["name"])
        names.append(w["name"])
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
               "end-to-end metric %s keys and bound" % m["name"])
        names.append(m["name"])
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, "per-layer metric %s keys" % m["name"])
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(bool(UNIT.match(m["unit"])) and m["better"] in ("lower", "higher"),
               "metric %s unit/better" % m["name"])
    for n in names:
        expect(bool(NAME.match(n)), "name %r format" % n)
    expect(len(names) == len(set(names)), "names used once")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s present, in s, lower, with the largest bound")


def check_run(spec, workload, trace):
    kind = run.WORKLOADS[workload][0]
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", str(TINY[kind])]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    label = "%s trace %d" % (workload, trace)
    expect(out.returncode == 0, label + ": exit code %d\n%s" % (out.returncode, out.stderr))
    if out.returncode != 0:
        return
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, label + ": keys")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           label + ": output checks")
    section = spec["per_layer" if trace else "end_to_end"]
    expect(list(result["metrics"]) == [m["name"] for m in section],
           label + ": metric set differs from BENCHMARK.json")
    human = "\n".join(lines[:-1])
    for m in section:
        got = result["metrics"].get(m["name"], {})
        expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
               "%s: %s value/unit" % (label, m["name"]))
        expect(re.search(r"^\s+%s\s+\S+\s+%s\s" % (re.escape(m["name"]), re.escape(m["unit"])),
                         human, re.M) is not None,
               "%s: report does not name %s with its unit" % (label, m["name"]))
    if not trace:
        for name, (unit, _) in run.NAMED[kind].items():
            expect(re.search(r"^\s+%s\s+\S+\s+%s\s" % (re.escape(name), re.escape(unit)),
                             human, re.M) is not None,
                   "%s: report does not name %s with its unit" % (label, name))
        expect("paper table: ds" in human and "not gated" in human, label + ": paper table")
    expect("SIZE FLAG" in human, label + ": tiny volume not flagged as under 4x L3")
    print("ok: " + label)


def check_bare_directory(spec):
    """run.py must fail, without a result line, where only BENCHMARK.json
    and perfbench/ exist."""
    bare = os.path.join(run.build_root(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    name = spec["workloads"][0]["name"]
    out = subprocess.run(spec["command"] + ["--workload", name, "--seed", "1", "--seconds",
                                            "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    last = out.stdout.strip().splitlines()[-1:] or [""]
    expect(out.returncode != 0 and not last[0].startswith("{"),
           "bare directory: expected a failure without a result line")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok: bare directory fails (exit %d)" % out.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_bare_directory(spec)
    if failures:
        print("selftest: %d failure(s)" % len(failures))
        return 1
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
