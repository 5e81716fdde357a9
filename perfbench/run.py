#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload pull-wco --seed 1 --seconds 20 --trace 0

Builds the engine and the benchmark binary from source (CMake, Release,
into .bench_build/), runs one workload from one seed, checks every count
against the oracle, and prints each metric with its unit. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, including the span self-times of
a separate traced phase whose Chrome trace is written beside the result
file in .bench_out/. The exit code is 0 only when every answer matched
and every steadiness guard held.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
BENCH_TIMEOUT_S = 170

# Span -> the spans that may enclose it, nearest first. A span's self time
# is its duration minus the part of it that its children cover.
PARENTS = {
    "queued": ("client",),
    "execute": ("client",),
    "admission_wait": ("queued",),
    "segment": ("execute", "client"),
    "scan": ("execute", "client"),
    "scatter": ("execute", "client"),
    "hop": ("execute", "client"),
    "fetch": ("segment",),
}
SPANS = ("client", "queued", "admission_wait", "execute", "segment", "scan",
         "scatter", "hop", "fetch")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "huge" / "huge.h").is_file():
        fail(f"engine sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return BUILD_DIR / "perfbench_bench"


def host_facts():
    """Source identity: the git revision when the tree is a checkout, and a
    digest of the engine sources either way."""
    rev = None
    try:
        p = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = p.stdout.split()
        # Only this tree's own repository counts, not one that encloses it.
        if p.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            rev = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return {"git_rev": rev, "src_sha256": h.hexdigest()[:16]}


def union_length(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def trace_metrics(path, passes):
    """Self time per span kind (seconds per client pass) and the dropped
    event count, from the Chrome trace the benchmark binary wrote."""
    with open(path) as f:
        events = json.load(f)  # also proves the file is loadable JSON
    by_pid = {}
    dropped = 0
    for e in events:
        if e.get("name") == "truncated":
            dropped += int(e.get("args", {}).get("dropped", 0))
        if e.get("ph") == "X":
            by_pid.setdefault(e["pid"], []).append(e)
    self_us = {s: 0.0 for s in SPANS}
    eps = 1.0  # us: spans are stamped by different threads
    for spans in by_pid.values():
        names = {e["name"] for e in spans}
        children = {id(e): [] for e in spans}
        for e in spans:
            for pname in PARENTS.get(e["name"], ()):
                if pname not in names:
                    continue
                a, b = e["ts"], e["ts"] + e["dur"]
                for p in spans:
                    if p["name"] != pname:
                        continue
                    if e["name"] == "fetch" and p["tid"] != e["tid"]:
                        continue
                    pa, pb = p["ts"], p["ts"] + p["dur"]
                    if pa - eps <= a <= pb + eps:
                        children[id(p)].append((max(a, pa), min(b, pb)))
                        break
                break
        for e in spans:
            if e["name"] in self_us:
                covered = union_length([c for c in children[id(e)]
                                        if c[1] > c[0]])
                self_us[e["name"]] += max(0.0, e["dur"] - covered)
    out = {f"trace.{s}_self_s": v / 1e6 / max(1, passes)
           for s, v in self_us.items()}
    out["trace.dropped"] = dropped
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(result_path)]
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=BENCH_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary exceeded {BENCH_TIMEOUT_S} s")
    if rc != 0:
        fail(f"benchmark binary exited with code {rc}")
    res = json.loads(result_path.read_text())

    values = dict(res["end_to_end"] if not args.trace else res["per_layer"])
    guard_errors = list(res["guard_errors"])
    if args.trace:
        values.update(trace_metrics(res["trace_file"], res["trace_passes"]))
        if values["trace.dropped"] != 0:
            guard_errors.append(f"trace.dropped = {values['trace.dropped']}")

    res["host"].update(host_facts())
    res["reported"] = values
    result_path.write_text(json.dumps(res, indent=2) + "\n")

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"benchmark binary did not report {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print("host: " + json.dumps(res["host"], sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for msg in res["mismatches"]:
        log("WRONG ANSWER: " + msg)
    for msg in guard_errors:
        log("STEADINESS GUARD FAILED: " + msg)
    correct = res["failed"] == 0 and not guard_errors
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
