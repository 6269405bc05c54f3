#!/usr/bin/env python3
"""End-to-end benchmark of mm2 (libmm2 built from this checkout's src/).

    python3 perfbench/run.py --workload closure|closure_t4|maintain|evolution
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds perfbench/ (which
compiles src/) in Release mode under .bench_build/; later runs reuse it.
The C++ program (perfbench/src) prints raw per-op samples; this script turns
them into exact quantiles, prints every metric with its unit and sample
count, writes a stamped report (and, when traced, the spans) under
.bench_build/results/, and prints one JSON result object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
listed in perfbench/layers.json. The exit code is non-zero, with no result
line, when the program cannot be built or run.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "mm2_perfbench")
WORKLOADS = ("closure", "closure_t4", "maintain", "evolution")
MIN_SPAN_COVERAGE = 0.95


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no mm2 sources (src/CMakeLists.txt) in " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))


def build_type():
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def quantile(values, q):
    """Exact quantile of raw samples: linear interpolation between the two
    closest order statistics (rank q*(n-1), the "inclusive" definition)."""
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def source_digest():
    """sha256 over src/ and perfbench/ sources, so that results of
    different code are never compared even outside a git checkout."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, each with its sample count."""
    phase = raw["phase"]
    ops, reads, setups = phase["op_ms"], phase["read_ms"], raw["setup_s"]
    if not ops or not reads:
        fail("the run measured no op or no read; give it more --seconds")
    return {
        "setup_s": (quantile(setups, 0.5), "s", len(setups)),
        "op_p50_ms": (quantile(ops, 0.5), "ms", len(ops)),
        "op_p90_ms": (quantile(ops, 0.9), "ms", len(ops)),
        "read_p50_ms": (quantile(reads, 0.5), "ms", len(reads)),
        "read_p90_ms": (quantile(reads, 0.9), "ms", len(reads)),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB", 1),
    }


def per_layer(raw):
    """Every per-layer metric of layers.json; 0 where the workload does not
    exercise the layer."""
    with open(os.path.join(HERE, "layers.json")) as f:
        table = json.load(f)["per_layer"]
    values = dict(raw["per_layer"])
    parse_ms = values.get("text.parse_ms", 0)
    values["text.parse_mb_per_s"] = (
        values.get("text.parse_bytes", 0) / 1e6 / (parse_ms / 1e3)
        if parse_ms > 0 else 0)
    traced = len(raw["phase"]["traced_op_ms"])
    return {m["name"]: (values.get(m["name"], 0), m["unit"], traced)
            for m in table}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(RESULTS, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(RESULTS, tag + ".spans.json")]
    # The program reads MM2_* variables (threads, storage, logging); the
    # benchmark pins their defaults so the environment cannot move results.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MM2_")}
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              env=env, timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    raw = json.loads(lines[-1])

    stamp = dict(raw["stamp"])
    stamp["git_commit"] = git_commit()
    stamp["source_digest"] = source_digest()
    stamp["build_type"] = build_type()
    phase = raw["phase"]
    attempted, failed = phase["attempted"], phase["failed"]
    errors = list(phase["errors"])
    if args.trace:
        metrics = per_layer(raw)
        if raw["span_coverage_min"] < MIN_SPAN_COVERAGE:
            errors.append("layer spans cover only %.3f of an op's wall time"
                          % raw["span_coverage_min"])
    else:
        metrics = end_to_end(raw)
    correct = failed == 0 and not errors

    print("stamp " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit, count) in metrics.items():
        print("%-32s %14.6g %-6s n=%d" % (name, value, unit, count))
    print("%-32s %14.6g %-6s n=%d" % ("error_rate", failed / attempted,
                                       "ratio", attempted))
    print("%-32s %14.6g %-6s n=1" % ("warmup_ms (op 0)", phase["warmup_ms"],
                                     "ms"))
    if args.trace:
        print("layer self time per op (ms): " + ", ".join(
            "%s %.3f" % kv for kv in sorted(raw["layer_self_ms"].items())
            if kv[1] > 0))
    for error in errors:
        print("error: " + error)

    report = {"stamp": stamp, "workload": args.workload,
              "trace": args.trace, "correct": correct,
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "errors": errors,
              "metrics": {name: {"value": value, "unit": unit, "n": count}
                          for name, (value, unit, count) in metrics.items()},
              "raw": raw}
    with open(os.path.join(RESULTS, tag + ".json"), "w") as f:
        json.dump(report, f)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))


if __name__ == "__main__":
    main()
