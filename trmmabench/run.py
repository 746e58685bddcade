#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 trmmabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
trmmabench/ (which compiles the repository's src/ with the repository's own
CMake flags) into $CARGO_TARGET_DIR/trmmabench, default
.bench_build/trmmabench; later runs only check the build is current. The
program then sets up, runs the workload for --seconds and reports; this
script applies the correctness gate from spec.json, prints every metric with
its unit, and prints as its last line

    {"correct": bool, "attempted": n, "failed": n,
     "metrics": {name: {"value": v, "unit": u}}}

with the end-to-end metrics when --trace 0 and the per-layer metrics when
--trace 1. It exits 1 when a correctness check fails, and 2 without a
result when the benchmark cannot be built or run.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("trmmabench: " + msg)
    sys.exit(2)


def load_spec():
    """Returns (spec.json, BENCHMARK.json). BENCHMARK.json alone names the
    metrics with their units, directions and bounds; spec.json must describe
    exactly those metrics and workloads."""
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    if sorted(names) != sorted(spec["metrics"]):
        fail("spec.json metrics and BENCHMARK.json metrics differ")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(spec["workloads"]):
        fail("spec.json and BENCHMARK.json disagree on workloads")
    return spec, bench


def build(build_dir):
    """Configures (when needed) and builds trmma_bench; returns its path."""
    out = sys.stderr
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--target", "trmma_bench",
                "-j", str(max(1, os.cpu_count() or 1))]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        log("trmmabench: configuring in " + build_dir)
        if subprocess.run(configure, stdout=out, stderr=out).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(compile_, stdout=out, stderr=out).returncode != 0:
        # A build directory left by an interrupted configure: configure again.
        if (subprocess.run(configure, stdout=out, stderr=out).returncode != 0 or
                subprocess.run(compile_, stdout=out, stderr=out).returncode != 0):
            fail("build failed")
    return os.path.join(build_dir, "trmma_bench")


def program_flags(spec, workload, args, tmp_dir, trace_file):
    params = dict(spec["common"])
    params.update(spec["workloads"][workload]["params"])
    params["slo_p99_ms"] = spec["slo"]["p99_ms"]
    params["tmp_dir"] = tmp_dir
    if args.trace:
        params["trace_file"] = trace_file
    flags = ["--workload", workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    for key, value in params.items():
        if isinstance(value, list):
            value = ",".join(repr(v) for v in value)
        flags += ["--" + key, str(value)]
    return flags


def in_range(value, bounds):
    return value is not None and bounds[0] <= value <= bounds[1]


def gate(spec, workload, trace, report):
    """Returns the list of correctness-gate failures of one run."""
    problems = []
    for name, count in report["violations"].items():
        if count != 0:
            problems.append("%s: %d violations" % (name, count))
    attempted = report["attempted"]
    if attempted < 1:
        problems.append("no work attempted")
    elif report["failed"] > spec["slo"]["failed_share"] * attempted:
        problems.append("failed %d of %d" % (report["failed"], attempted))
    wl = spec["workloads"][workload]
    for name, bounds in wl["fingerprint"].items():
        value = report["fingerprint"].get(name)
        if not in_range(value, bounds):
            problems.append("input fingerprint %s=%s outside %s (the workload "
                            "changed)" % (name, value, bounds))
    for name, bounds in spec["validity"].items():
        if name in report["validity"] and not in_range(report["validity"][name], bounds):
            problems.append("invalid run: %s=%s outside %s"
                            % (name, report["validity"][name], bounds))
    if not trace:
        for name, (low, high) in wl["floors"].items():
            if not in_range(report["metrics"].get(name), (low, high)):
                problems.append("quality %s=%s outside the frozen floor [%s, %s]"
                                % (name, report["metrics"].get(name), low, high))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec, bench = load_spec()
    if args.workload not in spec["workloads"]:
        fail("unknown workload %r (have %s)"
             % (args.workload, ", ".join(spec["workloads"])))
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "trmmabench")
    binary = build(os.path.abspath(build_dir))
    tmp_dir = os.path.abspath(os.path.join(build_dir, "tmp"))
    trace_dir = os.path.abspath(os.path.join(build_dir, "traces"))
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, "%s-%d.json" % (args.workload, args.seed))

    # The program's observability and fault injection read TRMMA_* variables;
    # none may leak in. Temporary files (serving weight snapshots) stay in
    # the build directory.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRMMA_")}
    env["TMPDIR"] = tmp_dir
    cmd = [binary] + program_flags(spec, args.workload, args, tmp_dir, trace_file)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("trmma_bench exited with %d" % proc.returncode)
    report = json.loads(lines[-1])

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    absent = tuple(spec["workloads"][args.workload]["absent_layers"])
    metrics = {}
    problems = gate(spec, args.workload, args.trace, report)
    for m in wanted:
        value = report["metrics"].get(m["name"])
        if value is None and args.trace and m["name"].startswith(absent):
            value = 0.0  # a layer this workload does not exercise
        if value is None or not math.isfinite(value):
            problems.append("metric %s missing or not finite" % m["name"])
            continue
        if not args.trace and value == 0:
            problems.append("metric %s reads 0" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print("workload %s  seed %d  %s run, %g s" % (
        args.workload, args.seed, "traced" if args.trace else "untraced",
        args.seconds))
    print("input: " + ", ".join("%s=%.6g" % kv
                                for kv in sorted(report["fingerprint"].items())))
    for name, m in metrics.items():
        print("  %-40s %16.6f %s" % (name, m["value"], m["unit"]))
    print("run: " + ", ".join("%s=%.6g" % kv
                              for kv in sorted(report["validity"].items())))
    for p in problems:
        print("CHECK FAILED: " + p)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
