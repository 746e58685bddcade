#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark between two checkouts.
#
#   scripts/ab_bench.sh BASE_DIR HEAD_DIR [pairs] [seconds] [workload...]
#
# For every workload (default: all workloads of HEAD_DIR/BENCHMARK.json) and
# every seed 1..pairs (default 3), runs `python3 trmmabench/run.py --trace 0`
# in BASE_DIR and in HEAD_DIR back to back, so host drift hits both sides of
# a pair alike. Base runs first on odd seeds and head first on even seeds,
# so neither side always runs on a warmer host. Each checkout builds into
# its own <dir>/.bench_build (CARGO_TARGET_DIR is set per side, so the two
# builds never share a directory); the script only reads trmmabench/ and
# writes nothing there. Run logs go to a fresh temporary directory, printed
# first.
#
# Prints, per workload:
#   - one line per run: side, seed, exit code, wall time, the run's
#     `trajectories` count, every input fingerprint with a gate range in
#     trmmabench/spec.json (serve_compared must lie in [150, 1000], and a
#     faster program answers more requests and can leave it) and any
#     CHECK FAILED line;
#   - per end-to-end metric: base and head medians, the median head/base
#     ratio over the pairs, the ratio range, the pairs head wins (in the
#     metric's direction from BENCHMARK.json; ties count for neither), and
#     the base runs' IQR as a share of their median (a gain smaller than
#     that is noise).
# Exit status: 0 when every run passed its correctness gate, 1 otherwise.
set -euo pipefail

usage() {
  echo "usage: $0 BASE_DIR HEAD_DIR [pairs] [seconds] [workload...]" >&2
  exit 2
}
[[ $# -ge 2 ]] || usage
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
pairs=${3:-3}
seconds=${4:-20}
shift $(($# < 4 ? $# : 4))
workloads=("$@")
if [[ ${#workloads[@]} -eq 0 ]]; then
  mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$head/BENCHMARK.json")
fi
for dir in "$base" "$head"; do
  [[ -f $dir/trmmabench/run.py ]] || { echo "$dir: no trmmabench/run.py" >&2; exit 2; }
done

out=$(mktemp -d "${TMPDIR:-/tmp}/ab_bench.XXXXXX")
echo "ab_bench: base=$base head=$head pairs=$pairs seconds=$seconds"
echo "ab_bench: logs in $out"

run_side() {  # side dir workload seed
  local side=$1 dir=$2 workload=$3 seed=$4
  local log="$out/$workload.$seed.$side"
  local start=$SECONDS rc=0
  (cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" \
     python3 trmmabench/run.py --workload "$workload" --seed "$seed" \
       --seconds "$seconds" --trace 0) >"$log.out" 2>"$log.err" || rc=$?
  echo "$rc $((SECONDS - start))" >"$log.status"
}

for workload in "${workloads[@]}"; do
  for seed in $(seq 1 "$pairs"); do
    if ((seed % 2 == 1)); then
      run_side base "$base" "$workload" "$seed"
      run_side head "$head" "$workload" "$seed"
    else
      run_side head "$head" "$workload" "$seed"
      run_side base "$base" "$workload" "$seed"
    fi
  done
done

python3 - "$out" "$pairs" "$head/trmmabench/spec.json" \
  "$head/BENCHMARK.json" "${workloads[@]}" <<'EOF'
import json, os, statistics, sys

out, pairs, spec_path, bench_path = sys.argv[1:5]
workloads = sys.argv[5:]
pairs = int(pairs)
spec = json.load(open(spec_path))
bench = json.load(open(bench_path))
lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
metrics = list(lower_is_better)
all_correct = True


def load(workload, seed, side):
    base = os.path.join(out, "%s.%d.%s" % (workload, seed, side))
    rc, wall = open(base + ".status").read().split()
    text = open(base + ".out").read().splitlines()
    fingerprint, result, failed = {}, None, []
    for line in text:
        if line.startswith("input: "):
            for item in line[len("input: "):].split(", "):
                key, _, value = item.partition("=")
                fingerprint[key] = float(value)
        elif line.startswith("CHECK FAILED: "):
            failed.append(line[len("CHECK FAILED: "):])
        elif line.startswith("{"):
            result = json.loads(line)
    return {"rc": int(rc), "wall": float(wall), "fingerprint": fingerprint,
            "result": result, "failed": failed}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


for workload in workloads:
    # The run count, and every gated fingerprint that may vary at all.
    ranges = spec["workloads"][workload]["fingerprint"]
    shown = ["trajectories"] + sorted(k for k, (low, high) in ranges.items()
                                      if low != high)
    runs = {side: [load(workload, s, side) for s in range(1, pairs + 1)]
            for side in ("base", "head")}
    print("\n== %s" % workload)
    for seed in range(1, pairs + 1):
        for side in ("base", "head"):
            run = runs[side][seed - 1]
            ok = run["rc"] == 0 and run["result"] and run["result"]["correct"]
            all_correct &= bool(ok)
            fp = " ".join("%s=%g" % (k, run["fingerprint"][k])
                          for k in shown if k in run["fingerprint"])
            print("  %s seed %d: exit %d, %.0f s, %s%s" % (
                side, seed, run["rc"], run["wall"], fp,
                "".join("\n    CHECK FAILED: " + f for f in run["failed"])))
    print("  %-14s %14s %14s %10s %19s %6s %9s" % (
        "metric", "base median", "head median", "head/base", "ratio range",
        "wins", "base IQR"))
    for name in metrics:
        def values(side):
            return [r["result"]["metrics"][name]["value"]
                    if r["result"] and name in r["result"]["metrics"] else None
                    for r in runs[side]]
        b, h = values("base"), values("head")
        paired = [(x, y) for x, y in zip(b, h) if x is not None and y is not None]
        if not paired:
            print("  %-14s (missing)" % name)
            continue
        ratios = [y / x if x else float("nan") for x, y in paired]
        bs = [x for x, _ in paired]
        hs = [y for _, y in paired]
        q1, q3 = quartiles(bs)
        bmed = statistics.median(bs)
        wins = sum(y < x if lower_is_better[name] else y > x
                   for x, y in paired)
        print("  %-14s %14.6g %14.6g %10.4f %9.4f..%-9.4f %6s %8.1f%%" % (
            name, bmed, statistics.median(hs), statistics.median(ratios),
            min(ratios), max(ratios), "%d/%d" % (wins, len(paired)),
            100.0 * (q3 - q1) / bmed if bmed else float("nan")))

sys.exit(0 if all_correct else 1)
EOF
