#!/usr/bin/env bash
# Repeated runs of the benchmark of record (perfbench/run.py, --trace 0)
# summarised into one JSON file: per workload and end-to-end metric, the
# median and IQR/median over 10 runs, plus `nproc` and the commits. The
# workloads, metrics and run length (`run_seconds`) come from
# BENCHMARK.json. With --base REV the same runs are made on REV too,
# interleaved pair by pair (same seed, alternating which tree goes first),
# so an A/B comparison sees the same machine load on both sides, and each
# metric gets a verdict: gain, within bound, regression or unresolved (the
# parent's own spread is wider than the metric's bound). Run from anywhere
# in the checkout:
#
#   scripts/bench.sh --out BENCH_20.json                  # HEAD only
#   scripts/bench.sh --base HEAD~1 --out BENCH_20.json    # interleaved A/B
#
# Options:
#   --base REV   also benchmark REV (extracted with git archive)
#   --work DIR   build/extract directory, kept for reuse (default: a
#                temporary directory removed on exit)
#   --out FILE   output path, relative to the repo root (default BENCH.json)
#
# The working tree is benchmarked as it is; the head commit is recorded
# with a "-dirty" suffix when it has uncommitted changes. Each tree builds
# into its own CARGO_TARGET_DIR under the work directory, and each run's
# stdout and stderr are kept there. A run that exits non-zero or prints no
# result line does not stop the loop: the output lists it under
# "failed_runs" (tree, workload, seed, exit code, last stderr lines), the
# medians are taken over the runs that completed, and the script exits 1.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)

runs=10
read -r seconds workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')

base=""
work=""
out="BENCH.json"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --base) base="$2"; shift 2 ;;
    --work) work="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "usage: $0 [--base REV] [--work DIR] [--out FILE]" >&2
       exit 2 ;;
  esac
done

if [[ -z "$work" ]]; then
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi
mkdir -p "$work/results"
work=$(cd "$work" && pwd)

head_commit=$(git rev-parse HEAD)
if [[ -n "$(git status --porcelain --untracked-files=no)" ]]; then
  head_commit="$head_commit-dirty"
fi
trees=(head)
base_commit=""
if [[ -n "$base" ]]; then
  base_commit=$(git rev-parse "$base^{commit}")
  rm -rf "$work/base-src"
  mkdir -p "$work/base-src"
  git archive "$base_commit" | tar -x -C "$work/base-src"
  trees+=(base)
fi

tree_dir() { [[ "$1" == head ]] && echo "$root" || echo "$work/base-src"; }

# One perfbench run. Its stdout, stderr and exit code go to
# $work/results/<tree>-<w>-<seed>.{out,err,exit}; a failed run is recorded
# and the loop goes on (the summary lists it under "failed_runs").
run_one() {
  local tree=$1 workload=$2 seed=$3
  local stem="$work/results/$tree-$workload-$seed"
  local code=0
  echo "[bench] $tree $workload seed $seed" >&2
  (cd "$(tree_dir "$tree")" &&
   CARGO_TARGET_DIR="$work/build-$tree" python3 perfbench/run.py \
     --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
    > "$stem.out" 2> "$stem.err" || code=$?
  echo "$code" > "$stem.exit"
  if [[ $code -ne 0 ]]; then
    echo "[bench] $tree $workload seed $seed exited $code; see $stem.err" >&2
  fi
}

# Build each tree (and warm it) before any timed run.
for tree in "${trees[@]}"; do
  (cd "$(tree_dir "$tree")" &&
   CARGO_TARGET_DIR="$work/build-$tree" python3 perfbench/run.py \
     --workload stock_dip --seed 0 --seconds 1 --trace 0 > /dev/null)
done

for workload in $workloads; do
  for seed in $(seq 1 "$runs"); do
    if [[ ${#trees[@]} -eq 2 && $((seed % 2)) -eq 0 ]]; then
      order=(base head)
    else
      order=("${trees[@]}")
    fi
    for tree in "${order[@]}"; do run_one "$tree" "$workload" "$seed"; done
  done
done

python3 - "$work/results" "$out" "$runs" "$seconds" "$(nproc)" \
  "$head_commit" "$base_commit" "$workloads" <<'EOF'
import json
import os
import statistics
import sys

results_dir, out, runs, seconds, nproc, head, base, workloads = sys.argv[1:]
runs = int(runs)
with open("BENCHMARK.json") as f:
    metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
trees = ["head"] + (["base"] if base else [])


failed_runs = []


def load(tree, workload):
    """The result lines of one tree's runs of a workload, keyed by seed. A
    run that exited non-zero or printed no result line goes to failed_runs
    with the tail of its stderr instead."""
    rows = {}
    for seed in range(1, runs + 1):
        stem = os.path.join(results_dir, f"{tree}-{workload}-{seed}")
        with open(stem + ".exit") as f:
            code = int(f.read())
        with open(stem + ".out") as f:
            lines = f.read().splitlines()
        try:
            row = json.loads(lines[-1]) if code == 0 and lines else None
        except ValueError:
            row = None
        if row is None:
            with open(stem + ".err", errors="replace") as f:
                tail = f.read().splitlines()[-20:]
            failed_runs.append({"tree": tree, "workload": workload,
                                "seed": seed, "exit_code": code,
                                "stderr_tail": tail})
        else:
            rows[seed] = row
    return rows


def verdict(name, h, b, wins, pairs):
    """Reads one metric's A/B the way the benchmark's gates do: a gain
    needs 9 of 10 pairs and a median move past the parent's IQR; a parent
    spread wider than the bound leaves the metric unresolved unless every
    head run beats every parent run; otherwise the bound decides."""
    sign = 1 if metrics[name]["better"] == "higher" else -1
    bound = metrics[name]["bound"]
    gain = sign * (h["median"] - b["median"])
    spread = b["iqr_over_median"] or 0.0
    if wins >= 0.9 * pairs and gain > spread * b["median"]:
        return "gain"
    if spread > bound and (min(sign * x for x in h["runs"]) <=
                           max(sign * x for x in b["runs"])):
        return "unresolved"
    if -gain > bound * b["median"]:
        return "regression"
    return "within bound"


def summary(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = median
    return {"median": median,
            "iqr_over_median": (q3 - q1) / median if median else None,
            "runs": values}


report = {"nproc": int(nproc), "runs": runs, "seconds": float(seconds),
          "trace": 0, "commits": {"head": head, "base": base or None},
          "workloads": {}}
for workload in workloads.split():
    entry = {}
    rows = {tree: load(tree, workload) for tree in trees}
    for tree in trees:
        done = list(rows[tree].values())
        entry[tree] = {
            "completed": len(done),
            "correct": all(r["correct"] for r in done),
            "failed": sum(r["failed"] for r in done),
            "metrics": {name: summary([r["metrics"][name]["value"]
                                       for r in done])
                        for name in metrics
                        if done and name in done[0]["metrics"]},
        }
    if base:
        # Pairs are compared seed by seed, over the seeds both trees completed.
        seeds = sorted(rows["head"].keys() & rows["base"].keys())
        ratio = {}
        head_better = {}
        verdicts = {}
        for name, m in entry["head"]["metrics"].items():
            if name not in entry["base"]["metrics"]:
                continue
            b = entry["base"]["metrics"][name]
            ratio[name] = m["median"] / b["median"] if b["median"] else None
            sign = 1 if metrics[name]["better"] == "higher" else -1
            wins = sum(sign * (rows["head"][s]["metrics"][name]["value"] -
                               rows["base"][s]["metrics"][name]["value"]) > 0
                       for s in seeds)
            head_better[name] = f"{wins}/{len(seeds)}"
            verdicts[name] = verdict(name, m, b, wins, len(seeds))
        entry["head_over_base_median"] = ratio
        entry["pairs_head_better"] = head_better
        entry["verdict"] = verdicts
    report["workloads"][workload] = entry
report["failed_runs"] = failed_runs

with open(out, "w") as f:
    json.dump(report, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"[bench] wrote {out}", file=sys.stderr)
if failed_runs:
    print(f"[bench] {len(failed_runs)} run(s) failed; see failed_runs in {out}",
          file=sys.stderr)
    sys.exit(1)
EOF
