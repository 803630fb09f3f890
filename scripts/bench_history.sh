#!/bin/sh
# The benchmark's trajectory (ROADMAP 4a): run the system benchmark as the
# driver does — BENCHMARK.json's command in its contract form, every
# workload, `--trace 0`, seed 1 — RUNS times each, and append one line to
# BENCH_history.jsonl:
#
#   {"commit": ..., "date": ..., "runs": 5,
#    "workloads": {workload: {metric: {"median": .., "q1": .., "q3": ..}}}}
#
# with BENCHMARK.json's end-to-end metrics. The runs go round-robin over the
# workloads, so a slow spell of the box spreads over all of them instead of
# landing on one. Virtual metrics are the same in every run (q1 = q3);
# host-time metrics get a median and an interquartile range, so "faster" is
# a diff between two lines only where their ranges do not overlap. Lines
# without a "runs" field predate this format: one run per workload, a bare
# value per metric. The commit is HEAD's short hash, with a `+` when tracked files
# differ from it (a PR measured before it is committed). Nothing under
# benchmark/ is read or changed. Claims are still alternating pairs, see
# EXPERIMENTS.md.
set -eu
cd "$(dirname "$0")/.."

RUNS=5

commit=$(git rev-parse --short HEAD)
git diff --quiet HEAD || commit="$commit+"

python3 - "$commit" "$(date -u +%Y-%m-%d)" "$RUNS" <<'PY' >>BENCH_history.jsonl
import json, statistics, subprocess, sys

commit, date, runs = sys.argv[1], sys.argv[2], int(sys.argv[3])
bench = json.load(open("BENCHMARK.json"))
wanted = [m["name"] for m in bench["end_to_end"]]
workloads = [w["name"] for w in bench["workloads"]]
samples = {w: {name: [] for name in wanted} for w in workloads}
for i in range(runs):
    for workload in workloads:
        args = ["--workload", workload, "--seed", "1",
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(bench["command"] + args, check=True,
                             capture_output=True, text=True).stdout
        run = json.loads([l for l in out.splitlines() if l.startswith("{")][-1])
        if not run["correct"]:
            sys.exit(f"{workload}: the benchmark reports a wrong output")
        for name in wanted:
            if name in run["metrics"]:
                samples[workload][name].append(run["metrics"][name]["value"])
        print(f"run {i + 1}/{runs} {workload}", file=sys.stderr)

def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}

line = {"commit": commit, "date": date, "runs": runs, "workloads": {
    w: {name: summary(v) for name, v in metrics.items() if v}
    for w, metrics in samples.items()
}}
for w, metrics in line["workloads"].items():
    print(f"{w}: {metrics}", file=sys.stderr)
print(json.dumps(line, sort_keys=True))
PY
