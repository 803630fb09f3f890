#!/bin/sh
# The benchmark's trajectory (ROADMAP 4a): run the system benchmark as the
# driver does — BENCHMARK.json's command in its contract form, every
# workload, `--trace 0`, seed 1 — and append one line to BENCH_history.jsonl:
#
#   {"commit": ..., "date": ..., "workloads": {workload: {metric: value}}}
#
# with BENCHMARK.json's end-to-end metrics. "Faster" is then a diff between
# two lines of that file. The commit is HEAD's short hash, with a `+` when
# tracked files differ from it (a PR measured before it is committed).
# Nothing under benchmark/ is read or changed; host-time metrics are one run
# each, so compare lines as a trajectory, not as a claim (claims are
# alternating pairs, see EXPERIMENTS.md).
set -eu
cd "$(dirname "$0")/.."

commit=$(git rev-parse --short HEAD)
git diff --quiet HEAD || commit="$commit+"

python3 - "$commit" "$(date -u +%Y-%m-%d)" <<'PY' >>BENCH_history.jsonl
import json, subprocess, sys

commit, date = sys.argv[1:3]
bench = json.load(open("BENCHMARK.json"))
wanted = [m["name"] for m in bench["end_to_end"]]
line = {"commit": commit, "date": date, "workloads": {}}
for workload in (w["name"] for w in bench["workloads"]):
    args = ["--workload", workload, "--seed", "1",
            "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(bench["command"] + args, check=True,
                         capture_output=True, text=True).stdout
    run = json.loads([l for l in out.splitlines() if l.startswith("{")][-1])
    if not run["correct"]:
        sys.exit(f"{workload}: the benchmark reports a wrong output")
    line["workloads"][workload] = {
        name: run["metrics"][name]["value"] for name in wanted if name in run["metrics"]
    }
    print(f"{workload}: {line['workloads'][workload]}", file=sys.stderr)
print(json.dumps(line, sort_keys=True))
PY
