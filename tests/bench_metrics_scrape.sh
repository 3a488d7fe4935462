#!/usr/bin/env bash
# Regression check: the "metrics" section embedded in a BENCH json must
# cover exactly the timed measurements — the extra untimed multistart run
# that --trace-out performs must not pollute it. Runs the smoke benchmark
# twice (with and without --trace-out) and requires the embedded ml.runs
# counter to be identical, and the trace to hold the multilevel phase and
# FM pass spans with none dropped.
#
# Usage: bench_metrics_scrape.sh /path/to/bench_to_json
set -euo pipefail

bench=${1:?usage: bench_metrics_scrape.sh /path/to/bench_to_json}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

"$bench" --smoke --out=plain.json > /dev/null 2>&1
"$bench" --smoke --out=traced.json --trace-out=trace.json > /dev/null 2> trace.log

# The counter the traced extra run would inflate first.
runs_of() { sed -n 's/.*"ml\.runs": \([0-9]*\).*/\1/p' "$1" | head -n1; }

plain_runs=$(runs_of plain.json)
traced_runs=$(runs_of traced.json)

if [ -z "$plain_runs" ] || [ -z "$traced_runs" ]; then
  echo "FAIL: ml.runs not found in bench output"; exit 1
fi

[ "$plain_runs" = "$traced_runs" ] || {
  echo "FAIL: --trace-out polluted embedded metrics: ml.runs $plain_runs -> $traced_runs"
  exit 1
}
[ -s trace.json ] || { echo "FAIL: trace.json missing"; exit 1; }
for span in ml.coarsen_level ml.initial ml.refine_level fm.pass; do
  grep -q "\"name\": \"$span\"" trace.json || {
    echo "FAIL: trace.json has no $span span"; exit 1
  }
done
grep -q '"msg": "wrote trace".*"dropped": 0' trace.log || {
  echo "FAIL: --trace-out dropped spans:"; grep 'wrote trace' trace.log; exit 1
}

echo "PASS: bench metrics scrape unpolluted by --trace-out (ml.runs=$plain_runs)"
