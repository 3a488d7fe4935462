#!/usr/bin/env bash
# CLI-level crash/resume check for batch_runner (ctest label: svc).
#
# Generates a demo manifest, runs it with --halt-after (the simulated
# kill -9: in-flight results are discarded, only checkpointed outcomes
# survive), resumes, and requires the resumed fleet's canonical journal
# to be byte-identical to an uninterrupted run's.
#
# Usage: batch_runner_resume.sh /path/to/batch_runner
set -euo pipefail

runner=${1:?usage: batch_runner_resume.sh /path/to/batch_runner}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

"$runner" --gen-manifest=jobs.jsonl --jobs=6 > /dev/null

# Crash after 2 checkpointed outcomes. Exit code 1 = incomplete fleet.
# --metrics-out rides along: the periodic exporter plus the final tick
# must leave a readable snapshot behind even though the fleet died early.
status=0
"$runner" --manifest=jobs.jsonl --journal=run.jsonl --workers=2 \
  --halt-after=2 --metrics-out=metrics.json --metrics-interval=0.1 \
  --quiet > /dev/null || status=$?
[ "$status" -eq 1 ] || { echo "FAIL: halted run exited $status, want 1"; exit 1; }

lines=$(wc -l < run.jsonl)
[ "$lines" -eq 2 ] || { echo "FAIL: journal has $lines outcomes, want 2"; exit 1; }

[ -s metrics.json ] || { echo "FAIL: metrics.json missing after halted run"; exit 1; }
grep -q '"counters"' metrics.json || { echo "FAIL: metrics.json malformed after halted run"; exit 1; }
[ -s metrics.json.prom ] || { echo "FAIL: metrics.json.prom missing after halted run"; exit 1; }

# Crash artifacts around journal compaction must not derail a resume:
# a stale .tmp sibling (died between write and rename, or between rename
# and the directory fsync) and a torn trailing line are both recovered —
# the tmp is simply replaced by the next compaction, the torn line is
# dropped and its job re-run.
printf 'garbage from a dead compaction' > run.jsonl.tmp
printf '{"id": "job5", "status": "ok", "err' >> run.jsonl

# Resume completes the fleet and exits 0.
"$runner" --manifest=jobs.jsonl --journal=run.jsonl --workers=2 \
  --resume --quiet --canonical-out=resumed.txt > /dev/null

lines=$(wc -l < run.jsonl)
[ "$lines" -eq 6 ] || { echo "FAIL: merged journal has $lines outcomes, want 6"; exit 1; }
for j in 0 1 2 3 4 5; do
  n=$(grep -c "\"job$j\"" run.jsonl)
  [ "$n" -eq 1 ] || { echo "FAIL: job$j appears $n times in journal, want 1"; exit 1; }
done

# Uninterrupted reference fleet: canonical journals must match exactly.
"$runner" --manifest=jobs.jsonl --journal=clean.jsonl --workers=1 \
  --quiet --canonical-out=clean.txt > /dev/null
diff -u resumed.txt clean.txt || { echo "FAIL: resumed fleet diverges from clean run"; exit 1; }

# --resume without --journal is a usage error (exit 2).
status=0
"$runner" --manifest=jobs.jsonl --resume --quiet > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "FAIL: --resume without --journal exited $status, want 2"; exit 1; }

echo "PASS: batch_runner crash/resume"
