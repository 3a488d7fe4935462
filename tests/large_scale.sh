#!/usr/bin/env bash
# Scale smoke for the .fpbin / streaming-generation / memory-diet path
# (ctest label `scale`; docs/PERF.md "BENCH_LARGE").
#
# Default (CI / plain ctest): a small streamed instance runs the whole
# generate -> mmap scan -> owning load -> text parse -> partition ladder
# with a memory budget and a parse-throughput floor. Sanitizer builds set
# FIXEDPART_LARGE_SKIP=1 (scripts/check.sh does) because shadow memory
# makes any RSS budget meaningless and throughput floors flaky.
#
# FIXEDPART_LARGE_CELLS overrides the instance size (e.g. 1000000 for the
# committed BENCH_LARGE configuration); budgets scale linearly with it.
#
# The run is also part of the behaviour contract (ctest label `contract`):
# at the sizes with a known cut (seed 1, one serial start) the partition
# must be untruncated and hit that cut exactly — 9800 at 200k cells, and
# BENCH_LARGE's 42622 at 1M. Other sizes skip the cut check.
#
# Usage: large_scale.sh /path/to/bench_large
set -euo pipefail

bench=${1:?usage: large_scale.sh /path/to/bench_large}

if [ "${FIXEDPART_LARGE_SKIP:-0}" = "1" ]; then
  echo "large_scale: skipped (FIXEDPART_LARGE_SKIP=1)"
  exit 0
fi

cells=${FIXEDPART_LARGE_CELLS:-200000}
# Empirical envelope with ~4x headroom: the 200k-cell ladder peaks well
# under 512 MB, and the footprint is dominated by O(pins) arrays, so the
# budget scales linearly in the cell count.
rss_mb=$(( 512 * ( (cells + 199999) / 200000 ) ))
# The engine deadline scales the same way (BENCH_LARGE's 1M partition
# took 213 s), so a contract-size run is never cut short by it.
budget_s=$(( 120 * ( (cells + 199999) / 200000 ) ))
out=$(mktemp /tmp/bench_large_smoke.XXXXXX.json)
trap 'rm -f "$out"' EXIT

"$bench" --out="$out" --cells="$cells" --seed=1 --budget="$budget_s" \
  --max-rss-mb="$rss_mb" --min-parse-mbps=20

grep -q '"generated_by": "bench_large"' "$out"
grep -q '"partition"' "$out"

case "$cells" in
  200000) want_cut=9800 ;;
  1000000) want_cut=42622 ;;
  *) want_cut="" ;;
esac
if [ -n "$want_cut" ]; then
  grep -q '"truncated": false' "$out" || {
    echo "large_scale: FAIL (cells=$cells: partition truncated)"; exit 1
  }
  grep -q "\"cut\": $want_cut," "$out" || {
    echo "large_scale: FAIL (cells=$cells: want cut $want_cut, got" \
      "$(sed -n 's/.*"cut": \([0-9]*\).*/\1/p' "$out"))"
    exit 1
  }
fi
echo "large_scale: PASS (cells=$cells, rss budget ${rss_mb} MB${want_cut:+, cut $want_cut})"
