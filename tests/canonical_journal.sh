#!/usr/bin/env bash
# Behaviour-contract check (ctest label: contract): the canonical journal
# of a generated 8-job manifest run by 2 workers is byte-identical under
# --isolation=thread and --isolation=process, and its sha256 equals the
# pinned value. Any change to a cut, move count or pass count of these
# jobs changes the hash; re-pin it only for a deliberate re-baseline with
# equal or better cuts.
#
# Usage: canonical_journal.sh /path/to/batch_runner /path/to/fixedpart-worker
set -euo pipefail
trap 'echo "FAIL: line $LINENO: $BASH_COMMAND" >&2' ERR

runner=${1:?usage: canonical_journal.sh /path/to/batch_runner /path/to/fixedpart-worker}
worker=${2:?usage: canonical_journal.sh /path/to/batch_runner /path/to/fixedpart-worker}
pinned=54204a2c912831411217979a6b826be88027f8f8325467b8542862349f3c1bf0
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

"$runner" --gen-manifest=jobs.jsonl --jobs=8 > /dev/null
"$runner" --manifest=jobs.jsonl --workers=2 --isolation=thread \
  --quiet --canonical-out=thread.txt > /dev/null
"$runner" --manifest=jobs.jsonl --workers=2 --isolation=process \
  --worker="$worker" --quiet --canonical-out=process.txt > /dev/null

cmp -s thread.txt process.txt || {
  echo "FAIL: thread and process canonical journals differ"
  diff -u thread.txt process.txt || true
  exit 1
}
hash=$(sha256sum thread.txt | cut -d' ' -f1)
[ "$hash" = "$pinned" ] || {
  echo "FAIL: canonical journal sha256 $hash, pinned $pinned"
  cat thread.txt
  exit 1
}

echo "PASS: canonical journal identical across isolation modes ($hash)"
