#!/usr/bin/env bash
# End-to-end crash/drain/recovery for partitiond (ctest label: serve).
# Drives the daemon over bash's /dev/tcp (curl-free) through its whole
# lifecycle:
#
#   1. overload a 1-worker/capacity-2 daemon with slow jobs: some POSTs
#      are accepted (202), the rest are shed (429 + Retry-After);
#   2. wait for >= 2 journaled completions, then kill -9 mid-fleet;
#   3. restart on the same --journal/--spool-dir: every pre-kill result
#      must be re-served byte-identically, accepted-but-unfinished jobs
#      re-enqueued and finished;
#   4. a resubmission of finished work answers 200 from the cache;
#   5. SIGTERM drains the daemon: it must exit 0.
#
# Usage: partitiond_restart.sh /path/to/partitiond
set -Eeuo pipefail
# Name the failing step: -E carries the trap into functions and command
# substitutions, where a bare set -e exit would otherwise be silent.
trap 'echo "FAIL: line $LINENO: $BASH_COMMAND" >&2' ERR

daemon=${1:?usage: partitiond_restart.sh /path/to/partitiond}
workdir=$(mktemp -d)
cleanup() {
  [ -n "${daemon_pid:-}" ] && kill -9 "$daemon_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT
cd "$workdir"

start_daemon() {
  "$daemon" --listen=0 --port-file=port.txt --workers=1 --queue-capacity=2 \
    --journal=jobs.journal --spool-dir=spool --test-slow-ms=400 \
    --default-budget=20 --max-attempts=1 "$@" > daemon.log 2> daemon.err &
  daemon_pid=$!
  port=""
  for _ in $(seq 1 200); do
    [ -s port.txt ] && { port=$(head -n1 port.txt); break; }
    sleep 0.05
  done
  [ -n "$port" ] || { echo "FAIL: daemon never wrote port.txt"; cat daemon.log daemon.err; exit 1; }
}

# One HTTP exchange via /dev/tcp; the full response lands in $reply.
req() {
  local method=$1 path=$2 body=${3:-}
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf '%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
    "$method" "$path" "${#body}" "$body" >&3
  reply=$(cat <&3)
  exec 3<&-
}

# Extract the 32-hex job id out of $reply.
reply_id() {
  echo "$reply" | sed -n 's/.*"id": "\([0-9a-f]\{32\}\)".*/\1/p' | head -n1
}

rm -f port.txt
start_daemon

# --- 1. overload: bounded queue sheds with 429 + Retry-After -------------
accepted=0
shed=0
ids=""
for seed in 1 2 3 4 5 6; do
  req POST "/partition?seed=$seed" '{"circuit": 1, "scale": "smoke", "starts": 1}'
  if echo "$reply" | grep -q "HTTP/1.1 202"; then
    accepted=$((accepted + 1))
    ids="$ids $(reply_id)"
  elif echo "$reply" | grep -q "HTTP/1.1 429"; then
    shed=$((shed + 1))
    echo "$reply" | grep -q "Retry-After: [0-9]" || { echo "FAIL: 429 without Retry-After"; exit 1; }
    echo "$reply" | grep -q "retry_after_seconds" || { echo "FAIL: 429 body lacks retry_after_seconds"; exit 1; }
  else
    echo "FAIL: unexpected submit response:"; echo "$reply"; exit 1
  fi
done
[ "$accepted" -ge 1 ] || { echo "FAIL: nothing accepted under overload"; exit 1; }
[ "$shed" -ge 1 ] || { echo "FAIL: nothing shed under overload (accepted=$accepted)"; exit 1; }
echo "overload: accepted=$accepted shed=$shed"

# --- 2. let >= 2 jobs reach the journal, then kill -9 mid-fleet ----------
done_count=0
for _ in $(seq 1 300); do
  done_count=$(grep -c '"event": "done"' jobs.journal 2>/dev/null || true)
  done_count=${done_count:-0}
  [ "$done_count" -ge 2 ] && break
  sleep 0.05
done
[ "$done_count" -ge 2 ] || { echo "FAIL: fewer than 2 journaled completions"; cat daemon.log daemon.err; exit 1; }

# Record every already-finished job's response bytes (status + body line).
pre_kill=""
for id in $ids; do
  req GET "/jobs/$id"
  if echo "$reply" | grep -q '"state": "done"'; then
    line=$(echo "$reply" | grep '"state": "done"')
    pre_kill="$pre_kill$id $line
"
  fi
done
[ -n "$pre_kill" ] || { echo "FAIL: journal has done events but no pollable done job"; exit 1; }

kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true

# --- 3. restart on the same journal/spool: recovery ----------------------
rm -f port.txt
start_daemon

# Every pre-kill result must come back byte-identical from the journal.
while IFS=' ' read -r id expect; do
  [ -n "$id" ] || continue
  req GET "/jobs/$id"
  echo "$reply" | grep -q "HTTP/1.1 200" || { echo "FAIL: $id lost across kill -9"; echo "$reply"; exit 1; }
  got=$(echo "$reply" | grep '"state": "done"' || true)
  [ "$got" = "$expect" ] || {
    echo "FAIL: $id changed across restart"
    echo "  before: $expect"
    echo "  after:  $got"
    exit 1
  }
done <<< "$pre_kill"
echo "recovery: pre-kill results re-served byte-identically"

# Accepted-but-unfinished jobs were re-enqueued; wait for all accepted
# submissions to reach a terminal state.
for id in $ids; do
  ok=0
  for _ in $(seq 1 600); do
    req GET "/jobs/$id"
    if echo "$reply" | grep -q '"state": "done"'; then ok=1; break; fi
    sleep 0.05
  done
  [ "$ok" = 1 ] || { echo "FAIL: recovered job $id never finished"; echo "$reply"; exit 1; }
done
echo "recovery: every accepted job reached done"

# --- 4. resubmitting finished work is a cache hit (200, no re-run) -------
req POST "/partition?seed=1" '{"circuit": 1, "scale": "smoke", "starts": 1}'
echo "$reply" | grep -q "HTTP/1.1 200" || { echo "FAIL: resubmission was not a cache hit"; echo "$reply"; exit 1; }
echo "$reply" | grep -q '"state": "done"' || { echo "FAIL: cache hit without the result"; exit 1; }

req GET /progress
echo "$reply" | grep -q '"cache_hits": 1' || { echo "FAIL: /progress cache_hits"; echo "$reply"; exit 1; }

# --- 5. SIGTERM drains with exit code 0 ----------------------------------
kill -TERM "$daemon_pid"
rc=0
wait "$daemon_pid" || rc=$?
[ "$rc" = 0 ] || { echo "FAIL: drain exited $rc"; cat daemon.log daemon.err; exit 1; }
grep -q "partitiond: drained, exiting" daemon.log || { echo "FAIL: no drain notice"; cat daemon.log; exit 1; }

echo "PASS: partitiond overload/kill/recover/drain"
