#!/usr/bin/env bash
# End-to-end worker-crash battery for partitiond --isolation=process
# (ctest labels: isolate, serve). Drives the daemon over bash's /dev/tcp
# (curl-free) through the process-supervision tree:
#
#   1. kill -9 a worker process mid-job: the daemon keeps serving, the
#      job is retried in a fresh worker and completes ok;
#   2. a crash-exactly-once job (FIXEDPART_WORKER_CRASH_ONCE_SEED +
#      flag file) dies on its first worker and succeeds on the retry;
#   3. a job that crashes every worker is poisoned as failed(crash)
#      after max_job_crashes — the circuit breaker — while the daemon
#      stays healthy;
#   4. (gated on `fixedpart-worker --selfcheck` under ulimit -v: ASan/
#      TSan shadow reservations make RLIMIT_AS unusable) a memory-hog
#      job under --rlimit-as-mb is contained and classified OOM without
#      killing the daemon;
#   5. the same crash-free fleet run under --isolation=thread and
#      --isolation=process leaves byte-identical journals once the
#      timing fields are normalized out;
#   6. (woven through 1) per-job distributed tracing: killing a live
#      worker mid-job leaves a flight-recorder dump under --flight-dir
#      naming the job and its last recorded phase, and the finished job's
#      GET /jobs/<id>/trace merges time-aligned worker spans (real worker
#      pid) with the daemon's own supervision spans (pid 1).
#
# Usage: partitiond_worker_crash.sh /path/to/partitiond /path/to/fixedpart-worker
set -Eeuo pipefail
# Name the failing step: -E carries the trap into functions and command
# substitutions, where a bare set -e exit would otherwise be silent.
trap 'echo "FAIL: line $LINENO: $BASH_COMMAND" >&2' ERR

daemon=${1:?usage: partitiond_worker_crash.sh /path/to/partitiond /path/to/fixedpart-worker}
worker=${2:?usage: partitiond_worker_crash.sh /path/to/partitiond /path/to/fixedpart-worker}
workdir=$(mktemp -d)
cleanup() {
  [ -n "${daemon_pid:-}" ] && kill -9 "$daemon_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT
cd "$workdir"

# start_daemon [extra partitiond flags...]; fault hooks ride on exported
# FIXEDPART_WORKER_* env vars, which the daemon's workers inherit.
start_daemon() {
  rm -f port.txt
  "$daemon" --listen=0 --port-file=port.txt --journal=jobs.journal \
    --spool-dir=spool "$@" > daemon.log 2> daemon.err &
  daemon_pid=$!
  port=""
  for _ in $(seq 1 200); do
    [ -s port.txt ] && { port=$(head -n1 port.txt); break; }
    sleep 0.05
  done
  [ -n "$port" ] || { echo "FAIL: daemon never wrote port.txt"; cat daemon.log daemon.err; exit 1; }
}

stop_daemon() {
  kill -TERM "$daemon_pid"
  local rc=0
  wait "$daemon_pid" || rc=$?
  daemon_pid=""
  [ "$rc" = 0 ] || { echo "FAIL: drain exited $rc"; cat daemon.log daemon.err; exit 1; }
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

reply_id() {
  echo "$reply" | sed -n 's/.*"id": "\([0-9a-f]\{32\}\)".*/\1/p' | head -n1
}

submit() {
  local seed=$1
  req POST "/partition?seed=$seed" '{"circuit": 1, "scale": "smoke", "starts": 1}'
  echo "$reply" | grep -q "HTTP/1.1 202" || { echo "FAIL: submit seed=$seed:"; echo "$reply"; exit 1; }
  reply_id
}

# Polls /jobs/$1 until $2 matches the record; dies after ~30 s.
await_state() {
  local id=$1 pattern=$2
  for _ in $(seq 1 600); do
    req GET "/jobs/$id"
    echo "$reply" | grep -q "$pattern" && return 0
    sleep 0.05
  done
  echo "FAIL: job $id never matched: $pattern"; echo "$reply"
  cat daemon.log daemon.err
  exit 1
}

# /progress must report the svc.worker counter $1 >= $2.
expect_worker_stat() {
  local key=$1 min=$2
  req GET /progress
  local got
  got=$(echo "$reply" | sed -n "s/.*\"$key\": \([0-9]*\).*/\1/p" | head -n1)
  [ -n "$got" ] || { echo "FAIL: /progress lacks pool.$key"; echo "$reply"; exit 1; }
  [ "$got" -ge "$min" ] || { echo "FAIL: pool.$key=$got < $min"; echo "$reply"; exit 1; }
}

# --- 1..3: one daemon carries the kill -9, crash-once and poison phases --
export FIXEDPART_WORKER_CRASH_ONCE_SEED=41
export FIXEDPART_WORKER_CRASH_FLAG="$workdir/crash_once.flag"
export FIXEDPART_WORKER_CRASH_SEED=43
start_daemon --isolation=process --worker="$worker" --workers=1 \
  --queue-capacity=8 --max-attempts=3 --default-budget=30 --test-slow-ms=2000 \
  --flight-dir=flight

# 1. Clean-but-slow job; kill -9 its worker process mid-run.
id_clean=$(submit 7)
worker_pid=""
for _ in $(seq 1 250); do
  worker_pid=$(pgrep -P "$daemon_pid" -f fixedpart-worker | head -n1 || true)
  [ -n "$worker_pid" ] && break
  sleep 0.02
done
[ -n "$worker_pid" ] || { echo "FAIL: no worker process appeared"; cat daemon.log daemon.err; exit 1; }
# Let the worker's first 'T' span frame (the worker.start marker) reach
# the daemon, so the kill happens on a worker with a recorded phase; the
# --test-slow-ms pad keeps the job mid-run far longer than this.
sleep 0.5
kill -9 "$worker_pid"
echo "phase 1: killed worker pid=$worker_pid mid-job"

# The daemon must still answer immediately...
req GET /healthz
echo "$reply" | grep -q "HTTP/1.1 200" || { echo "FAIL: daemon unhealthy after worker kill"; exit 1; }
# ...and the job completes ok in a fresh worker via the retry loop.
await_state "$id_clean" '"status": "ok"'
expect_worker_stat crashed 1
echo "phase 1: job survived its worker (retried in a fresh process)"

# 6a. The kill left a well-formed flight-recorder dump naming the job and
# its last recorded phase (the worker.start marker streamed before death).
flight_dump="flight/crash-$id_clean.json"
[ -f "$flight_dump" ] || { echo "FAIL: no flight dump at $flight_dump"; ls -la flight 2>/dev/null; exit 1; }
grep -q '"reason": "crash"' "$flight_dump" || { echo "FAIL: dump lacks crash reason"; cat "$flight_dump"; exit 1; }
grep -q "\"job\": \"$id_clean\"" "$flight_dump" || { echo "FAIL: dump does not name the job"; cat "$flight_dump"; exit 1; }
grep -q '"phase": "worker.start"' "$flight_dump" || { echo "FAIL: dump lacks the last recorded phase"; cat "$flight_dump"; exit 1; }
grep -q '"entries"' "$flight_dump" || { echo "FAIL: dump lacks the flight ring"; cat "$flight_dump"; exit 1; }
echo "phase 6a: flight dump names job + last phase ($flight_dump)"

# 6b. The finished job's trace merges time-aligned worker spans (tagged
# with the real worker pid) with the daemon's own supervision spans
# (pid 1) under one job-derived trace id.
req GET "/jobs/$id_clean/trace"
echo "$reply" | grep -q "HTTP/1.1 200" || { echo "FAIL: /jobs/<id>/trace not served:"; echo "$reply"; exit 1; }
echo "$reply" | grep -q '"traceEvents"' || { echo "FAIL: trace is not Chrome trace JSON"; echo "$reply"; exit 1; }
echo "$reply" | grep -q '"worker.start"' || { echo "FAIL: trace lacks worker-side spans"; echo "$reply"; exit 1; }
echo "$reply" | grep -q '"svc.job_attempt"' || { echo "FAIL: trace lacks server-side spans"; echo "$reply"; exit 1; }
echo "$reply" | grep -q '"pid": 1[,}]' || { echo "FAIL: trace lacks daemon-side pid 1 spans"; echo "$reply"; exit 1; }
# At least one span from a real worker process (pid > 1).
echo "$reply" | grep -Eq '"pid": [0-9]{2,}' || { echo "FAIL: trace lacks worker-pid spans"; echo "$reply"; exit 1; }
req GET "/jobs/00000000000000000000000000000000/trace"
echo "$reply" | grep -q "HTTP/1.1 404" || { echo "FAIL: unknown trace not 404:"; echo "$reply"; exit 1; }
echo "phase 6b: merged worker+server trace served at /jobs/<id>/trace"

# 2. Crash-exactly-once: first worker plants the flag and aborts; the
# retry finds the flag and completes.
id_once=$(submit 41)
await_state "$id_once" '"status": "ok"'
[ -f "$FIXEDPART_WORKER_CRASH_FLAG" ] || { echo "FAIL: crash-once flag never planted"; exit 1; }
await_state "$id_once" '"attempts": 2'
expect_worker_stat crashed 2
echo "phase 2: crash-once job completed on retry"

# 3. Crashes every worker: poisoned as failed(crash) after the breaker
# trips; the daemon keeps serving throughout.
id_poison=$(submit 43)
await_state "$id_poison" '"status": "failed"'
req GET "/jobs/$id_poison"
echo "$reply" | grep -q '"error": "crash"' || { echo "FAIL: poisoned job not classified crash"; echo "$reply"; exit 1; }
req GET /healthz
echo "$reply" | grep -q "HTTP/1.1 200" || { echo "FAIL: daemon died with the repeat crasher"; exit 1; }
expect_worker_stat spawned 4
echo "phase 3: repeat crasher poisoned failed(crash), daemon healthy"
stop_daemon
unset FIXEDPART_WORKER_CRASH_ONCE_SEED FIXEDPART_WORKER_CRASH_FLAG FIXEDPART_WORKER_CRASH_SEED

# --- 4. RLIMIT_AS containment (gated on a selfcheck probe) ---------------
# Sanitizer builds reserve terabytes of shadow address space, so
# RLIMIT_AS kills the worker at startup regardless of the job; probe
# with the worker's own --selfcheck under the same cap first.
if (ulimit -v $((256 * 1024)) 2>/dev/null && "$worker" --selfcheck) >/dev/null 2>&1; then
  export FIXEDPART_WORKER_HOG_SEED=45
  start_daemon --isolation=process --worker="$worker" --workers=1 \
    --queue-capacity=8 --max-attempts=1 --default-budget=30 --rlimit-as-mb=256
  id_hog=$(submit 45)
  # bad_alloc inside the worker (reported "out of memory") or a hard
  # kill — either way the job terminates, the daemon does not.
  await_state "$id_hog" '"state": "done"'
  req GET "/jobs/$id_hog"
  echo "$reply" | grep -Eq '"status": "(failed|poisoned)"' || { echo "FAIL: hog job not failed:"; echo "$reply"; exit 1; }
  req GET /healthz
  echo "$reply" | grep -q "HTTP/1.1 200" || { echo "FAIL: daemon died with the memory hog"; exit 1; }
  expect_worker_stat oom_kills 1
  echo "phase 4: RLIMIT_AS contained the memory hog (classified OOM)"
  stop_daemon
  unset FIXEDPART_WORKER_HOG_SEED
else
  echo "phase 4: skipped (RLIMIT_AS unusable in this build: sanitizer shadow)"
fi

# --- 5. thread/process journal parity on a crash-free fleet --------------
# Strip every timing field (seconds plus the per-phase breakdown, which
# exists only when tracing observed non-zero phase time) before the diff.
normalize() {
  sed -e 's/"\([a-z_]*seconds\)": [^,}]*/"\1": 0/g' \
      -e 's/, "coarsen_seconds": 0//g' \
      -e 's/, "initial_seconds": 0//g' \
      -e 's/, "refine_seconds": 0//g' "$1"
}
for mode in thread process; do
  mkdir -p "$mode"
  rm -f port.txt jobs.journal
  ( cd "$mode" && rm -f jobs.journal )
  start_daemon --isolation="$mode" --worker="$worker" --workers=1 \
    --queue-capacity=8 --max-attempts=1 --default-budget=30 \
    --journal="$mode/jobs.journal"
  for seed in 11 12 13; do
    id=$(submit "$seed")
    await_state "$id" '"state": "done"'
  done
  stop_daemon
done
if ! diff <(normalize thread/jobs.journal) <(normalize process/jobs.journal); then
  echo "FAIL: journals differ across isolation modes"
  exit 1
fi
echo "phase 5: thread and process journals byte-identical (timing normalized)"

echo "PASS: partitiond worker-crash battery"
