#!/usr/bin/env bash
# Socket-level E2E for the embedded metrics endpoint (ctest labels:
# obs-http, svc). Starts batch_runner --listen=0 on a fleet heavy enough
# to outlive the probes and, with bash's /dev/tcp as a curl-free HTTP
# client, checks every route live: /healthz, /metrics (Prometheus 0.0.4
# with the svc gauge/label families), /progress, /metrics.json, and a 404.
# Also requires the periodic --metrics-out files to exist afterwards.
#
# Usage: batch_runner_http.sh /path/to/batch_runner
set -Eeuo pipefail
# Name the failing step: -E carries the trap into functions and command
# substitutions, where a bare set -e exit would otherwise be silent.
trap 'echo "FAIL: line $LINENO: $BASH_COMMAND" >&2' ERR

runner=${1:?usage: batch_runner_http.sh /path/to/batch_runner}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

# Ten default-scale multistart jobs: a couple of seconds of fleet on two
# workers, plenty for a handful of loopback GETs.
for j in 0 1 2 3 4 5 6 7 8 9; do
  circuit=$((1 + j % 2))
  printf '{"id": "e2e%d", "circuit": %d, "scale": "default", "regime": "rand", "fixed_pct": 10.0, "starts": 6, "seed": %d}\n' \
    "$j" "$circuit" $((3000 + j))
done > jobs.jsonl

"$runner" --manifest=jobs.jsonl --workers=2 --listen=0 \
  --metrics-out=metrics.json --metrics-interval=0.2 --quiet \
  > run.log 2> run.err &
runner_pid=$!

# Wait for the listen line.
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\).*/\1/p' run.log | head -n1)
  [ -n "$port" ] && break
  sleep 0.05
done
[ -n "$port" ] || { echo "FAIL: no listen line in run.log"; cat run.log run.err; exit 1; }

# One GET via bash's /dev/tcp; response lands in $reply.
get() {
  local path=$1
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf 'GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n' "$path" >&3
  reply=$(cat <&3)
  exec 3<&-
}

get /healthz
echo "$reply" | grep -q "HTTP/1.1 200 OK" || { echo "FAIL: /healthz status"; exit 1; }
echo "$reply" | grep -q "^ok" || { echo "FAIL: /healthz body"; exit 1; }

get /metrics
echo "$reply" | grep -q "HTTP/1.1 200 OK" || { echo "FAIL: /metrics status"; exit 1; }
echo "$reply" | grep -q "text/plain; version=0.0.4" || { echo "FAIL: /metrics content type"; exit 1; }
echo "$reply" | grep -q "^# TYPE svc_queue_depth gauge" || { echo "FAIL: no svc_queue_depth gauge"; exit 1; }
echo "$reply" | grep -q "^# TYPE svc_inflight_workers gauge" || { echo "FAIL: no svc_inflight_workers gauge"; exit 1; }
echo "$reply" | grep -q "^# TYPE svc_jobs counter" || { echo "FAIL: no svc_jobs counter family"; exit 1; }
echo "$reply" | grep -q 'svc_jobs{state="ok"}' || { echo "FAIL: no labeled svc_jobs member"; exit 1; }

get /progress
echo "$reply" | grep -q "HTTP/1.1 200 OK" || { echo "FAIL: /progress status"; exit 1; }
echo "$reply" | grep -q '"total": 10' || { echo "FAIL: /progress total"; exit 1; }
echo "$reply" | grep -q '"workers": 2' || { echo "FAIL: /progress workers"; exit 1; }

get /metrics.json
echo "$reply" | grep -q "HTTP/1.1 200 OK" || { echo "FAIL: /metrics.json status"; exit 1; }
echo "$reply" | grep -q '"counters"' || { echo "FAIL: /metrics.json body"; exit 1; }

get /not-a-route
echo "$reply" | grep -q "HTTP/1.1 404" || { echo "FAIL: expected 404"; exit 1; }

wait "$runner_pid" || { echo "FAIL: fleet exited nonzero"; cat run.log run.err; exit 1; }

# The exporter (periodic + final tick) must have left both formats behind.
[ -s metrics.json ] || { echo "FAIL: metrics.json missing"; exit 1; }
[ -s metrics.json.prom ] || { echo "FAIL: metrics.json.prom missing"; exit 1; }
grep -q '"counters"' metrics.json || { echo "FAIL: metrics.json malformed"; exit 1; }
grep -q "^# TYPE svc_jobs counter" metrics.json.prom || { echo "FAIL: metrics.json.prom malformed"; exit 1; }

echo "PASS: batch_runner http endpoint"
