#!/usr/bin/env bash
# serve-smoke: black-box check of the roofserved daemon over real HTTP.
#
# Starts roofserved on an ephemeral port, submits the same simulated
# DGEMM campaign twice, and asserts the contract the serving tier is
# built around:
#   1. the second response is a cache hit (X-Roofserve-Cache: hit),
#   2. its body is byte-identical to the first response,
#   3. the /metrics hit/miss counters reconcile exactly with the
#      X-Roofserve-Cache headers the daemon sent,
#   4. rooftool -remote renders a summary bit-identical to the same
#      campaign run in-process.
# Then restarts the daemon with -max-jobs=2 -queue-depth=2 and floods it
# with five distinct slow campaigns: four must be accepted (two running,
# two queued), the fifth must be shed with 429 + the exact configured
# Retry-After and the structured "overloaded" envelope, and after the
# flood drains the admission counters on /metrics must reconcile with
# exactly that traffic.
# Run from the repository root: ./scripts/serve-smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
  [ -n "$daemon_pid" ] && wait "$daemon_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/roofserved" ./cmd/roofserved
go build -o "$workdir/rooftool" ./cmd/rooftool

# start_daemon <logname> [flags...]: launch roofserved, wait for the
# "roofserved listening on http://host:port" line and set base/daemon_pid.
start_daemon() {
  logname=$1; shift
  "$workdir/roofserved" "$@" >"$workdir/$logname.out" 2>"$workdir/$logname.err" &
  daemon_pid=$!
  base=""
  for _ in $(seq 1 50); do
    base=$(sed -n 's/^roofserved listening on \(http:\/\/.*\)$/\1/p' "$workdir/$logname.out")
    [ -n "$base" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { echo "daemon died:"; cat "$workdir/$logname.err"; exit 1; }
    sleep 0.1
  done
  [ -n "$base" ] || { echo "daemon never reported its address"; cat "$workdir/$logname.err"; exit 1; }
  echo "daemon at $base"
}

echo "== start daemon (ephemeral port)"
start_daemon daemon -addr 127.0.0.1:0

campaign='{"system": "Gold 6148", "workloads": ["dgemm"], "seed": 1021}'

echo "== first request (must run the campaign)"
curl -sS -f -D "$workdir/h1" -o "$workdir/r1.json" \
  -H 'Content-Type: application/json' -d "$campaign" "$base/v1/tune"
grep -i '^x-roofserve-cache: miss' "$workdir/h1" >/dev/null \
  || { echo "first response was not a cache miss:"; cat "$workdir/h1"; exit 1; }

echo "== second request (must be a byte-identical cache hit)"
curl -sS -f -D "$workdir/h2" -o "$workdir/r2.json" \
  -H 'Content-Type: application/json' -d "$campaign" "$base/v1/tune"
grep -i '^x-roofserve-cache: hit' "$workdir/h2" >/dev/null \
  || { echo "second response was not a cache hit:"; cat "$workdir/h2"; exit 1; }
cmp "$workdir/r1.json" "$workdir/r2.json" \
  || { echo "cache hit is not byte-identical to the original response"; exit 1; }

# metric <file> <sample> <want>: assert one exact sample value in a scrape.
metric() {
  got=$(grep -v '^#' "$1" | grep -F "$2 " | awk '{print $2}')
  [ "$got" = "$3" ] \
    || { echo "metric $2 = '$got', want '$3'"; cat "$1"; exit 1; }
}

echo "== /metrics reconciles with the cache headers (1 miss, 1 hit)"
curl -sS -f -o "$workdir/m1.txt" "$base/metrics"
metric "$workdir/m1.txt" 'roofserve_cache_misses_total' 1
metric "$workdir/m1.txt" 'roofserve_cache_hits_total' 1
metric "$workdir/m1.txt" 'roofserve_cache_entries' 1

echo "== rooftool -remote matches in-process summary bit for bit"
"$workdir/rooftool" -remote "$base" -system "Gold 6148" -workloads dgemm \
  -format summary >"$workdir/remote.txt" 2>/dev/null
"$workdir/rooftool" -system "Gold 6148" -workloads dgemm -format summary >"$workdir/local.txt"
cmp "$workdir/remote.txt" "$workdir/local.txt" \
  || { echo "remote summary differs from in-process summary"; diff "$workdir/remote.txt" "$workdir/local.txt" || true; exit 1; }

echo "== graceful shutdown"
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""

echo "== start admission-limited daemon (-max-jobs 2 -queue-depth 2)"
start_daemon flood -addr 127.0.0.1:0 -max-jobs 2 -queue-depth 2 -retry-after 1s

# A deliberately slow campaign (~2s of simulated measurement): four
# workloads over a 10-point space, serial sweeps ("serial": true),
# high iteration floor, all early-exit bounds disabled. Each flood
# submission varies the seed so the five campaigns are distinct
# fingerprints — no singleflight collapse, no cache hits.
heavy() {
  cat <<EOF
{"system": "Gold 6148", "workloads": ["dgemm", "triad", "spmv", "stencil"], "seed": $1,
 "space": [{"n": 256, "m": 256, "k": 256}, {"n": 512, "m": 512, "k": 512},
           {"n": 1024, "m": 1024, "k": 1024}, {"n": 2048, "m": 2048, "k": 2048},
           {"n": 4096, "m": 4096, "k": 4096}, {"n": 8192, "m": 8192, "k": 512},
           {"n": 1024, "m": 2048, "k": 4096}, {"n": 4096, "m": 2048, "k": 1024},
           {"n": 512, "m": 8192, "k": 512}, {"n": 2048, "m": 512, "k": 2048}],
 "triadLevels": ["L1", "L2", "L3", "DRAM"], "serial": true,
 "budget": {"maxIterations": 20000, "minCount": 20000, "invocations": 9,
            "confidence": false, "innerBound": false, "outerBound": false}}
EOF
}

echo "== flood: 5 distinct submissions against 2 run slots + 2 queue slots"
for i in 1 2 3 4 5; do
  heavy "$i" >"$workdir/c$i.json"
  code=$(curl -sS -D "$workdir/fh$i" -o "$workdir/fb$i.json" -w '%{http_code}' \
    -H 'Content-Type: application/json' -d @"$workdir/c$i.json" "$base/v1/jobs")
  echo "submission $i -> HTTP $code"
  case "$i" in
  5)
    [ "$code" = 429 ] || { echo "submission 5 not shed (HTTP $code)"; cat "$workdir/fb$i.json"; exit 1; }
    grep -i '^retry-after: 1' "$workdir/fh$i" >/dev/null \
      || { echo "shed response lacks the configured Retry-After: 1"; cat "$workdir/fh$i"; exit 1; }
    grep -F '"code":"overloaded"' "$workdir/fb$i.json" >/dev/null \
      || { echo "shed body lacks the overloaded envelope:"; cat "$workdir/fb$i.json"; exit 1; }
    ;;
  *)
    [ "$code" = 202 ] || { echo "submission $i not accepted (HTTP $code)"; cat "$workdir/fb$i.json"; exit 1; }
    ;;
  esac
done

echo "== shed is immediate and deterministic under load"
curl -sS -f -o "$workdir/m2.txt" "$base/metrics"
metric "$workdir/m2.txt" 'roofserve_admission_shed_total{reason="queue_full"}' 1
metric "$workdir/m2.txt" 'roofserve_admission_shed_total{reason="client_quota"}' 0

echo "== drain: the four admitted jobs all finish"
for i in 1 2 3 4; do
  id=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$workdir/fb$i.json")
  [ -n "$id" ] || { echo "submission $i returned no job id:"; cat "$workdir/fb$i.json"; exit 1; }
  state=""
  for _ in $(seq 1 300); do
    state=$(curl -sS -f "$base/v1/jobs/$id" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    case "$state" in done | failed | shed) break ;; esac
    sleep 0.2
  done
  [ "$state" = done ] || { echo "job $id ended in state '$state', want done"; exit 1; }
done

echo "== post-drain /metrics reconciles with the flood"
curl -sS -f -o "$workdir/m3.txt" "$base/metrics"
metric "$workdir/m3.txt" 'roofserve_admission_granted_total' 4
metric "$workdir/m3.txt" 'roofserve_admission_shed_total{reason="queue_full"}' 1
metric "$workdir/m3.txt" 'roofserve_admission_queue_depth' 0
metric "$workdir/m3.txt" 'roofserve_jobs{state="done"}' 4
metric "$workdir/m3.txt" 'roofserve_jobs{state="shed"}' 1
metric "$workdir/m3.txt" 'roofserve_jobs{state="running"}' 0

echo "== graceful shutdown (admission-limited daemon)"
kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=""

echo "serve-smoke: OK"
