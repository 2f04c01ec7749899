#!/usr/bin/env bash
# dist-smoke: black-box check of the roofdist coordinator/worker tier
# over real HTTP.
#
# Starts two roofworkerd daemons and a roofserved coordinator wired to
# them, then asserts the distributed contract end to end:
#   1. a chained TRIAD-levels campaign run through the coordinator
#      renders a summary bit-identical to the same campaign run
#      in-process by RunPlan,
#   2. the coordinator actually dispatched (roofdist_nodes_dispatched_total
#      > 0, zero local fallbacks) and both workers enrolled live,
#   3. with a slow campaign in flight, SIGKILL-ing the worker that is
#      running a node forces a requeue: the job still completes, the
#      requeue and worker-error counters tick on the coordinator's
#      /metrics, and the dead worker shows up in roofdist_workers.
# The in-process variant of the byte-identity and failure-path claims
# lives in internal/dist's -race tests; this script proves them across
# process boundaries and real TCP sockets.
# Run from the repository root: ./scripts/dist-smoke.sh
set -euo pipefail

workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  for pid in "${pids[@]}"; do
    wait "$pid" 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/roofserved" ./cmd/roofserved
go build -o "$workdir/roofworkerd" ./cmd/roofworkerd
go build -o "$workdir/rooftool" ./cmd/rooftool

# start_proc <banner> <logname> <var> <cmd...>: launch a daemon, wait for
# its "<banner> listening on http://host:port" line, record the pid and
# assign the base URL to <var>.
start_proc() {
  banner=$1 logname=$2 var=$3
  shift 3
  "$@" >"$workdir/$logname.out" 2>"$workdir/$logname.err" &
  pid=$!
  pids+=("$pid")
  url=""
  for _ in $(seq 1 50); do
    url=$(sed -n "s/^$banner listening on \(http:\/\/.*\)$/\1/p" "$workdir/$logname.out")
    [ -n "$url" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "$logname died:"; cat "$workdir/$logname.err"; exit 1; }
    sleep 0.1
  done
  [ -n "$url" ] || { echo "$logname never reported its address"; cat "$workdir/$logname.err"; exit 1; }
  printf -v "$var" '%s' "$url"
  printf -v "${var}_pid" '%s' "$pid"
  echo "$logname at $url (pid $pid)"
}

echo "== start two workers + coordinator"
start_proc roofworkerd worker1 w1 "$workdir/roofworkerd" -addr 127.0.0.1:0 -name worker1 -parallelism 2
start_proc roofworkerd worker2 w2 "$workdir/roofworkerd" -addr 127.0.0.1:0 -name worker2 -parallelism 2
start_proc roofserved coord base "$workdir/roofserved" -addr 127.0.0.1:0 \
  -workers "$w1,$w2" -worker-heartbeat 100ms -worker-lease 30s

# metric <file> <sample> <want>: assert one exact sample value in a scrape.
metric() {
  got=$(grep -v '^#' "$1" | grep -F "$2 " | awk '{print $2}')
  [ "$got" = "$3" ] \
    || { echo "metric $2 = '$got', want '$3'"; cat "$1"; exit 1; }
}
# metric_ge <file> <sample> <min>: assert a sample is at least <min>.
metric_ge() {
  got=$(grep -v '^#' "$1" | grep -F "$2 " | awk '{print $2}')
  [ -n "$got" ] && awk -v g="$got" -v m="$3" 'BEGIN { exit !(g+0 >= m+0) }' \
    || { echo "metric $2 = '$got', want >= $3"; cat "$1"; exit 1; }
}

echo "== both workers enroll live"
live=""
for _ in $(seq 1 50); do
  curl -sS -f -o "$workdir/m0.txt" "$base/metrics"
  live=$(grep -v '^#' "$workdir/m0.txt" | grep -F 'roofdist_workers{state="live"} ' | awk '{print $2}')
  [ "$live" = 2 ] && break
  sleep 0.1
done
[ "$live" = 2 ] || { echo "workers never enrolled: live=$live"; cat "$workdir/m0.txt"; exit 1; }

echo "== chained TRIAD-levels campaign: coordinator summary == in-process summary"
"$workdir/rooftool" -remote "$base" -system "Gold 6148" -workloads dgemm,triad \
  -triad-levels L2,L3,DRAM -chain -format summary >"$workdir/remote.txt" 2>/dev/null
"$workdir/rooftool" -system "Gold 6148" -workloads dgemm,triad \
  -triad-levels L2,L3,DRAM -chain -format summary >"$workdir/local.txt"
cmp "$workdir/remote.txt" "$workdir/local.txt" \
  || { echo "distributed summary differs from in-process summary"; diff "$workdir/remote.txt" "$workdir/local.txt" || true; exit 1; }

echo "== coordinator dispatched every node remotely (no local fallback)"
curl -sS -f -o "$workdir/m1.txt" "$base/metrics"
metric_ge "$workdir/m1.txt" 'roofdist_nodes_dispatched_total' 4
metric "$workdir/m1.txt" 'roofdist_local_fallback_total' 0

echo "== workers actually ran nodes"
curl -sS -f -o "$workdir/wm1.txt" "$w1/metrics"
curl -sS -f -o "$workdir/wm2.txt" "$w2/metrics"
n1=$(grep -v '^#' "$workdir/wm1.txt" | grep -F 'roofdist_worker_nodes_total ' | awk '{print $2}')
n2=$(grep -v '^#' "$workdir/wm2.txt" | grep -F 'roofdist_worker_nodes_total ' | awk '{print $2}')
total=$((n1 + n2))
[ "$total" -ge 4 ] || { echo "workers ran $n1 + $n2 nodes, want >= 4"; exit 1; }
echo "worker1 ran $n1 node(s), worker2 ran $n2"

# A deliberately slow chained campaign (serial sweeps, high iteration
# floor, all early-exit bounds disabled) so a worker can be killed while
# a node is demonstrably in flight.
cat >"$workdir/slow.json" <<'EOF'
{"system": "Gold 6148", "workloads": ["triad"], "seed": 7,
 "triadLevels": ["L2", "L3", "DRAM"], "chain": true, "serial": true,
 "budget": {"maxIterations": 20000, "minCount": 20000, "invocations": 9,
            "confidence": false, "innerBound": false, "outerBound": false}}
EOF

echo "== submit slow campaign, SIGKILL whichever worker is mid-node"
code=$(curl -sS -D "$workdir/jh" -o "$workdir/jb.json" -w '%{http_code}' \
  -H 'Content-Type: application/json' -d @"$workdir/slow.json" "$base/v1/jobs")
[ "$code" = 202 ] || { echo "job not accepted (HTTP $code)"; cat "$workdir/jb.json"; exit 1; }
id=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$workdir/jb.json")
[ -n "$id" ] || { echo "submission returned no job id:"; cat "$workdir/jb.json"; exit 1; }

killed=""
for _ in $(seq 1 100); do
  for w in 1 2; do
    url_var="w$w" pid_var="w${w}_pid"
    running=$(curl -sS "${!url_var}/dist/v1/healthz" 2>/dev/null \
      | sed -n 's/.*"running":\([0-9]*\).*/\1/p')
    if [ -n "$running" ] && [ "$running" -gt 0 ]; then
      echo "worker$w is running $running node(s) -> SIGKILL pid ${!pid_var}"
      kill -KILL "${!pid_var}"
      killed=$w
      break 2
    fi
  done
  sleep 0.05
done
[ -n "$killed" ] || { echo "never caught a worker mid-node"; exit 1; }

echo "== the job still completes on the surviving worker"
state=""
for _ in $(seq 1 300); do
  state=$(curl -sS -f "$base/v1/jobs/$id" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
  case "$state" in done | failed | shed) break ;; esac
  sleep 0.2
done
[ "$state" = done ] || { echo "job $id ended in state '$state', want done"; exit 1; }

echo "== requeue and failure counters ticked on the coordinator"
curl -sS -f -o "$workdir/m2.txt" "$base/metrics"
metric_ge "$workdir/m2.txt" 'roofdist_nodes_requeued_total' 1
metric_ge "$workdir/m2.txt" 'roofdist_worker_errors_total' 1
metric "$workdir/m2.txt" 'roofdist_local_fallback_total' 0

echo "== the killed worker is marked dead by the heartbeat"
dead=""
for _ in $(seq 1 50); do
  curl -sS -f -o "$workdir/m3.txt" "$base/metrics"
  dead=$(grep -v '^#' "$workdir/m3.txt" | grep -F 'roofdist_workers{state="dead"} ' | awk '{print $2}')
  [ "$dead" = 1 ] && break
  sleep 0.1
done
[ "$dead" = 1 ] || { echo "killed worker never marked dead: dead=$dead"; cat "$workdir/m3.txt"; exit 1; }

echo "== graceful shutdown"
kill -TERM "${pids[@]}" 2>/dev/null || true
for pid in "${pids[@]}"; do
  wait "$pid" 2>/dev/null || true
done
pids=()

echo "dist-smoke: OK"
