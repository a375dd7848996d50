#!/usr/bin/env bash
# Loopback smoke test for real-system mode (DESIGN.md §16).
#
# Boots the full networked stack on 127.0.0.1 — one radar-redirectd and
# three radar-hostd — drives a scripted workload through radar-workctl,
# SIGKILLs one host mid-run, restarts it, and then checks the two oracles
# the issue pins down:
#
#   1. Conservation: after the kill/restart cycle the redirector's
#      radar.realmode/1 summary reports objects_lost == 0 (the restarted
#      host rebuilt its replica set from the WAL and re-announced it).
#   2. Replay determinism: radar-replay over the captured binlog emits
#      byte-identical radar.report/1 JSON across two invocations (cmp).
#
# Before booting anything it also checks that every tool refuses
# malformed numeric flags with exit status 2, and at boot and after the
# restart it waits until every pair of hosts has identified each other.
#
# Usage: tools/loopback_smoke.sh <build-bin-dir> [work-dir]
#   <build-bin-dir>  directory holding radar-hostd, radar-redirectd,
#                    radar-workctl, radar-replay (e.g. build/tools)
#   [work-dir]       scratch directory (default: a fresh mktemp -d)
#
# Exit 0 iff every oracle holds. Designed to run under ctest and as a CI
# leg; everything it starts is reaped on exit.
set -u

BIN="${1:?usage: loopback_smoke.sh <build-bin-dir> [work-dir]}"
BIN="$(cd "${BIN}" 2>/dev/null && pwd)" \
  || { echo "loopback_smoke: FAIL: bad bin dir '$1'" >&2; exit 1; }
WORK="${2:-$(mktemp -d /tmp/radar_smoke.XXXXXX)}"
mkdir -p "${WORK}"
cd "${WORK}"

# Derive the port base from our PID: back-to-back runs on fixed ports
# trip over the previous run's TIME-WAIT tuples (the kernel hands dialers
# the same ephemeral ports for the same destination, and a SYN landing on
# a TIME-WAIT tuple can be swallowed), which shows up as hosts that take
# tens of seconds to reach the redirector.
PORT_BASE="${RADAR_SMOKE_PORT_BASE:-$((20000 + $$ % 10000))}"
NUM_OBJECTS=12
PIDS=()

fail() {
  echo "loopback_smoke: FAIL: $*" >&2
  exit 1
}

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    [ -n "${pid}" ] && kill -9 "${pid}" 2>/dev/null
  done
  wait 2>/dev/null
}
trap cleanup EXIT

for tool in radar-redirectd radar-hostd radar-workctl radar-replay; do
  [ -x "${BIN}/${tool}" ] || fail "missing binary ${BIN}/${tool}"
done

# --- static platform: 1 redirector, 3 hosts, 1 client (port 0: dials only)
cat > nodes.conf <<EOF
0 redirector 127.0.0.1 $((PORT_BASE + 0))
1 host       127.0.0.1 $((PORT_BASE + 1))
2 host       127.0.0.1 $((PORT_BASE + 2))
3 host       127.0.0.1 $((PORT_BASE + 3))
4 client     127.0.0.1 0
EOF

mkdir -p state spool

# --- malformed numeric flags: each tool refuses them at start-up (exit 2,
# "bad value") before it binds or dials anything. The timeout turns a tool
# that boots anyway into a failure instead of a hang.
while IFS= read -r invocation; do
  # shellcheck disable=SC2086  # the argument list is split on purpose
  timeout 10 "${BIN}"/${invocation} >bad_flag.log 2>&1
  rc=$?
  { [ "${rc}" -eq 2 ] && grep -q "bad value" bad_flag.log; } \
    || fail "'${invocation}' exited ${rc}, want 2: $(cat bad_flag.log)"
done <<'BAD'
radar-workctl --config nodes.conf --id 4 run --requests abc --objects 10
radar-workctl --config nodes.conf --id 4 run --requests -4 --objects 10
radar-workctl --config nodes.conf --id 4 run --requests 0 --objects 10
radar-workctl --config nodes.conf --id 4 shutdown --target 1x
radar-workctl --config nodes.conf --id 4 run --requests 10 --objects 9999999999
radar-redirectd --config nodes.conf --num-objects -7
radar-hostd --config nodes.conf --id 1 --num-objects 12x
radar-hostd --config nodes.conf --id -1
radar-replay --config nodes.conf --capture capture.binlog --out r.json --num-objects -1
BAD

start_hostd() {
  # RADAR_DEBUG=1: the connection trace in hostd-<id>.log shows which
  # peers each host identified.
  RADAR_DEBUG=1 "${BIN}/radar-hostd" --config nodes.conf --id "$1" \
    --num-objects "${NUM_OBJECTS}" --state-dir state --spool-dir spool \
    --summary "hostd-$1.json" >"hostd-$1.log" 2>&1 &
  HOSTD_PID=$!
  PIDS+=("${HOSTD_PID}")
}

"${BIN}/radar-redirectd" --config nodes.conf --num-objects "${NUM_OBJECTS}" \
  --spool-dir spool --capture capture.binlog --summary redirectd.json \
  >redirectd.log 2>&1 &
PIDS+=($!)

start_hostd 1
start_hostd 2; HOST2_PID="${HOSTD_PID}"
start_hostd 3

run_load() {
  # $1: requests  $2: log suffix — exit status collected by the caller.
  "${BIN}/radar-workctl" --config nodes.conf --id 4 run \
    --requests "$1" --objects "${NUM_OBJECTS}" >"workctl-$2.json" 2>&1
}

# Hostd writes state/ready-<id> once the redirector has identified it.
# Waiting on the markers (instead of sleeping) removes the platform
# assembly race: on a loaded box the redirector can bind late, boot-time
# dials get refused, and a host may ride the reconnect backoff for a
# while — killing it before it ever attached would test nothing.
wait_ready() {
  for _ in $(seq 1 300); do
    local missing=0
    for id in "$@"; do [ -f "state/ready-${id}" ] || missing=1; done
    [ "${missing}" -eq 0 ] && return 0
    sleep 0.1
  done
  fail "hosts $* never attached to the redirector (ready markers missing)"
}

# Hosts dial each other (the lower id dials), so every host must identify
# every other one — the path a placement round's CreateObj takes.
wait_hosts_paired() {
  for _ in $(seq 1 300); do
    local missing=""
    for a in 1 2 3; do
      for b in 1 2 3; do
        [ "${a}" = "${b}" ] && continue
        grep -q "identify fd=[0-9]* peer=${b} " "hostd-${a}.log" \
          || missing="${missing} ${a}->${b}"
      done
    done
    [ -z "${missing}" ] && return 0
    sleep 0.1
  done
  fail "hosts never identified each other:${missing}"
}

# Phase 1: everyone up — every request must find a live replica. workctl
# retries its first dial until the daemons finish binding, so no sleep
# race here; give it one respawn for slow CI machines anyway.
wait_ready 1 2 3
wait_hosts_paired
run_load 36 up || { sleep 1; run_load 36 up2; } \
  || fail "baseline workload had failures ($(cat workctl-up*.json))"

# Phase 2: SIGKILL host 2 (no shutdown frame, no summary — a crash). Its
# 4 round-robin objects go dark: once the redirector's poll loop sees the
# disconnect it answers no_replica for them; requests racing the prune
# are redirected to the dead host and fail at fetch instead. Either way
# the leg must NOT fully succeed (exit status itself is ignored).
kill -9 "${HOST2_PID}" 2>/dev/null || fail "could not kill host 2"
wait "${HOST2_PID}" 2>/dev/null
sleep 1  # let the redirector observe the disconnect and prune
run_load 24 down
[ -s workctl-down.json ] || fail "workctl wrote no summary while host 2 down"
grep -q '"ok":24' workctl-down.json \
  && fail "workload fully succeeded while host 2 was down"

# Phase 3: restart host 2. It replays its WAL, re-announces its replica
# set, and the redirector drains whatever it spooled for the dead peer —
# after which the full workload must succeed again.
rm -f state/ready-2
start_hostd 2
wait_ready 2
wait_hosts_paired
run_load 36 restored || { sleep 1; run_load 36 restored2; } \
  || fail "post-restart workload had failures ($(cat workctl-restored*.json))"

# Phase 4: orderly shutdown — redirector FIRST. It prunes replicas when a
# host disconnects, so its exit summary only reflects the live platform if
# it is the first to go.
for target in 0 1 2 3; do
  "${BIN}/radar-workctl" --config nodes.conf --id 4 shutdown \
    --target "${target}" >/dev/null 2>&1 \
    || fail "shutdown of node ${target} failed"
done
wait 2>/dev/null
PIDS=()

# --- oracle 1: conservation across the crash/restart cycle
[ -f redirectd.json ] || fail "redirector never wrote its summary"
grep -q '"objects_lost":0' redirectd.json \
  || fail "objects_lost != 0: $(cat redirectd.json)"
grep -q "\"replicas_total\":${NUM_OBJECTS}" redirectd.json \
  || fail "replicas_total != ${NUM_OBJECTS}: $(cat redirectd.json)"
grep -q '"announces_restored":0' redirectd.json \
  && fail "expected announces_restored > 0 after the restart"

# --- oracle 2: replay determinism (capture -> sim is a pure function)
[ -s capture.binlog ] || fail "capture binlog is empty"
"${BIN}/radar-replay" --config nodes.conf --capture capture.binlog \
  --out replay1.json || fail "radar-replay run 1 failed"
"${BIN}/radar-replay" --config nodes.conf --capture capture.binlog \
  --out replay2.json || fail "radar-replay run 2 failed"
cmp replay1.json replay2.json || fail "replay JSON not byte-identical"
grep -q '"schema": "radar.report/1"' replay1.json \
  || fail "replay output is not a radar.report/1 document"

echo "loopback_smoke: PASS (objects_lost=0, replay byte-identical," \
  "work dir ${WORK})"
