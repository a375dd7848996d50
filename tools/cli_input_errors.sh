#!/usr/bin/env bash
# Bad run inputs exit 2 with "error: FILE: ..." instead of reaching a
# simulation invariant: radar-sim with a request trace that names an
# object beyond --objects or a node that is no gateway, and with a fault
# plan that names a host or a link the backbone lacks; a bench binary
# (availability, on the UUNET backbone) with the same two plans. A bench
# that runs no faults (fig6_performance) exits 2 on either fault flag
# instead of printing a perfect-world artefact.
#
#   tools/cli_input_errors.sh RADAR_SIM AVAILABILITY_BENCH FIG6_BENCH
set -euo pipefail

sim=$1
bench=$2
fig6=$3
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

printf '0 0 999999\n' > object.trace
printf '0 99 1\n' > gateway.trace
printf 'crash 999 20\n' > crash.plan
printf 'link-down 0 52 30\n' > link.plan

failures=0
# expect WANT_STDERR COMMAND...: the command must exit 2 and print exactly
# WANT_STDERR on stderr.
expect() {
  local want=$1
  shift
  local status=0
  "$@" > /dev/null 2> stderr.txt || status=$?
  if [[ $status -ne 2 || "$(cat stderr.txt)" != "$want" ]]; then
    echo "FAIL: $* exited $status with stderr:" >&2
    cat stderr.txt >&2
    echo "  want exit 2 and: $want" >&2
    failures=$((failures + 1))
  fi
}

expect "error: object.trace: request 1 names object 999999, but the run has 100 objects" \
  "$sim" --objects=100 --duration=10 --trace=object.trace
expect "error: gateway.trace: request 1 arrives at node 99, which is not a gateway of the topology" \
  "$sim" --objects=100 --duration=10 --trace=gateway.trace
expect "error: crash.plan: crash 999 20: the topology has no host 999 (53 nodes)" \
  "$sim" --duration=10 --fault-plan=crash.plan
expect "error: link.plan: link-down 0 52 30: the topology has no link 0-52" \
  "$sim" --duration=10 --fault-plan=link.plan
expect "error: crash.plan: crash 999 20: the topology has no host 999 (53 nodes)" \
  env RADAR_BENCH_DURATION=10 "$bench" --fault-plan=crash.plan
expect "error: link.plan: link-down 0 52 30: the topology has no link 0-52" \
  env RADAR_BENCH_DURATION=10 "$bench" --fault-plan link.plan
expect "$fig6: --fault-plan applies only to the availability bench" \
  env RADAR_BENCH_DURATION=10 "$fig6" --fault-plan=crash.plan
expect "$fig6: --replica-floor applies only to the availability bench" \
  env RADAR_BENCH_DURATION=10 "$fig6" --replica-floor=2

if [[ $failures -ne 0 ]]; then
  echo "$failures bad-input check(s) failed" >&2
  exit 1
fi
echo "all bad inputs exit 2 with a message naming the file or flag"
