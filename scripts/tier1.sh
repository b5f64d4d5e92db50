#!/usr/bin/env sh
# tier1.sh — time tier-1 once and print its ledger record on stdout: one
# JSON line with the wall time of `go test -count=1 ./...` (total_s), each
# package's elapsed time as `go test -json` reports it, whether every
# package passed, when the run started, and the stamp fields
# `bench -report` writes (cpu, nproc, gomaxprocs, go, commit). It measures
# the module it sits in. Append the record to BENCH_fleet.json as a point
# with scripts/ledger.sh:
#
#	sh scripts/tier1.sh | sh scripts/ledger.sh PR change
set -eu

cd "$(dirname "$0")/.."

events=$(mktemp)
trap 'rm -f "$events"' EXIT

cpu=$(awk -F: '/^model name/ { sub(/^[ \t]+/, "", $2); print $2; exit }' /proc/cpuinfo 2> /dev/null)
commit=$(git describe --always --dirty 2> /dev/null || echo unknown)
started=$(date -u +%Y-%m-%dT%H:%M:%SZ)
t0=$(date +%s.%N)
passed=true
go test -count=1 -json ./... > "$events" || passed=false
t1=$(date +%s.%N)

# A package's own pass/fail/skip event has no "Test" field and carries
# the package's elapsed seconds.
packages=$(grep -E '"Action":"(pass|fail|skip)"' "$events" | grep -v '"Test":' |
    sed -E 's/.*"Package":"([^"]*)".*"Elapsed":([0-9.]+).*/"\1":\2/' | paste -sd, -)

printf '{"workload":"tier1","stamp":{"cpu":"%s","nproc":%d,"gomaxprocs":%d,"go":"%s","commit":"%s"},"started":"%s","passed":%s,"total_s":%s,"packages":{%s}}\n' \
    "${cpu:-unknown}" "$(nproc)" "${GOMAXPROCS:-$(nproc)}" "$(go env GOVERSION)" "$commit" \
    "$started" "$passed" "$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.2f", b - a }')" "$packages"
