#!/usr/bin/env bash
# ab.sh — decide a host claim by alternated pairs: run the benchmark's
# WORKLOAD PAIRS times at each of two commits, in turns, and compare.
#
#	scripts/ab.sh PARENT CHANGE WORKLOAD PAIRS [PR]
#
# Each commit is checked out once into a temporary clone and its `bench`
# built there once, with bench/run.sh's flags. Pair k runs both builds
# back to back: odd pairs parent first, even pairs change first, so drift
# of the machine over the session lands on both sides. Every record goes to
# the ledger through scripts/ledger.sh, with its pair index and order, when
# PR is given (without it nothing is recorded); the pairs are numbered on
# from the last pair the ledger holds for PR on WORKLOAD. Each pair prints
# its wall_s_per_vsec on both sides; at the end it prints `bench -compare`
# over all the pairs, and TestLedger logs the spread rule's verdict from
# the ledger points.
#
# SEED (default 1) is passed to every run as -seed.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: ab.sh PARENT CHANGE WORKLOAD PAIRS [PR]" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 pr=${5:-}
seed=${SEED:-1}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
export GOCACHE="$tmp/gocache" GOMODCACHE="$tmp/gomod" GOPATH="$tmp/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off

# The ledger's last pair for PR on WORKLOAD; 0 when it holds none.
last=0
if [ -n "$pr" ]; then
    last=$(grep -o "\"pr\": $pr, \"role\": \"[a-z]*\", \"pair\": [0-9]*, \"order\": \"[a-z-]*\", \"report\": {\"workload\":\"$workload\"" \
        "$root/BENCH_fleet.json" | sed -E 's/.*"pair": ([0-9]+).*/\1/' | sort -n | tail -n 1 || true)
    last=${last:-0}
fi

for role in parent change; do
    commit=${!role}
    git clone -q --no-checkout "$root" "$tmp/$role"
    git -C "$tmp/$role" checkout -q "$commit"
    (cd "$tmp/$role/bench" && go build -buildvcs=false -o "$tmp/$role.bench" .)
done

wall() { # record
    grep -o '"wall_s_per_vsec":{"value":[0-9.e+-]*' "$1" | sed 's/.*://'
}

run() { # role pair order
    local role=$1 rec="$tmp/$1-$2.jsonl"
    "$tmp/$role.bench" -spec "$tmp/$role/BENCHMARK.json" -report "$rec" \
        --workload "$workload" --seed "$seed" > /dev/null 2>&1
    cat "$rec" >> "$tmp/$role.jsonl"
    if [ -n "$pr" ]; then
        sh "$root/scripts/ledger.sh" "$pr" "$role" "$2" "$3" < "$rec"
    fi
}

for k in $(seq $((last + 1)) $((last + pairs))); do
    if [ $((k % 2)) -eq 1 ]; then
        order=parent-first
        run parent "$k" $order
        run change "$k" $order
    else
        order=change-first
        run change "$k" $order
        run parent "$k" $order
    fi
    echo "ab.sh: pair $k ($order): wall_s_per_vsec $(wall "$tmp/parent-$k.jsonl") -> $(wall "$tmp/change-$k.jsonl")"
done

"$tmp/change.bench" -spec "$tmp/change/BENCHMARK.json" -compare "$tmp/parent.jsonl" "$tmp/change.jsonl" || true
