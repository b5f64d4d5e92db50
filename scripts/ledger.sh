#!/usr/bin/env sh
# ledger.sh — append records to the ledger, BENCH_fleet.json, as points:
# each line read from stdin (one `bench -report` line, or one
# scripts/tier1.sh record) becomes {"pr": PR, "role": ROLE, "report":
# <the line, unmodified>}. ROLE is parent or change. PAIR and ORDER, which
# scripts/ab.sh passes, add "pair": PAIR (1, 2, ...) and "order": ORDER
# (parent-first or change-first); a point without them is pair 0. The
# root package's TestLedger checks the result.
#
#	bash bench/run.sh -report change.jsonl --workload pair_mixed --seed 1
#	sh scripts/ledger.sh PR change < change.jsonl
set -eu

cd "$(dirname "$0")/.."

if [ $# -ne 2 ] && [ $# -ne 4 ]; then
    echo "usage: ledger.sh PR parent|change [PAIR parent-first|change-first] < records" >&2
    exit 2
fi
pr=$1
role=$2
case $role in
parent | change) ;;
*)
    echo "ledger.sh: role $role: must be parent or change" >&2
    exit 2
    ;;
esac
pair=
if [ $# -eq 4 ]; then
    case $4 in
    parent-first | change-first) ;;
    *)
        echo "ledger.sh: order $4: must be parent-first or change-first" >&2
        exit 2
        ;;
    esac
    pair=$(printf ', "pair": %d, "order": "%s"' "$3" "$4")
fi

# The file ends with the points, one a line, then "  ]" and "}".
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
head -n -2 BENCH_fleet.json > "$tmp"
while IFS= read -r rec; do
    [ -n "$rec" ] || continue
    sed -i '$ s/}$/},/' "$tmp"
    printf '    {"pr": %d, "role": "%s"%s, "report": %s}\n' "$pr" "$role" "$pair" "$rec" >> "$tmp"
done
printf '  ]\n}\n' >> "$tmp"
cp "$tmp" BENCH_fleet.json
