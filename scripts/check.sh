#!/usr/bin/env sh
# check.sh — the repo's `make check`: formatting, vet, build, the full test
# suite (plus the nested bench/ module's vet and one run of each example),
# the four grep gates (one NN compute path, one retry protocol with host
# stalls as stall runs, bus lane, hot-path boxing), a gate that
# docs/PERFORMANCE.md carries its perf-PR table between its two markers and
# no per-PR log section, the race detector on the
# concurrency-heavy packages, a gate that each binary rejects a value no run
# can honour before running, the allocation guards (what a steady state may
# allocate, how wide the FTL tables and the per-vSSD measurement state are,
# what a rack device costs in bytes, that a synthesized replay trace is
# drawn, not stored) at several core counts, worker-count
# identity gates on the scenario figures (the rack figures at -parallel 1, 2
# and 4: two workers is the benchmark's count, where shards are stolen on a
# two-core host), the paper's claims over eight seeds (and that
# EXPERIMENTS.md carries their table as printed), and benchmark
# smoke/allocation gates. What each scenario must show (completed
# migrations, promotes and demotes, typed traffic, …) is a row of harness's
# claims table that harness.TestScenarios judges on the runs it renders. So is the internal-API gate: the root package's
# TestInternalAPISizedToCallers type-checks the tree and fails on an
# exported internal/ name (func, method, type, const, var or struct field)
# that no other package needs unless testdata/api_allowlist.txt names it
# (a field counts other packages' tests as users), and on an
# allowlist line that names nothing; TestObsExportsDocumented, beside it,
# fails on an exported internal/obs name without a doc comment;
# TestOneDeviceStack fails on a non-test use of vssd.NewPlatform outside
# device.New or of workload.NewGenerator outside internal/device, resolved
# by the type checker, so an import alias or a function value is caught;
# and TestNoWriteOnlyFields, on the same tree with the in-package tests,
# fails on a struct field under internal/ that no code reads (DESIGN.md
# decision 17). All four run inside `go test ./...`, so they have no leg here. Shrink the allowlist by
# giving a name a caller or removing it; never grow it to make a change
# pass. Performance is measured by bench/run.sh, not here.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== no tracked file over 1 MB"
# Build outputs belong in .gitignore, not in history (a 10.9 MB fleetbench
# ELF once rode in at the repo root).
big=$(git ls-files -z | xargs -0 du -k | awk '$1 > 1024')
if [ -n "$big" ]; then
    echo "tracked files over 1 MB (size in KB):" >&2
    echo "$big" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go vet bench/ (the exported surface the benchmark compiles against)"
# bench/ is its own module, outside ./...; the benchmark pipeline builds it
# with -mod=readonly, so a rename of anything on bench/README.md's
# "Exported surface" list must fail here first.
(cd bench && GOFLAGS=-mod=readonly GOWORK=off go vet .)

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== examples smoke (each runs once)"
for ex in examples/*/; do
    go run "./$ex" > /dev/null
done

echo "== one NN compute path"
# The row-major kernels (ForwardBatch/BackwardBatch, with b = 1 for a single
# state) are the only network code that ships; the per-state scalar network
# and the per-sample PPO update they replaced are test-only oracles. A
# scalar forward/backward or a switch selecting one in production code is a
# second path — and, at 5.7-6.6 us against 1.6-1.8 us per state, the slow
# one.
if grep -nE 'ScalarKernels|func \((ac \*ActorCritic|l \*Linear)\) (Forward|Backward)\(' \
    internal/nn/*.go internal/rl/*.go internal/core/*.go internal/baseline/*.go | grep -v _test.go; then
    echo "run one state through ForwardBatch(x, 1); the scalar reference lives in oracle_test.go" >&2
    exit 1
fi

echo "== one retry protocol"
# Every allocation-stall backoff — the host write's in vssd, the GC
# migration's and its program-fail retry's in ftl — waits ftl's retryDelay on
# the manager's lane (Manager.ScheduleRetry). A 1 ms event put on the heap
# beside it is a second protocol, and at storm depth it is the sift cost
# the lane exists to avoid. Host pages stall in one place, VSSD.stall, which
# folds a request's pages that stalled back to back into one lane entry (a
# stall run); a poll that finds the tenant's failure memo holding re-stalls
# its whole run through VSSD.stall too. A 1 ms retry a page scheduled
# anywhere else in vssd is a second protocol, and on a full device it is
# ~20x the events.
if grep -n 'ScheduleEvent(sim\.Millisecond' internal/ftl/*.go internal/vssd/*.go | grep -v _test.go; then
    echo "1 ms retry scheduled on the heap; use ftl.Manager.ScheduleRetry" >&2
    exit 1
fi
if awk 'FNR == 1 { fn = "" } /^func / { fn = $0 }
    /ScheduleRetry\(/ && fn !~ /^func \(v \*VSSD\) stall\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0; bad = 1 }
    END { exit !bad }' $(ls internal/vssd/*.go | grep -v _test.go); then
    echo "host page retry scheduled outside VSSD.stall; stall pages through it so they wait as runs" >&2
    exit 1
fi

echo "== bus transfers on the lane"
# Every bus transfer ends one constant (the page transfer time) after its
# grant, so its opBusDone waits on the device's sim.Lane. The same event put
# on the heap fires at the same (time, seq) but pays the sift that half of
# all flash events no longer pay.
if grep -n 'AtEvent(.*opBusDone' internal/flash/*.go | grep -v _test.go; then
    echo "opBusDone scheduled on the heap; bus transfers wait on the device's lane (Device.bus)" >&2
    exit 1
fi

echo "== hot-path boxing gates"
# The per-I/O datapath must stay free of interface boxing: container/heap
# (whose Push/Pop box through interface{}) is banned from the simulator
# core and flash layer (tests may use it as an oracle), and so is any
# non-test interface{}/any-typed field or parameter in flash op structs —
# pointer-shaped Ctx slots are the one sanctioned use, marked in place.
if grep -n '"container/heap"' internal/flash/*.go internal/sim/*.go | grep -v _test.go; then
    echo "container/heap is banned in the flash/sim hot path (typed queues only)" >&2
    exit 1
fi
if grep -n 'interface{}' internal/flash/*.go internal/sim/*.go internal/ftl/*.go internal/vssd/*.go | grep -v _test.go; then
    echo "interface{} found in a hot-path package; use a typed or pointer-shaped any slot" >&2
    exit 1
fi

echo "== docs/PERFORMANCE.md holds no per-PR log"
# PERFORMANCE.md describes the code as it is; what each perf PR measured is
# one row of its perf-PR table (root TestLedger checks the row's ledger
# values against BENCH_fleet.json) and its CHANGES.md entry. A heading that
# names a PR or an issue, or a "Measured, not claimed" log, is a section
# per PR again, which is text to keep true that grows with every change.
if grep -nE '^#+ .*(Measured, not claimed|\((PR|issue) [0-9]+\))' docs/PERFORMANCE.md; then
    echo "docs/PERFORMANCE.md: a per-PR heading; add a row to the perf-PR table and the history to CHANGES.md" >&2
    exit 1
fi
for marker in '^<!-- perf-PR table:' '^<!-- end of perf-PR table -->'; do
    if ! grep -q "$marker" docs/PERFORMANCE.md; then
        echo "docs/PERFORMANCE.md: the perf-PR table marker $marker is missing" >&2
        exit 1
    fi
done

echo "== go test -race (concurrency-heavy packages)"
# Includes the gSB pool's concurrent no-double-grant test, the fleet's
# barrier stress and clean-shutdown tests, and workload's
# TestShapedReplayShareable (two generators replaying one shaped profile at
# once).
go test -race ./internal/trainer/... ./internal/gsb/... ./internal/admission/... ./internal/obs/... ./internal/sim/... ./internal/flash/... ./internal/ftl/... ./internal/fault/... ./internal/fleet/... ./internal/core/... ./internal/trace/... ./internal/workload/... ./internal/nn/... ./internal/rl/...

echo "== go test -race -tags=flashdebug (op pool poison mode)"
# flashdebug poisons every recycled Op on release so a use-after-release
# fails loudly; running the flash suite in this mode under -race is the
# pool-correctness gate.
go test -race -tags=flashdebug ./internal/flash/...

echo "== go test -race (parallel harness)"
# The harness fans experiment runs out over a worker pool; the full
# package under -race is prohibitively slow, so race-check the tests that
# actually exercise concurrent runs: the shared-observer one, the
# hardware-isolation pair (whose split runs fan solo devices out inside a
# grid's own fan-out), the memo tests, and Figures 2, 3 and 10, whose
# scenario entries run as parallel subtests and look up the same cells of
# the process memo at once.
go test -race -run 'TestCompareParallel|TestCompareAll|TestScenarios/^(2|3|10)$|TestMemo|TestOnceMap|TestForEach|TestHardwareIsolation' ./internal/harness/

echo "== allocation guards (-cpu 1,2,4)"
# Every steady-state path that must not allocate — the per-I/O datapath,
# the event engine, batched inference and PPO updates, gSB create/reclaim,
# admission flushes, the fleet epoch loop, workload typing — has an
# AllocsPerRun guard, and harness's one test in the family bounds what a
# whole FleetIO decision window leaves behind. What a device is built from
# is guarded with them: ftl's TestTableWidths (a 4-byte L2P entry, a 64-byte
# block record), TestMeasurementWidths in metrics and vssd (how wide the
# per-vSSD measurement state is: a sparse histogram of at most 12 octaves, a
# window snapshot of counters only), fleet's TestRackBytesPerDevice (New +
# Run of a small rack, bytes per device), workload's
# TestSynthesizedReplayTableWidths (a synthesized replay stores no records,
# and a YCSB replay that wraps its 20 000-record trace within
# replay_overload's length allocates under 160 KB while it runs), trace's
# TestRecordTableWidths (a trace.Record is 24 bytes) and
# TestRecorderFillZeroAlloc (a trace recorder filled past its bound
# allocates its 1 024-record chunks once each, never a growth copy, at most
# 24 bytes a record plus 4 KB, and nothing once full).
# Run the family at several GOMAXPROCS so a guard that only holds on one core
# count fails here, not intermittently in tier-1.
go test -run 'ZeroAlloc|SteadyStateAllocs|TableWidths|MeasurementWidths|RackBytesPerDevice' -count=1 -cpu 1,2,4 \
    ./internal/sim/ ./internal/flash/ ./internal/ftl/ ./internal/nn/ ./internal/rl/ ./internal/gsb/ ./internal/admission/ ./internal/fleet/ \
    ./internal/trace/ ./internal/cluster/ ./internal/harness/ ./internal/metrics/ ./internal/vssd/ ./internal/workload/

echo "== unrunnable values exit 1 before any run"
# A positive duration under 1 ns converts to zero virtual time. Each binary
# must reject it in main, where Options.Validate or PretrainConfig.Validate
# names the flag: exit 1 with that one line on stderr, nothing on stdout
# and no model written. The unit tables call the resolve functions; only
# this leg runs main's own path.
go build -o "$tmp/fleetsim" ./cmd/fleetsim
go build -o "$tmp/fleetbench" ./cmd/fleetbench
go build -o "$tmp/fleettrain" ./cmd/fleettrain
reject_gate() {
    flag=$1
    shift
    status=0
    "$@" > "$tmp/reject.out" 2> "$tmp/reject.err" || status=$?
    if [ "$status" -ne 1 ] || [ -s "$tmp/reject.out" ] || [ "$(wc -l < "$tmp/reject.err")" -ne 1 ] ||
        ! grep -q -e "$flag" "$tmp/reject.err"; then
        echo "$* exited $status; want 1 with one line naming $flag on stderr and no output. stderr:" >&2
        cat "$tmp/reject.err" >&2
        exit 1
    fi
}
reject_gate -seconds "$tmp/fleetsim" -fleet 4 -seconds 1e-10
reject_gate -seconds "$tmp/fleetsim" -mix YCSB,TeraSort -policy hardware -seconds 1e-10
reject_gate -seconds "$tmp/fleetbench" -fig 2 -seconds 1e-10
reject_gate -episode-seconds "$tmp/fleettrain" -episode-seconds 1e-10 -out "$tmp/model.gob"
if [ -e "$tmp/model.gob" ]; then
    echo "fleettrain -episode-seconds 1e-10 wrote a model" >&2
    exit 1
fi

echo "== scenario identity gates (same seed, -parallel 1 vs 4; racks also vs 2)"
# Every scenario draws only from seeded streams on single-threaded engines
# (the rack scenarios advance shards concurrently between epoch barriers,
# each worker stealing shards from the others' ranges once its own is
# done), so its figure must be byte-identical at any worker count. The
# rack figures are also compared at -parallel 2, the benchmark's worker
# count.
identity_gate() {
    fig=$1
    shift
    for par in $parallel; do
        "$tmp/fleetbench" -fig "$fig" "$@" -parallel "$par" > "$tmp/$fig.$par" 2> /dev/null
        if ! cmp -s "$tmp/$fig.1" "$tmp/$fig.$par"; then
            echo "-fig $fig output differs between -parallel 1 and -parallel $par:" >&2
            diff "$tmp/$fig.1" "$tmp/$fig.$par" >&2 || true
            exit 1
        fi
    done
}
parallel="1 4"
identity_gate faults -seconds 2 -warmup 1
parallel="1 2 4"
identity_gate fleet -fleet 64 -seconds 2
# A rack reads the device flags: every shard injects faults from its own
# stream and every tenant draws its own shape.
identity_gate fleet -fleet 16 -seconds 2 -faults light -workload bursty
# By 4 s every rack config has completed a migration, so a destination
# shard restarts a synthesized replay trace from its seed.
identity_gate fleet -fleet 16 -seconds 4 -workload replay
identity_gate tiers -fleet 8 -seconds 4
# A hybrid rack with one fast device (fleet's split: 1 fast, 4 dense).
identity_gate tiers -fleet 5 -seconds 2
parallel="1 4"
# The workloads ladder replays the checked-in sample CSV, converted to the
# binary trace format on the way.
go run ./cmd/fleettrace convert -in internal/trace/testdata/sample_msr.csv -format msr -out "$tmp/sample.bin"
identity_gate workloads -trace "$tmp/sample.bin" -seconds 2 -warmup 1

echo "== paper claims (EXPERIMENTS.md's budget, seeds 1-8)"
# The paper rows of harness's claims table, judged over eight seeds: the
# table EXPERIMENTS.md carries. A row that does not hold fails here unless
# it is marked diverges with the ROADMAP item that explains it; a new
# failure gets that mark, never a looser band.
"$tmp/fleetbench" -fig claims > "$tmp/claims" 2> /dev/null
if grep '| FAILS' "$tmp/claims"; then
    echo "a paper claim does not hold (fleetbench -fig claims)" >&2
    exit 1
fi
# EXPERIMENTS.md carries the table between its two claims-table comments; a
# value or verdict that moved fails here until the table is pasted again.
sed -n '/^|/p' "$tmp/claims" > "$tmp/claims.table"
sed -n '/^<!-- claims table:/,/^<!-- end of claims table -->/{/^|/p;}' EXPERIMENTS.md > "$tmp/claims.doc"
if ! diff "$tmp/claims.doc" "$tmp/claims.table" >&2; then
    echo "EXPERIMENTS.md's claims table differs from fleetbench -fig claims (< EXPERIMENTS.md, > fleetbench)" >&2
    exit 1
fi

echo "== benchmark smoke (one iteration each)"
# Catches benchmarks that no longer compile or crash (the root package's
# BenchmarkScenarios renders every scenario once); timing numbers come from
# bench/run.sh, not from this pass.
go test -run=NONE -bench=. -benchtime=1x ./... > /dev/null

echo "== steady-state benchmark allocs/op == 0"
# Batched inference, the vectorized PPO update and the device datapath run
# for the lifetime of a deployment; their benchmarks warm all scratch
# before ResetTimer, so any reported allocation is a genuine regression.
allocbench=$(go test -run=NONE -benchmem -benchtime=100x \
    -bench='^Benchmark(ForwardBatch|TrainBatch|SaturatedChannel|MixedDevice)$' \
    ./internal/nn/ ./internal/rl/ ./internal/flash/ | grep '^Benchmark')
echo "$allocbench"
if ! echo "$allocbench" | awk '{ for (i = 3; i <= NF; i++) if ($i == "allocs/op" && $(i-1) + 0 > 0) exit 1 }'; then
    echo "a steady-state benchmark allocates; these paths must be allocation-free" >&2
    exit 1
fi

echo "check.sh: all green"
