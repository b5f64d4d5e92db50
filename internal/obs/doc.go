// Package obs is FleetIO's observability layer: low-overhead decision
// tracing, time-series telemetry, and live HTTP endpoints. It exists so
// that policy behaviour can be *explained* — which agent harvested which
// gSB, why a tenant's P99 crossed its SLO, how GC pressure tracks
// harvested-block reclamation — instead of inferred from end-of-run
// aggregates.
//
// The package has three independent pieces; each is useful alone:
//
//   - Recorder captures typed decision events (RL actions, admission
//     verdicts, gSB lifecycle, GC victim selection, SLO violations) into
//     per-vSSD ring buffers stamped with virtual time, exportable as
//     JSONL. A nil *Recorder is a valid, disabled recorder: every emit
//     method nil-checks its receiver and returns, so instrumented hot
//     paths pay a single predictable branch when tracing is off.
//   - Registry holds named gauge/counter series with Prometheus-style
//     labels and renders them in the Prometheus text exposition format.
//     Metric values are atomics, so samplers on the simulation goroutine
//     and HTTP scrapes on server goroutines never block each other. A nil
//     *Registry hands out nil *Metric handles whose Set/Add are no-ops.
//   - Sampler runs probe functions on a sim.Engine ticker so per-vSSD
//     bandwidth/IOPS/P99/queue-depth series (and device GC counters) are
//     refreshed on a fixed virtual-time cadence.
//
// Serve exposes a Registry at /metrics plus the net/http/pprof handlers
// at /debug/pprof/ on a real listener; cmd/fleetsim, cmd/fleettrain,
// cmd/fleetbench, and cmd/fleetcluster mount it behind their -http flag.
//
// Invariant is the one vocabulary of what a finished run must satisfy:
// each layer (FTL, gSB, device, fault ledger, rack) returns its
// conservation identities and bounds as rows, and Failing prints the
// rows that do not hold.
//
// Naming follows Prometheus conventions: every series is prefixed
// "fleetio_", units are encoded in the name (_bytes_per_second,
// _seconds, _ratio), and monotone series end in _total. The full metric
// and event taxonomy is documented in docs/OBSERVABILITY.md.
package obs
