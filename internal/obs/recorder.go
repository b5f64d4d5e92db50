package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// defaultRingSize is the per-vSSD event capacity used when newRecorder is
// given a non-positive limit. At the paper's decision cadence (a handful
// of events per vSSD per window) this holds minutes of history.
const defaultRingSize = 4096

// Recorder captures decision events into per-vSSD ring buffers. It is
// safe for concurrent use: rings are created lazily under a read-write
// lock and each ring appends under its own mutex, so emitters for
// different vSSDs do not contend. A nil *Recorder is the disabled
// recorder — every method returns immediately after one nil check, which
// is the entire overhead instrumented code pays when tracing is off.
//
// A Recorder is a view: the clock is per-view while the event storage is
// shared, so Bind can hand each concurrent run a view stamping virtual
// timestamps from that run's own engine (see Bind).
type Recorder struct {
	clock atomic.Value // func() sim.Time
	state *recState
}

// recState is the event storage shared by every bound view.
type recState struct {
	limit int
	seq   atomic.Uint64

	mu    sync.RWMutex
	rings []*ring
}

// ring is one vSSD's bounded event history (newest limit events).
type ring struct {
	mu   sync.Mutex
	evs  []event
	next int
	full bool
}

// newRecorder returns a recorder keeping the newest perVSSD events per
// vSSD ring (defaultRingSize when perVSSD <= 0). The clock stamping
// virtual timestamps starts unset; events emitted before one is bound
// carry At == 0.
func newRecorder(perVSSD int) *Recorder {
	if perVSSD <= 0 {
		perVSSD = defaultRingSize
	}
	return &Recorder{state: &recState{limit: perVSSD}}
}

// setClock installs the virtual-time source (typically eng.Now of the
// engine driving the current run). Safe to call between runs while HTTP
// goroutines are live; emitters see either the old or the new clock.
func (r *Recorder) setClock(now func() sim.Time) {
	if r == nil {
		return
	}
	r.clock.Store(now)
}

// Bind returns a view that stamps events with the given clock while
// sharing rings and sequence numbers with r. Runs executing concurrently
// each bind their own engine's Now so no run ever reads another run's
// virtual clock (engines are single-goroutine). Binding the nil recorder
// stays nil (tracing off).
func (r *Recorder) Bind(now func() sim.Time) *Recorder {
	if r == nil {
		return nil
	}
	v := &Recorder{state: r.state}
	v.setClock(now)
	return v
}

// Enabled reports whether the recorder is live (non-nil); call sites that
// must do extra work to build an event can skip it when disabled.
func (r *Recorder) Enabled() bool { return r != nil }

func (r *Recorder) now() sim.Time {
	if fn, ok := r.clock.Load().(func() sim.Time); ok && fn != nil {
		return fn()
	}
	return 0
}

// ringFor returns the ring for a vSSD id, growing the table as needed.
// Negative ids (events not tied to a vSSD) share ring 0's table slot via
// index clamping at emit time.
func (s *recState) ringFor(id int) *ring {
	s.mu.RLock()
	if id < len(s.rings) {
		rg := s.rings[id]
		s.mu.RUnlock()
		return rg
	}
	s.mu.RUnlock()
	s.mu.Lock()
	for len(s.rings) <= id {
		s.rings = append(s.rings, &ring{})
	}
	rg := s.rings[id]
	s.mu.Unlock()
	return rg
}

// emit records a fully built event, stamping Seq and (when unset) At. The
// typed helpers below call it after their nil check, so the disabled path
// never builds an event.
func (r *Recorder) emit(e event) {
	s := r.state
	e.Seq = s.seq.Add(1)
	if e.At == 0 {
		e.At = r.now()
	}
	id := e.VSSD
	if id < 0 {
		id = 0
	}
	rg := s.ringFor(id)
	rg.mu.Lock()
	if len(rg.evs) < s.limit {
		rg.evs = append(rg.evs, e)
	} else {
		rg.evs[rg.next] = e
		rg.next = (rg.next + 1) % s.limit
		rg.full = true
	}
	rg.mu.Unlock()
}

// Decision records one RL action decision (kind KindHarvest,
// KindMakeHarvestable, or KindSetPriority).
func (r *Recorder) Decision(kind EventKind, vssd int, bw float64, level int) {
	if r == nil {
		return
	}
	r.emit(event{Kind: kind, VSSD: vssd, BW: bw, Level: level, Peer: -1})
}

// Reward records an agent's per-window reward feedback.
func (r *Recorder) Reward(vssd int, single, mixed float64) {
	if r == nil {
		return
	}
	r.emit(event{Kind: KindReward, VSSD: vssd, Single: single, Reward: mixed, Peer: -1})
}

// Verdict records an admission-control outcome for a harvest-related
// action (kind KindAdmissionAdmit or KindAdmissionFilter).
func (r *Recorder) Verdict(kind EventKind, vssd int, action string, bw float64) {
	if r == nil {
		return
	}
	r.emit(event{Kind: kind, VSSD: vssd, Action: action, BW: bw, Peer: -1})
}

// GSB records a ghost-superblock lifecycle event.
func (r *Recorder) GSB(kind EventKind, gsbID, vssd, peer, channels int) {
	if r == nil {
		return
	}
	r.emit(event{Kind: kind, VSSD: vssd, Peer: peer, GSB: gsbID, Channels: channels})
}

// GCRun records a GC victim selection.
func (r *Recorder) GCRun(tenant, block, valid int, harvested bool) {
	if r == nil {
		return
	}
	r.emit(event{Kind: KindGCRun, VSSD: tenant, Block: block, Valid: valid, Harvested: harvested, Peer: -1})
}

// SLOViolation records a completed request that missed its SLO.
func (r *Recorder) SLOViolation(vssd int, latency, slo int64) {
	if r == nil {
		return
	}
	r.emit(event{Kind: KindSLOViolation, VSSD: vssd, LatencyNs: latency, SLONs: slo, Peer: -1})
}

// Len returns the total number of events currently held (not the number
// emitted; rings discard their oldest entries at capacity).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	r.state.mu.RLock()
	rings := r.state.rings
	r.state.mu.RUnlock()
	for _, rg := range rings {
		rg.mu.Lock()
		n += len(rg.evs)
		rg.mu.Unlock()
	}
	return n
}

// events returns the held events of every vSSD merged into one slice
// ordered by (At, Seq). It copies under the ring locks, so it is safe
// while emitters are running.
func (r *Recorder) events() []event {
	if r == nil {
		return nil
	}
	r.state.mu.RLock()
	rings := r.state.rings
	r.state.mu.RUnlock()
	var out []event
	for _, rg := range rings {
		rg.mu.Lock()
		if rg.full {
			out = append(out, rg.evs[rg.next:]...)
			out = append(out, rg.evs[:rg.next]...)
		} else {
			out = append(out, rg.evs...)
		}
		rg.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteJSONL writes every held event as one JSON object per line, in
// (At, Seq) order — the -trace output format of cmd/fleetsim. The schema
// is the event struct's JSON encoding, documented in
// docs/OBSERVABILITY.md.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, e := range r.events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
