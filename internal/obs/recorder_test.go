package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.setClock(func() sim.Time { return 1 })
	r.Decision(KindHarvest, 0, 1e6, 0)
	r.Reward(0, 0.5, 0.4)
	r.Verdict(KindAdmissionAdmit, 0, "Harvest", 1e6)
	r.GSB(KindGSBCreate, 1, 0, -1, 2)
	r.GCRun(0, 3, 10, true)
	r.SLOViolation(0, 100, 50)
	if r.Len() != 0 || r.events() != nil {
		t.Fatal("nil recorder holds events")
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteJSONL: %v", err)
	}
}

func TestRecorderStampsSeqAndClock(t *testing.T) {
	r := newRecorder(16)
	var now sim.Time = 42
	r.setClock(func() sim.Time { return now })
	r.Decision(KindHarvest, 0, 2e6, 0)
	now = 100
	r.Decision(KindSetPriority, 0, 0, 3)
	evs := r.events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].At != 42 || evs[1].At != 100 {
		t.Fatalf("timestamps %d,%d want 42,100", evs[0].At, evs[1].At)
	}
	if evs[0].Seq >= evs[1].Seq {
		t.Fatalf("sequence not monotone: %d then %d", evs[0].Seq, evs[1].Seq)
	}
}

func TestRecorderRingDiscardsOldest(t *testing.T) {
	r := newRecorder(4)
	for i := 0; i < 10; i++ {
		r.Decision(KindSetPriority, 0, 0, i)
	}
	evs := r.events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Level != 6+i {
			t.Fatalf("event %d has level %d, want %d (newest-4 retained in order)", i, e.Level, 6+i)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len %d, want 4", r.Len())
	}
}

func TestEventsMergeOrdering(t *testing.T) {
	r := newRecorder(16)
	var now sim.Time
	r.setClock(func() sim.Time { return now })
	now = 30
	r.Decision(KindHarvest, 1, 0, 0)
	now = 10
	r.Decision(KindHarvest, 0, 0, 0)
	now = 20
	r.Decision(KindHarvest, 1, 0, 0)
	evs := r.events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].At != 10 || evs[1].At != 20 || evs[2].At != 30 {
		t.Fatalf("merge not ordered by At: %v %v %v", evs[0].At, evs[1].At, evs[2].At)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := newRecorder(16)
	r.setClock(func() sim.Time { return 7 })
	r.Decision(KindMakeHarvestable, 0, 3e8, 0)
	r.GSB(KindGSBHarvest, 5, 1, 0, 2)
	r.GCRun(1, 17, 42, true)
	r.SLOViolation(0, 900, 450)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d JSONL lines, want 4", len(lines))
	}
	// Every line must be standalone-parseable JSON with a kind string, and
	// decode back to the event it was written from.
	want := r.events()
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
		if _, ok := m["kind"].(string); !ok {
			t.Fatalf("line %q has no string kind", ln)
		}
		var back event
		if err := json.Unmarshal([]byte(ln), &back); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
		if back != want[i] {
			t.Fatalf("event %d round-tripped to %+v, want %+v", i, back, want[i])
		}
	}
}

func TestEventKindJSONStable(t *testing.T) {
	for k := KindHarvest; k <= KindSLOViolation; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back EventKind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != k {
			t.Fatalf("kind %v round-tripped to %v", k, back)
		}
	}
	var bad EventKind
	if err := bad.UnmarshalJSON([]byte(`"no_such_kind"`)); err == nil {
		t.Fatal("unknown kind unmarshalled without error")
	}
}

// TestRecorderConcurrentEmit exercises the locking under -race: many
// goroutines emitting for overlapping vSSD ids while a reader drains
// merged snapshots, as trainer workers and an HTTP scrape would.
func TestRecorderConcurrentEmit(t *testing.T) {
	r := newRecorder(64)
	r.setClock(func() sim.Time { return 1 })
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Decision(KindHarvest, i%5, float64(i), 0)
				r.GCRun(w%3, i, i%64, i%2 == 0)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.events()
			_ = r.Len()
		}
	}()
	wg.Wait()
	<-done
	if r.Len() == 0 {
		t.Fatal("no events recorded")
	}
}
