package sim

import (
	"container/heap"
	"testing"
)

// refEvent mirrors event for the container/heap reference implementation
// the inlined 4-ary heap is checked against.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refEngine is a minimal engine built on container/heap with the seed's
// original semantics: the behavioral oracle for the property test.
type refEngine struct {
	now    Time
	seq    uint64
	events refHeap
}

func (e *refEngine) schedule(delay Time, id int) {
	e.seq++
	heap.Push(&e.events, refEvent{at: e.now + delay, seq: e.seq, id: id})
}

func (e *refEngine) step() (int, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	ev := heap.Pop(&e.events).(refEvent)
	e.now = ev.at
	return ev.id, true
}

func (e *refEngine) runUntil(t Time) []int {
	var fired []int
	for len(e.events) > 0 && e.events[0].at <= t {
		id, _ := e.step()
		fired = append(fired, id)
	}
	if t > e.now {
		e.now = t
	}
	return fired
}

// recordID is the lane events' handler in the oracle test: it appends the
// event's id (arg.I) to the fire log arg.P points at.
func recordID(arg EventArg, _ Time) {
	log := arg.P.(*[]int)
	*log = append(*log, int(arg.I))
}

// TestEngineMatchesReferenceHeap drives the engine and the container/heap
// oracle with the same random interleaving of Schedule, Lane.Schedule,
// Step, and RunUntil (with deliberate timestamp collisions, between heap
// events and between heap and lanes, to exercise the FIFO tie-break) and
// requires identical fire order, clocks, and queue depths throughout. The
// oracle has no lanes: a lane event is, to it, one more heap event at
// now+delay, which is the claim under test.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 42} {
		rng := NewRNG(seed)
		eng := NewEngine()
		ref := &refEngine{}
		var got []int
		nextID := 0
		// Lane delays sit on the heap delays' 10 ns grid so the two collide;
		// the zero-delay lane ties with heap events at the current instant.
		laneDelays := []Time{0, 20, 50}
		lanes := make([]*Lane, len(laneDelays))
		for i, d := range laneDelays {
			lanes[i] = eng.NewLane(d)
		}

		for op := 0; op < 5000; op++ {
			switch rng.Intn(12) {
			case 0, 1, 2: // schedule; coarse delays force collisions
				delay := Time(rng.Intn(8)) * 10
				id := nextID
				nextID++
				eng.Schedule(delay, func() { got = append(got, id) })
				ref.schedule(delay, id)
			case 3, 4, 5: // schedule on a lane
				i := rng.Intn(len(lanes))
				lanes[i].Schedule(recordID, EventArg{P: &got, I: int64(nextID)})
				ref.schedule(laneDelays[i], nextID)
				nextID++
			case 6, 7, 8: // step
				before := len(got)
				stepped := eng.Step()
				id, refStepped := ref.step()
				if stepped != refStepped {
					t.Fatalf("seed %d op %d: Step fired=%v, reference %v", seed, op, stepped, refStepped)
				}
				if stepped {
					if len(got) != before+1 || got[len(got)-1] != id {
						t.Fatalf("seed %d op %d: Step fired %v, reference fired %d", seed, op, got[before:], id)
					}
				}
			default: // runUntil a short horizon past now
				horizon := eng.Now() + Time(rng.Intn(40))
				before := len(got)
				eng.RunUntil(horizon)
				want := ref.runUntil(horizon)
				fired := got[before:]
				if len(fired) != len(want) {
					t.Fatalf("seed %d op %d: RunUntil fired %v, want %v", seed, op, fired, want)
				}
				for i := range want {
					if fired[i] != want[i] {
						t.Fatalf("seed %d op %d: RunUntil fired %v, want %v", seed, op, fired, want)
					}
				}
			}
			if eng.Now() != ref.now {
				t.Fatalf("seed %d op %d: clock %d, reference %d", seed, op, eng.Now(), ref.now)
			}
			if eng.Pending() != len(ref.events) {
				t.Fatalf("seed %d op %d: pending %d, reference %d", seed, op, eng.Pending(), len(ref.events))
			}
		}

		// Drain both and compare the tail order.
		before := len(got)
		eng.Run()
		for {
			id, ok := ref.step()
			if !ok {
				break
			}
			if before >= len(got) || got[before] != id {
				t.Fatalf("seed %d: drain order diverged at %d", seed, before)
			}
			before++
		}
		if before != len(got) {
			t.Fatalf("seed %d: engine fired %d extra events", seed, len(got)-before)
		}
	}
}

// TestEngineScheduleStepZeroAllocSteadyState guards the event core's
// allocation-free steady state: once the queue slice has grown to its
// working capacity, Schedule+Step must not allocate.
func TestEngineScheduleStepZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the queue to working capacity, then drain.
	for i := 0; i < 256; i++ {
		e.Schedule(Time(i), fn)
	}
	e.Run()
	// Keep a standing population so push/pop exercises real heap work.
	for i := 0; i < 64; i++ {
		e.Schedule(Time(1000+i), fn)
	}
	avg := testing.AllocsPerRun(2000, func() {
		e.Schedule(100, fn)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("steady-state Schedule+Step allocates %.2f allocs/op, want 0", avg)
	}
}

// holdModel keeps a standing population on a lane and on the heap: each
// event re-arms itself where it came from when it fires — the shape of the
// allocation-stall retry, whose handler schedules the next poll on the
// same lane from inside Step.
type holdModel struct {
	eng                  *Engine
	lane                 *Lane
	laneFires, heapFires int
}

func laneHold(arg EventArg, _ Time) {
	m := arg.P.(*holdModel)
	m.laneFires++
	m.lane.Schedule(laneHold, arg)
}

func heapHold(arg EventArg, _ Time) {
	m := arg.P.(*holdModel)
	m.heapFires++
	m.eng.ScheduleEvent(100, heapHold, arg)
}

// TestLaneScheduleStepZeroAllocSteadyState guards the lane's
// allocation-free steady state: once the ring has grown to its working
// size, Lane.Schedule+Step must not allocate, whichever of the heap and
// the lane holds the next event.
func TestLaneScheduleStepZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	m := &holdModel{eng: e, lane: e.NewLane(100)}
	arg := EventArg{P: m}
	// 64 events a side, interleaved in time; the ring (16 slots at first)
	// grows here and wraps many times below.
	for i := 0; i < 64; i++ {
		m.lane.Schedule(laneHold, arg)
		e.ScheduleEvent(100, heapHold, arg)
		e.RunUntil(e.Now() + 1)
	}
	avg := testing.AllocsPerRun(2000, func() {
		e.Step()
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("steady-state Lane.Schedule+Step allocates %.2f allocs/op, want 0", avg)
	}
	if m.laneFires < 1000 || m.heapFires < 1000 {
		t.Fatalf("fired %d lane and %d heap events, want both sides exercised", m.laneFires, m.heapFires)
	}
	if e.Pending() != 128 {
		t.Fatalf("standing population drifted: %d pending, want 128", e.Pending())
	}
}

// TestLaneLast pins when a lane's newest entry may absorb an event
// scheduled now: exactly when that entry was the engine's last draw and
// fires one lane delay from now.
func TestLaneLast(t *testing.T) {
	e := NewEngine()
	l, other := e.NewLane(100), e.NewLane(100)
	a, b := new(int64), new(int64)
	check := func(step string, wantP any, wantOK bool) {
		t.Helper()
		p, ok := l.Last()
		if ok != wantOK || p != wantP {
			t.Fatalf("%s: Last() = %v, %v; want %v, %v", step, p, ok, wantP, wantOK)
		}
	}
	check("empty lane", nil, false)
	l.Schedule(countHandler, EventArg{P: a})
	check("after a schedule", a, true)
	l.Schedule(countHandler, EventArg{P: b})
	check("after a second schedule", b, true)
	e.ScheduleEvent(100, countHandler, EventArg{P: a})
	check("after a heap schedule", nil, false)
	l.Schedule(countHandler, EventArg{P: a})
	check("after a schedule behind the heap's", a, true)
	other.Schedule(countHandler, EventArg{P: b})
	check("after another lane's schedule", nil, false)
	l.Schedule(countHandler, EventArg{P: b})
	e.RunUntil(e.Now() + 1)
	check("after the clock moved", nil, false)
	e.Run()
	check("drained lane", nil, false)
}

// countHandler is a package-level EventHandler for the ScheduleEvent
// guard; per-event state arrives through the arg, never a closure.
func countHandler(arg EventArg, _ Time) { *arg.P.(*int64) += arg.I }

// TestEngineScheduleEventZeroAlloc guards the closure-free scheduling
// path used by the per-I/O datapath: ScheduleEvent with a package-level
// handler and a pointer-shaped arg must never allocate, even on the very
// first events (only queue growth may, and warm-up absorbs it).
func TestEngineScheduleEventZeroAlloc(t *testing.T) {
	e := NewEngine()
	var sum int64
	arg := EventArg{P: &sum, I: 1}
	for i := 0; i < 256; i++ {
		e.ScheduleEvent(Time(i), countHandler, arg)
	}
	e.Run()
	for i := 0; i < 64; i++ {
		e.ScheduleEvent(Time(1000+i), countHandler, arg)
	}
	avg := testing.AllocsPerRun(2000, func() {
		e.ScheduleEvent(100, countHandler, arg)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("steady-state ScheduleEvent+Step allocates %.2f allocs/op, want 0", avg)
	}
	if sum == 0 {
		t.Fatal("handler never ran")
	}
}
