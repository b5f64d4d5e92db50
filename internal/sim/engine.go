// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock measured in nanoseconds, an allocation-free 4-ary
// min-heap event queue with FIFO lanes for constant-delay events, and
// seedable random-number streams. Every FleetIO experiment runs on top of
// this engine so results are exactly reproducible for a given seed.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time = int64

// Common durations in virtual nanoseconds.
const (
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// EventArg is the fixed argument block delivered to an EventHandler. P
// holds a pointer-shaped payload (a pointer or func value stores into the
// interface word without boxing, so scheduling stays allocation-free) and
// I holds one scalar. Handlers that need more context hang it off the
// object P points to.
type EventArg struct {
	P any
	I int64
}

// EventHandler is a closure-free event callback: a package-level function
// (or pre-built func value) invoked with the EventArg it was scheduled
// with and the current virtual time. Passing a method value or a capturing
// closure here defeats the point — both allocate at the call site; route
// per-event state through the arg instead.
type EventHandler func(arg EventArg, now Time)

// runClosure adapts the closure-based Schedule API onto the
// handler-based core: the closure rides in the pointer slot of the arg.
func runClosure(arg EventArg, _ Time) { arg.P.(func())() }

// eventKey is the heap-ordering half of a scheduled event: timestamp plus
// a sequence number that breaks ties between events scheduled for the same
// instant, so execution order is deterministic (FIFO within an instant).
type eventKey struct {
	at  Time
	seq uint64
}

// before is the heap order: earliest timestamp first, FIFO within an
// instant.
func (k eventKey) before(o eventKey) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// eventPayload is the callback half of a scheduled event, kept in a slice
// parallel to the key heap so sift comparisons never touch it.
type eventPayload struct {
	h   EventHandler
	arg EventArg
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on one
// goroutine.
//
// The pending-event queue is an inlined 4-ary min-heap over two parallel
// typed slices: 16-byte ordering keys (timestamp, sequence) and 32-byte
// payloads (handler, argument). No container/heap interface boxing, so
// steady-state Schedule/Step reuses the slices' capacity and performs zero
// allocations. The wider fan-out halves the sift-down depth versus a
// binary heap, and splitting keys from payloads makes the hot four-child
// minimum scan read one 64-byte cache line instead of 192 bytes of event
// structs — which is where a pop-heavy discrete-event loop spends its
// time. Because (at, seq) is a strict total order, pop order is a pure
// function of the scheduled set, so heap-layout changes like this one
// cannot perturb simulation results. The same argument covers the lanes
// (see Lane): they hold part of the scheduled set in sorted FIFOs, and the
// next event is the least of the heap root and the lane heads under the
// same order.
type Engine struct {
	now      Time
	seq      uint64
	keys     []eventKey // 4-ary min-heap ordered by eventKey.before
	payloads []eventPayload
	lanes    []*Lane
	laned    int    // events waiting on lanes, summed over lanes
	executed uint64 // events run so far, from the heap or a lane
	stopped  bool   // StopTickers was called
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events waiting to run, on the heap or on
// a lane.
func (e *Engine) Pending() int { return len(e.keys) + e.laned }

// Executed reports the number of events run since the engine was built.
func (e *Engine) Executed() uint64 { return e.executed }

// Schedule runs fn after delay virtual nanoseconds. A negative delay is an
// error in the model, so it panics. Capturing closures allocate; hot paths
// use ScheduleEvent instead.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.AtEvent(e.now+delay, runClosure, EventArg{P: fn})
}

// ScheduleEvent runs h(arg, now) after delay virtual nanoseconds without
// allocating: the handler and its fixed-size argument are stored inline in
// the event slot. This is the per-I/O scheduling path — the flash datapath,
// FTL GC, and vSSD dispatch use it so steady-state simulation performs
// zero allocations per event.
func (e *Engine) ScheduleEvent(delay Time, h EventHandler, arg EventArg) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.AtEvent(e.now+delay, h, arg)
}

// AtEvent runs h(arg, t) at the absolute virtual time t, which must not be
// in the past. It is the allocation-free, absolute-time counterpart of
// Schedule.
func (e *Engine) AtEvent(t Time, h EventHandler, arg EventArg) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	e.seq++
	e.keys = append(e.keys, eventKey{at: t, seq: e.seq})
	e.payloads = append(e.payloads, eventPayload{h: h, arg: arg})
	e.siftUp(len(e.keys) - 1)
}

// siftUp restores the heap property after appending at index i.
func (e *Engine) siftUp(i int) {
	ks, ps := e.keys, e.payloads
	k, p := ks[i], ps[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !k.before(ks[parent]) {
			break
		}
		ks[i], ps[i] = ks[parent], ps[parent]
		i = parent
	}
	ks[i], ps[i] = k, p
}

// siftDown restores the heap property after replacing the root.
func (e *Engine) siftDown() {
	ks, ps := e.keys, e.payloads
	n := len(ks)
	k, p := ks[0], ps[0]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		mk := ks[c]
		for j := c + 1; j < end; j++ {
			if ks[j].before(mk) {
				m = j
				mk = ks[j]
			}
		}
		if !mk.before(k) {
			break
		}
		ks[i], ps[i] = mk, ps[m]
		i = m
	}
	ks[i], ps[i] = k, p
}

// Lane is a FIFO of events that all share one constant delay, for
// protocols that arm the same timer over and over: the 1 ms
// allocation-stall retry, which holds thousands of events at once, and the
// flash bus transfer, which is half of a device's events. The clock
// never goes back and the sequence number only grows, so entries are
// appended in (time, seq) order and the head is the lane's minimum:
// scheduling and popping are O(1) ring-buffer operations where the heap
// pays a sift through every level the lane's own events add. A lane event
// takes its sequence number from the engine exactly as ScheduleEvent would,
// so it fires at the same point in the global order as the same event on
// the heap.
type Lane struct {
	eng   *Engine
	delay Time
	// keys and payloads are one ring buffer of power-of-two length holding
	// n entries from head, split the way the heap's slices are.
	keys     []eventKey
	payloads []eventPayload
	head, n  int
}

// NewLane returns a lane whose events fire delay virtual nanoseconds after
// they are scheduled.
func (e *Engine) NewLane(delay Time) *Lane {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	l := &Lane{eng: e, delay: delay}
	e.lanes = append(e.lanes, l)
	return l
}

// Schedule runs h(arg, now) after the lane's delay. Like ScheduleEvent it
// does not allocate once the ring has grown to its working size.
func (l *Lane) Schedule(h EventHandler, arg EventArg) {
	if l.n == len(l.keys) {
		l.grow()
	}
	e := l.eng
	e.seq++
	i := (l.head + l.n) & (len(l.keys) - 1)
	l.keys[i] = eventKey{at: e.now + l.delay, seq: e.seq}
	l.payloads[i] = eventPayload{h: h, arg: arg}
	l.n++
	e.laned++
}

// Last returns the pointer slot of the lane's newest entry if that entry
// is the last event the engine scheduled and fires one lane delay from
// now. Then an event scheduled on the lane now would take the next
// sequence number at the same instant and pop directly after that entry,
// with nothing between, so a caller may fold the new event into it
// instead: one entry standing for a run of back-to-back events.
func (l *Lane) Last() (any, bool) {
	if l.n == 0 {
		return nil, false
	}
	i := (l.head + l.n - 1) & (len(l.keys) - 1)
	e := l.eng
	if k := l.keys[i]; k.seq != e.seq || k.at != e.now+l.delay {
		return nil, false
	}
	return l.payloads[i].arg.P, true
}

// grow doubles the ring, unrolling it so head is index 0 again.
func (l *Lane) grow() {
	size := 2 * len(l.keys)
	if size == 0 {
		size = 16
	}
	keys := make([]eventKey, size)
	payloads := make([]eventPayload, size)
	n := copy(keys, l.keys[l.head:])
	copy(keys[n:], l.keys[:l.head])
	copy(payloads, l.payloads[l.head:])
	copy(payloads[n:], l.payloads[:l.head])
	l.keys, l.payloads, l.head = keys, payloads, 0
}

// earliestLane returns the lane whose head is the next event overall, or
// nil when the heap root is. At least one lane must hold an event. Keys
// are unique, so the minimum is too.
func (e *Engine) earliestLane() *Lane {
	var best *Lane
	var bk eventKey
	for _, l := range e.lanes {
		if l.n == 0 {
			continue
		}
		if k := l.keys[l.head]; best == nil || k.before(bk) {
			best, bk = l, k
		}
	}
	if len(e.keys) > 0 && e.keys[0].before(bk) {
		return nil
	}
	return best
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool { return e.step(math.MaxInt64) }

// step is Step restricted to events at or before limit.
func (e *Engine) step(limit Time) bool {
	if e.laned > 0 {
		if l := e.earliestLane(); l != nil {
			return l.step(limit)
		}
	}
	if len(e.keys) == 0 || e.keys[0].at > limit {
		return false
	}
	at := e.keys[0].at
	pl := e.payloads[0]
	n := len(e.keys) - 1
	e.keys[0] = e.keys[n]
	e.payloads[0] = e.payloads[n]
	e.payloads[n] = eventPayload{} // release the handler refs; the slot's capacity is reused
	e.keys = e.keys[:n]
	e.payloads = e.payloads[:n]
	if n > 1 {
		e.siftDown()
	}
	e.now = at
	e.executed++
	pl.h(pl.arg, e.now)
	return true
}

// step is Engine.step once the lane's head is known to be the next event.
func (l *Lane) step(limit Time) bool {
	at := l.keys[l.head].at
	if at > limit {
		return false
	}
	pl := l.payloads[l.head]
	l.payloads[l.head] = eventPayload{} // release the handler refs
	l.head = (l.head + 1) & (len(l.keys) - 1)
	l.n--
	e := l.eng
	e.laned--
	e.now = at
	e.executed++
	pl.h(pl.arg, at)
	return true
}

// RunUntil executes events in timestamp order until the queue is empty or
// the next event is strictly after t; the clock then advances to t. Events
// scheduled exactly at t are executed.
func (e *Engine) RunUntil(t Time) {
	for e.step(t) {
	}
	if t > e.now {
		e.now = t
	}
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Ticker invokes fn every period, starting one period from now, until
// StopTickers. It is the engine's building block for periodic work such
// as RL decision windows, admission-control batches and telemetry
// sampling.
func (e *Engine) Ticker(period Time, fn func(now Time)) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %d", period))
	}
	var tick func()
	tick = func() {
		if e.stopped {
			return
		}
		fn(e.now)
		e.Schedule(period, tick)
	}
	e.Schedule(period, tick)
}

// StopTickers ends the engine's periodic work: every Ticker lapses at its
// next tick without calling its fn, so once the rest of the work queued
// runs out the event queue empties.
func (e *Engine) StopTickers() { e.stopped = true }
