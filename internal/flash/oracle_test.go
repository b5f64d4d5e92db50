package flash

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// This file keeps the device as it was before the flash event chain was
// shortened — every pipeline stage its own AtEvent on the engine's heap,
// the op queues 4-ary heaps — as the reference the shipped Device and
// opQueue are checked against. Nothing outside the tests uses it.

// heapOpQueue is the 4-ary min-heap of *Op ordered by opLess that opQueue
// replaced.
type heapOpQueue []*Op

func (q *heapOpQueue) push(op *Op) {
	*q = append(*q, op)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !opLess(op, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = op
}

func (q *heapOpQueue) pop() *Op {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if n > 0 {
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
			for j := c + 1; j < end; j++ {
				if opLess(h[j], h[m]) {
					m = j
				}
			}
			if !opLess(h[m], last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return top
}

type oracleChannel struct {
	busBusy  bool
	busQueue heapOpQueue
	chipFree []sim.Time
	queue    heapOpQueue
	inflight int
	stats    ChannelStats
}

// oracleDevice is the stage-per-event device: a read is a cell-sense event
// then a bus-done event, a program a bus-done event then a cell-done event,
// whatever the bus is doing. Ops are not pooled (pooling moves no
// timestamp), and stages are closures on the heap, which draw sequence
// numbers exactly as AtEvent does.
type oracleDevice struct {
	cfg     Config
	eng     *sim.Engine
	chs     []*oracleChannel
	seq     uint64
	xfer    sim.Time
	inj     *fault.Injector
	onFault func(kind OpKind, addr PPA, status OpStatus)
	fstats  FaultStats
}

func newOracleDevice(eng *sim.Engine, cfg Config) *oracleDevice {
	d := &oracleDevice{cfg: cfg, eng: eng, chs: make([]*oracleChannel, cfg.Channels),
		xfer: cfg.transferTime(cfg.PageSize)}
	for i := range d.chs {
		d.chs[i] = &oracleChannel{chipFree: make([]sim.Time, cfg.ChipsPerChannel)}
	}
	return d
}

func (d *oracleDevice) AcquireOp() *Op                         { return &Op{} }
func (d *oracleDevice) SetFaultInjector(inj *fault.Injector)   { d.inj = inj }
func (d *oracleDevice) OnFault(fn func(OpKind, PPA, OpStatus)) { d.onFault = fn }
func (d *oracleDevice) FaultStats() FaultStats                 { return d.fstats }
func (d *oracleDevice) Stats(ch int) ChannelStats              { return d.chs[ch].stats }
func (d *oracleDevice) QueueLen(ch int) int                    { return len(d.chs[ch].queue) }
func (d *oracleDevice) Inflight(ch int) int                    { return d.chs[ch].inflight }

func (d *oracleDevice) Submit(op *Op) {
	d.seq++
	op.seq = d.seq
	ch := d.chs[op.Addr.Channel]
	ch.queue.push(op)
	d.dispatch(ch)
}

func (d *oracleDevice) dispatch(ch *oracleChannel) {
	for ch.inflight < d.cfg.QueueDepth && len(ch.queue) > 0 {
		op := ch.queue.pop()
		ch.inflight++
		d.service(ch, op)
	}
}

func (d *oracleDevice) complete(ch *oracleChannel, op *Op, at sim.Time) {
	ch.inflight--
	if op.status != StatusOK && d.onFault != nil {
		d.onFault(op.Kind, op.Addr, op.status)
	}
	if op.Done != nil {
		op.Done(op.Ctx, op.CtxI, at, op.status)
	}
	d.dispatch(ch)
}

func (d *oracleDevice) service(ch *oracleChannel, op *Op) {
	now := d.eng.Now()
	chip := &ch.chipFree[op.Addr.Chip]
	switch op.Kind {
	case OpRead:
		cellEnd := maxTime(now, *chip) + d.cfg.ReadPage
		if d.inj != nil {
			if rounds := d.inj.ReadRetries(); rounds > 0 {
				cellEnd += sim.Time(rounds) * d.inj.RetryStep()
				d.fstats.ReadRetryOps++
				d.fstats.RetryRounds += int64(rounds)
			}
			if stall := d.inj.ChipStall(); stall > 0 {
				cellEnd += stall
				d.fstats.ChipTimeouts++
			}
		}
		*chip = cellEnd
		ch.stats.Reads++
		ch.stats.BytesRead += int64(d.cfg.PageSize)
		d.eng.Schedule(cellEnd-d.eng.Now(), func() { d.acquireBus(ch, op) })
	case OpProgram:
		ch.stats.Programs++
		ch.stats.BytesWritten += int64(d.cfg.PageSize)
		if d.inj != nil {
			if d.inj.ProgramFails() {
				op.status = StatusProgramFail
				d.fstats.ProgramFails++
			}
			if stall := d.inj.ChipStall(); stall > 0 {
				op.stall = stall
				d.fstats.ChipTimeouts++
			}
		}
		d.acquireBus(ch, op)
	case OpErase:
		cellEnd := maxTime(now, *chip) + d.cfg.EraseBlock
		if d.inj != nil {
			if d.inj.EraseFails() {
				op.status = StatusEraseFail
				d.fstats.EraseFails++
			}
			if stall := d.inj.ChipStall(); stall > 0 {
				cellEnd += stall
				d.fstats.ChipTimeouts++
			}
		}
		*chip = cellEnd
		ch.stats.Erases++
		d.eng.Schedule(cellEnd-d.eng.Now(), func() { d.complete(ch, op, cellEnd) })
	}
}

func (d *oracleDevice) acquireBus(ch *oracleChannel, op *Op) {
	if ch.busBusy {
		ch.busQueue.push(op)
		return
	}
	d.grantBus(ch, op)
}

func (d *oracleDevice) grantBus(ch *oracleChannel, op *Op) {
	ch.busBusy = true
	ch.stats.BusBusy += d.xfer
	d.eng.Schedule(d.xfer, func() { d.busDone(ch, op) })
}

func (d *oracleDevice) busDone(ch *oracleChannel, op *Op) {
	now := d.eng.Now()
	if op.Kind == OpRead {
		d.complete(ch, op, now)
	} else {
		chip := &ch.chipFree[op.Addr.Chip]
		cellEnd := maxTime(now, *chip) + d.cfg.ProgramPage + op.stall
		*chip = cellEnd
		d.eng.Schedule(cellEnd-d.eng.Now(), func() { d.complete(ch, op, cellEnd) })
	}
	if len(ch.busQueue) > 0 {
		d.grantBus(ch, ch.busQueue.pop())
	} else {
		ch.busBusy = false
	}
}

// scriptedDevice is what the oracle script drives: the shipped Device or
// the oracle.
type scriptedDevice interface {
	AcquireOp() *Op
	Submit(*Op)
	SetFaultInjector(*fault.Injector)
	OnFault(func(OpKind, PPA, OpStatus))
	Stats(ch int) ChannelStats
	FaultStats() FaultStats
	QueueLen(ch int) int
	Inflight(ch int) int
}

// QueueLen returns the number of ops waiting (not yet dispatched) on ch.
func (d *Device) QueueLen(ch int) int { return d.chs[ch].queue.len() }

// Inflight returns the number of dispatched, uncompleted ops on ch.
func (d *Device) Inflight(ch int) int { return d.chs[ch].inflight }

// completion is one line of a script run's log: which op finished, when,
// how, and what the channel's public counters read at that moment.
type completion struct {
	id               int64
	at               sim.Time
	status           OpStatus
	queued, inflight int
}

// scriptSource is one submitter of ops: a vSSD at some priority, or GC.
// Its pass only increases, as stride scheduling's does.
type scriptSource struct {
	priority int
	pass     float64
}

// script is a randomised closed loop over a device. Every decision is drawn
// from rng inside an engine callback, so two devices see the same script
// for exactly as long as they behave the same.
type script struct {
	eng     *sim.Engine
	dev     scriptedDevice
	cfg     Config
	rng     *sim.RNG
	sources []scriptSource
	issued  int
	limit   int
	log     []completion
	faults  int
}

func scriptDone(ctx any, id int64, at sim.Time, status OpStatus) {
	s := ctx.(*script)
	ch := int(id) % s.cfg.Channels
	s.log = append(s.log, completion{id: id, at: at, status: status,
		queued: s.dev.QueueLen(ch), inflight: s.dev.Inflight(ch)})
	// One successor keeps the loop closed; now and then a second grows it.
	s.next()
	if s.rng.Intn(16) == 0 {
		s.next()
	}
}

func scriptSubmit(arg sim.EventArg, _ sim.Time) { arg.P.(*script).submit() }

// scriptHop re-arms a submission arg.I ns later from a fresh event, so the
// submission is sequenced after everything the current handler schedules —
// a bus re-grant included — and runs after it at a shared instant.
func scriptHop(arg sim.EventArg, _ sim.Time) {
	arg.P.(*script).eng.ScheduleEvent(arg.I, scriptSubmit, sim.EventArg{P: arg.P})
}

// next submits one more op, now or after a delay chosen to collide with the
// device's own instants: completions fire on bus-done (reads) and cell-end
// (programs, erases) instants, so a multiple of the transfer or cell times
// from here is where the next bus-done or cell-end falls, and xfer-tR is
// when a sense must start to end exactly as the bus frees.
func (s *script) next() {
	xfer := s.cfg.transferTime(s.cfg.PageSize)
	tR, tP := s.cfg.ReadPage, s.cfg.ProgramPage
	delays := [...]sim.Time{0, 1, tR, xfer, xfer - tR, xfer - tR - 1, xfer - tR + 1,
		2*xfer - tR, tR + xfer, tP, xfer + tP, 2 * xfer, sim.Time(s.rng.Intn(int(2 * xfer)))}
	switch r := s.rng.Intn(4); r {
	case 0, 1:
		s.submit()
	default:
		delay := delays[s.rng.Intn(len(delays))]
		if delay < 0 {
			delay = 0
		}
		if r == 2 {
			s.eng.ScheduleEvent(delay, scriptSubmit, sim.EventArg{P: s})
		} else {
			s.eng.ScheduleEvent(0, scriptHop, sim.EventArg{P: s, I: delay})
		}
	}
}

func (s *script) submit() {
	if s.issued >= s.limit {
		return
	}
	s.issued++
	src := &s.sources[s.rng.Intn(len(s.sources))]
	switch s.rng.Intn(64) {
	case 0: // priority change mid-run, into whatever backlog there is
		src.priority = s.rng.Intn(5)
	case 1: // deliberate collision: take another source's pass
		src.pass = s.sources[s.rng.Intn(len(s.sources))].pass
	}
	// Small integer strides put the sources on one grid, so passes tie
	// across sources (and, at stride 0, within one) and seq decides.
	src.pass += float64(s.rng.Intn(3))
	op := s.dev.AcquireOp()
	switch r := s.rng.Intn(20); {
	case r < 12:
		op.Kind = OpRead
	case r < 19:
		op.Kind = OpProgram
	default:
		op.Kind = OpErase
	}
	// Channel 0 takes most of the traffic so its bus saturates.
	ch := s.rng.Intn(s.cfg.Channels)
	if s.rng.Intn(4) != 0 {
		ch = 0
	}
	op.Addr = PPA{Channel: ch, Chip: s.rng.Intn(s.cfg.ChipsPerChannel)}
	op.Priority = src.priority
	op.Pass = src.pass
	op.Done = scriptDone
	op.Ctx = s
	// The id names the op and carries its channel for scriptDone.
	op.CtxI = int64(s.issued)*int64(s.cfg.Channels) + int64(ch)
	s.dev.Submit(op)
}

// runScript drives dev with the script for (seed, cfg, faults) and returns
// it finished.
func runScript(eng *sim.Engine, dev scriptedDevice, cfg Config, fc fault.Config, seed int64, ops int) *script {
	s := &script{eng: eng, dev: dev, cfg: cfg, rng: sim.NewRNG(seed), limit: ops}
	if fc.Enabled() {
		fc.Seed = seed
		dev.SetFaultInjector(fault.NewInjector(fc))
	}
	dev.OnFault(func(OpKind, PPA, OpStatus) { s.faults++ })
	s.sources = make([]scriptSource, 1+s.rng.Intn(4))
	for i := range s.sources {
		s.sources[i].priority = s.rng.Intn(5)
	}
	for i, prime := 0, 1+s.rng.Intn(128); i < prime; i++ {
		s.submit()
	}
	eng.Run()
	return s
}

// TestDeviceMatchesStagePerEventOracle runs the same randomised script on
// the shipped device and on the stage-per-event oracle and requires the
// same ops to complete at the same times with the same statuses, in the
// same order, with the same channel and fault counters — over geometries,
// queue depths, sense times on both sides of the transfer time, and fault
// profiles (whose injected latencies move cellEnd).
func TestDeviceMatchesStagePerEventOracle(t *testing.T) {
	storm := fault.Config{ProgramFailProb: 0.05, EraseFailProb: 0.05, ReadRetryProb: 0.3, TimeoutProb: 0.05,
		TimeoutStall: 300 * sim.Microsecond}
	profiles := []struct {
		name string
		cfg  fault.Config
	}{{"off", fault.Config{}}, {"light", fault.Light()}, {"heavy", fault.Heavy()}, {"storm", storm}}
	var events, oracleEvents uint64
	for _, p := range profiles {
		for seed := int64(1); seed <= 24; seed++ {
			rng := sim.NewRNG(seed)
			cfg := DefaultConfig()
			cfg.Channels = 1 + rng.Intn(16)
			cfg.ChipsPerChannel = 1 + rng.Intn(4)
			cfg.QueueDepth = 1 + rng.Intn(16)
			cfg.PageSize = []int{4 << 10, 16 << 10}[rng.Intn(2)]                  // 61 µs or 244 µs on the bus
			cfg.ReadPage = []sim.Time{20, 70, 300}[rng.Intn(3)] * sim.Microsecond // under, under, over
			name := fmt.Sprintf("%s/seed%d/%dx%d/qd%d", p.name, seed, cfg.Channels, cfg.ChipsPerChannel, cfg.QueueDepth)

			eng, ref := sim.NewEngine(), sim.NewEngine()
			got := runScript(eng, NewDevice(eng, cfg), cfg, p.cfg, seed, 4000)
			want := runScript(ref, newOracleDevice(ref, cfg), cfg, p.cfg, seed, 4000)
			events += eng.Executed()
			oracleEvents += ref.Executed()

			if len(got.log) != got.limit || len(want.log) != len(got.log) {
				t.Fatalf("%s: %d completions, oracle %d, want %d", name, len(got.log), len(want.log), got.limit)
			}
			for i := range want.log {
				if got.log[i] != want.log[i] {
					t.Fatalf("%s: completion %d = %+v, oracle %+v", name, i, got.log[i], want.log[i])
				}
			}
			if eng.Now() != ref.Now() || got.faults != want.faults {
				t.Fatalf("%s: ended at %d with %d faults, oracle at %d with %d",
					name, eng.Now(), got.faults, ref.Now(), want.faults)
			}
			if got.dev.FaultStats() != want.dev.FaultStats() {
				t.Fatalf("%s: fault stats %+v, oracle %+v", name, got.dev.FaultStats(), want.dev.FaultStats())
			}
			for ch := 0; ch < cfg.Channels; ch++ {
				if got.dev.Stats(ch) != want.dev.Stats(ch) {
					t.Fatalf("%s: channel %d stats %+v, oracle %+v", name, ch, got.dev.Stats(ch), want.dev.Stats(ch))
				}
			}
		}
	}
	t.Logf("%d engine events, %d on the oracle", events, oracleEvents)
	// The sweep must reach the elision, or it proves nothing about it.
	if events >= oracleEvents {
		t.Fatalf("device executed %d events, oracle %d: no sense was ever elided", events, oracleEvents)
	}
}

// TestOpQueueMatchesHeapOracle feeds the sorted opQueue and the heap it
// replaced the same pushes and pops and requires the same op out of every
// pop: opLess is total, so the order is a property of the queued set.
func TestOpQueueMatchesHeapOracle(t *testing.T) {
	var (
		q   opQueue
		ref heapOpQueue
		seq uint64
	)
	push := func(priority int, pass float64) {
		seq++
		op := &Op{Priority: priority, Pass: pass, seq: seq}
		q.push(op)
		ref.push(op)
	}
	pop := func(when string) {
		t.Helper()
		if q.len() != len(ref) {
			t.Fatalf("%s: len %d, heap %d", when, q.len(), len(ref))
		}
		if got, want := q.pop(), ref.pop(); got != want {
			t.Fatalf("%s: popped (prio %d pass %g seq %d), heap (prio %d pass %g seq %d)", when,
				got.Priority, got.Pass, got.seq, want.Priority, want.Pass, want.seq)
		}
	}
	drain := func(when string) {
		t.Helper()
		for len(ref) > 0 {
			pop(when)
		}
		if q.len() != 0 {
			t.Fatalf("%s: %d ops left behind", when, q.len())
		}
	}

	// Interleaved push/pop, per-source monotone keys, sources that share
	// priorities and a pass grid; the backlog swells and drains so the head
	// index runs ahead and the slice compacts.
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := sim.NewRNG(seed)
		sources := make([]scriptSource, 1+rng.Intn(5))
		for i := range sources {
			sources[i].priority = rng.Intn(3)
		}
		for i := 0; i < 20000; i++ {
			filling := (i/1000)%2 == 0
			if len(ref) == 0 || (filling && rng.Intn(3) > 0) || (!filling && rng.Intn(3) == 0) {
				src := &sources[rng.Intn(len(sources))]
				src.pass += float64(rng.Intn(3))
				push(src.priority, src.pass)
			} else {
				pop(fmt.Sprintf("seed %d step %d", seed, i))
			}
		}
		drain(fmt.Sprintf("seed %d", seed))
	}

	// A priority raise into a long low-priority backlog: the raised ops go
	// in front of all of it, in their own pass order.
	for i := 0; i < 500; i++ {
		push(0, float64(i))
	}
	for i := 0; i < 100; i++ {
		pop("backlog")
	}
	for i := 0; i < 50; i++ {
		push(3, float64(i/2))
	}
	drain("priority raise")

	// Reversed input: every push walks the whole queue.
	for i := 300; i > 0; i-- {
		push(1, float64(i))
	}
	drain("reversed")

	// All-equal pass and priority: FIFO by seq.
	for i := 0; i < 300; i++ {
		push(2, 7)
	}
	drain("all equal")
}

// TestSaturatedChannelEventsPerRead pins the shortened event chain with a
// count that repeats exactly: on a saturated channel the bus moves a page
// in 244 µs against a 70 µs sense, so past the first QueueDepth reads every
// sense ends under a transfer and a read costs one engine event, its
// bus-done — where a stage-per-event device executes two per read. If the
// elision stops firing this fails; wall-clock benchmarks would only drift.
func TestSaturatedChannelEventsPerRead(t *testing.T) {
	const reads = 10000
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	dr := &benchDriver{d: NewDevice(eng, cfg), cfg: cfg, limit: reads}
	for i := 0; i < cfg.QueueDepth; i++ {
		benchIssue(dr, 0, 0, StatusOK)
	}
	eng.Run()
	if got := dr.d.Stats(0).Reads; got != reads {
		t.Fatalf("completed %d reads, want %d", got, reads)
	}
	if got, limit := eng.Executed(), uint64(reads+2*cfg.QueueDepth); got > limit {
		t.Fatalf("%d engine events for %d reads, want at most %d (reads + 2*QueueDepth)", got, reads, limit)
	}
}
