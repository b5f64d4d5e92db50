// Package flash models an open-channel SSD at the level FleetIO manages it:
// channels that issue commands independently, chips that overlap cell
// operations behind a serialized per-channel bus, and blocks/pages with
// NAND timing for read, program, and erase. The model is a discrete-event
// substitute for the programmable SSD board used by the paper (Table 3
// geometry) — it reproduces the contention, queueing, and GC effects that
// determine the paper's relative results.
//
// The per-op datapath is allocation-free in steady state: Ops are recycled
// through a per-device free list (AcquireOp / automatic release after
// Done), the command and bus queues are typed slices kept sorted in
// scheduling order with no interface boxing, and every pipeline stage is
// scheduled through the engine's closure-free paths: cell completions as
// AtEvent heap events, bus transfers (one constant delay per device) on a
// sim.Lane, and a read sense that ends under a bus transfer as no event at
// all (see service).
package flash

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Config describes the device geometry and timing. The defaults mirror
// Table 3 of the paper with a bus calibrated so one channel sustains about
// 64 MB/s, the per-channel bandwidth the paper quotes in §3.6.
type Config struct {
	Channels        int // independent flash channels
	ChipsPerChannel int // chips (dies) sharing one channel bus
	BlocksPerChip   int // erase blocks per chip
	PagesPerBlock   int // pages per erase block
	PageSize        int // bytes per page

	ReadPage    sim.Time // cell read (tR)
	ProgramPage sim.Time // cell program (tPROG)
	EraseBlock  sim.Time // block erase (tBERS)
	BusNsPerKB  sim.Time // channel bus transfer time per KiB

	QueueDepth int // max outstanding commands per channel
}

// DefaultConfig returns the paper's Table 3 device: 16 channels, 4 chips
// per channel, 16 KB pages, queue depth 16. BlocksPerChip is scaled down
// from the paper's 1 TB board so simulations stay fast; capacity-sensitive
// experiments override it.
func DefaultConfig() Config {
	return Config{
		Channels:        16,
		ChipsPerChannel: 4,
		BlocksPerChip:   256, // 256 blocks * 4MB = 1 GiB/chip simulated
		PagesPerBlock:   256, // 256 * 16KB = 4 MiB blocks
		PageSize:        16 << 10,
		ReadPage:        70 * sim.Microsecond,
		ProgramPage:     500 * sim.Microsecond,
		EraseBlock:      3 * sim.Millisecond,
		BusNsPerKB:      15_250, // ~64 MiB/s channel bus
		QueueDepth:      16,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("flash: Channels = %d", c.Channels)
	case c.ChipsPerChannel <= 0:
		return fmt.Errorf("flash: ChipsPerChannel = %d", c.ChipsPerChannel)
	case c.BlocksPerChip <= 0:
		return fmt.Errorf("flash: BlocksPerChip = %d", c.BlocksPerChip)
	case c.PagesPerBlock <= 0:
		return fmt.Errorf("flash: PagesPerBlock = %d", c.PagesPerBlock)
	case c.PageSize <= 0:
		return fmt.Errorf("flash: PageSize = %d", c.PageSize)
	case c.ReadPage <= 0 || c.ProgramPage <= 0 || c.EraseBlock <= 0:
		return fmt.Errorf("flash: non-positive NAND timing")
	case c.BusNsPerKB <= 0:
		return fmt.Errorf("flash: BusNsPerKB = %d", c.BusNsPerKB)
	case c.QueueDepth <= 0:
		return fmt.Errorf("flash: QueueDepth = %d", c.QueueDepth)
	}
	return nil
}

// TotalBlocks returns the number of erase blocks on the device.
func (c Config) TotalBlocks() int {
	return c.Channels * c.ChipsPerChannel * c.BlocksPerChip
}

// BlockBytes returns the capacity of one erase block.
func (c Config) BlockBytes() int64 {
	return int64(c.PagesPerBlock) * int64(c.PageSize)
}

// ChannelBandwidth returns the calibrated peak payload bandwidth of one
// channel in bytes/second (bus-limited).
func (c Config) ChannelBandwidth() float64 {
	return 1e9 / float64(c.BusNsPerKB) * 1024
}

// PeakBandwidth returns the device's aggregate channel bandwidth in
// bytes/second — the denominator of every utilization figure.
func (c Config) PeakBandwidth() float64 {
	return c.ChannelBandwidth() * float64(c.Channels)
}

// transferTime returns the bus time for n bytes.
func (c Config) transferTime(n int) sim.Time {
	t := (sim.Time(n) * c.BusNsPerKB) / 1024
	if t < 1 {
		t = 1
	}
	return t
}

// PPA is a physical page address.
type PPA struct {
	Channel int
	Chip    int
	Block   int
	Page    int
}

// BlockID identifies an erase block on the device.
type BlockID struct {
	Channel int
	Chip    int
	Block   int
}

// BlockOf returns the block containing the page.
func (p PPA) BlockOf() BlockID {
	return BlockID{Channel: p.Channel, Chip: p.Chip, Block: p.Block}
}

// OpKind is a flash command type.
type OpKind uint8

// Flash command kinds.
const (
	OpRead OpKind = iota
	OpProgram
	OpErase
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpProgram:
		return "program"
	case OpErase:
		return "erase"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// OpStatus is the completion result of a flash command. With no fault
// injector installed every op completes StatusOK; with one installed,
// programs and erases may report the NAND failure statuses the FTL
// answers with remapping and bad-block retirement.
type OpStatus uint8

// Completion statuses.
const (
	// StatusOK: the command succeeded.
	StatusOK OpStatus = iota
	// StatusProgramFail: the page program failed; the data did not land
	// and the block should be retired after its valid pages move away.
	StatusProgramFail
	// StatusEraseFail: the block erase failed; the block is worn out and
	// must be retired instead of reused.
	StatusEraseFail
)

func (s OpStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusProgramFail:
		return "program-fail"
	case StatusEraseFail:
		return "erase-fail"
	default:
		return fmt.Sprintf("OpStatus(%d)", uint8(s))
	}
}

// OpDone is invoked when a command completes. ctx and ctxI are the Ctx and
// CtxI values the submitter stored on the op, and status is the command's
// completion result (always StatusOK unless a fault injector is
// installed); using a package-level function here (rather than a capturing
// closure) keeps submission allocation-free. The *Op itself is NOT passed:
// by the time Done runs the device has already recycled it.
type OpDone func(ctx any, ctxI int64, at sim.Time, status OpStatus)

// Op is one flash command submitted to a channel. Scheduling fields
// (Priority, Pass) are set by the I/O scheduler: channels serve the highest
// Priority first and, within a priority level, the lowest stride Pass, then
// FIFO.
//
// Ownership contract: acquire with Device.AcquireOp, fill in the public
// fields, and hand the op to Submit — from that point the device owns it.
// After Done returns the op is back on the device free list; neither the
// submitter nor the Done handler may retain or touch it (completion
// context travels through Ctx/CtxI instead). Resubmitting a released op
// panics. Directly constructed (&Op{...}) ops are accepted by Submit and
// absorbed into the pool on completion under the same contract.
type Op struct {
	Kind     OpKind
	Addr     PPA
	Tenant   int     // owning vSSD, for accounting
	Priority int     // higher is served first
	Pass     float64 // stride-scheduling pass value (lower first)
	Done     OpDone  // completion callback; nil for fire-and-forget
	Ctx      any     // opaque completion context (pointer-shaped: no boxing)
	CtxI     int64   // scalar completion context (e.g. a page index)

	seq      uint64
	dev      *Device
	status   OpStatus // injected completion result, decided at service time
	stall    sim.Time // injected extra cell-phase latency (program phase)
	next     *Op      // device free-list link
	released bool     // on the free list; Submit panics (use-after-release)
}

// opLess is the scheduling order: Priority desc, Pass asc, seq asc (FIFO).
func opLess(a, b *Op) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Pass != b.Pass {
		return a.Pass < b.Pass
	}
	return a.seq < b.seq
}

// opQueue holds waiting ops in scheduling order: ops[head:] is ascending
// under opLess. Within one source (a vSSD at one priority, or GC)
// (Pass, seq) only increases, so ops arrive nearly sorted: push appends and
// walks back from the tail (a few shifts; a whole-backlog shift only for a
// priority raise), pop advances head. The length is bounded by the vSSDs'
// inflight caps plus the GC pipelines. No container/heap, no interface
// boxing; the consumed head is compacted in place rather than growing the
// array, so steady-state queueing performs zero allocations. (Popped slots
// are not cleared: every op ends up on the device's free list for good, so
// a stale slot pins nothing.) opLess is a total order (seq breaks all
// ties), so pop order is a pure function of the queued set — identical to
// what any heap under the same order produces.
type opQueue struct {
	ops  []*Op
	head int
}

func (q *opQueue) len() int { return len(q.ops) - q.head }

func (q *opQueue) push(op *Op) {
	if q.head > 0 && len(q.ops) == cap(q.ops) {
		// Compact the consumed head instead of growing the array.
		q.ops = q.ops[:copy(q.ops, q.ops[q.head:])]
		q.head = 0
	}
	q.ops = append(q.ops, op)
	i := len(q.ops) - 1
	for ; i > q.head && opLess(op, q.ops[i-1]); i-- {
		q.ops[i] = q.ops[i-1]
	}
	q.ops[i] = op
}

func (q *opQueue) pop() *Op {
	op := q.ops[q.head]
	q.head++
	if q.head == len(q.ops) {
		q.ops = q.ops[:0]
		q.head = 0
	}
	return op
}

// ChannelStats aggregates per-channel accounting used for utilization and
// interference analysis.
type ChannelStats struct {
	BytesRead    int64
	BytesWritten int64
	Reads        int64
	Programs     int64
	Erases       int64
	BusBusy      sim.Time // total time the channel bus spent transferring
}

type channel struct {
	id       int
	busBusy  bool
	busFree  sim.Time // end of the transfer in progress; valid while busBusy
	busQueue opQueue  // ops waiting for the bus, in (priority, pass, FIFO) order
	// regranting is set while opBusDone handles the op whose transfer just
	// ended, before it picks the next waiter: the bus is still marked busy
	// but busFree is now.
	regranting bool
	// parked holds reads whose sense ends under a bus transfer: instead of
	// an event at cellEnd that would only queue them for the busy bus, the
	// opBusDone ending that transfer moves them into busQueue (see service).
	parked   []*Op
	chipFree []sim.Time
	queue    opQueue
	inflight int
	stats    ChannelStats
}

// FaultStats counts the faults a device's injector has produced since
// construction. All zeros when no injector is installed.
type FaultStats struct {
	ProgramFails int64 // injected page-program failures
	EraseFails   int64 // injected block-erase failures
	ReadRetryOps int64 // reads that needed at least one retry round
	RetryRounds  int64 // total read-retry rounds injected
	ChipTimeouts int64 // transient chip stalls injected
}

// Device is the simulated open-channel SSD. It is driven entirely from
// engine callbacks and is not safe for concurrent use.
type Device struct {
	cfg  Config
	eng  *sim.Engine
	chs  []*channel
	seq  uint64
	xfer sim.Time  // cached page transfer time
	bus  *sim.Lane // opBusDone events: every transfer ends xfer after its grant
	free *Op       // free list of recycled ops

	// inj, when non-nil, injects NAND faults. Every injection draw sits
	// behind one inj != nil check so the disabled path costs a single
	// predictable branch and draws nothing from any RNG stream.
	inj     *fault.Injector
	onFault func(kind OpKind, addr PPA, status OpStatus)
	fstats  FaultStats
}

// NewDevice builds a device on the engine. It panics on an invalid config
// (construction happens at setup time where a panic is an assertion).
func NewDevice(eng *sim.Engine, cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Device{cfg: cfg, eng: eng, chs: make([]*channel, cfg.Channels),
		xfer: cfg.transferTime(cfg.PageSize)}
	d.bus = eng.NewLane(d.xfer)
	for i := range d.chs {
		d.chs[i] = &channel{id: i, chipFree: make([]sim.Time, cfg.ChipsPerChannel)}
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetFaultInjector installs (or, with nil, removes) a NAND fault
// injector. Install at setup time, before traffic: the injector's RNG
// stream advances with every serviced op, so swapping it mid-run changes
// subsequent fault decisions.
func (d *Device) SetFaultInjector(inj *fault.Injector) { d.inj = inj }

// OnFault installs a hook invoked when an op completes with a failure
// status, before the op's Done callback runs — the FTL uses it to retire
// the failed block and fix the mapping so the submitter's retry (from
// Done) allocates somewhere healthy.
func (d *Device) OnFault(fn func(kind OpKind, addr PPA, status OpStatus)) { d.onFault = fn }

// FaultStats returns a copy of the injected-fault counters.
func (d *Device) FaultStats() FaultStats { return d.fstats }

// Stats returns a copy of the accounting for channel ch.
func (d *Device) Stats(ch int) ChannelStats { return d.chs[ch].stats }

// AcquireOp returns a zeroed Op from the device free list (allocating only
// when the list is empty). The caller fills the public fields and passes
// it to Submit; see the Op ownership contract.
func (d *Device) AcquireOp() *Op {
	op := d.free
	if op == nil {
		return &Op{dev: d}
	}
	d.free = op.next
	*op = Op{dev: d}
	return op
}

// releaseOp recycles a completed op onto the free list.
func (d *Device) releaseOp(op *Op) {
	if poolDebug {
		poisonOp(op)
	}
	op.released = true
	op.Done = nil
	op.Ctx = nil
	op.next = d.free
	d.free = op
}

// Submit enqueues op on its channel and dispatches if capacity allows. The
// device takes ownership of op (it is recycled after completion).
func (d *Device) Submit(op *Op) {
	if op.released {
		panic("flash: Submit of a released Op (use-after-release)")
	}
	if op.Addr.Channel < 0 || op.Addr.Channel >= d.cfg.Channels {
		panic(fmt.Sprintf("flash: channel %d out of range", op.Addr.Channel))
	}
	if op.Addr.Chip < 0 || op.Addr.Chip >= d.cfg.ChipsPerChannel {
		panic(fmt.Sprintf("flash: chip %d out of range", op.Addr.Chip))
	}
	op.dev = d // absorb directly constructed ops into the pool contract
	d.seq++
	op.seq = d.seq
	ch := d.chs[op.Addr.Channel]
	ch.queue.push(op)
	d.dispatch(ch)
}

// dispatch starts queued ops while the channel has queue-depth headroom.
func (d *Device) dispatch(ch *channel) {
	for ch.inflight < d.cfg.QueueDepth && ch.queue.len() > 0 {
		op := ch.queue.pop()
		ch.inflight++
		d.service(ch, op)
	}
}

// complete finishes op: accounting, recycling, then the Done callback and
// a dispatch pass. The op is released BEFORE Done runs so the completion
// chain (which typically submits the next I/O) reuses the hot Op. For a
// failed op the OnFault hook runs before Done, so FTL-level bookkeeping
// (bad-block retirement, mapping repair) is finished by the time the
// submitter reacts to the status.
func (d *Device) complete(ch *channel, op *Op, at sim.Time) {
	ch.inflight--
	done, ctx, ctxI := op.Done, op.Ctx, op.CtxI
	status := op.status
	if status != StatusOK {
		kind, addr := op.Kind, op.Addr
		d.releaseOp(op)
		if d.onFault != nil {
			d.onFault(kind, addr, status)
		}
	} else {
		d.releaseOp(op)
	}
	if done != nil {
		done(ctx, ctxI, at, status)
	}
	d.dispatch(ch)
}

// Pipeline stage handlers. Each is a package-level sim.EventHandler whose
// arg carries the op in the pointer slot — no closures, no allocations.
// The op's dev field recovers the device; the channel comes from the
// address.

// opCellReadDone: a read's cell sense finished; request the bus for the
// data-out transfer. Scheduled only for a sense that service could not
// prove ends under a transfer.
func opCellReadDone(arg sim.EventArg, _ sim.Time) {
	op := arg.P.(*Op)
	d := op.dev
	d.acquireBus(d.chs[op.Addr.Channel], op)
}

// opBusDone: a bus transfer finished. Reads whose sense ended under it
// join the bus waiters first — they have been waiting since their cellEnd,
// and a read parked while this handler runs must not win this handler's
// re-grant. Then reads complete and programs start their cell phase.
// Handling the finished op may queue more bus waiters (e.g. a completed
// read chain dispatching the next op), so the best waiter is served
// afterwards.
func opBusDone(arg sim.EventArg, now sim.Time) {
	op := arg.P.(*Op)
	d := op.dev
	ch := d.chs[op.Addr.Channel]
	for _, p := range ch.parked {
		ch.busQueue.push(p)
	}
	ch.parked = ch.parked[:0]
	ch.regranting = true
	switch op.Kind {
	case OpRead:
		d.complete(ch, op, now)
	case OpProgram:
		chip := &ch.chipFree[op.Addr.Chip]
		cellStart := maxTime(now, *chip)
		// op.stall carries the injected chip-timeout stall decided at
		// service time; it is always zero without an injector.
		cellEnd := cellStart + d.cfg.ProgramPage + op.stall
		*chip = cellEnd
		d.eng.AtEvent(cellEnd, opCellDone, sim.EventArg{P: op})
	default:
		panic(fmt.Sprintf("flash: op kind %v on the bus", op.Kind))
	}
	ch.regranting = false
	if ch.busQueue.len() > 0 {
		d.grantBus(ch, ch.busQueue.pop())
	} else {
		ch.busBusy = false
	}
}

// opCellDone: a program or erase finished its cell phase; the op is done.
func opCellDone(arg sim.EventArg, now sim.Time) {
	op := arg.P.(*Op)
	op.dev.complete(op.dev.chs[op.Addr.Channel], op, now)
}

// service runs op through its phases. Reads: cell sense on the chip, then a
// bus-out transfer; programs: bus-in transfer, then cell program; erases:
// cell only. Chips overlap cell work; the bus is a contended resource
// arbitrated in (priority, pass, FIFO) order at the moment each transfer is
// requested, so a late-arriving transfer can never be starved by a future
// reservation.
//
// A read whose sense ends strictly inside a bus transfer gets no event for
// the end of its sense: that event (opCellReadDone) would find the bus busy
// and only push the op onto busQueue, whose sole reader is the opBusDone
// ending that transfer, and busQueue is totally ordered, so when an op
// enters it cannot change what the next pop returns. Such a read is parked
// on the channel and opBusDone moves it into busQueue on entry. A sense
// ending at the very instant the transfer does stays an event: there the
// engine's sequence numbers decide which of the two handlers runs first.
func (d *Device) service(ch *channel, op *Op) {
	now := d.eng.Now()
	chip := &ch.chipFree[op.Addr.Chip]
	switch op.Kind {
	case OpRead:
		cellStart := maxTime(now, *chip)
		cellEnd := cellStart + d.cfg.ReadPage
		if d.inj != nil {
			cellEnd += d.injectRead()
		}
		*chip = cellEnd
		ch.stats.Reads++
		ch.stats.BytesRead += int64(d.cfg.PageSize)
		if ch.transferCovers(now, cellEnd, d.xfer) {
			ch.parked = append(ch.parked, op)
		} else {
			d.eng.AtEvent(cellEnd, opCellReadDone, sim.EventArg{P: op})
		}
	case OpProgram:
		ch.stats.Programs++
		ch.stats.BytesWritten += int64(d.cfg.PageSize)
		if d.inj != nil {
			d.injectProgram(op)
		}
		d.acquireBus(ch, op)
	case OpErase:
		cellStart := maxTime(now, *chip)
		cellEnd := cellStart + d.cfg.EraseBlock
		if d.inj != nil {
			cellEnd += d.injectErase(op)
		}
		*chip = cellEnd
		ch.stats.Erases++
		d.eng.AtEvent(cellEnd, opCellDone, sim.EventArg{P: op})
	default:
		panic(fmt.Sprintf("flash: unknown op kind %d", op.Kind))
	}
}

// transferCovers reports whether a bus transfer that is certain to happen
// is in progress at every instant up to and including t: the opBusDone
// ending it runs strictly after t, and no other handler reads busQueue
// before then. Two cases. A transfer is in progress and ends after t. Or
// opBusDone is running and has yet to pick the next waiter: busQueue only
// grows until that pick, so once it is non-empty a transfer from now to
// now+xfer is certain.
func (ch *channel) transferCovers(now, t, xfer sim.Time) bool {
	if !ch.busBusy {
		return false
	}
	if ch.regranting {
		return ch.busQueue.len() > 0 && t < now+xfer
	}
	return t < ch.busFree
}

// injectRead draws the fault decisions for a read at service time and
// returns the extra cell-sense latency (retry rounds plus any transient
// chip stall). Called only with an injector installed.
func (d *Device) injectRead() sim.Time {
	var extra sim.Time
	if rounds := d.inj.ReadRetries(); rounds > 0 {
		extra = sim.Time(rounds) * d.inj.RetryStep()
		d.fstats.ReadRetryOps++
		d.fstats.RetryRounds += int64(rounds)
	}
	if stall := d.inj.ChipStall(); stall > 0 {
		extra += stall
		d.fstats.ChipTimeouts++
	}
	return extra
}

// injectProgram draws the fault decisions for a program at service time,
// recording them on the op: the failure status is delivered at
// completion and the stall is applied to the cell phase after the bus
// transfer. Called only with an injector installed.
func (d *Device) injectProgram(op *Op) {
	if d.inj.ProgramFails() {
		op.status = StatusProgramFail
		d.fstats.ProgramFails++
	}
	if stall := d.inj.ChipStall(); stall > 0 {
		op.stall = stall
		d.fstats.ChipTimeouts++
	}
}

// injectErase draws the fault decisions for an erase at service time and
// returns the extra cell latency. A failed erase still occupies the chip
// for the full erase time (the controller only learns the status at
// completion). Called only with an injector installed.
func (d *Device) injectErase(op *Op) sim.Time {
	if d.inj.EraseFails() {
		op.status = StatusEraseFail
		d.fstats.EraseFails++
	}
	if stall := d.inj.ChipStall(); stall > 0 {
		d.fstats.ChipTimeouts++
		return stall
	}
	return 0
}

// acquireBus grants the channel bus to op for one page transfer,
// immediately if idle or after queueing in (priority, pass, FIFO) order.
func (d *Device) acquireBus(ch *channel, op *Op) {
	if ch.busBusy {
		ch.busQueue.push(op)
		return
	}
	d.grantBus(ch, op)
}

// grantBus starts op's page transfer. It ends a constant xfer from now, so
// the opBusDone waits on the device's lane instead of sifting through the
// engine's heap; it fires at the same (time, seq) either way.
func (d *Device) grantBus(ch *channel, op *Op) {
	ch.busBusy = true
	ch.busFree = d.eng.Now() + d.xfer
	ch.stats.BusBusy += d.xfer
	d.bus.Schedule(opBusDone, sim.EventArg{P: op})
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
