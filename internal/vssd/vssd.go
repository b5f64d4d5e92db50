// Package vssd implements the virtual SSD layer of the FleetIO
// reproduction: per-tenant request queues, the software-isolation machinery
// (token-bucket rate limiting and stride scheduling), priority scheduling
// (the Set_Priority action), and the Platform that wires workloads, the
// flash device, the FTL, and the ghost-superblock manager together.
package vssd

import (
	"fmt"

	"repro/internal/flash"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Isolation selects how a vSSD shares flash channels.
type Isolation uint8

// Isolation modes (§2.1).
const (
	// HardwareIsolated vSSDs own their channels exclusively.
	HardwareIsolated Isolation = iota
	// SoftwareIsolated vSSDs share channels, throttled by a token bucket
	// and ordered by stride scheduling.
	SoftwareIsolated
)

func (i Isolation) String() string {
	if i == HardwareIsolated {
		return "hardware"
	}
	return "software"
}

// Request is one host I/O: a contiguous run of logical pages, read or
// written, against one vSSD. OnComplete (optional) fires when the last
// page finishes, letting closed-loop workloads chain their next request.
//
// Requests obtained from VSSD.AcquireRequest are recycled onto the vSSD's
// free list as soon as OnComplete returns; neither the submitter nor the
// OnComplete callback may retain the pointer past that point. Directly
// constructed requests (&Request{...}, e.g. through the public fleetio
// API) are never recycled and stay safe to hold.
type Request struct {
	VSSD    int
	Write   bool
	LPN     int
	Pages   int
	Arrival sim.Time

	OnComplete func(r *Request, finished sim.Time)

	remaining     int
	firstDispatch sim.Time
	enqueued      bool
	owner         *VSSD
	pooled        bool     // from AcquireRequest: recycle on completion
	released      bool     // on the free list; Submit panics
	nextFree      *Request // free-list link
}

// bytes returns the payload size of the request.
func (r *Request) bytes(pageSize int) int64 { return int64(r.Pages) * int64(pageSize) }

// stallRun is one retry-lane entry standing for a run of r's pages that
// stalled back to back: lpn, lpn+1, …, lpn+n-1 (mod the tenant's logical
// size). The per-page retries it stands for would fire at one instant with
// consecutive sequence numbers, which the engine pops back to back; polling
// the run dispatches the same pages in the same order. Runs are recycled on
// the vSSD's free list.
type stallRun struct {
	r        *Request
	lpn, n   int
	nextFree *stallRun
}

// Config holds the per-vSSD policy knobs.
type Config struct {
	Name      string
	Isolation Isolation
	// Channels initially owned (hardware-isolated) or shared (software).
	Channels []int
	// LogicalPages is the tenant's logical capacity; 0 derives it from the
	// owned channels and the platform overprovision ratio.
	LogicalPages int
	// SLO is the per-request latency objective; violations feed the RL
	// state and reward. 0 disables violation tracking until calibrated.
	SLO sim.Time
	// MaxInflightPages caps the page ops a vSSD keeps dispatched (host
	// queue depth). 0 defaults to 4 per owned channel.
	MaxInflightPages int
}

// stride is the pass increment per dispatched page op: Waldspurger's
// stride1 (1<<20) over the 100 tickets every vSSD holds — equal shares.
const stride = (1 << 20) / 100.0

// VSSD is one virtual SSD instance.
type VSSD struct {
	id     int
	cfg    Config
	plat   *Platform
	tenant *ftl.Tenant

	priority int

	// queue is head-indexed: queue[qhead:] holds the waiting requests.
	// Popping advances qhead instead of re-slicing so the backing array is
	// reused; Submit compacts before growing.
	queue    []*Request
	qhead    int
	freeReqs *Request  // recycled Request free list
	freeRuns *stallRun // recycled stallRun free list
	inflight int

	// The token bucket SetRateLimit configures: rate bytes/s (0:
	// unthrottled) into a bucket burst bytes deep.
	rate       float64
	tokens     float64
	burst      float64
	lastRefill sim.Time
	pumpArmed  bool

	pass float64

	window       metrics.Window
	windowAt     sim.Time
	totalHist    metrics.Histogram
	completed    int64
	totalBytes   int64
	totalRetries int64

	slo sim.Time
}

// ID returns the platform-assigned index of the vSSD.
func (v *VSSD) ID() int { return v.id }

// Name returns the configured display name.
func (v *VSSD) Name() string { return v.cfg.Name }

// Tenant exposes the underlying FTL tenant.
func (v *VSSD) Tenant() *ftl.Tenant { return v.tenant }

// Priority returns the current I/O priority level.
func (v *VSSD) Priority() int { return v.priority }

// setPriority applies the Set_Priority(level) action. Levels outside
// [PriorityLow, PriorityHigh] are clamped.
func (v *VSSD) setPriority(level int) {
	if level < ftl.PriorityLow {
		level = ftl.PriorityLow
	}
	if level > ftl.PriorityHigh {
		level = ftl.PriorityHigh
	}
	v.priority = level
}

// SLO returns the current latency objective.
func (v *VSSD) SLO() sim.Time { return v.slo }

// SetRateLimit throttles the vSSD to bps bytes/s through a token bucket
// burst bytes deep (bps 0 disables throttling). The bucket keeps the tokens
// it holds, up to the new depth; a new vSSD's bucket holds none.
func (v *VSSD) SetRateLimit(bps, burst float64) {
	v.rate = bps
	v.burst = burst
	if v.tokens > burst {
		v.tokens = burst
	}
}

// QueueLen returns the number of requests waiting for dispatch.
func (v *VSSD) QueueLen() int { return len(v.queue) - v.qhead }

// Inflight returns dispatched-but-incomplete page ops.
func (v *VSSD) Inflight() int { return v.inflight }

// Completed returns the total requests finished since creation.
func (v *VSSD) Completed() int64 { return v.completed }

// TotalHist returns the whole-run latency histogram.
func (v *VSSD) TotalHist() *metrics.Histogram { return &v.totalHist }

// TotalBytesMoved returns the payload bytes of completed host requests
// since creation (or the last ResetTotals).
func (v *VSSD) TotalBytesMoved() int64 { return v.totalBytes }

// TotalRetries returns the host page writes re-dispatched after an
// injected program failure since creation. Unlike the other run totals it
// survives ResetTotals: the device and FTL fault ledgers are cumulative
// over the whole run, and the recovery identity
// (flash.FaultStats.ProgramFails == ftl.Stats.Remapped == retries+GC
// recoveries) only balances against a counter with the same lifetime.
func (v *VSSD) TotalRetries() int64 { return v.totalRetries }

// ResetTotals clears the run-level counters (histogram, completion count,
// byte totals) at a measurement boundary; in-flight requests keep
// completing into the fresh counters.
func (v *VSSD) ResetTotals() {
	v.totalHist.Reset()
	v.completed = 0
	v.totalBytes = 0
}

// AcquireRequest returns a zeroed Request from the vSSD's free list
// (allocating only when the list is empty). Pooled requests are recycled
// automatically after OnComplete; see the Request ownership contract.
func (v *VSSD) AcquireRequest() *Request {
	r := v.freeReqs
	if r == nil {
		return &Request{pooled: true}
	}
	v.freeReqs = r.nextFree
	*r = Request{pooled: true}
	return r
}

// releaseRequest recycles a completed pooled request.
func (v *VSSD) releaseRequest(r *Request) {
	r.OnComplete = nil
	r.owner = nil
	r.released = true
	r.nextFree = v.freeReqs
	v.freeReqs = r
}

// Submit enqueues a request and pumps the dispatch loop.
func (v *VSSD) Submit(r *Request) {
	if r.Pages <= 0 {
		panic(fmt.Sprintf("vssd: request with %d pages", r.Pages))
	}
	if r.released {
		panic("vssd: Submit of a released Request (use-after-release)")
	}
	if r.enqueued {
		panic("vssd: request submitted twice")
	}
	r.enqueued = true
	r.VSSD = v.id
	r.owner = v
	r.Arrival = v.plat.eng.Now()
	r.remaining = r.Pages
	if v.qhead > 0 && len(v.queue) == cap(v.queue) {
		// Compact the consumed head instead of growing the array.
		n := copy(v.queue, v.queue[v.qhead:])
		for i := n; i < len(v.queue); i++ {
			v.queue[i] = nil
		}
		v.queue = v.queue[:n]
		v.qhead = 0
	}
	v.queue = append(v.queue, r)
	v.pump()
}

// refillTokens advances the token bucket to now.
func (v *VSSD) refillTokens() {
	now := v.plat.eng.Now()
	if v.rate <= 0 {
		v.lastRefill = now
		return
	}
	dt := float64(now-v.lastRefill) / 1e9
	v.tokens += dt * v.rate
	if v.tokens > v.burst {
		v.tokens = v.burst
	}
	v.lastRefill = now
}

// pump admits queued requests while the inflight budget and token bucket
// allow, splitting each admitted request into per-page flash ops.
func (v *VSSD) pump() {
	v.refillTokens()
	pageSize := v.plat.cfg.PageSize
	for v.qhead < len(v.queue) && v.inflight < v.maxInflight() {
		r := v.queue[v.qhead]
		if v.rate > 0 {
			need := float64(r.bytes(pageSize))
			if v.tokens < need {
				v.armPump(need)
				return
			}
			v.tokens -= need
		}
		v.queue[v.qhead] = nil
		v.qhead++
		v.dispatch(r)
	}
	if v.qhead == len(v.queue) {
		v.queue = v.queue[:0]
		v.qhead = 0
	}
}

// armPump schedules a future pump for when the bucket will hold `need`
// bytes of tokens.
func (v *VSSD) armPump(need float64) {
	if v.pumpArmed {
		return
	}
	wait := sim.Time((need - v.tokens) / v.rate * 1e9)
	if wait < sim.Microsecond {
		wait = sim.Microsecond
	}
	v.pumpArmed = true
	v.plat.eng.ScheduleEvent(wait, pumpEvent, sim.EventArg{P: v})
}

// pumpEvent re-runs the dispatch loop after a token-bucket wait.
func pumpEvent(arg sim.EventArg, _ sim.Time) {
	v := arg.P.(*VSSD)
	v.pumpArmed = false
	v.pump()
}

func (v *VSSD) maxInflight() int {
	if v.cfg.MaxInflightPages > 0 {
		return v.cfg.MaxInflightPages
	}
	n := 4 * len(v.tenant.Channels())
	if n < 8 {
		n = 8
	}
	return n
}

// dispatch splits r into page ops and submits them to the device.
func (v *VSSD) dispatch(r *Request) {
	now := v.plat.eng.Now()
	if r.firstDispatch == 0 {
		r.firstDispatch = now
	}
	lpn := r.LPN
	if lpn >= v.tenant.LogicalPages() {
		lpn %= v.tenant.LogicalPages()
	}
	if r.Write {
		v.writePages(r, lpn, r.Pages)
		return
	}
	for i := 0; i < r.Pages; i++ {
		v.dispatchRead(r, lpn)
		lpn = v.nextLPN(lpn)
	}
}

// nextLPN is the page after lpn in a request, wrapping at the logical size.
func (v *VSSD) nextLPN(lpn int) int {
	if lpn++; lpn == v.tenant.LogicalPages() {
		return 0
	}
	return lpn
}

// writePages dispatches n pages of r from lpn on, in LPN order. When a page
// stalls while the tenant's failure memo holds, every later page would fail
// the same way at this instant, changing nothing but the stall counters:
// the rest are counted and join the page's stall run in one step.
func (v *VSSD) writePages(r *Request, lpn, n int) {
	for ; n > 0; n-- {
		if !v.dispatchWrite(r, lpn) && n > 1 && v.tenant.RepeatAllocFailures(n-1) {
			v.stall(r, v.nextLPN(lpn), n-1)
			return
		}
		lpn = v.nextLPN(lpn)
	}
}

// requestPageDone is the flash.OpDone for host page ops: ctx carries the
// *Request (the op itself is already recycled). A failed program is
// re-dispatched: the FTL has already repaired the mapping and retired the
// bad block (OnFault runs first), so the retry allocates a healthy page.
// The request's arrival and first-dispatch stamps are preserved, so the
// retry latency lands in the same latency/queue-delay/SLO accounting as
// any other slowdown.
func requestPageDone(ctx any, ctxI int64, at sim.Time, status flash.OpStatus) {
	r := ctx.(*Request)
	if status == flash.StatusProgramFail {
		r.owner.retryFailedWrite(r, int(ctxI))
		return
	}
	r.owner.pageDone(r, at)
}

// retryWrite polls a stall run: its pages are dispatched again in order.
// The run is recycled first; the pages that stall again form new runs.
func retryWrite(arg sim.EventArg, _ sim.Time) {
	run := arg.P.(*stallRun)
	r, lpn, n := run.r, run.lpn, run.n
	v := r.owner
	run.r = nil
	run.nextFree = v.freeRuns
	v.freeRuns = run
	v.writePages(r, lpn, n)
}

// stall is the one place a host page waits for space: pages [lpn, lpn+n)
// of r (mod the logical size), which have just failed to allocate back to
// back, poll again ftl's retry delay from now. If the retry lane's newest
// entry is a run of r ending just before lpn and nothing has been
// scheduled since, their retries would pop directly after that run, so the
// run grows instead. Otherwise a new run goes on the lane.
func (v *VSSD) stall(r *Request, lpn, n int) {
	ftlm := v.plat.ftlm
	if p, ok := ftlm.LastRetry(); ok {
		if run, ok := p.(*stallRun); ok && run.r == r && (run.lpn+run.n)%v.tenant.LogicalPages() == lpn {
			run.n += n
			return
		}
	}
	run := v.freeRuns
	if run == nil {
		run = &stallRun{}
	} else {
		v.freeRuns = run.nextFree
	}
	*run = stallRun{r: r, lpn: lpn, n: n}
	ftlm.ScheduleRetry(retryWrite, sim.EventArg{P: run})
}

// zeroFillDone completes a zero-fill read after its constant service time.
func zeroFillDone(arg sim.EventArg, now sim.Time) {
	r := arg.P.(*Request)
	r.owner.pageDone(r, now)
}

// dispatchWrite allocates lpn's page and submits its program, or stalls
// the page when there is no space; it reports whether it dispatched.
func (v *VSSD) dispatchWrite(r *Request, lpn int) bool {
	ppa, ok := v.tenant.AllocatePage(lpn, false)
	if !ok {
		// Out of space right now: let GC make progress and retry.
		v.stall(r, lpn, 1)
		return false
	}
	v.inflight++
	v.tenant.RecordHostProgram()
	v.pass += stride
	op := v.plat.dev.AcquireOp()
	op.Kind = flash.OpProgram
	op.Addr = ppa
	op.Tenant = v.id
	op.Priority = v.priority
	op.Pass = v.pass
	op.Done = requestPageDone
	op.Ctx = r
	op.CtxI = int64(lpn) // for the program-fail retry path
	v.plat.dev.Submit(op)
	return true
}

// retryFailedWrite re-dispatches one page of r after an injected program
// failure. The page count stays outstanding (remaining is untouched), so
// the request completes only when the retried page finally lands.
func (v *VSSD) retryFailedWrite(r *Request, lpn int) {
	v.inflight--
	v.window.Retries++
	v.totalRetries++
	v.dispatchWrite(r, lpn)
}

func (v *VSSD) dispatchRead(r *Request, lpn int) {
	ppa, ok := v.tenant.Lookup(lpn)
	if !ok {
		// Reading never-written data: served from the mapping table with
		// no flash access (a zero-fill read), modelled as a short constant.
		v.inflight++
		v.plat.eng.ScheduleEvent(5*sim.Microsecond, zeroFillDone, sim.EventArg{P: r})
		return
	}
	v.inflight++
	v.pass += stride
	op := v.plat.dev.AcquireOp()
	op.Kind = flash.OpRead
	op.Addr = ppa
	op.Tenant = v.id
	op.Priority = v.priority
	op.Pass = v.pass
	op.Done = requestPageDone
	op.Ctx = r
	v.plat.dev.Submit(op)
}

// pageDone accounts a finished page op and completes the request when all
// its pages are in.
func (v *VSSD) pageDone(r *Request, at sim.Time) {
	v.inflight--
	r.remaining--
	if r.remaining == 0 {
		lat := at - r.Arrival
		qd := r.firstDispatch - r.Arrival
		if v.slo > 0 && lat > v.slo {
			v.plat.rec.SLOViolation(v.id, lat, v.slo)
		}
		v.window.Complete(r.Write, r.bytes(v.plat.cfg.PageSize), lat, qd, v.slo)
		v.totalHist.Add(lat)
		v.completed++
		v.totalBytes += r.bytes(v.plat.cfg.PageSize)
		if r.OnComplete != nil {
			r.OnComplete(r, at)
		}
		if r.pooled {
			v.releaseRequest(r)
		}
	}
	v.pump()
}

// WindowSnapshot captures one decision window of a vSSD: the completed-I/O
// counters plus the instantaneous state the RL agent needs (Table 1).
type WindowSnapshot struct {
	VSSD     int
	Start    sim.Time
	Duration sim.Time
	Window   metrics.Window

	QueueLen          int
	InflightPages     int
	AvailCapacity     int64 // bytes of unmapped logical space
	InGC              bool
	Priority          int
	OwnedChannels     int
	HarvestedChannels int
	SLO               sim.Time
}

// Rotate returns the finished window and starts a new one.
func (v *VSSD) Rotate() WindowSnapshot {
	now := v.plat.eng.Now()
	snap := WindowSnapshot{
		VSSD:          v.id,
		Start:         v.windowAt,
		Duration:      now - v.windowAt,
		Window:        v.window,
		QueueLen:      v.QueueLen(),
		InflightPages: v.inflight,
		AvailCapacity: (int64(v.tenant.LogicalPages()) - v.tenant.MappedPages()) * int64(v.plat.cfg.PageSize),
		InGC:          v.tenant.InGC(),
		Priority:      v.priority,
		OwnedChannels: len(v.tenant.Channels()),
		SLO:           v.slo,
	}
	if v.plat.gsbm != nil {
		snap.HarvestedChannels = v.plat.gsbm.HarvestedChannels(v.id)
	}
	v.window.Reset()
	v.windowAt = now
	return snap
}
