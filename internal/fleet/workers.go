package fleet

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// cacheLine is the padding unit for the barrier's hot words and per-worker
// slots. 64 bytes is the line size of every amd64/arm64 part we run on;
// slots pad to two lines because adjacent-line prefetchers pull pairs.
const cacheLine = 64

// Worker tasks. The control plane writes task before a release; the
// release's atomic store publishes it to every worker.
const (
	// taskAdvance: run owned shards to target and refresh their load.
	taskAdvance = iota
	// taskStop: exit the worker loop (pool shutdown).
	taskStop
)

// workerSlot is one worker's per-epoch state: its static shard range and
// its barrier-arrival stamp. Padded to a cache-line pair so one worker's
// epoch writes never invalidate a line another worker is reading.
type workerSlot struct {
	lo, hi   int   // static shard range [lo, hi), fixed for the whole run
	arriveNS int64 // barrier-arrival stamp (metrics runs only)
	_        [2*cacheLine - 24]byte
}

// shardWorkers is the persistent shard-worker runtime behind Fleet.Run:
// one long-lived goroutine per worker, created once at run start, each
// owning a static contiguous slice of shards for the whole run (cache
// locality — a shard's engine state never migrates between workers), all
// synchronized with the control plane by a low-overhead epoch barrier.
//
// The barrier is sense-reversing with a monotonic sequence number as the
// sense word: workers wait for seq to pass the value they last saw, so
// the same word flips meaning every epoch and needs no reset phase. The
// release direction (control plane -> workers) is the seq bump; the
// gather direction (workers -> control plane) is a padded countdown.
// A waiter in either direction checks its word once and parks on a
// condvar: an epoch is milliseconds of shard work against a wake of
// microseconds, and a spinning waiter would occupy a core a straggler
// needs whenever workers fill the host.
type shardWorkers struct {
	f *Fleet
	n int

	// seq is the release word and the barrier's sense: bumped once per
	// epoch, it both publishes the epoch inputs below (the atomic store
	// is the happens-before edge) and releases every waiting worker.
	seq atomic.Uint64
	_   [cacheLine - 8]byte
	// pending is the gather word: workers not yet arrived this epoch.
	pending atomic.Int64
	_       [cacheLine - 8]byte

	// Epoch inputs, written by the control plane strictly before the seq
	// bump and read by workers strictly after observing it.
	task   int
	target sim.Time
	stamp  bool // stamp arrival times this epoch (metrics enabled)

	base time.Time // arrival-stamp epoch reference

	// Parking. A waiter that finds its word not yet flipped parks on its
	// direction's condvar: workers on cond, the control plane on ccond.
	mu    sync.Mutex
	cond  *sync.Cond
	cmu   sync.Mutex
	ccond *sync.Cond

	wg    sync.WaitGroup
	slots []workerSlot
}

// partitionShards splits d shards over n workers into contiguous,
// deterministic, near-equal ranges: worker w owns [w*q+min(w,r), ...+q+1)
// where q, r = d/n, d%n. Static for the whole run — no work stealing —
// so each shard's cache-hot engine state stays with one worker.
func partitionShards(d, n int) [][2]int {
	parts := make([][2]int, n)
	q, r := d/n, d%n
	lo := 0
	for w := range parts {
		hi := lo + q
		if w < r {
			hi++
		}
		parts[w] = [2]int{lo, hi}
		lo = hi
	}
	return parts
}

// newShardWorkers starts the pool: n goroutines, each bound to its static
// shard range, parked at the barrier until the first release.
func newShardWorkers(f *Fleet, n int) *shardWorkers {
	p := &shardWorkers{f: f, n: n, base: time.Now()}
	p.cond = sync.NewCond(&p.mu)
	p.ccond = sync.NewCond(&p.cmu)
	p.slots = make([]workerSlot, n)
	for w, pt := range partitionShards(len(f.shards), n) {
		p.slots[w].lo, p.slots[w].hi = pt[0], pt[1]
	}
	p.wg.Add(n)
	for w := 0; w < n; w++ {
		go p.worker(w)
	}
	return p
}

// worker is one pool goroutine. The pprof label makes per-worker time
// visible on the /debug/pprof endpoints (profile and goroutine dumps group
// by shard-worker-N).
func (p *shardWorkers) worker(w int) {
	defer p.wg.Done()
	labels := pprof.Labels("shard-worker", fmt.Sprintf("shard-worker-%d", w))
	pprof.Do(context.Background(), labels, func(context.Context) {
		p.loop(w)
	})
}

// loop waits at the barrier, runs the released task over the worker's
// static shard range, and arrives. Everything a task touches is owned by
// the worker's shards (or a disjoint slice index), so task bodies run
// lock-free.
func (p *shardWorkers) loop(w int) {
	s := &p.slots[w]
	for seen := uint64(1); ; seen++ {
		p.awaitSeq(seen)
		switch p.task {
		case taskAdvance:
			p.f.epochShards(s.lo, s.hi, p.target)
		case taskStop:
			return
		}
		if p.stamp {
			s.arriveNS = int64(time.Since(p.base))
		}
		p.arrive()
	}
}

// awaitSeq blocks until the release word reaches want: one check, then a
// condvar park re-checked under the lock (no lost wakeup: release
// broadcasts only after taking the same lock).
func (p *shardWorkers) awaitSeq(want uint64) {
	if p.seq.Load() >= want {
		return
	}
	p.mu.Lock()
	for p.seq.Load() < want {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// arrive signals the gather side. The last worker to arrive wakes the
// control plane if it parked (taking the lock orders the signal after the
// control plane's re-check of pending, so the wakeup cannot be lost).
func (p *shardWorkers) arrive() {
	if p.pending.Add(-1) == 0 {
		p.cmu.Lock()
		p.ccond.Signal()
		p.cmu.Unlock()
	}
}

// release publishes the epoch inputs and opens the barrier. The pending
// reset and the plain-field writes are ordered before the seq bump, whose
// atomic store is the happens-before edge workers synchronize on.
func (p *shardWorkers) release(task int, target sim.Time) {
	p.task = task
	p.target = target
	p.stamp = task == taskAdvance && p.f.metrics != nil
	p.pending.Store(int64(p.n))
	p.seq.Add(1)
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// await blocks the control plane until every worker arrived: the same
// check-then-park discipline as awaitSeq, mirrored.
func (p *shardWorkers) await() {
	if p.pending.Load() == 0 {
		return
	}
	p.cmu.Lock()
	for p.pending.Load() != 0 {
		p.ccond.Wait()
	}
	p.cmu.Unlock()
}

// runEpoch advances every shard to target through the pool and records
// barrier health when metrics are on: total control-plane wait time and
// the straggler gap (last minus first worker arrival), the two numbers
// that show epoch imbalance on /metrics.
func (p *shardWorkers) runEpoch(target sim.Time) {
	p.release(taskAdvance, target)
	m := p.f.metrics
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	p.await()
	if m != nil {
		m.barrierWait.Add(float64(time.Since(t0)))
		first, last := p.slots[0].arriveNS, p.slots[0].arriveNS
		for i := 1; i < p.n; i++ {
			ns := p.slots[i].arriveNS
			if ns < first {
				first = ns
			}
			if ns > last {
				last = ns
			}
		}
		m.straggler.Set(float64(last - first))
	}
}

// stop releases a final taskStop epoch and joins every worker. After stop
// returns no pool goroutine survives.
func (p *shardWorkers) stop() {
	p.release(taskStop, 0)
	p.wg.Wait()
}
