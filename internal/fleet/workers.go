package fleet

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// shardWorkers is the shard-worker pool behind Fleet.Run: one goroutine per
// contiguous shard range, created once at run start, so a shard's engine
// state never moves between workers. Every epoch goes through two unbuffered
// channels. The control plane sends each worker the epoch boundary on
// start; each worker advances its range and sends its arrival time back on
// arrive.
//
// A worker that has taken a start blocks on arrive until the control plane
// has sent every start, so no worker takes two starts in one epoch. A
// channel send happens before the matching receive, and that is the only
// ordering the epoch needs: the control plane's writes happen before the
// workers' reads, and the workers' shard writes happen before the control
// plane reads them. An epoch is milliseconds of shard work; a hand-off is
// microseconds.
type shardWorkers struct {
	f      *Fleet
	n      int
	start  chan sim.Time
	arrive chan time.Time
	wg     sync.WaitGroup
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

// newShardWorkers starts the pool: n goroutines, one per partitionShards
// range, each waiting for its first start.
func newShardWorkers(f *Fleet, n int) *shardWorkers {
	p := &shardWorkers{f: f, n: n, start: make(chan sim.Time), arrive: make(chan time.Time)}
	p.wg.Add(n)
	for _, r := range partitionShards(len(f.shards), n) {
		go p.worker(r[0], r[1])
	}
	return p
}

// worker advances shards [lo, hi) to each epoch boundary it is sent and
// reports when it is done, until start closes.
func (p *shardWorkers) worker(lo, hi int) {
	defer p.wg.Done()
	for t := range p.start {
		p.f.epochShards(lo, hi, t)
		p.arrive <- time.Now()
	}
}

// runEpoch advances every shard to t. With metrics on it records the
// barrier series: the control plane's wait from the first start sent to the
// last arrival, and the straggler gap from the first arrival to the last.
func (p *shardWorkers) runEpoch(t sim.Time) {
	t0 := time.Now()
	for i := 0; i < p.n; i++ {
		p.start <- t
	}
	first := <-p.arrive
	last := first
	for i := 1; i < p.n; i++ {
		a := <-p.arrive
		if a.Before(first) {
			first = a
		}
		if a.After(last) {
			last = a
		}
	}
	if m := p.f.metrics; m != nil {
		m.barrierWait.Add(float64(last.Sub(t0)))
		m.straggler.Set(float64(last.Sub(first)))
	}
}

// stop closes start and joins every worker. After stop returns no pool
// goroutine survives.
func (p *shardWorkers) stop() {
	close(p.start)
	p.wg.Wait()
}
