package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// shardWorkers is the shard-worker pool behind Fleet.Run: n goroutines,
// created once at run start, that advance every shard once per epoch. Each
// worker has a home span, its partitionShards range, which it claims from
// the front; a worker whose span is empty steals single shards from the
// back of the span with the most shards left. Least-loaded placement fills
// shards in id order, so early in a run the loaded shards all sit in the
// first spans; stealing lets the other workers take part of them.
//
// Every epoch goes through two unbuffered channels. The control plane
// resets the spans, sends each worker the epoch on start; each worker
// claims and advances shards until no span has any left and sends its
// arrival time back on arrive. A worker that has taken a start blocks on
// arrive until the control plane has sent every start, so no worker takes
// two starts in one epoch. A channel send happens before the matching
// receive, and that is the only ordering the epoch needs: the control
// plane's writes (spans, queued builds) happen before the workers' reads,
// and the workers' shard writes happen before the control plane reads
// them, or before the next epoch's worker, whichever that is, writes them
// again. An epoch is milliseconds of shard work; a hand-off or a claim is
// microseconds.
type shardWorkers struct {
	f *Fleet
	// homes is each worker's partitionShards range; spans is where each
	// stands this epoch.
	homes  [][2]int
	spans  []span
	start  chan epoch
	arrive chan time.Time
	wg     sync.WaitGroup
}

// epoch is one parallel phase: advance every shard from the previous
// boundary to the next.
type epoch struct{ from, to sim.Time }

// span is one worker's home range for the current epoch, packed into one
// word so that every claim is a single compare-and-swap: the next shard to
// claim from the front, the end of the unclaimed range, and the one worker
// (plus one; 0 is none) allowed to steal from its back this epoch. One
// thief a span keeps every worker's claims in a span one contiguous run:
// the owner's from the front, the thief's from the back. Claims that
// interleave across workers put adjacent shards on two cores at once and
// ran the rack 26-30% slower. The padding gives each span its own cache
// line.
type span struct {
	word atomic.Uint64
	_    [56]byte
}

// The packed layout: next in bits 0-23, end in 24-47, thief+1 in 48-63.
const (
	spanBits   = 24
	spanMask   = 1<<spanBits - 1
	maxWorkers = 1<<16 - 2
)

func packSpan(next, end, thief int) uint64 {
	return uint64(next) | uint64(end)<<spanBits | uint64(thief)<<(2*spanBits)
}

func unpackSpan(w uint64) (next, end, thief int) {
	return int(w & spanMask), int(w >> spanBits & spanMask), int(w >> (2 * spanBits))
}

// partitionShards splits d shards over n workers into contiguous,
// deterministic, near-equal ranges: worker w owns [w*q+min(w,r), ...+q+1)
// where q, r = d/n, d%n. These are the home spans: a shard is claimed by
// its span's owner unless the owner falls behind.
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

// newShardWorkers starts the pool: n goroutines, each waiting for its first
// start.
func newShardWorkers(f *Fleet, n int) *shardWorkers {
	if len(f.shards) > spanMask || n > maxWorkers {
		panic(fmt.Sprintf("fleet: %d shards on %d workers exceed the pool's %d shards or %d workers", len(f.shards), n, spanMask, maxWorkers))
	}
	p := &shardWorkers{
		f:      f,
		homes:  partitionShards(len(f.shards), n),
		spans:  make([]span, n),
		start:  make(chan epoch),
		arrive: make(chan time.Time),
	}
	p.wg.Add(n)
	for w := 0; w < n; w++ {
		go p.worker(w)
	}
	return p
}

// worker advances every shard it claims to each epoch boundary it is sent
// and reports when no shard is left, until start closes.
func (p *shardWorkers) worker(w int) {
	defer p.wg.Done()
	for e := range p.start {
		for i, ok := p.claim(w); ok; i, ok = p.claim(w) {
			p.f.epochShard(p.f.shards[i], e)
		}
		p.arrive <- time.Now()
	}
}

// claim returns the next shard worker w advances this epoch: the front of
// its own span while it lasts, then the back of the span with the most
// shards left that has no other thief. It reports false when there is
// nothing left for w. A lost compare-and-swap means another worker claimed
// a shard, so the loops make progress.
func (p *shardWorkers) claim(w int) (int, bool) {
	own := &p.spans[w].word
	for {
		old := own.Load()
		next, end, thief := unpackSpan(old)
		if next >= end {
			break
		}
		if own.CompareAndSwap(old, packSpan(next+1, end, thief)) {
			return next, true
		}
	}
	for {
		victim, most := -1, 0
		var old uint64
		for v := range p.spans {
			word := p.spans[v].word.Load()
			next, end, thief := unpackSpan(word)
			if end-next > most && (thief == 0 || thief == w+1) {
				victim, most, old = v, end-next, word
			}
		}
		if victim < 0 {
			return 0, false
		}
		next, end, _ := unpackSpan(old)
		if p.spans[victim].word.CompareAndSwap(old, packSpan(next, end-1, w+1)) {
			return end - 1, true
		}
	}
}

// reset returns every span to its owner's home range, with no thief.
func (p *shardWorkers) reset() {
	for w, r := range p.homes {
		p.spans[w].word.Store(packSpan(r[0], r[1], 0))
	}
}

// runEpoch advances every shard through epoch e, resetting the spans before
// the first start. With metrics on it records the barrier series: the
// control plane's wait from the first start sent to the last arrival, and
// the straggler gap from the first arrival to the last.
func (p *shardWorkers) runEpoch(e epoch) {
	p.reset()
	t0 := time.Now()
	for range p.spans {
		p.start <- e
	}
	first := <-p.arrive
	last := first
	for i := 1; i < len(p.spans); i++ {
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
