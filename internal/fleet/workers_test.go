package fleet

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestPartitionShardsCoversContiguously(t *testing.T) {
	for d := 1; d <= 40; d++ {
		for n := 1; n <= d; n++ {
			parts := partitionShards(d, n)
			if len(parts) != n {
				t.Fatalf("d=%d n=%d: %d parts", d, n, len(parts))
			}
			next := 0
			for w, pt := range parts {
				if pt[0] != next {
					t.Fatalf("d=%d n=%d worker %d: range starts at %d, want %d (gap or overlap)", d, n, w, pt[0], next)
				}
				if size := pt[1] - pt[0]; size < d/n || size > d/n+1 {
					t.Fatalf("d=%d n=%d worker %d: unbalanced range size %d", d, n, w, size)
				}
				next = pt[1]
			}
			if next != d {
				t.Fatalf("d=%d n=%d: ranges cover [0,%d), want [0,%d)", d, n, next, d)
			}
		}
	}
}

// TestSpanClaimsProperty races owners and thieves over random home ranges
// (empty ones included) for many epochs. Every shard must be claimed exactly
// once an epoch, and each worker's claims within a span must form one
// contiguous run: the owner's from the front, the span's one thief's from
// the back. Run under -race by check.sh.
func TestSpanClaimsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		d := 1 + rng.Intn(48)
		n := 1 + rng.Intn(6)
		cuts := []int{0, d}
		for i := 1; i < n; i++ {
			cuts = append(cuts, rng.Intn(d+1))
		}
		sort.Ints(cuts)
		homes := make([][2]int, n)
		owner := make([]int, d)
		for w := range homes {
			homes[w] = [2]int{cuts[w], cuts[w+1]}
			for i := cuts[w]; i < cuts[w+1]; i++ {
				owner[i] = w
			}
		}
		p := &shardWorkers{homes: homes, spans: make([]span, n)}
		for ep := 0; ep < 20; ep++ {
			p.reset()
			claims := make([][]int, n)
			var wg sync.WaitGroup
			for w := 0; w < n; w++ {
				wg.Add(1)
				go func(w int, seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					for i, ok := p.claim(w); ok; i, ok = p.claim(w) {
						claims[w] = append(claims[w], i)
						for k := r.Intn(200); k > 0; k-- {
							if k%64 == 0 {
								runtime.Gosched()
							}
						}
					}
				}(w, rng.Int63())
			}
			wg.Wait()
			seen := make([]int, d)
			for w, cl := range claims {
				lo, hi, count := make([]int, n), make([]int, n), make([]int, n)
				for _, i := range cl {
					seen[i]++
					s := owner[i]
					if count[s] == 0 || i < lo[s] {
						lo[s] = i
					}
					if count[s] == 0 || i > hi[s] {
						hi[s] = i
					}
					count[s]++
				}
				for s := range count {
					if count[s] > 0 && hi[s]-lo[s]+1 != count[s] {
						t.Fatalf("d=%d homes=%v epoch %d: worker %d's claims in span %d are not one run: %v", d, homes, ep, w, s, cl)
					}
				}
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("d=%d homes=%v epoch %d: shard %d claimed %d times", d, homes, ep, i, c)
				}
			}
		}
	}
}

// TestBarrierStressManyEpochs hammers the channel hand-off: a tiny quantum
// forces hundreds of start/arrive rounds across a full worker complement
// (oversubscribed on small hosts, so workers finish in every order and some
// wait on arrive while others still hold a start). Run under -race by
// check.sh.
func TestBarrierStressManyEpochs(t *testing.T) {
	cfg := testConfig()
	cfg.Devices = 8
	cfg.Workers = 8
	cfg.Quantum = 2 * sim.Millisecond
	cfg.Duration = 600 * sim.Millisecond
	st := New(cfg).Run()
	if st.Epochs != 300 {
		t.Fatalf("ran %d epochs, want 300", st.Epochs)
	}
	if !st.Balanced() {
		t.Fatalf("ledger imbalance under barrier stress: %+v", st)
	}
}

// TestWorkerPoolCleanShutdown proves Run leaks no goroutines: the pool is
// created at Run start, and closing start ends every worker's loop, which
// Run joins before it returns, repeatedly.
func TestWorkerPoolCleanShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		cfg := testConfig()
		cfg.Workers = 6
		cfg.Duration = 500 * sim.Millisecond
		New(cfg).Run()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after three runs", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEpochLoopZeroSteadyStateAllocs pins the epoch loop — barrier,
// parallel shard advance + load refresh, sequential control plane with
// its migration-candidate scan — at zero allocations once the rack has
// settled (all arrivals resolved, no migrations in flight). Covers a pool of
// one worker and a pool of four.
func TestEpochLoopZeroSteadyStateAllocs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := testConfig()
		cfg.Workers = workers
		// Exactly the rack's slot capacity: no queue churn, and migration
		// stays on — every epoch runs the victim scan, but with no free
		// slot anywhere no move (and its allocations) can start.
		cfg.Tenants = 8
		cfg.ArrivalEvery = 10 * sim.Millisecond
		cfg.Duration = 1000 * sim.Second // headroom; epochs are stepped manually
		f := New(cfg)
		f.start()
		for i := 0; i < 60; i++ {
			f.step() // settle: place everyone, warm the parking paths
		}
		// The op/request free lists and FTL block-page scratch grow to
		// their high-water marks over the first few hundred epochs; allow
		// a bounded number of extra settle rounds, then require a clean
		// zero. Genuine per-epoch churn never converges and fails here.
		allocs := -1.0
		for round := 0; round < 6 && allocs != 0; round++ {
			allocs = testing.AllocsPerRun(30, func() { f.step() })
			for i := 0; i < 200; i++ {
				f.step()
			}
		}
		f.stopWorkers()
		if allocs != 0 {
			t.Errorf("workers=%d: epoch loop still allocates %.1f allocs/op after settling, want 0", workers, allocs)
		}
	}
}

// TestPartialEpochUtil: a Duration that is not a whole number of quanta
// ends the run in a short epoch, whose utilization is its bytes over the
// device's peak for the epoch's own 50 ms, not for a whole quantum.
func TestPartialEpochUtil(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 2050 * sim.Millisecond
	f := New(cfg)
	f.start()
	defer f.stopWorkers()
	for f.now < 2*sim.Second {
		f.step()
	}
	before := make([]int64, len(f.shards))
	for i, sh := range f.shards {
		before[i] = sh.lastBytes
	}
	f.step()
	if f.now != cfg.Duration {
		t.Fatalf("final epoch ended at %v, want %v", f.now, cfg.Duration)
	}
	busy := false
	for i, sh := range f.shards {
		moved := sh.lastBytes - before[i]
		busy = busy || moved > 0
		want := utilOver(moved, sh.peakBandwidth()*float64(50*sim.Millisecond)/1e9)
		if sh.epochUtil != want {
			t.Errorf("device %d: final 50 ms epoch util %v, want %v (%d bytes)", i, sh.epochUtil, want, moved)
		}
	}
	if !busy {
		t.Fatal("no device moved a byte in the final epoch")
	}
}

func TestUtilOverGuards(t *testing.T) {
	cases := []struct {
		delta int64
		denom float64
		want  float64
	}{
		{1 << 20, 2, 1 << 19},     // normal ratio
		{1 << 20, 0, 0},           // zero peak: would be +Inf
		{0, 0, 0},                 // zero/zero: would be NaN
		{1 << 20, math.Inf(1), 0}, // Inf peak (unvalidated BusNsPerKB=0)
		{1 << 20, math.NaN(), 0},  // poisoned peak
		{1 << 20, -5, 0},          // negative denominator
		{-4096, 2, -2048},         // negative delta stays finite
	}
	for _, c := range cases {
		got := utilOver(c.delta, c.denom)
		if got != c.want || math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("utilOver(%d, %v) = %v, want %v", c.delta, c.denom, got, c.want)
		}
	}
}

// TestBarrierMetricsPublished checks the barrier-health series appear and
// that a run accumulates barrier wait and control-plane time at every
// worker count, one worker included.
func TestBarrierMetricsPublished(t *testing.T) {
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		cfg := testConfig()
		cfg.Workers = workers
		cfg.Obs = reg
		st := New(cfg).Run()
		if st.Epochs == 0 {
			t.Fatal("no epochs ran")
		}
		names := map[string]bool{}
		for _, n := range reg.Names() {
			names[n] = true
		}
		for _, n := range []string{"fleetio_fleet_barrier_wait_ns", "fleetio_fleet_barrier_straggler_ns", "fleetio_fleet_control_plane_ns"} {
			if !names[n] {
				t.Errorf("workers=%d: metric %s not registered", workers, n)
			}
		}
		for _, n := range []string{"fleetio_fleet_barrier_wait_ns", "fleetio_fleet_control_plane_ns"} {
			if v := reg.Counter(n, "").Value(); !(v > 0) {
				t.Errorf("workers=%d: %s = %v after %d epochs, want > 0", workers, n, v, st.Epochs)
			}
		}
	}
}

// TestRackBytesPerDevice bounds what one device of a rack costs to build and
// run: the TotalAlloc of New + Run for an 8-device least-loaded rack with
// migration over one virtual second, per device. Most of it is FTL tables
// and the vSSDs' measurement state, which is what the bound watches: 286 KB a
// device (measured, about 15% under the bound) with a 4-byte L2P entry, one
// back-pointer a page, 64-byte block records and one sparse latency
// histogram a vSSD; 408 KB when every vSSD carried two dense 16 KB
// histograms and every window snapshot a third; 577 KB with the tables at
// twice their width as well.
func TestRackBytesPerDevice(t *testing.T) {
	const perDevice = 330_000
	cfg := testConfig()
	cfg.Devices = 8
	cfg.Duration = sim.Second
	cfg.Workers = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := New(cfg).Run()
	runtime.ReadMemStats(&after)
	if st.Completed == 0 {
		t.Fatal("the rack completed nothing")
	}
	got := (after.TotalAlloc - before.TotalAlloc) / uint64(cfg.Devices)
	t.Logf("%d bytes allocated per device", got)
	if got > perDevice {
		t.Fatalf("a rack device allocated %d bytes, want <= %d", got, perDevice)
	}
}
