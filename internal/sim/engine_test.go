package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOWithinInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.Schedule(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("nested events fired at %v, want [10 15]", fired)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.Schedule(i*10, func() { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Fatalf("RunUntil(50) executed %d events, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %d, want 50", e.Now())
	}
	e.RunUntil(200)
	if count != 10 {
		t.Fatalf("RunUntil(200) executed %d events total, want 10", count)
	}
	if e.Now() != 200 {
		t.Fatalf("clock = %d, want 200", e.Now())
	}
}

func TestEngineRunUntilInclusive(t *testing.T) {
	e := NewEngine()
	hit := false
	e.Schedule(100, func() { hit = true })
	e.RunUntil(100)
	if !hit {
		t.Fatal("event at the RunUntil boundary must execute")
	}
}

func TestEnginePanicsOnPastSchedule(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	e.AtEvent(5, runClosure, EventArg{P: func() {}})
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay must panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	e.Ticker(100, func(now Time) { ticks = append(ticks, now) })
	e.Ticker(150, func(now Time) { ticks = append(ticks, -now) })
	e.RunUntil(400)
	// StopTickers stops both: each lapses at its next tick, and Run then
	// returns with nothing queued.
	e.StopTickers()
	e.Run()
	want := []Time{100, -150, 200, -300, 300, 400}
	if !slices.Equal(ticks, want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events pending after StopTickers and Run", e.Pending())
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero ticker period must panic")
		}
	}()
	e.Ticker(0, func(Time) {})
}

// Property: for any batch of non-negative delays, the engine executes
// callbacks in non-decreasing time order and ends with the clock at the
// maximum delay.
func TestEngineTimeMonotoneProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var seen []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.Schedule(d, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	a := NewRNG(7).Split(1)
	b := NewRNG(7).Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Intn(1000) == b.Intn(1000) {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("split streams look identical: %d/100 collisions", same)
	}
}

func TestRNGZipfBounds(t *testing.T) {
	g := NewRNG(1)
	for _, n := range []int{1, 2, 10, 1000} {
		for _, s := range []float64{1.0, 1.2, 2.0} {
			for i := 0; i < 500; i++ {
				v := g.Zipf(n, s)
				if v < 0 || v >= n {
					t.Fatalf("Zipf(%d,%v) = %d out of range", n, s, v)
				}
			}
		}
	}
}

func TestRNGZipfSkew(t *testing.T) {
	g := NewRNG(3)
	const n = 1000
	low := 0
	for i := 0; i < 10000; i++ {
		if g.Zipf(n, 2.0) < n/10 {
			low++
		}
	}
	// With strong skew the first decile should absorb well over half the mass.
	if low < 6000 {
		t.Fatalf("Zipf skew too weak: only %d/10000 in first decile", low)
	}
}

func TestRNGExpDurationPositive(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 1000; i++ {
		if d := g.ExpDuration(1000); d < 1 {
			t.Fatalf("ExpDuration returned %d < 1", d)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(11)
	var sum float64
	const iters = 200000
	for i := 0; i < iters; i++ {
		sum += float64(g.ExpDuration(250))
	}
	mean := sum / iters
	if mean < 240 || mean > 260 {
		t.Fatalf("exponential mean = %v, want ~250", mean)
	}
}
