package workload

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vssd"
)

func smallPlatform(eng *sim.Engine) *vssd.Platform {
	pc := vssd.DefaultPlatformConfig()
	pc.Flash.Channels = 2
	pc.Flash.ChipsPerChannel = 2
	pc.Flash.BlocksPerChip = 32
	pc.Flash.PagesPerBlock = 16
	return vssd.NewPlatform(eng, pc)
}

// runShape drives one generator for dur and returns its recorded trace.
func runShape(t *testing.T, prof Profile, seed int64, dur sim.Time) []trace.Record {
	t.Helper()
	recs, _ := runGenerator(t, prof, seed, dur)
	return recs
}

// runGenerator is runShape that also returns the stopped generator.
func runGenerator(t *testing.T, prof Profile, seed int64, dur sim.Time) ([]trace.Record, *Generator) {
	t.Helper()
	eng := sim.NewEngine()
	p := smallPlatform(eng)
	v := p.AddVSSD(vssd.Config{Name: "w", Channels: []int{0, 1}})
	g := NewGenerator(eng, v, prof, sim.NewRNG(seed))
	const limit = 1 << 20
	rec := trace.NewRecorder(limit)
	g.Record(rec)
	g.Start()
	eng.RunUntil(dur)
	g.Stop()
	eng.Run()
	if rec.Len() == limit {
		t.Fatalf("the run filled its %d-record recorder, which keeps only the latest", limit)
	}
	var recs []trace.Record
	rec.Walk(func(seg []trace.Record) { recs = append(recs, seg...) })
	return recs, g
}

func TestApplyShapeSteadyIsIdentity(t *testing.T) {
	for _, name := range Names() {
		base := ByName(name)
		got := ApplyShape(base, ShapeSteady, 1, nil)
		if got.Burst != nil || got.Replay != nil || len(got.Diurnal) != 0 {
			t.Fatalf("%s: steady shape added overlays", name)
		}
		a := runShape(t, base, 11, 500*sim.Millisecond)
		b := runShape(t, got, 11, 500*sim.Millisecond)
		if len(a) != len(b) {
			t.Fatalf("%s: steady shape changed traffic: %d vs %d", name, len(a), len(b))
		}
	}
}

func TestShapeStringsRoundTrip(t *testing.T) {
	for _, s := range Shapes() {
		back, err := ParseShape(s.String())
		if err != nil || back != s {
			t.Fatalf("%v does not round-trip: %v %v", s, back, err)
		}
	}
	if _, err := ParseShape("nope"); err == nil {
		t.Fatal("unknown shape accepted")
	}
}

func TestDiurnalModulatesRate(t *testing.T) {
	base := ByName("YCSB")
	base.Phases = nil // isolate the diurnal component
	diurnal := ApplyShape(base, ShapeDiurnal, 1, nil)

	a := runShape(t, base, 21, 2*sim.Second)
	b := runShape(t, diurnal, 21, 2*sim.Second)
	if len(a) == len(b) {
		t.Fatal("diurnal overlay did not change the arrival count")
	}

	// The first harmonic's half-periods should show a visible rate swing:
	// count arrivals in [0,2s) quarters (period 4s → rising then falling).
	q := make([]int, 4)
	for _, r := range b {
		i := int(r.At / (500 * sim.Millisecond))
		if i >= 0 && i < 4 {
			q[i]++
		}
	}
	if q[1] <= q[3] {
		t.Fatalf("diurnal peak not visible: quarters %v", q)
	}

	// Deterministic per seed.
	c := runShape(t, diurnal, 21, 2*sim.Second)
	if len(b) != len(c) {
		t.Fatalf("diurnal run not deterministic: %d vs %d", len(b), len(c))
	}
	for i := range b {
		if b[i] != c[i] {
			t.Fatalf("diurnal record %d differs", i)
		}
	}
}

func TestBurstyFlipsRegimes(t *testing.T) {
	base := ByName("YCSB")
	bursty := ApplyShape(base, ShapeBursty, 1, nil)
	if bursty.Burst == nil {
		t.Fatal("bursty shape missing Burst")
	}

	eng := sim.NewEngine()
	p := smallPlatform(eng)
	v := p.AddVSSD(vssd.Config{Name: "w", Channels: []int{0, 1}})
	g := NewGenerator(eng, v, bursty, sim.NewRNG(31))
	g.Start()
	eng.RunUntil(4 * sim.Second)
	g.Stop()
	eng.Run()
	if g.burst.flips < 2 {
		t.Fatalf("only %d regime flips in 4s", g.burst.flips)
	}
	if f := g.RateFactor(); f != bursty.Burst.HighFactor && f != bursty.Burst.LowFactor {
		// The composed factor includes phases, so just check it's positive.
		if f <= 0 {
			t.Fatalf("rate factor %v", f)
		}
	}

	a := runShape(t, bursty, 31, 2*sim.Second)
	b := runShape(t, bursty, 31, 2*sim.Second)
	if len(a) != len(b) {
		t.Fatalf("bursty run not deterministic: %d vs %d", len(a), len(b))
	}
	steady := runShape(t, base, 31, 2*sim.Second)
	if len(a) == len(steady) {
		t.Fatal("bursty overlay did not change the arrival count")
	}
}

func TestReplayDeterministicAcrossEngines(t *testing.T) {
	src := ByName("YCSB").SynthesizeTrace(3000, 100000, sim.NewRNG(41))
	prof := ApplyShape(ByName("YCSB"), ShapeReplay, 1, src)
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}

	a := runShape(t, prof, 51, 2*sim.Second)
	b := runShape(t, prof, 99, 2*sim.Second) // different seed: replay ignores RNG
	if len(a) != len(b) {
		t.Fatalf("replay depends on the seed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay record %d differs across seeds", i)
		}
	}
	if len(a) == 0 {
		t.Fatal("replay issued nothing")
	}
	// Replayed LPN/pages match the source records (small logical space may
	// fold addresses, so check the prefix where they fit).
	for i := 0; i < 10 && i < len(a); i++ {
		if a[i].Write != src[i].Write || a[i].Pages != src[i].Pages {
			t.Fatalf("replay record %d: got %+v want %+v", i, a[i], src[i])
		}
	}
}

func TestReplayLoopWraps(t *testing.T) {
	// A short trace replayed over a long run must wrap and keep issuing.
	src := ByName("YCSB").SynthesizeTrace(200, 100000, sim.NewRNG(42))
	prof := ApplyShape(ByName("YCSB"), ShapeReplay, 1, src)

	eng := sim.NewEngine()
	p := smallPlatform(eng)
	v := p.AddVSSD(vssd.Config{Name: "w", Channels: []int{0, 1}})
	g := NewGenerator(eng, v, prof, sim.NewRNG(1))
	g.Start()
	eng.RunUntil(2 * sim.Second)
	g.Stop()
	eng.Run()
	if g.ReplayWraps() < 1 {
		t.Fatalf("replay never wrapped (issued %d)", g.Issued())
	}
	if g.Issued() <= int64(len(src)) {
		t.Fatalf("replay stopped after one pass: %d issued", g.Issued())
	}

	// Each pass issues the trace whole and in order, then starts it over.
	recs := runShape(t, prof, 1, 2*sim.Second)
	for i, r := range recs[:2*len(src)] {
		if s := src[i%len(src)]; r.Write != s.Write || r.Pages != s.Pages {
			t.Fatalf("request %d: %+v, want trace record %d %+v", i, r, i%len(src), s)
		}
	}
}

// TestSynthesizedReplayMatchesSupplied runs the replay shape's synthesized
// trace past its wrap: it must issue exactly the requests of the same trace
// synthesized up front and supplied to the shape.
func TestSynthesizedReplayMatchesSupplied(t *testing.T) {
	base := ByName("YCSB")
	base.MeanIOPS = 40000 // the first phase draws 20 000 records in 0.42 virtual s
	const seed, dur = 77, 600 * sim.Millisecond
	shaped := ApplyShape(base, ShapeReplay, seed, nil)
	recs := base.SynthesizeTrace(synthReplayLen, synthPages, sim.NewRNG(seed))
	supplied := ApplyShape(base, ShapeReplay, seed, recs)

	sp := shaped.Replay.synth
	s := newSynthesizer(sp.prof, synthPages, sim.NewRNG(sp.seed))
	for i := range sp.n {
		if r := s.next(); r != recs[i] {
			t.Fatalf("the shaped recipe's record %d is %+v, not the synthesized %+v", i, r, recs[i])
		}
	}
	a, ga := runGenerator(t, shaped, 1, dur)
	b, gb := runGenerator(t, supplied, 1, dur)
	if ga.ReplayWraps() < 1 || ga.ReplayWraps() != gb.ReplayWraps() {
		t.Fatalf("wraps: synthesized %d, supplied %d", ga.ReplayWraps(), gb.ReplayWraps())
	}
	if len(a) != len(b) || len(a) <= synthReplayLen {
		t.Fatalf("synthesized issued %d, supplied %d (trace %d)", len(a), len(b), synthReplayLen)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: synthesized %+v, supplied %+v", i, a[i], b[i])
		}
	}
}

// TestSynthesizedReplayTableWidths: a synthesized replay stores no records,
// and its generator draws them without allocating per record. A YCSB replay
// at a rate that wraps the 20 000-record trace inside replay_overload's
// length (0.25 + 0.5 virtual seconds), on a device fast enough to keep up,
// allocates under a third of what the stored trace alone would take
// (20 000 x 24 bytes) while it runs.
func TestSynthesizedReplayTableWidths(t *testing.T) {
	base := ByName("YCSB")
	base.MeanIOPS = 40000 // the first phase draws 20 000 records in 0.42 virtual s
	prof := ApplyShape(base, ShapeReplay, 3, nil)
	pc := vssd.DefaultPlatformConfig()
	pc.Flash.Channels = 2
	pc.Flash.ChipsPerChannel = 2
	pc.Flash.BlocksPerChip = 32
	pc.Flash.PagesPerBlock = 16
	pc.Flash.ReadPage, pc.Flash.ProgramPage, pc.Flash.BusNsPerKB = sim.Microsecond, 2*sim.Microsecond, 10
	eng := sim.NewEngine()
	v := vssd.NewPlatform(eng, pc).AddVSSD(vssd.Config{Name: "w", Channels: []int{0, 1}})
	g := NewGenerator(eng, v, prof, sim.NewRNG(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g.Start()
	eng.RunUntil(750 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	g.Stop()
	eng.Run()
	got := after.TotalAlloc - before.TotalAlloc
	if g.ReplayWraps() < 1 {
		t.Fatalf("replay did not wrap: %d issued (trace %d)", g.Issued(), synthReplayLen)
	}
	if held := len(prof.Replay.Records); held != 0 {
		t.Fatalf("synthesized replay holds %d records after issuing %d, want 0", held, g.Issued())
	}
	if bound := uint64(160 << 10); got > bound {
		t.Fatalf("replaying %d records allocated %d bytes, want <= %d", g.Issued(), got, bound)
	}
	t.Logf("%d issued, %d wraps, %d bytes allocated", g.Issued(), g.ReplayWraps(), got)
}

// TestShapedReplayShareable: one shaped replay profile drives any number of
// generators, one after another (a rack tenant's cutover restarts it on a
// new device) or at once, and each issues the same requests through the
// wrap. The concurrent pair shares a second profile no generator has read.
func TestShapedReplayShareable(t *testing.T) {
	base := ByName("YCSB")
	base.MeanIOPS = 40000
	const dur = 600 * sim.Millisecond
	prof := ApplyShape(base, ShapeReplay, 9, nil)
	first, g := runGenerator(t, prof, 1, dur)
	if g.ReplayWraps() < 1 || len(first) <= synthReplayLen {
		t.Fatalf("first generator: %d issued, %d wraps (trace %d)", len(first), g.ReplayWraps(), synthReplayLen)
	}
	var runs [3][]trace.Record
	runs[0], _ = runGenerator(t, prof, 1, dur)
	fresh := ApplyShape(base, ShapeReplay, 9, nil)
	var wg sync.WaitGroup
	for i := 1; i < len(runs); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], _ = runGenerator(t, fresh, 1, dur)
		}()
	}
	wg.Wait()
	for k, run := range runs {
		if !slices.Equal(run, first) {
			t.Fatalf("run %d issued %d requests, not the first generator's %d", k, len(run), len(first))
		}
	}
}

func TestReplayFoldsOversizedAddresses(t *testing.T) {
	src := []trace.Record{
		{At: 0, Write: true, LPN: 1 << 40, Pages: 4},
		{At: sim.Millisecond, LPN: 3, Pages: 100000},
	}
	prof := ApplyShape(ByName("YCSB"), ShapeReplay, 1, src)
	recs := runShape(t, prof, 1, sim.Second)
	if len(recs) < 2 {
		t.Fatalf("issued %d, want the trace's 2 at least", len(recs))
	}
	eng := sim.NewEngine()
	p := smallPlatform(eng)
	v := p.AddVSSD(vssd.Config{Name: "w", Channels: []int{0, 1}})
	logical := int64(v.Tenant().LogicalPages())
	for i, r := range recs {
		if r.LPN < 0 || r.LPN+int64(r.Pages) > logical {
			t.Fatalf("record %d not folded into logical space: %+v (logical %d)", i, r, logical)
		}
	}
}

func TestTemporalValidate(t *testing.T) {
	base := ByName("YCSB")
	bad := base
	bad.Diurnal = []Harmonic{{Period: 0, Amp: 0.5}}
	if bad.Validate() == nil {
		t.Fatal("zero-period harmonic accepted")
	}
	bad = base
	bad.Burst = &Burst{HighFactor: 0, MeanHigh: sim.Second, MeanLow: sim.Second}
	if bad.Validate() == nil {
		t.Fatal("zero high factor accepted")
	}
	bad = base
	bad.Burst = &Burst{HighFactor: 2, MeanHigh: 0, MeanLow: sim.Second}
	if bad.Validate() == nil {
		t.Fatal("zero sojourn accepted")
	}
	bad = base
	bad.Replay = &Replay{Records: []trace.Record{{At: 10, Pages: 1}, {At: 5, Pages: 1}}}
	if bad.Validate() == nil {
		t.Fatal("out-of-order replay accepted")
	}
	bad.Replay = &Replay{Records: []trace.Record{{At: 0, Pages: 0}}}
	if bad.Validate() == nil {
		t.Fatal("zero-page replay record accepted")
	}
}

func TestSynthesizeTraceHonorsOverlays(t *testing.T) {
	base := ByName("YCSB")
	shaped := ApplyShape(base, ShapeBursty, 1, nil)
	a := base.SynthesizeTrace(2000, 100000, sim.NewRNG(44))
	b := shaped.SynthesizeTrace(2000, 100000, sim.NewRNG(44))
	if a[len(a)-1].At == b[len(b)-1].At {
		t.Fatal("burst overlay did not change synthesized arrival times")
	}
	rep := ApplyShape(base, ShapeReplay, 45, a)
	if c := rep.Replay.Records; len(c) != len(a) || c[0] != a[0] {
		t.Fatal("the replay shape must replay the supplied records")
	}
}
