package workload

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vssd"
)

func TestAllProfilesValid(t *testing.T) {
	for _, name := range Names() {
		p := ByName(name)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestByNameUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown profile must panic")
		}
	}()
	ByName("NoSuchWorkload")
}

func TestClassesMatchTable4(t *testing.T) {
	for _, n := range EvaluationBandwidth() {
		if ByName(n).Class != Bandwidth {
			t.Fatalf("%s should be bandwidth-intensive", n)
		}
	}
	for _, n := range EvaluationLatency() {
		if ByName(n).Class != Latency {
			t.Fatalf("%s should be latency-sensitive", n)
		}
	}
	if Bandwidth.String() == Latency.String() {
		t.Fatal("class strings must differ")
	}
}

func TestPhaseFactorCycles(t *testing.T) {
	p := Profile{Phases: []Phase{{10 * sim.Second, 2.0}, {5 * sim.Second, 0.5}}}
	cases := []struct {
		t    sim.Time
		want float64
	}{
		{0, 2.0}, {9 * sim.Second, 2.0}, {10 * sim.Second, 0.5},
		{14 * sim.Second, 0.5}, {15 * sim.Second, 2.0}, {26 * sim.Second, 0.5},
	}
	for _, c := range cases {
		if got := p.phaseFactor(c.t); got != c.want {
			t.Fatalf("factor(%d) = %v, want %v", c.t, got, c.want)
		}
	}
	empty := Profile{}
	if empty.phaseFactor(123) != 1 {
		t.Fatal("no phases must give factor 1")
	}
}

func TestNextAccessBounds(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, name := range Names() {
		p := ByName(name)
		var st addrState
		const logical = 100000
		for i := 0; i < 2000; i++ {
			_, lpn, n := p.nextAccess(rng, &st, logical)
			if lpn < 0 || lpn+int64(n) > logical {
				t.Fatalf("%s: access [%d,%d) outside logical space", name, lpn, lpn+int64(n))
			}
			if n < p.PagesMin || n > p.PagesMax {
				t.Fatalf("%s: size %d outside [%d,%d]", name, n, p.PagesMin, p.PagesMax)
			}
		}
	}
}

func TestReadWriteMixApproximatesRatio(t *testing.T) {
	rng := sim.NewRNG(2)
	p := ByName("YCSB")
	var st addrState
	reads := 0
	const n = 20000
	for i := 0; i < n; i++ {
		w, _, _ := p.nextAccess(rng, &st, 100000)
		if !w {
			reads++
		}
	}
	got := float64(reads) / n
	if got < p.ReadRatio-0.02 || got > p.ReadRatio+0.02 {
		t.Fatalf("read fraction %v, want ~%v", got, p.ReadRatio)
	}
}

func TestSequentialityDiffersByClass(t *testing.T) {
	// Bandwidth profiles should produce far more sequential successors than
	// latency profiles.
	seqFrac := func(name string) float64 {
		rng := sim.NewRNG(3)
		p := ByName(name)
		var st addrState
		var prevEnd int64 = -1
		seq := 0
		const n = 5000
		for i := 0; i < n; i++ {
			_, lpn, np := p.nextAccess(rng, &st, 1_000_000)
			if lpn == prevEnd {
				seq++
			}
			prevEnd = lpn + int64(np)
		}
		return float64(seq) / n
	}
	ts, ycsb := seqFrac("TeraSort"), seqFrac("YCSB")
	if ts < 0.7 {
		t.Fatalf("TeraSort sequential fraction %v too low", ts)
	}
	if ycsb > 0.3 {
		t.Fatalf("YCSB sequential fraction %v too high", ycsb)
	}
}

func TestSynthesizeTrace(t *testing.T) {
	rng := sim.NewRNG(4)
	recs := ByName("VDI-Web").SynthesizeTrace(5000, 100000, rng)
	if len(recs) != 5000 {
		t.Fatalf("got %d records", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			t.Fatal("timestamps must be non-decreasing")
		}
	}
	// Effective IOPS should be within 2x of the configured mean given the
	// phase modulation.
	dur := float64(recs[len(recs)-1].At) / 1e9
	iops := float64(len(recs)) / dur
	if iops < 1000 || iops > 5000 {
		t.Fatalf("synthesized IOPS = %v", iops)
	}
}

func TestGeneratorOpenLoop(t *testing.T) {
	eng := sim.NewEngine()
	pc := vssd.DefaultPlatformConfig()
	pc.Flash.Channels = 4
	pc.Flash.ChipsPerChannel = 2
	pc.Flash.BlocksPerChip = 64
	pc.Flash.PagesPerBlock = 32
	p := vssd.NewPlatform(eng, pc)
	v := p.AddVSSD(vssd.Config{Name: "ls", Channels: []int{0, 1, 2, 3}})
	g := NewGenerator(eng, v, ByName("YCSB"), sim.NewRNG(5))
	rec := trace.NewRecorder(0)
	g.Record(rec)
	g.Start()
	eng.RunUntil(2 * sim.Second)
	g.Stop()
	eng.Run()
	issued := g.Issued()
	// ~3200 IOPS with phase factors 1.2/0.6 → roughly 2000-8000 in 2s.
	if issued < 1000 || issued > 12000 {
		t.Fatalf("issued %d requests in 2s", issued)
	}
	if int64(rec.Len()) != issued {
		t.Fatalf("trace has %d records for %d requests", rec.Len(), issued)
	}
	if v.Completed() == 0 {
		t.Fatal("nothing completed")
	}
}

func TestGeneratorClosedLoopSaturates(t *testing.T) {
	eng := sim.NewEngine()
	pc := vssd.DefaultPlatformConfig()
	pc.Flash.Channels = 4
	pc.Flash.ChipsPerChannel = 4
	pc.Flash.BlocksPerChip = 128
	pc.Flash.PagesPerBlock = 64
	p := vssd.NewPlatform(eng, pc)
	prof := ByName("TeraSort")
	v := p.AddVSSD(vssd.Config{Name: "bi", Channels: []int{0, 1, 2, 3},
		MaxInflightPages: prof.MaxInflightPages})
	g := NewGenerator(eng, v, prof, sim.NewRNG(6))
	g.Start()
	const dur = 2 * sim.Second
	eng.RunUntil(dur)
	g.Stop()
	snap := v.Rotate()
	bw := snap.Window.Bandwidth(dur)
	peak := 4 * pc.Flash.ChannelBandwidth()
	if bw < 0.5*peak {
		t.Fatalf("closed-loop bandwidth %.1f MB/s < 50%% of peak %.1f MB/s", bw/1e6, peak/1e6)
	}
}

func TestGeneratorStopHaltsArrivals(t *testing.T) {
	eng := sim.NewEngine()
	pc := vssd.DefaultPlatformConfig()
	pc.Flash.Channels = 2
	pc.Flash.ChipsPerChannel = 2
	pc.Flash.BlocksPerChip = 32
	pc.Flash.PagesPerBlock = 16
	p := vssd.NewPlatform(eng, pc)
	v := p.AddVSSD(vssd.Config{Name: "a", Channels: []int{0, 1}})
	g := NewGenerator(eng, v, ByName("YCSB"), sim.NewRNG(7))
	g.Start()
	eng.RunUntil(500 * sim.Millisecond)
	g.Stop()
	at := g.Issued()
	eng.RunUntil(1 * sim.Second)
	eng.Run()
	if g.Issued() != at {
		t.Fatalf("arrivals continued after Stop: %d -> %d", at, g.Issued())
	}
}
