// Package workload provides synthetic generators for the nine cloud
// workloads the paper uses (Table 4 for evaluation; §3.8 lists the
// pretraining set). The paper runs the real applications; this
// reproduction parameterizes each one in exactly the features FleetIO
// observes — IOPS process, request-size mix, read/write ratio, address
// locality (LPA entropy), sequentiality, and phase structure — so the
// clustering, reward fine-tuning, and bandwidth/latency contrasts exercise
// the same code paths.
package workload

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vssd"
)

// Class tags a workload as bandwidth-intensive or latency-sensitive
// (Table 4's two categories).
type Class uint8

// Workload classes.
const (
	Bandwidth Class = iota
	Latency
)

func (c Class) String() string {
	if c == Bandwidth {
		return "bandwidth-intensive"
	}
	return "latency-sensitive"
}

// Phase scales a workload's intensity for a duration; profiles cycle
// through their phases, producing the dynamic demand that storage
// harvesting exploits.
type Phase struct {
	Dur    sim.Time
	Factor float64
}

// Harmonic is one sinusoidal component of a diurnal intensity pattern:
// the rate multiplier contributes Amp*sin(2π·t/Period). Real diurnal
// curves are sums of a few harmonics (daily + weekly + noise period);
// profiles list several and the factors compose additively around 1.
type Harmonic struct {
	Period sim.Time
	Amp    float64
}

// Burst parameterizes a two-state Markov-modulated Poisson process: the
// generator alternates between a high-rate and a low-rate regime with
// exponentially distributed sojourn times, multiplying the base rate by
// HighFactor or LowFactor (0 = 1.0). State flips draw from the
// generator's own RNG stream, so the burst schedule is deterministic per
// seed and independent across tenants.
type Burst struct {
	HighFactor, LowFactor float64
	MeanHigh, MeanLow     sim.Time
}

// Replay makes a profile deterministic: instead of drawing synthetic
// accesses, the generator replays a trace open-loop at its recorded
// timestamps (shifted to the generator's start time), repeating it
// end-to-start and advancing the time base by the trace span each wrap.
//
// A supplied trace is all of Records. A trace ApplyShape synthesizes from
// a profile is not stored at all: the Replay holds its recipe, and each
// generator draws the records from the trace's own stream as it consumes
// them, again from the first at every wrap, so they are exactly those
// SynthesizeTrace returns up front. A Replay is never written after it is
// built; any number of generators may replay it, one after another or at
// once.
type Replay struct {
	Records []trace.Record

	synth *synthSpec // a synthesized trace's recipe; nil for a supplied one
}

// synthSpec is the recipe of a synthesized trace: the first n records of
// prof's SynthesizeTrace over synthPages pages, drawn from sim.NewRNG(seed).
type synthSpec struct {
	prof Profile
	seed int64
	n    int
}

// length returns how many records one pass of the trace replays.
func (r *Replay) length() int {
	if r.synth != nil {
		return r.synth.n
	}
	return len(r.Records)
}

// spanOf returns one loop iteration's duration, for a pass of n records
// arriving from first to last: last-minus-first plus one mean gap, so
// looped replays keep a steady arrival rate across the wrap instead of
// issuing two records back to back.
func spanOf(first, last sim.Time, n int) sim.Time {
	d := last - first
	if n <= 1 || d <= 0 {
		return sim.Millisecond
	}
	return d + d/sim.Time(n-1)
}

// Profile is a fully parameterized workload.
type Profile struct {
	Name  string
	Class Class

	// ClosedLoop keeps Concurrency requests in flight (bandwidth-hungry
	// batch jobs); otherwise arrivals are an open-loop Poisson process at
	// MeanIOPS.
	ClosedLoop  bool
	Concurrency int
	MeanIOPS    float64

	// ReadRatio is the fraction of requests that are reads.
	ReadRatio float64
	// PagesMin/PagesMax bound the uniform request size in pages.
	PagesMin, PagesMax int
	// SeqProb is the probability of continuing a sequential run instead of
	// jumping to a Zipf-random offset.
	SeqProb float64
	// ZipfSkew shapes random jumps (1.0 = uniform; higher = more local).
	ZipfSkew float64
	// WorkingSetFrac bounds the touched fraction of the logical space.
	WorkingSetFrac float64
	// Phases modulate intensity; empty means constant.
	Phases []Phase
	// MaxInflightPages overrides the vSSD inflight cap (0 = default).
	MaxInflightPages int

	// Diurnal adds multi-period sinusoidal rate modulation on top of
	// Phases; empty means none. The composed factor is clamped at 0.05.
	Diurnal []Harmonic
	// Burst overlays a two-state MMPP regime switch; nil means none.
	Burst *Burst
	// Replay, when set, replaces the synthetic access process entirely:
	// the generator replays the trace open-loop and every other shape
	// knob is ignored.
	Replay *Replay
}

// Validate reports profile errors.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if p.Replay != nil {
		// Replay profiles use only the trace; the synthetic knobs are
		// unused and so unchecked. A synthesized trace is valid by
		// construction (At never decreases, Pages >= 1, LPN >= 0), and its
		// base profile was checked when it was synthesized.
		if p.Replay.synth != nil {
			return nil
		}
		if err := checkRecords(p.Replay.Records); err != nil {
			return fmt.Errorf("workload %s: %w", p.Name, err)
		}
		return nil
	}
	for i, h := range p.Diurnal {
		if h.Period <= 0 {
			return fmt.Errorf("workload %s: diurnal harmonic %d: period %v", p.Name, i, h.Period)
		}
	}
	if b := p.Burst; b != nil {
		switch {
		case b.HighFactor <= 0:
			return fmt.Errorf("workload %s: burst high factor %v", p.Name, b.HighFactor)
		case b.LowFactor < 0:
			return fmt.Errorf("workload %s: burst low factor %v", p.Name, b.LowFactor)
		case b.MeanHigh <= 0 || b.MeanLow <= 0:
			return fmt.Errorf("workload %s: burst sojourns %v/%v", p.Name, b.MeanHigh, b.MeanLow)
		}
	}
	switch {
	case p.ClosedLoop && p.Concurrency <= 0:
		return fmt.Errorf("workload %s: closed loop needs concurrency", p.Name)
	case !p.ClosedLoop && p.MeanIOPS <= 0:
		return fmt.Errorf("workload %s: open loop needs IOPS", p.Name)
	case p.ReadRatio < 0 || p.ReadRatio > 1:
		return fmt.Errorf("workload %s: read ratio %v", p.Name, p.ReadRatio)
	case p.PagesMin <= 0 || p.PagesMax < p.PagesMin:
		return fmt.Errorf("workload %s: page bounds %d..%d", p.Name, p.PagesMin, p.PagesMax)
	case p.SeqProb < 0 || p.SeqProb > 1:
		return fmt.Errorf("workload %s: seq prob %v", p.Name, p.SeqProb)
	case p.WorkingSetFrac <= 0 || p.WorkingSetFrac > 1:
		return fmt.Errorf("workload %s: working set %v", p.Name, p.WorkingSetFrac)
	}
	return nil
}

// checkRecords holds a supplied trace to the replay rules: non-empty, every
// record at least one page at a non-negative LPN, arrivals in time order.
func checkRecords(recs []trace.Record) error {
	if len(recs) == 0 {
		return fmt.Errorf("empty replay trace")
	}
	var prev sim.Time
	for i, r := range recs {
		if r.Pages < 1 || r.LPN < 0 {
			return fmt.Errorf("replay record %d: lpn=%d pages=%d", i, r.LPN, r.Pages)
		}
		if r.At < prev {
			return fmt.Errorf("replay record %d out of order", i)
		}
		prev = r.At
	}
	return nil
}

// The nine workload profiles. Bandwidth-intensive jobs are closed-loop
// streaming mixes; latency-sensitive services are open-loop with small
// requests. YCSB-B gets a much higher Zipf skew than the other
// latency-sensitive services so it forms its own low-entropy cluster
// (Figure 6).
var profiles = map[string]Profile{
	"TeraSort": {
		Name: "TeraSort", Class: Bandwidth, ClosedLoop: true, Concurrency: 12,
		ReadRatio: 0.50, PagesMin: 16, PagesMax: 48, SeqProb: 0.92, ZipfSkew: 1.0,
		WorkingSetFrac: 0.45, MaxInflightPages: 512,
		Phases: []Phase{{8 * sim.Second, 1.0}, {4 * sim.Second, 0.7}},
	},
	"MLPrep": {
		Name: "MLPrep", Class: Bandwidth, ClosedLoop: true, Concurrency: 10,
		ReadRatio: 0.75, PagesMin: 12, PagesMax: 40, SeqProb: 0.88, ZipfSkew: 1.1,
		WorkingSetFrac: 0.5, MaxInflightPages: 512,
		Phases: []Phase{{6 * sim.Second, 1.0}, {3 * sim.Second, 0.8}},
	},
	"PageRank": {
		Name: "PageRank", Class: Bandwidth, ClosedLoop: true, Concurrency: 14,
		ReadRatio: 0.85, PagesMin: 16, PagesMax: 64, SeqProb: 0.90, ZipfSkew: 1.0,
		WorkingSetFrac: 0.55, MaxInflightPages: 512,
		Phases: []Phase{{10 * sim.Second, 1.0}, {2 * sim.Second, 0.5}},
	},
	"BatchAnalytics": {
		Name: "BatchAnalytics", Class: Bandwidth, ClosedLoop: true, Concurrency: 8,
		ReadRatio: 0.70, PagesMin: 8, PagesMax: 32, SeqProb: 0.85, ZipfSkew: 1.0,
		WorkingSetFrac: 0.8, MaxInflightPages: 256,
		Phases: []Phase{{5 * sim.Second, 1.0}, {5 * sim.Second, 0.6}},
	},
	"VDI-Web": {
		Name: "VDI-Web", Class: Latency, MeanIOPS: 2200,
		ReadRatio: 0.70, PagesMin: 1, PagesMax: 4, SeqProb: 0.15, ZipfSkew: 1.25,
		WorkingSetFrac: 0.6, MaxInflightPages: 128,
		Phases: []Phase{{4 * sim.Second, 1.3}, {4 * sim.Second, 0.5}, {4 * sim.Second, 1.0}},
	},
	"YCSB": {
		Name: "YCSB", Class: Latency, MeanIOPS: 3200,
		ReadRatio: 0.95, PagesMin: 1, PagesMax: 1, SeqProb: 0.05, ZipfSkew: 2.2,
		WorkingSetFrac: 0.5, MaxInflightPages: 128,
		Phases: []Phase{{5 * sim.Second, 1.2}, {5 * sim.Second, 0.6}},
	},
	"TPCE": {
		Name: "TPCE", Class: Latency, MeanIOPS: 2600,
		ReadRatio: 0.90, PagesMin: 1, PagesMax: 2, SeqProb: 0.10, ZipfSkew: 1.24,
		WorkingSetFrac: 0.7, MaxInflightPages: 128,
		Phases: []Phase{{6 * sim.Second, 1.1}, {3 * sim.Second, 0.7}},
	},
	"SearchEngine": {
		Name: "SearchEngine", Class: Latency, MeanIOPS: 2000,
		ReadRatio: 0.98, PagesMin: 1, PagesMax: 4, SeqProb: 0.12, ZipfSkew: 1.27,
		WorkingSetFrac: 0.8, MaxInflightPages: 128,
		Phases: []Phase{{4 * sim.Second, 1.4}, {6 * sim.Second, 0.6}},
	},
	"LiveMaps": {
		Name: "LiveMaps", Class: Latency, MeanIOPS: 1600,
		ReadRatio: 0.80, PagesMin: 2, PagesMax: 8, SeqProb: 0.25, ZipfSkew: 1.20,
		WorkingSetFrac: 0.7, MaxInflightPages: 128,
		Phases: []Phase{{5 * sim.Second, 1.0}, {5 * sim.Second, 0.8}},
	},
}

// ByName returns the named profile; it panics on unknown names (profiles
// are compile-time data, so a miss is a programming error).
func ByName(name string) Profile {
	p, ok := profiles[name]
	if !ok {
		panic(fmt.Sprintf("workload: unknown profile %q", name))
	}
	return p
}

// Names returns all profile names, evaluation set first.
func Names() []string {
	return []string{
		"TeraSort", "MLPrep", "PageRank", "VDI-Web", "YCSB",
		"TPCE", "SearchEngine", "LiveMaps", "BatchAnalytics",
	}
}

// EvaluationBandwidth returns the bandwidth-intensive evaluation set.
func EvaluationBandwidth() []string { return []string{"TeraSort", "MLPrep", "PageRank"} }

// EvaluationLatency returns the latency-sensitive evaluation set.
func EvaluationLatency() []string { return []string{"VDI-Web", "YCSB"} }

// addrState tracks the sequential pointer for address generation.
type addrState struct {
	seq int64
}

// nextAccess produces the next (write, lpn, pages) triple for the profile
// over a logical space of `pages` pages.
func (p Profile) nextAccess(rng *sim.RNG, st *addrState, logicalPages int) (write bool, lpn int64, n int) {
	write = rng.Float64() >= p.ReadRatio
	n = p.PagesMin
	if p.PagesMax > p.PagesMin {
		n += rng.Intn(p.PagesMax - p.PagesMin + 1)
	}
	ws := int64(float64(logicalPages) * p.WorkingSetFrac)
	if ws < int64(n) {
		ws = int64(n)
	}
	if rng.Float64() < p.SeqProb {
		if st.seq+int64(n) > ws {
			st.seq = 0 // wrap the sequential stream
		}
		lpn = st.seq
	} else {
		lpn = int64(rng.Zipf(int(ws), p.ZipfSkew))
		if lpn+int64(n) > ws {
			lpn = ws - int64(n)
			if lpn < 0 {
				lpn = 0
			}
		}
	}
	st.seq = lpn + int64(n) // the next sequential access continues here
	return write, lpn, n
}

// phaseFactor returns the intensity multiplier at time t.
func (p Profile) phaseFactor(t sim.Time) float64 {
	if len(p.Phases) == 0 {
		return 1
	}
	var cycle sim.Time
	for _, ph := range p.Phases {
		cycle += ph.Dur
	}
	if cycle <= 0 {
		return 1
	}
	off := t % cycle
	for _, ph := range p.Phases {
		if off < ph.Dur {
			return ph.Factor
		}
		off -= ph.Dur
	}
	return 1
}

// diurnalFactor composes the profile's harmonics at time t, clamped so
// the rate never collapses entirely during troughs.
func (p Profile) diurnalFactor(t sim.Time) float64 {
	f := 1.0
	for _, h := range p.Diurnal {
		f += h.Amp * math.Sin(2*math.Pi*float64(t)/float64(h.Period))
	}
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// rateAt composes the intensity multiplier at time now: phase × diurnal ×
// burst, the burst regime advanced in bs with sojourns drawn from rng.
// Profiles without Diurnal/Burst take no draws here.
func (p *Profile) rateAt(now sim.Time, bs *burstState, rng *sim.RNG) float64 {
	f := p.phaseFactor(now)
	if len(p.Diurnal) > 0 {
		f *= p.diurnalFactor(now)
	}
	if p.Burst != nil {
		f *= bs.factor(p.Burst, now, rng)
	}
	return f
}

// burstState tracks which MMPP regime a stream is in and when it next
// flips; shared between the live Generator and the trace synthesizer.
type burstState struct {
	init  bool
	high  bool
	until sim.Time
	flips int64
}

// factor advances the regime switch to time now (drawing sojourns from
// rng) and returns the current rate multiplier.
func (bs *burstState) factor(b *Burst, now sim.Time, rng *sim.RNG) float64 {
	if !bs.init {
		bs.init = true
		bs.high = false
		bs.until = now + rng.ExpDuration(b.MeanLow)
	}
	for now >= bs.until {
		bs.high = !bs.high
		bs.flips++
		mean := b.MeanLow
		if bs.high {
			mean = b.MeanHigh
		}
		bs.until += rng.ExpDuration(mean)
	}
	if bs.high {
		return b.HighFactor
	}
	if b.LowFactor == 0 {
		return 1
	}
	return b.LowFactor
}

// Generator drives a vSSD with the profile's traffic. Its steady state is
// allocation-free: requests come from the vSSD's pool, the closed-loop
// completion callback is built once at construction, and think-time /
// arrival waits go through the engine's closure-free scheduling path.
type Generator struct {
	prof    Profile
	eng     *sim.Engine
	v       *vssd.VSSD
	rng     *sim.RNG
	st      addrState
	stopped bool
	rec     *trace.Recorder
	issued  int64
	// lastFactor is the most recent composed rate multiplier (phases ×
	// diurnal × burst), exported for observability.
	lastFactor float64
	burst      burstState
	// cursor is a replaying generator's place in its trace; nil unless
	// the profile replays one.
	cursor *replayCursor
	// onClosed is the shared completion callback for closed-loop requests;
	// caching it avoids one closure allocation per request.
	onClosed func(*vssd.Request, sim.Time)
}

// NewGenerator binds a profile to a vSSD. Call Start to begin traffic.
func NewGenerator(eng *sim.Engine, v *vssd.VSSD, prof Profile, rng *sim.RNG) *Generator {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{prof: prof, eng: eng, v: v, rng: rng, lastFactor: 1}
	if prof.Replay != nil {
		g.cursor = &replayCursor{}
	}
	g.onClosed = func(_ *vssd.Request, _ sim.Time) { g.closedDone() }
	return g
}

// Record attaches a trace recorder capturing every issued request.
func (g *Generator) Record(rec *trace.Recorder) { g.rec = rec }

// Issued returns the number of requests issued so far.
func (g *Generator) Issued() int64 { return g.issued }

// RateFactor returns the most recent composed rate multiplier (phase ×
// diurnal × burst); replay generators report 1.
func (g *Generator) RateFactor() float64 { return g.lastFactor }

// ReplayWraps returns how many times a replay has restarted.
func (g *Generator) ReplayWraps() int64 {
	if g.cursor == nil {
		return 0
	}
	return g.cursor.wraps
}

// rateFactor composes the intensity multiplier at time now and caches it
// for RateFactor.
func (g *Generator) rateFactor(now sim.Time) float64 {
	g.lastFactor = g.prof.rateAt(now, &g.burst, g.rng)
	return g.lastFactor
}

// Start launches the arrival process.
func (g *Generator) Start() {
	g.stopped = false
	if c := g.cursor; c != nil {
		c.i = 0
		c.cur = c.record(g.prof.Replay)
		c.first = c.cur.At
		c.base = g.eng.Now() - c.first
		g.armReplay()
		return
	}
	if g.prof.ClosedLoop {
		for i := 0; i < g.prof.Concurrency; i++ {
			g.issueClosed()
		}
		return
	}
	g.scheduleOpen()
}

// Stop halts new arrivals (in-flight requests complete normally).
func (g *Generator) Stop() { g.stopped = true }

func (g *Generator) issue(onComplete func(*vssd.Request, sim.Time)) {
	write, lpn, n := g.prof.nextAccess(g.rng, &g.st, g.v.Tenant().LogicalPages())
	g.submit(write, lpn, n, onComplete)
}

// submit records one request, counts it, and sends it down the datapath.
func (g *Generator) submit(write bool, lpn int64, n int, onComplete func(*vssd.Request, sim.Time)) {
	if g.rec != nil {
		g.rec.Add(trace.Record{At: g.eng.Now(), Write: write, LPN: lpn, Pages: int32(n)})
	}
	g.issued++
	r := g.v.AcquireRequest()
	r.Write = write
	r.LPN = int(lpn)
	r.Pages = n
	r.OnComplete = onComplete
	g.v.Submit(r)
}

func (g *Generator) issueClosed() {
	if g.stopped {
		return
	}
	g.issue(g.onClosed)
}

// closedDone chains the next closed-loop request, inserting think time
// between batch stages when the phase factor is below 1.
func (g *Generator) closedDone() {
	f := g.rateFactor(g.eng.Now())
	if f >= 0.999 {
		g.issueClosed()
		return
	}
	if f < 0.05 {
		f = 0.05
	}
	// Pause proportional to (1-f): at factor 0.5 the stream idles about
	// one service time per request.
	delay := sim.Time(float64(2*sim.Millisecond) * (1 - f) / f)
	if delay < sim.Microsecond {
		delay = sim.Microsecond
	}
	g.eng.ScheduleEvent(delay, genIssueClosed, sim.EventArg{P: g})
}

// genIssueClosed resumes a closed-loop stream after its think-time pause.
func genIssueClosed(arg sim.EventArg, _ sim.Time) { arg.P.(*Generator).issueClosed() }

func (g *Generator) scheduleOpen() {
	if g.stopped {
		return
	}
	f := g.rateFactor(g.eng.Now())
	rate := g.prof.MeanIOPS * f
	if rate < 1 {
		rate = 1
	}
	gap := g.rng.ExpDuration(sim.Time(1e9 / rate))
	g.eng.ScheduleEvent(gap, genOpenArrival, sim.EventArg{P: g})
}

// genOpenArrival fires one open-loop Poisson arrival and re-arms the gap.
func genOpenArrival(arg sim.EventArg, _ sim.Time) {
	g := arg.P.(*Generator)
	if g.stopped {
		return
	}
	g.issue(nil)
	g.scheduleOpen()
}

// replayCursor is a replaying generator's place in its trace: the index
// of the armed record and the record itself, the first record's arrival,
// the virtual-time base the trace is shifted by, and how many times the
// trace has wrapped. synth draws a synthesized trace, from its
// first record at Start and at every wrap.
type replayCursor struct {
	i     int
	cur   trace.Record
	first sim.Time
	base  sim.Time
	wraps int64
	synth synthesizer
}

// record returns record c.i of rp's trace. A synthesized trace is drawn in
// order, restarting from its seed at record 0.
func (c *replayCursor) record(rp *Replay) trace.Record {
	if rp.synth == nil {
		return rp.Records[c.i]
	}
	if c.i == 0 {
		c.synth = newSynthesizer(rp.synth.prof, synthPages, sim.NewRNG(rp.synth.seed))
	}
	return c.synth.next()
}

// scheduleReplay arms the next trace record's arrival, wrapping the trace
// by advancing the time base one span per iteration.
func (g *Generator) scheduleReplay() {
	if g.stopped {
		return
	}
	c, rp := g.cursor, g.prof.Replay
	if c.i >= rp.length() {
		c.base += spanOf(c.first, c.cur.At, c.i)
		c.i = 0
		c.wraps++
	}
	c.cur = c.record(rp)
	g.armReplay()
}

// armReplay schedules the arrival of the armed record.
func (g *Generator) armReplay() {
	c := g.cursor
	delay := c.base + c.cur.At - g.eng.Now()
	if delay < 0 {
		delay = 0
	}
	g.eng.ScheduleEvent(delay, genReplayArrival, sim.EventArg{P: g})
}

// genReplayArrival issues the armed trace record and arms the next.
func genReplayArrival(arg sim.EventArg, _ sim.Time) {
	g := arg.P.(*Generator)
	if g.stopped {
		return
	}
	g.issueReplay(g.cursor.cur)
	g.cursor.i++
	g.scheduleReplay()
}

// issueReplay submits one trace record through the normal datapath,
// folding addresses that fall outside the tenant's logical space back in
// (a trace captured on a bigger device must still replay on a small vSSD).
func (g *Generator) issueReplay(r trace.Record) {
	logical := int64(g.v.Tenant().LogicalPages())
	n := int64(r.Pages)
	if n > logical {
		n = logical
	}
	lpn := r.LPN
	if lpn+n > logical {
		lpn %= logical
		if lpn+n > logical {
			lpn = logical - n
		}
	}
	g.submit(r.Write, lpn, int(n), nil)
}

// SynthesizeTrace produces n records of this base profile (not a replay
// one) without a simulator, for clustering and offline analysis.
// Timestamps follow the open-loop arrival model (closed-loop profiles use
// an effective IOPS estimated from concurrency and a nominal 2 ms service
// time).
func (p Profile) SynthesizeTrace(n int, logicalPages int, rng *sim.RNG) []trace.Record {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	s := newSynthesizer(p, logicalPages, rng)
	recs := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, s.next())
	}
	return recs
}

// synthesizer draws a profile's trace one record at a time: the arrival
// clock, the address and burst state, and the stream they draw from.
// SynthesizeTrace and a replaying generator both draw through it.
type synthesizer struct {
	prof         Profile
	rate         float64
	logicalPages int
	rng          *sim.RNG
	st           addrState
	bs           burstState
	now          sim.Time
}

// newSynthesizer starts p's trace over logicalPages pages, drawing from rng.
func newSynthesizer(p Profile, logicalPages int, rng *sim.RNG) synthesizer {
	rate := p.MeanIOPS
	if p.ClosedLoop {
		rate = float64(p.Concurrency) / 0.002
	}
	return synthesizer{prof: p, rate: rate, logicalPages: logicalPages, rng: rng}
}

// next draws the trace's next record.
func (s *synthesizer) next() trace.Record {
	p := &s.prof
	r := s.rate * p.rateAt(s.now, &s.bs, s.rng)
	if r < 1 {
		r = 1
	}
	s.now += s.rng.ExpDuration(sim.Time(1e9 / r))
	write, lpn, np := p.nextAccess(s.rng, &s.st, s.logicalPages)
	return trace.Record{At: s.now, Write: write, LPN: lpn, Pages: int32(np)}
}
