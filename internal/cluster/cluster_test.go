package cluster

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestFeaturesEmpty(t *testing.T) {
	f := features(nil, 16384, 1_000_000)
	for _, v := range f {
		if v != 0 {
			t.Fatal("empty window must give zero features")
		}
	}
}

func TestFeaturesBasic(t *testing.T) {
	// 10 requests over 1 second: 5 reads of 1 page, 5 writes of 3 pages.
	var recs []trace.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, trace.Record{
			At:    sim.Time(i) * (sim.Second / 9),
			Write: i%2 == 1,
			LPN:   int64(i * 100),
			Pages: int32(1 + 2*(i%2)),
		})
	}
	const page = 16384
	f := features(recs, page, 1_000_000)
	if f[0] <= 0 || f[1] <= 0 {
		t.Fatalf("bandwidth features %v", f)
	}
	if f[1] <= f[0] {
		t.Fatal("writes are 3x larger; write BW must exceed read BW")
	}
	wantAvg := math.Log1p(float64(5*1+5*3) / 10 * page / 1024)
	if math.Abs(f[3]-wantAvg) > 1e-9 {
		t.Fatalf("avg size = %v (log KB), want %v", f[3], wantAvg)
	}
	if f[2] < 0 || f[2] > 1 {
		t.Fatalf("normalized entropy = %v", f[2])
	}
}

func TestEntropyOrdering(t *testing.T) {
	// A sequential scan concentrated in a window has lower entropy than
	// uniform random addresses.
	rng := sim.NewRNG(1)
	var seqRecs, rndRecs []trace.Record
	for i := 0; i < 10000; i++ {
		seqRecs = append(seqRecs, trace.Record{At: int64(i), LPN: int64(i % 500), Pages: 1})
		rndRecs = append(rndRecs, trace.Record{At: int64(i), LPN: int64(rng.Intn(1_000_000)), Pages: 1})
	}
	seq := features(seqRecs, 16384, 1_000_000)
	rnd := features(rndRecs, 16384, 1_000_000)
	if seq[2] >= rnd[2] {
		t.Fatalf("entropy ordering wrong: seq %v >= rnd %v", seq[2], rnd[2])
	}
}

func TestWindowize(t *testing.T) {
	recs := make([]trace.Record, 25)
	w := windowize(recs, 10)
	if len(w) != 2 {
		t.Fatalf("windows = %d, want 2 (partial dropped)", len(w))
	}
	if len(w[0]) != 10 || len(w[1]) != 10 {
		t.Fatal("window sizes wrong")
	}
}

func TestStandardize(t *testing.T) {
	points := [][]float64{{1, 10}, {3, 30}, {5, 50}}
	scaled, mean, std := Standardize(points)
	if mean[0] != 3 || mean[1] != 30 {
		t.Fatalf("mean = %v", mean)
	}
	for d := 0; d < 2; d++ {
		var s, ss float64
		for _, p := range scaled {
			s += p[d]
			ss += p[d] * p[d]
		}
		if math.Abs(s) > 1e-9 {
			t.Fatalf("scaled mean dim %d = %v", d, s/3)
		}
		if math.Abs(ss/3-1) > 1e-9 {
			t.Fatalf("scaled var dim %d = %v", d, ss/3)
		}
	}
	// appendApplied matches Standardize.
	ap := appendApplied(nil, points[0], mean, std)
	if math.Abs(ap[0]-scaled[0][0]) > 1e-12 {
		t.Fatal("appendApplied mismatch")
	}
}

func TestStandardizeConstantDim(t *testing.T) {
	points := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	scaled, _, _ := Standardize(points)
	for _, p := range scaled {
		if math.IsNaN(p[0]) || math.IsInf(p[0], 0) {
			t.Fatal("constant dimension produced NaN/Inf")
		}
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := sim.NewRNG(2)
	var points [][]float64
	var labels []int
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	for c, cen := range centers {
		for i := 0; i < 100; i++ {
			points = append(points, []float64{
				cen[0] + rng.NormFloat64(), cen[1] + rng.NormFloat64()})
			labels = append(labels, c)
		}
	}
	km := fitKMeans(points, 3, 50, rng)
	// Every blob must map to a single cluster and blobs to distinct ones.
	blobCluster := map[int]int{}
	for i, p := range points {
		c := km.assign(p)
		if prev, ok := blobCluster[labels[i]]; ok {
			if prev != c {
				t.Fatalf("blob %d split across clusters", labels[i])
			}
		} else {
			blobCluster[labels[i]] = c
		}
	}
	seen := map[int]bool{}
	for _, c := range blobCluster {
		if seen[c] {
			t.Fatal("two blobs merged into one cluster")
		}
		seen[c] = true
	}
}

func TestKMeansPanicsOnTooFewPoints(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic with fewer points than clusters")
		}
	}()
	fitKMeans([][]float64{{1}}, 2, 10, sim.NewRNG(1))
}

func TestPCA2RecoversVariance(t *testing.T) {
	// Points on a line y=2x with small noise: first component should align
	// with (1,2)/√5.
	rng := sim.NewRNG(3)
	var points [][]float64
	for i := 0; i < 500; i++ {
		x := rng.NormFloat64() * 5
		points = append(points, []float64{x, 2*x + rng.NormFloat64()*0.1})
	}
	// Center them (PCA2 assumes centered input).
	scaled, _, _ := Standardize(points)
	proj, comps := PCA2(scaled, rng)
	if len(proj) != len(points) {
		t.Fatal("projection length wrong")
	}
	// After standardization the dominant direction is (±1,±1)/√2.
	c := comps[0]
	if math.Abs(math.Abs(c[0])-math.Abs(c[1])) > 0.05 {
		t.Fatalf("first component %v not diagonal", c)
	}
	// Components are orthonormal.
	dot := c[0]*comps[1][0] + c[1]*comps[1][1]
	if math.Abs(dot) > 0.05 {
		t.Fatalf("components not orthogonal: dot = %v", dot)
	}
}

// The Figure 6 headline: the nine workloads cluster into
// bandwidth-intensive, YCSB-like (low entropy), and other
// latency-sensitive groups, with high test accuracy (paper: 98.4%).
func TestWorkloadClusteringFigure6(t *testing.T) {
	ds := BuildDataset(workload.Names(), 8, 2000, 16384, 42)
	train, test := ds.Split(0.7)
	m := Train(train, 3, 7)

	// TeraSort/MLPrep/PageRank must share a cluster (BI).
	bi := m.WorkloadCluster["TeraSort"]
	for _, wl := range []string{"MLPrep", "PageRank"} {
		if m.WorkloadCluster[wl] != bi {
			t.Fatalf("%s not in the BI cluster (got %d, want %d)",
				wl, m.WorkloadCluster[wl], bi)
		}
	}
	// YCSB must not share the BI cluster, and must differ from the broad
	// latency cluster (its own low-entropy cluster — Figure 6's LC-2).
	ycsb := m.WorkloadCluster["YCSB"]
	if ycsb == bi {
		t.Fatal("YCSB landed in the BI cluster")
	}
	vdi := m.WorkloadCluster["VDI-Web"]
	if vdi == bi {
		t.Fatal("VDI-Web landed in the BI cluster")
	}
	if ycsb == vdi {
		t.Fatal("YCSB should form its own cluster apart from VDI-Web (Figure 6)")
	}
	// Test accuracy near the paper's 98.4%.
	acc := m.Accuracy(test)
	if acc < 0.90 {
		t.Fatalf("test accuracy %.3f, want ≥ 0.90 (paper: 0.984)", acc)
	}
}

func TestModelClassifyKnownVsUnknown(t *testing.T) {
	ds := BuildDataset([]string{"TeraSort", "YCSB", "VDI-Web"}, 6, 2000, 16384, 1)
	m := Train(ds, 3, 2)
	// A feature vector far outside anything seen must be unknown.
	_, known := m.classify([]float64{1e9, 1e9, 0.5, 1e9})
	if known {
		t.Fatal("absurd features classified as known")
	}
	// A training sample must be known.
	_, known = m.classify(ds.Samples[0].Features)
	if !known {
		t.Fatal("training sample classified as unknown")
	}
}

func TestClassifyTrace(t *testing.T) {
	m := typingModel()
	recs := workload.ByName("TeraSort").SynthesizeTrace(2000, 1_000_000, sim.NewRNG(9))
	f := features(recs, 16384, synthLogicalPages)
	c, known := m.classify(f[:])
	if !known {
		t.Fatal("fresh TeraSort trace unknown")
	}
	if c != m.WorkloadCluster["TeraSort"] {
		t.Fatalf("TeraSort trace classified into cluster %d, want %d", c, m.WorkloadCluster["TeraSort"])
	}
}

// typingModel is a small trained model for the trace- and recorder-typing
// tests.
func typingModel() *Model {
	return Train(BuildDataset([]string{"TeraSort", "YCSB", "VDI-Web"}, 6, 2000, 16384, 1), 3, 2)
}

// recorded copies what rec holds, in arrival order.
func recorded(rec *trace.Recorder) []trace.Record {
	var out []trace.Record
	rec.Walk(func(seg []trace.Record) { out = append(out, seg...) })
	return out
}

// Reading the recorder in place must be indistinguishable from classifying
// a copy of it: same feature bits, same verdict — whatever the fill level,
// the cut (unwrapped, wrapped mid-chunk, wrapped on a chunk boundary), the
// page size or the logical size.
func TestClassifyRecorderMatchesCopy(t *testing.T) {
	m := typingModel()
	rng := sim.NewRNG(22)
	names := workload.Names()
	// The fixed cases cut a 3 000-record ring (three 1 024-record chunks,
	// the last short) where the random ones may not: filling mid-chunk,
	// exactly full, wrapped mid-chunk and wrapped on a chunk boundary.
	const limit3k, chunk = 3000, 1024
	fixed := [][2]int{{limit3k, chunk + 7}, {limit3k, limit3k}, {limit3k, limit3k + 500}, {limit3k, limit3k + chunk}, {limit3k, limit3k + 2*chunk}}
	for i := 0; i < 200+len(fixed); i++ {
		limit := 50 + rng.Intn(2000)
		var adds int
		switch i % 3 {
		case 0: // not full (sometimes under the typing floor)
			adds = rng.Intn(limit)
		case 1: // exactly full, not wrapped
			adds = limit
		default: // wrapped at a random offset
			adds = limit + 1 + rng.Intn(3*limit)
		}
		if i >= 200 {
			limit, adds = fixed[i-200][0], fixed[i-200][1]
		}
		pageSize := 4096 << rng.Intn(3)
		logical := int64(rng.Intn(2_000_000)) - 1000 // <= 0 now and then
		if i%10 == 9 {
			logical = 0
		}
		synthSpace := int(logical)
		if synthSpace < 1000 {
			synthSpace = 1000
		}
		rec := trace.NewRecorder(limit)
		for _, r := range workload.ByName(names[rng.Intn(len(names))]).SynthesizeTrace(adds, synthSpace, rng.Split(int64(i))) {
			rec.Add(r)
		}

		got := recorderFeatures(rec, pageSize, logical)
		want := features(recorded(rec), pageSize, logical)
		for d := range want {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				t.Fatalf("recorder %d (limit %d, %d adds, page %d, logical %d): feature %d = %v in place, %v from the copy",
					i, limit, adds, pageSize, logical, d, got[d], want[d])
			}
		}
		c, known, ok := m.ClassifyRecorder(rec, pageSize, logical)
		if wantOK := rec.Len() >= minTypingRecords; ok != wantOK {
			t.Fatalf("recorder %d: ok = %v with %d records", i, ok, rec.Len())
		}
		if !ok {
			if c != 0 || known {
				t.Fatalf("recorder %d: classified (%d, %v) under the typing floor", i, c, known)
			}
			continue
		}
		if wc, wk := m.classify(want[:]); c != wc || known != wk {
			t.Fatalf("recorder %d: (%d, %v) in place, (%d, %v) from the copy", i, c, known, wc, wk)
		}
	}
	if _, _, ok := m.ClassifyRecorder(nil, 16384, 1000); ok {
		t.Fatal("nil recorder classified")
	}
}

// Re-typing runs every few decision windows per tenant for the lifetime of
// a deployment; on the paper's 10K-request window it must not allocate
// (it used to copy the ring: 320 KB a call).
func TestClassifyRecorderZeroAlloc(t *testing.T) {
	m := typingModel()
	rec := trace.NewRecorder(WindowSize)
	recs := workload.ByName("YCSB").SynthesizeTrace(WindowSize+WindowSize/3, synthLogicalPages, sim.NewRNG(5))
	for _, r := range recs {
		rec.Add(r)
	}
	// Wrapped mid-chunk: the oldest record held sits 3 333 records into the
	// storage, 261 into its fourth chunk.
	if recorded(rec)[0] != recs[len(recs)-WindowSize] {
		t.Fatal("ring not wrapped: the oldest record held is not the window's first")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, ok := m.ClassifyRecorder(rec, 16384, synthLogicalPages); !ok {
			t.Fatal("full window not classified")
		}
	})
	if allocs != 0 {
		t.Fatalf("ClassifyRecorder allocates %v times per call on a wrapped %d-record ring, want 0", allocs, WindowSize)
	}
}
