package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// randNet builds a network with random dims drawn from rng (paper-scale
// ranges). Every fourth trial is value-only — zero policy heads, the shape
// baseline.NewSSDKeeper trains through BackwardBatch(cache, nil, dVals) —
// and the first of those is SSDKeeper's own 3→16→16→1.
func randNet(rng *sim.RNG, trial int) *ActorCritic {
	in := 4 + rng.Intn(40)
	hidden := 4 + rng.Intn(60)
	heads := make([]int, 1+rng.Intn(4))
	for i := range heads {
		heads[i] = 2 + rng.Intn(6)
	}
	if trial%4 == 3 {
		heads = nil
		if trial == 3 {
			in, hidden = 3, 16
		}
	}
	return NewActorCritic(in, hidden, heads, rng)
}

// TestBatchMatchesScalarOracle is the bit-identity oracle: for random
// network shapes and batch sizes 1..64, ForwardBatch/BackwardBatch must
// produce exactly (==, not approximately) the outputs and gradient
// accumulators that looping the scalar reference (oracle_test.go) over the
// rows does. Every shape also runs at b = 1, the row count every
// single-state caller (per-agent inference, Predict) uses, and every trial
// runs under each kernel implementation the host has. This is the property
// that lets the kernels be the only network code that ships without
// perturbing any golden figure.
func TestBatchMatchesScalarOracle(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := sim.NewRNG(7)
		for trial := 0; trial < 40; trial++ {
			ref := randNet(rng, trial)
			kern := ref.Clone()
			for _, b := range []int{1, 1 + rng.Intn(64)} {
				checkBatchAgainstOracle(t, rng, ref, kern, b, trial)
			}
		}
	})
}

// checkBatchAgainstOracle runs one b-row forward/backward through kern's
// kernels and b one-state passes through the scalar reference on ref, and
// requires identical outputs and identical gradient accumulators.
func checkBatchAgainstOracle(t *testing.T, rng *sim.RNG, ref, kern *ActorCritic, b, trial int) {
	t.Helper()
	in, nHeads := ref.L1.In, len(ref.Heads)
	xs := make([]float64, b*in)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	// Upstream gradients: random per head, with occasional nil heads and
	// zero value-gradient rows to exercise the skip paths. A value-only
	// net passes dLogits == nil, as SSDKeeper does.
	var dls [][]float64
	if nHeads > 0 {
		dls = make([][]float64, nHeads)
	}
	for k := 0; k < nHeads; k++ {
		if rng.Intn(5) == 0 {
			continue
		}
		dls[k] = make([]float64, b*ref.Heads[k].Out)
		for i := range dls[k] {
			dls[k][i] = rng.NormFloat64()
		}
	}
	dVals := make([]float64, b)
	for i := range dVals {
		if rng.Intn(3) != 0 {
			dVals[i] = rng.NormFloat64()
		}
	}

	blg, bval, bc := kern.ForwardBatch(xs, b)
	// Reference pass, row by row, with backward interleaved the way a
	// per-sample training loop runs it.
	var rowDL [][]float64
	if nHeads > 0 {
		rowDL = make([][]float64, nHeads)
	}
	for r := 0; r < b; r++ {
		lg, v, cache := refForward(ref, xs[r*in:(r+1)*in])
		if v != bval[r] {
			t.Fatalf("trial %d (b=%d) row %d: value %v != reference %v", trial, b, r, bval[r], v)
		}
		for k := range lg {
			w := ref.Heads[k].Out
			for j, want := range lg[k] {
				if got := blg[k][r*w+j]; got != want {
					t.Fatalf("trial %d (b=%d) row %d head %d logit %d: %v != %v", trial, b, r, k, j, got, want)
				}
			}
			if dls[k] == nil {
				rowDL[k] = nil
			} else {
				rowDL[k] = dls[k][r*w : (r+1)*w]
			}
		}
		refBackward(ref, cache, rowDL, dVals[r])
	}
	kern.BackwardBatch(bc, dls, dVals)

	rl, kl := ref.Layers(), kern.Layers()
	for li := range rl {
		for i, want := range rl[li].GW {
			if got := kl[li].GW[i]; got != want {
				t.Fatalf("trial %d (b=%d) layer %d GW[%d]: %v != %v", trial, b, li, i, got, want)
			}
		}
		for i, want := range rl[li].GB {
			if got := kl[li].GB[i]; got != want {
				t.Fatalf("trial %d (b=%d) layer %d GB[%d]: %v != %v", trial, b, li, i, got, want)
			}
		}
	}
}

// TestSoftmaxBatchMatchesScalar pins the row-wise softmax against the
// per-row Softmax.
func TestSoftmaxBatchMatchesScalar(t *testing.T) {
	rng := sim.NewRNG(3)
	const b, w = 17, 5
	logits := make([]float64, b*w)
	for i := range logits {
		logits[i] = rng.NormFloat64() * 3
	}
	probs := make([]float64, b*w)
	SoftmaxBatch(logits, probs, b, w)
	ref := make([]float64, w)
	for r := 0; r < b; r++ {
		Softmax(logits[r*w:(r+1)*w], ref)
		for j, want := range ref {
			if got := probs[r*w+j]; got != want {
				t.Fatalf("row %d col %d: %v != %v", r, j, got, want)
			}
		}
	}
}

// TestForwardBatchZeroAlloc proves steady-state batched inference performs
// zero allocations once the scratch has grown to the largest batch seen.
func TestForwardBatchZeroAlloc(t *testing.T) {
	rng := sim.NewRNG(5)
	net := NewActorCritic(33, 50, []int{5, 5, 3}, rng)
	const b = 32
	xs := make([]float64, b*33)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	dls := make([][]float64, 3)
	for k, hd := range net.Heads {
		dls[k] = make([]float64, b*hd.Out)
	}
	dVals := make([]float64, b)
	for i := range dVals {
		dVals[i] = 0.1
	}
	net.ForwardBatch(xs, b) // warm the scratch
	if allocs := testing.AllocsPerRun(100, func() {
		net.ForwardBatch(xs, b)
	}); allocs != 0 {
		t.Fatalf("ForwardBatch allocates %v/op in steady state", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_, _, c := net.ForwardBatch(xs, b)
		net.BackwardBatch(c, dls, dVals)
	}); allocs != 0 {
		t.Fatalf("ForwardBatch+BackwardBatch allocates %v/op in steady state", allocs)
	}
	// Shrinking the batch must reuse the high-water scratch, not reallocate.
	if allocs := testing.AllocsPerRun(100, func() {
		net.ForwardBatch(xs, 8)
	}); allocs != 0 {
		t.Fatalf("smaller-batch ForwardBatch allocates %v/op", allocs)
	}
}

// benchForwardBatch measures one inference pass over batch states on the
// paper-sized network; ns/op ÷ batch is the per-state cost.
func benchForwardBatch(b *testing.B, batch int) {
	rng := sim.NewRNG(1)
	net := NewActorCritic(33, 50, []int{5, 5, 3}, rng)
	xs := make([]float64, batch*33)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	net.ForwardBatch(xs, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(xs, batch)
	}
}

// BenchmarkForwardBatch is the PPO minibatch size; BenchmarkForwardBatch8 a
// decision window of eight agents on a shared network; BenchmarkForwardBatch1
// the one-row pass every single-state caller makes (per-agent deployment,
// Act, Predict).
func BenchmarkForwardBatch(b *testing.B)  { benchForwardBatch(b, 32) }
func BenchmarkForwardBatch8(b *testing.B) { benchForwardBatch(b, 8) }
func BenchmarkForwardBatch1(b *testing.B) { benchForwardBatch(b, 1) }

// BenchmarkBackwardBatch measures one gradient step (forward + backward)
// at B=32.
func BenchmarkBackwardBatch(b *testing.B) {
	rng := sim.NewRNG(1)
	net := NewActorCritic(33, 50, []int{5, 5, 3}, rng)
	const batch = 32
	xs := make([]float64, batch*33)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	dls := make([][]float64, 3)
	for k, hd := range net.Heads {
		dls[k] = make([]float64, batch*hd.Out)
		for i := range dls[k] {
			dls[k][i] = 0.1
		}
	}
	dVals := make([]float64, batch)
	for i := range dVals {
		dVals[i] = 1.0
	}
	net.ForwardBatch(xs, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, c := net.ForwardBatch(xs, batch)
		net.BackwardBatch(c, dls, dVals)
	}
}

// TestAccumRowsImplsMatch pins the assembly accumRows kernel against the
// portable Go implementation bit for bit, across edge-case lane counts
// (partial masks in every position) and strides.
func TestAccumRowsImplsMatch(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512 kernel on this CPU")
	}
	rng := sim.NewRNG(11)
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(70)
		n := rng.Intn(40)
		cs := 1 + rng.Intn(3)
		ld := m + rng.Intn(8)
		rows := make([]float64, n*ld+m)
		for i := range rows {
			rows[i] = rng.NormFloat64()
		}
		coeffs := make([]float64, n*cs+1)
		for i := range coeffs {
			coeffs[i] = rng.NormFloat64()
		}
		want := make([]float64, m)
		got := make([]float64, m)
		for i := range want {
			v := rng.NormFloat64()
			want[i], got[i] = v, v
		}
		accumRowsGeneric(want, rows, coeffs, n, ld, cs)
		accumRowsAVX512(got, rows, coeffs, n, ld, cs)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d (m=%d n=%d ld=%d cs=%d): dst[%d] = %v, generic %v",
					trial, m, n, ld, cs, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkAccumRows microbenchmarks the core kernel at the trunk-layer
// shape (50 outputs × 50 inputs, one state row): 2500 multiply-adds/op.
func BenchmarkAccumRows(b *testing.B) {
	rng := sim.NewRNG(1)
	const m, n = 50, 50
	dst := make([]float64, m)
	rows := make([]float64, n*m)
	coeffs := make([]float64, n)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	for i := range coeffs {
		coeffs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accumRows(dst, rows, coeffs, n, m, 1)
	}
}

// TestTanhSliceMatchesMath pins the vectorized tanh against math.Tanh
// bit for bit: random draws across every branch of the scalar algorithm
// (rational |x|<0.625, exp branch, ±1 saturation), dense sweeps around the
// branch points, and the special values (±0, ±Inf, NaN, denormals, huge).
func TestTanhSliceMatchesMath(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs []float64
	// Branch-point neighborhoods at ulp resolution.
	for _, pivot := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01} {
		for d := -64; d <= 64; d++ {
			v := pivot
			if d < 0 {
				for i := 0; i > d; i-- {
					v = math.Nextafter(v, math.Inf(-1))
				}
			} else {
				for i := 0; i < d; i++ {
					v = math.Nextafter(v, math.Inf(1))
				}
			}
			xs = append(xs, v, -v)
		}
	}
	xs = append(xs,
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 1e-310, -1e-310, math.MaxFloat64, -math.MaxFloat64,
		1e300, -1e300, 44.014, -44.014, 44.015, -44.015,
	)
	// Random draws spanning all branches and the typical activation range.
	// The volume matters: a 1-ulp divergence in one operation-ordering
	// mistake shows up in well under 1 in 10⁴ draws.
	for i := 0; i < 200_000; i++ {
		xs = append(xs, rng.NormFloat64()*3)
	}
	for i := 0; i < 100_000; i++ {
		xs = append(xs, (rng.Float64()*2-1)*50)
	}
	for i := 0; i < 50_000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if math.IsNaN(v) {
			continue
		}
		xs = append(xs, v)
	}

	check := func(in []float64) {
		t.Helper()
		got := make([]float64, len(in))
		tanhSlice(got, in)
		for i, v := range in {
			want := math.Tanh(v)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("tanhSlice(%g) [%d of %d] = %x, math.Tanh = %x",
					v, i, len(in), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
	// The main sweep deliberately has no NaN: one NaN lane makes tanhSlice
	// redo the whole slice scalar, which would stop the vector results from
	// ever being compared.
	check(xs)
	// Odd lengths exercise the scalar tail; sub-8 stays fully scalar.
	check(xs[:len(xs)-3])
	check(xs[:5])
	// NaN inside a vector block forces the scalar-redo path; the rest of
	// the slice must still come out identical (and NaN stays NaN).
	withNaN := append([]float64{1.5, -0.25, math.NaN(), 0.1}, xs[:28]...)
	got := make([]float64, len(withNaN))
	tanhSlice(got, withNaN)
	for i, v := range withNaN {
		if math.IsNaN(v) {
			if !math.IsNaN(got[i]) {
				t.Fatalf("NaN input produced %g", got[i])
			}
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(math.Tanh(v)) {
			t.Fatalf("redo path: tanhSlice(%g) = %x, want %x", v,
				math.Float64bits(got[i]), math.Float64bits(math.Tanh(v)))
		}
	}
}

func BenchmarkTanhSlice(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	src := make([]float64, 1600)
	dst := make([]float64, len(src))
	for i := range src {
		src[i] = rng.NormFloat64() * 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tanhSlice(dst, src)
	}
}
