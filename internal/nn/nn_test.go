package nn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLinearForward(t *testing.T) {
	l := &Linear{In: 2, Out: 2,
		W:  []float64{1, 2, 3, 4}, // [[1,2],[3,4]]
		B:  []float64{0.5, -0.5},
		GW: make([]float64, 4), GB: make([]float64, 2),
	}
	y := make([]float64, 4)
	l.forwardBatch([]float64{1, 1, 0, -1}, y, 2)
	if y[0] != 3.5 || y[1] != 6.5 || y[2] != -1.5 || y[3] != -4.5 {
		t.Fatalf("y = %v", y)
	}
}

// fdCheck compares analytic gradients g against central finite differences
// of loss over the entries of w. layer, when set, owns w: a direct write to
// W must be announced before the next kernel call reads the transposed
// cache.
func fdCheck(t *testing.T, name string, layer *Linear, w, g []float64, loss func() float64, tol float64) {
	t.Helper()
	const eps = 1e-6
	set := func(i int, v float64) {
		w[i] = v
		if layer != nil {
			layer.noteWeightsChanged()
		}
	}
	for i := range w {
		orig := w[i]
		set(i, orig+eps)
		up := loss()
		set(i, orig-eps)
		down := loss()
		set(i, orig)
		num := (up - down) / (2 * eps)
		if math.Abs(num-g[i]) > tol {
			t.Fatalf("%s[%d]: analytic %v numeric %v", name, i, g[i], num)
		}
	}
}

func TestLinearBackwardMatchesFiniteDifference(t *testing.T) {
	for _, b := range []int{1, 3} {
		rng := sim.NewRNG(1)
		l := newLinear(3, 2, rng)
		xs := make([]float64, b*3)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		// Loss = sum over rows of sum(y); dL/dy = ones.
		loss := func() float64 {
			ys := make([]float64, b*2)
			l.forwardBatch(xs, ys, b)
			s := 0.0
			for _, y := range ys {
				s += y
			}
			return s
		}
		ones := make([]float64, b*2)
		for i := range ones {
			ones[i] = 1
		}
		l.zeroGrad()
		dxs := make([]float64, b*3)
		l.backwardBatch(xs, ones, dxs, b)
		fdCheck(t, "dW", l, l.W, l.GW, loss, 1e-5)
		fdCheck(t, "dB", l, l.B, l.GB, loss, 1e-5)
		fdCheck(t, "dx", nil, xs, dxs, loss, 1e-5)
	}
}

func TestActorCriticGradCheck(t *testing.T) {
	for _, b := range []int{1, 3} {
		rng := sim.NewRNG(7)
		ac := NewActorCritic(4, 8, []int{3, 2}, rng)
		xs := make([]float64, b*4)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		// Scalar loss, summed over rows: the logits of head 0 weighted,
		// plus 2*value.
		w0 := []float64{0.3, -0.8, 0.5}
		loss := func() float64 {
			logits, vals, _ := ac.ForwardBatch(xs, b)
			s := 0.0
			for r := 0; r < b; r++ {
				s += 2 * vals[r]
				for i, w := range w0 {
					s += w * logits[0][r*3+i]
				}
			}
			return s
		}
		dl0 := make([]float64, 0, b*3)
		dVals := make([]float64, b)
		for r := 0; r < b; r++ {
			dl0 = append(dl0, w0...)
			dVals[r] = 2
		}
		ac.ZeroGrad()
		_, _, cache := ac.ForwardBatch(xs, b)
		ac.BackwardBatch(cache, [][]float64{dl0, nil}, dVals)
		fdCheck(t, "L1.W", ac.L1, ac.L1.W, ac.L1.GW, loss, 1e-4)
		fdCheck(t, "L1.B", ac.L1, ac.L1.B, ac.L1.GB, loss, 1e-4)
		fdCheck(t, "L2.W", ac.L2, ac.L2.W, ac.L2.GW, loss, 1e-4)
		fdCheck(t, "Value.W", ac.Value, ac.Value.W, ac.Value.GW, loss, 1e-4)
		fdCheck(t, "Head0.W", ac.Heads[0], ac.Heads[0].W, ac.Heads[0].GW, loss, 1e-4)
		// Head 1 received no upstream gradient.
		for i, g := range ac.Heads[1].GW {
			if g != 0 {
				t.Fatalf("head1 grad[%d] = %v, want 0", i, g)
			}
		}
	}
}

func TestAdamReducesLoss(t *testing.T) {
	// Regression: fit y = 2x1 - x2 with a tiny network.
	rng := sim.NewRNG(3)
	ac := NewActorCritic(2, 8, []int{1}, rng)
	opt := NewAdam(0.01)
	mse := func(n int) float64 {
		s := 0.0
		r2 := sim.NewRNG(99)
		for i := 0; i < n; i++ {
			x := []float64{r2.NormFloat64(), r2.NormFloat64()}
			y := 2*x[0] - x[1]
			_, v, _ := ac.ForwardBatch(x, 1)
			s += (v[0] - y) * (v[0] - y)
		}
		return s / float64(n)
	}
	before := mse(100)
	const batch = 8
	xs := make([]float64, batch*2)
	dVals := make([]float64, batch)
	for step := 0; step < 800; step++ {
		ac.ZeroGrad()
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		_, vals, cache := ac.ForwardBatch(xs, batch)
		for r, v := range vals {
			dVals[r] = 2 * (v - (2*xs[r*2] - xs[r*2+1]))
		}
		ac.BackwardBatch(cache, [][]float64{nil}, dVals)
		opt.Step(ac.Layers(), batch)
	}
	after := mse(100)
	if after > before/10 {
		t.Fatalf("Adam failed to fit: mse %v -> %v", before, after)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp to avoid quick feeding infinities.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			logits[i] = math.Mod(v, 50)
		}
		probs := make([]float64, len(logits))
		Softmax(logits, probs)
		sum := 0.0
		for _, p := range probs {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	probs := make([]float64, 3)
	Softmax([]float64{1000, 1001, 999}, probs)
	if math.IsNaN(probs[0]) || probs[1] < probs[0] || probs[0] < probs[2] {
		t.Fatalf("unstable softmax: %v", probs)
	}
}

func TestSampleCategoricalDistribution(t *testing.T) {
	rng := sim.NewRNG(11)
	probs := []float64{0.7, 0.2, 0.1}
	counts := make([]int, 3)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[SampleCategorical(rng, probs)]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / n
		if math.Abs(got-p) > 0.02 {
			t.Fatalf("class %d frequency %v, want %v", i, got, p)
		}
	}
}

func TestArgmaxAndEntropy(t *testing.T) {
	if Argmax([]float64{1, 5, 3}) != 1 {
		t.Fatal("argmax wrong")
	}
	if Argmax([]float64{7}) != 0 {
		t.Fatal("singleton argmax wrong")
	}
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	if math.Abs(Entropy(uniform)-math.Log(4)) > 1e-9 {
		t.Fatal("uniform entropy wrong")
	}
	if Entropy([]float64{1, 0, 0}) > 1e-9 {
		t.Fatal("deterministic entropy must be ~0")
	}
}

// value1 is the critic's estimate for one state.
func value1(ac *ActorCritic, x []float64) float64 {
	_, v, _ := ac.ForwardBatch(x, 1)
	return v[0]
}

func TestCloneIndependence(t *testing.T) {
	rng := sim.NewRNG(5)
	ac := NewActorCritic(3, 4, []int{2}, rng)
	cl := ac.Clone()
	x := []float64{1, 2, 3}
	v1 := value1(ac, x)
	v2 := value1(cl, x)
	if v1 != v2 {
		t.Fatal("clone differs")
	}
	ac.L1.W[0] += 1
	ac.L1.noteWeightsChanged()
	if value1(ac, x) == v1 {
		t.Fatal("weight write did not reach the original")
	}
	if v3 := value1(cl, x); v3 != v2 {
		t.Fatal("clone shares storage with original")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := sim.NewRNG(9)
	ac := NewActorCritic(5, 6, []int{4, 3, 2}, rng)
	data, err := ac.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeActorCritic(data)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	l1, v1, _ := ac.ForwardBatch(x, 1)
	l2, v2, _ := back.ForwardBatch(x, 1)
	if v1[0] != v2[0] {
		t.Fatal("value differs after round trip")
	}
	for k := range l1 {
		for i := range l1[k] {
			if l1[k][i] != l2[k][i] {
				t.Fatal("logits differ after round trip")
			}
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	rng := sim.NewRNG(13)
	ac := NewActorCritic(3, 4, []int{2}, rng)
	path := t.TempDir() + "/model.gob"
	if err := ac.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumParams() != ac.NumParams() {
		t.Fatal("param count differs")
	}
	if _, err := LoadFile(t.TempDir() + "/missing.gob"); err == nil {
		t.Fatal("loading missing file must error")
	}
}

func TestParamsSetParamsRoundTrip(t *testing.T) {
	rng := sim.NewRNG(5)
	src := NewActorCritic(6, 10, []int{4, 3}, rng)
	dst := NewActorCritic(6, 10, []int{4, 3}, rng) // different init
	p := src.Params()
	if len(p) != src.NumParams() {
		t.Fatalf("Params returned %d values for %d params", len(p), src.NumParams())
	}
	if err := dst.SetParams(p); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.2, 0.3, 0.4, -0.5, 0.6}
	l1, v1, _ := src.ForwardBatch(x, 1)
	l2, v2, _ := dst.ForwardBatch(x, 1)
	if v1[0] != v2[0] {
		t.Fatal("value differs after params broadcast")
	}
	for k := range l1 {
		for i := range l1[k] {
			if l1[k][i] != l2[k][i] {
				t.Fatal("logits differ after params broadcast")
			}
		}
	}
	// Params must be a copy: mutating it must not touch the network.
	before := src.L1.W[0]
	p[0] += 100
	if src.L1.W[0] != before {
		t.Fatal("Params aliases network weights")
	}
	if err := dst.SetParams(p[:len(p)-1]); err == nil {
		t.Fatal("SetParams accepted a short slice")
	}
}

func TestNumParamsPaperScale(t *testing.T) {
	// The paper's model: 33 inputs (11 states × 3 windows), [50,50] hidden,
	// three heads and a value head — parameter count should be O(9K).
	rng := sim.NewRNG(1)
	ac := NewActorCritic(33, 50, []int{5, 5, 3}, rng)
	n := ac.NumParams()
	if n < 4000 || n > 12000 {
		t.Fatalf("params = %d, expected in the paper's ~9K regime", n)
	}
}
