package sim

import "testing"

func drawSequence(g *RNG, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = g.Int63()
	}
	return out
}

func sequencesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReseedReplaysSequence pins Reseed's contract: rewinding a stream to a
// seed replays exactly the sequence a fresh stream with that seed produces,
// regardless of how much the stream had already been consumed.
func TestReseedReplaysSequence(t *testing.T) {
	const seed = 42
	want := drawSequence(NewRNG(seed), 64)
	g := NewRNG(seed)
	drawSequence(g, 1000) // consume arbitrarily far
	g.Reseed(seed)
	if !sequencesEqual(drawSequence(g, 64), want) {
		t.Fatal("Reseed did not rewind to the fresh-stream sequence")
	}
	g.Reseed(seed + 1)
	if sequencesEqual(drawSequence(g, 64), want) {
		t.Fatal("Reseed to a different seed replayed the old sequence")
	}
}

// TestReseedStreamIsolation pins the property the harness's parallel runs
// rely on: every RNG wraps its own source, so reseeding (or draining) one
// run's stream must not perturb another's output — even when both were
// Split from the same parent.
func TestReseedStreamIsolation(t *testing.T) {
	// Control: B's sequence with A left untouched.
	parent := NewRNG(7)
	_ = parent.Split(100) // A
	b := parent.Split(200)
	want := drawSequence(b, 128)

	// Same construction, but A is drained and reseeded between B's draws.
	parent = NewRNG(7)
	a := parent.Split(100)
	b = parent.Split(200)
	got := make([]int64, 0, 128)
	for i := 0; i < 128; i++ {
		switch i % 3 {
		case 0:
			drawSequence(a, 17)
		case 1:
			a.Reseed(int64(i))
		}
		got = append(got, b.Int63())
	}
	if !sequencesEqual(got, want) {
		t.Fatal("reseeding stream A perturbed stream B's output")
	}
}

// TestStreamIsPureFunctionOfSeed pins Stream's contract: the child is a
// pure function of (stream seed, shard id) — call order, parent
// consumption, and other Stream calls must not change it, and Stream must
// not perturb the parent's own sequence.
func TestStreamIsPureFunctionOfSeed(t *testing.T) {
	// Same seed + id → same stream, regardless of when it is derived.
	fresh := NewRNG(11)
	want := drawSequence(fresh.Stream(3), 64)
	consumed := NewRNG(11)
	drawSequence(consumed, 500)
	_ = consumed.Stream(9)
	if !sequencesEqual(drawSequence(consumed.Stream(3), 64), want) {
		t.Fatal("Stream(3) depends on parent consumption or prior Stream calls")
	}
	// Stream consumes no parent state.
	p1, p2 := NewRNG(13), NewRNG(13)
	for i := int64(0); i < 32; i++ {
		p1.Stream(i)
	}
	if !sequencesEqual(drawSequence(p1, 64), drawSequence(p2, 64)) {
		t.Fatal("Stream perturbed the parent sequence")
	}
}

// TestStreamShardIsolation checks that per-shard streams are mutually
// independent: draining one shard's stream leaves every other shard's
// sequence untouched, and distinct shard ids yield distinct sequences.
func TestStreamShardIsolation(t *testing.T) {
	parent := NewRNG(21)
	want := make([][]int64, 8)
	for id := range want {
		want[id] = drawSequence(parent.Stream(int64(id)), 64)
	}
	for id := 1; id < 8; id++ {
		if sequencesEqual(want[0], want[id]) {
			t.Fatalf("shard 0 and shard %d streams are identical", id)
		}
	}
	// Interleave: drain shard 0 heavily between other shards' draws.
	streams := make([]*RNG, 8)
	for id := range streams {
		streams[id] = parent.Stream(int64(id))
	}
	for i := 0; i < 100; i++ {
		streams[0].Int63()
	}
	for id := 1; id < 8; id++ {
		if !sequencesEqual(drawSequence(streams[id], 64), want[id]) {
			t.Fatalf("draining shard 0 perturbed shard %d", id)
		}
	}
	// Reseed restores the original derivation base.
	parent.Reseed(21)
	if !sequencesEqual(drawSequence(parent.Stream(5), 64), want[5]) {
		t.Fatal("Stream after Reseed diverged from the original derivation")
	}
}

// TestSplitChildrenIndependent checks that sibling streams differ and that
// the same (parent seed, call order, label) always yields the same child.
func TestSplitChildrenIndependent(t *testing.T) {
	p1 := NewRNG(9)
	p2 := NewRNG(9)
	c1 := p1.Split(5)
	c2 := p2.Split(5)
	if !sequencesEqual(drawSequence(c1, 32), drawSequence(c2, 32)) {
		t.Fatal("identical parent seed + label produced different children")
	}
	p3 := NewRNG(9)
	s1 := drawSequence(p3.Split(1), 32)
	s2 := drawSequence(p3.Split(2), 32)
	if sequencesEqual(s1, s2) {
		t.Fatal("sibling streams with different labels are identical")
	}
}

// TestPermIntoMatchesPerm pins PermInto's contract: for any length it must
// produce the same permutation and consume the same stream draws as
// math/rand's Perm, so switching a hot loop between them can never perturb
// a seeded run.
func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 32, 33, 100} {
		a := NewRNG(int64(n) + 5)
		b := NewRNG(int64(n) + 5)
		want := a.r.Perm(n) // math/rand's Perm is the reference
		got := b.PermInto(make([]int, n))
		if len(got) != len(want) {
			t.Fatalf("n=%d: PermInto length %d, Perm length %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: PermInto %v, Perm %v", n, got, want)
			}
		}
		// Both streams must be in the same state afterwards.
		if a.Int63() != b.Int63() {
			t.Fatalf("n=%d: PermInto consumed a different number of draws than Perm", n)
		}
	}
}

// TestPermIntoZeroAlloc guards PermInto's reason to exist: permuting into a
// caller-owned buffer must not allocate.
func TestPermIntoZeroAlloc(t *testing.T) {
	g := NewRNG(9)
	buf := make([]int, 64)
	if avg := testing.AllocsPerRun(200, func() { g.PermInto(buf) }); avg != 0 {
		t.Fatalf("PermInto allocates %.2f allocs/op, want 0", avg)
	}
}
