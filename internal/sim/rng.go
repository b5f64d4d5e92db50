package sim

import (
	"math"
	"math/rand"
)

// RNG is a seedable random stream with helpers used across the simulator
// (exponential inter-arrivals, Zipf addresses, bounded picks). It wraps
// math/rand with an explicit source so no simulation ever touches global
// randomness.
type RNG struct {
	r *rand.Rand
	// seed is the stream's origin, kept so Stream can derive shard streams
	// as a pure function of (seed, shardID) without consuming stream state.
	seed int64
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed)), seed: seed}
}

// Split derives an independent child stream. The child's sequence is a pure
// function of the parent seed and the label, so adding new consumers does
// not perturb existing ones as long as labels are stable.
func (g *RNG) Split(label int64) *RNG {
	// SplitMix64-style scramble of (next parent value, label).
	z := uint64(g.r.Int63()) ^ (uint64(label) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return NewRNG(int64(z))
}

// Stream derives the shardID-th isolated child stream. Unlike Split it is
// a pure function of the stream's seed and the shard id — it consumes no
// parent state, so shards can be built in any order (or concurrently from
// per-shard goroutines holding their own result) without perturbing the
// parent sequence or each other. Two Stream calls with the same id return
// streams that replay identically.
func (g *RNG) Stream(shardID int64) *RNG {
	// SplitMix64-style scramble of (seed, shardID); the +1 keeps shard 0 of
	// seed 0 away from the all-zero fixed point.
	z := uint64(g.seed) + (uint64(shardID)+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return NewRNG(int64(z))
}

// Reseed rewinds the stream to the deterministic sequence of seed without
// allocating. Allocation guards use it to replay an identical load so
// slice high-water marks from warm-up are never exceeded while measuring.
func (g *RNG) Reseed(seed int64) {
	g.r.Seed(seed)
	g.seed = seed
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// PermInto writes a random permutation of [0,len(p)) into p and returns it.
// It consumes exactly the same stream draws as math/rand's Perm(len(p)) and
// produces the same permutation (mirroring its insertion algorithm) without
// Perm's per-call allocation. Pinned against Perm by TestPermIntoMatchesPerm.
func (g *RNG) PermInto(p []int) []int {
	// math/rand.Perm runs the i=0 iteration (a self-swap) because skipping
	// it would change the stream; replicate that exactly.
	for i := 0; i < len(p); i++ {
		j := g.r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// ExpDuration returns an exponential virtual-time sample with the given
// mean duration, always at least 1ns so arrival processes make progress.
func (g *RNG) ExpDuration(mean Time) Time {
	d := Time(g.r.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// Zipf draws from [0,n) with a Zipfian skew s >= 1 (s==1 is uniform). It
// builds nothing per call, using the rejection-free inverse-power method,
// which is accurate enough for locality modelling.
func (g *RNG) Zipf(n int, s float64) int {
	if n <= 1 {
		return 0
	}
	if s <= 1.0001 {
		return g.r.Intn(n)
	}
	// Inverse-CDF of a continuous power-law approximation on [1, n+1).
	u := g.r.Float64()
	oneMinus := 1 - s
	max := float64(n + 1)
	x := u*(math.Pow(max, oneMinus)-1) + 1
	v := math.Pow(x, 1/oneMinus)
	idx := int(v) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}
