// Package cluster implements FleetIO's workload-type learning (§3.4):
// block I/O traces are cut into windows (10K requests each), reduced to
// four features — read bandwidth, write bandwidth, LPA entropy, and
// average I/O size — standardized, and clustered with k-means(++). A PCA
// projection to two dimensions reproduces Figure 6, and the trained model
// classifies live vSSD traffic so each agent gets the reward coefficient
// tuned for its workload type.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// featureDim is the number of features per window.
const featureDim = 4

// entropyBuckets is the LPA histogram resolution for the entropy feature.
const entropyBuckets = 64

// features reduces one window of trace records to the §3.4 feature vector:
// [log read MB/s, log write MB/s, normalized LPA entropy, log avg I/O size
// KB]. Bandwidths and sizes are log-scaled (log1p) so the huge dynamic
// range of bandwidth-intensive jobs does not drown the latency-sensitive
// structure; entropy buckets span the vSSD's whole logical space
// (logicalPages), so a sequential window — however wide its own span —
// reads as concentrated.
func features(recs []trace.Record, pageSize int, logicalPages int64) [featureDim]float64 {
	s := newFeatureSums(pageSize, logicalPages)
	s.add(recs)
	return s.features()
}

// featureSums accumulates one window's features segment by segment, the
// segments in arrival order (a trace.Recorder's Walk, read where it lies).
// Nothing it sums depends on where the window is cut: the byte totals are
// integers, the bucket counts integer-valued, and the only order-dependent
// inputs are the first and the last timestamp — so the features are
// bit-identical to those of the concatenated window.
type featureSums struct {
	pageSize              int
	logicalPages          int64
	readBytes, writeBytes int64
	hist                  [entropyBuckets]float64
	n                     int
	first, last           sim.Time
}

func newFeatureSums(pageSize int, logicalPages int64) featureSums {
	if logicalPages <= 0 {
		logicalPages = 1
	}
	return featureSums{pageSize: pageSize, logicalPages: logicalPages}
}

// add folds the next segment of the window in.
func (s *featureSums) add(seg []trace.Record) {
	if len(seg) == 0 {
		return
	}
	if s.n == 0 {
		s.first = seg[0].At
	}
	s.last = seg[len(seg)-1].At
	s.n += len(seg)
	for _, r := range seg {
		b := r.Bytes(s.pageSize)
		if r.Write {
			s.writeBytes += b
		} else {
			s.readBytes += b
		}
		bucket := int(r.LPN * entropyBuckets / s.logicalPages)
		if bucket < 0 {
			bucket = 0
		}
		if bucket >= entropyBuckets {
			bucket = entropyBuckets - 1
		}
		s.hist[bucket]++
	}
}

// features reduces the sums to the feature vector (all zero for an empty
// window).
func (s *featureSums) features() [featureDim]float64 {
	var f [featureDim]float64
	if s.n == 0 {
		return f
	}
	dur := float64(s.last-s.first) / 1e9
	if dur <= 0 {
		dur = 1e-6
	}
	f[0] = math.Log1p(float64(s.readBytes) / dur / 1e6)
	f[1] = math.Log1p(float64(s.writeBytes) / dur / 1e6)

	h := 0.0
	n := float64(s.n)
	for _, c := range s.hist {
		if c > 0 {
			p := c / n
			h -= p * math.Log(p)
		}
	}
	f[2] = h / math.Log(entropyBuckets) // normalized to [0,1]
	f[3] = math.Log1p(float64(s.readBytes+s.writeBytes) / n / 1024)
	return f
}

// windowize splits records into consecutive windows of perWindow records,
// dropping a final partial window.
func windowize(recs []trace.Record, perWindow int) [][]trace.Record {
	if perWindow <= 0 {
		panic("cluster: non-positive window")
	}
	var out [][]trace.Record
	for start := 0; start+perWindow <= len(recs); start += perWindow {
		out = append(out, recs[start:start+perWindow])
	}
	return out
}

// Standardize z-scores each dimension in place-safe copies, returning the
// scaled points and the (mean, std) used — std floors at 1e-9 so constant
// dimensions do not blow up.
func Standardize(points [][]float64) (scaled [][]float64, mean, std []float64) {
	if len(points) == 0 {
		return nil, nil, nil
	}
	dim := len(points[0])
	mean = make([]float64, dim)
	std = make([]float64, dim)
	for _, p := range points {
		for d, v := range p {
			mean[d] += v
		}
	}
	for d := range mean {
		mean[d] /= float64(len(points))
	}
	for _, p := range points {
		for d, v := range p {
			diff := v - mean[d]
			std[d] += diff * diff
		}
	}
	for d := range std {
		std[d] = math.Sqrt(std[d] / float64(len(points)))
		if std[d] < 1e-9 {
			std[d] = 1e-9
		}
	}
	scaled = make([][]float64, len(points))
	for i, p := range points {
		s := make([]float64, dim)
		for d, v := range p {
			s[d] = (v - mean[d]) / std[d]
		}
		scaled[i] = s
	}
	return scaled, mean, std
}

// appendApplied appends p, standardized with a previously computed
// mean/std, to dst, so a caller with a stack buffer (Model.classify)
// standardizes without allocating.
func appendApplied(dst, p, mean, std []float64) []float64 {
	for d, v := range p {
		dst = append(dst, (v-mean[d])/std[d])
	}
	return dst
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// KMeans is a fitted k-means model.
type KMeans struct {
	K         int
	Centroids [][]float64
}

// fitKMeans clusters standardized points with k-means++ initialization and
// Lloyd iterations.
func fitKMeans(points [][]float64, k, iters int, rng *sim.RNG) *KMeans {
	if len(points) < k {
		panic(fmt.Sprintf("cluster: %d points for k=%d", len(points), k))
	}
	dim := len(points[0])
	centroids := make([][]float64, 0, k)
	// k-means++ seeding.
	first := points[rng.Intn(len(points))]
	centroids = append(centroids, append([]float64(nil), first...))
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		total := 0.0
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		target := rng.Float64() * total
		idx := 0
		for i, d := range d2 {
			target -= d
			if target <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), points[idx]...))
	}
	assign := make([]int, len(points))
	for iter := 0; iter < iters; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := sqDist(p, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d, v := range p {
				sums[c][d] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the farthest point.
				far, farD := 0, -1.0
				for i, p := range points {
					if d := sqDist(p, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				copy(centroids[c], points[far])
				continue
			}
			for d := range centroids[c] {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
		if !changed && iter > 0 {
			break
		}
	}
	return &KMeans{K: k, Centroids: centroids}
}

// assign returns the nearest centroid index for a standardized point.
func (km *KMeans) assign(p []float64) int {
	best, bestD := 0, math.Inf(1)
	for c, cen := range km.Centroids {
		if d := sqDist(p, cen); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// PCA2 projects standardized points onto their top two principal
// components (power iteration with deflation). It returns the projections
// and the two component vectors.
func PCA2(points [][]float64, rng *sim.RNG) (proj [][2]float64, comps [2][]float64) {
	if len(points) == 0 {
		return nil, comps
	}
	dim := len(points[0])
	// Covariance (points assumed centered by Standardize).
	cov := make([][]float64, dim)
	for i := range cov {
		cov[i] = make([]float64, dim)
	}
	for _, p := range points {
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				cov[i][j] += p[i] * p[j]
			}
		}
	}
	n := float64(len(points))
	for i := range cov {
		for j := range cov[i] {
			cov[i][j] /= n
		}
	}
	power := func(deflate []float64) []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		for iter := 0; iter < 200; iter++ {
			if deflate != nil {
				dot := 0.0
				for i := range v {
					dot += v[i] * deflate[i]
				}
				for i := range v {
					v[i] -= dot * deflate[i]
				}
			}
			next := make([]float64, dim)
			for i := 0; i < dim; i++ {
				for j := 0; j < dim; j++ {
					next[i] += cov[i][j] * v[j]
				}
			}
			norm := 0.0
			for _, x := range next {
				norm += x * x
			}
			norm = math.Sqrt(norm)
			if norm < 1e-12 {
				return v
			}
			for i := range next {
				next[i] /= norm
			}
			v = next
		}
		return v
	}
	comps[0] = power(nil)
	comps[1] = power(comps[0])
	proj = make([][2]float64, len(points))
	for i, p := range points {
		for c := 0; c < 2; c++ {
			dot := 0.0
			for d := range p {
				dot += p[d] * comps[c][d]
			}
			proj[i][c] = dot
		}
	}
	return proj, comps
}
