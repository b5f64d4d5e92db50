package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// WindowSize is the paper's trace window: 10K requests (§3.4).
const WindowSize = 10_000

// synthLogicalPages is the logical-space size used when synthesizing
// traces for offline clustering.
const synthLogicalPages = 1_000_000

// Sample is one feature window with its ground-truth workload.
type Sample struct {
	Workload string
	Features []float64
}

// Dataset is a labeled collection of feature windows.
type Dataset struct {
	Samples []Sample
}

// BuildDataset synthesizes traces for the given workloads and reduces them
// to feature windows (windowsPer windows of perWindow requests each).
func BuildDataset(names []string, windowsPer, perWindow, pageSize int, seed int64) Dataset {
	rng := sim.NewRNG(seed)
	var ds Dataset
	for _, name := range names {
		prof := workload.ByName(name)
		wr := rng.Split(int64(len(name)) + int64(name[0])*31)
		recs := prof.SynthesizeTrace(windowsPer*perWindow, synthLogicalPages, wr)
		for _, win := range windowize(recs, perWindow) {
			f := features(win, pageSize, synthLogicalPages)
			ds.Samples = append(ds.Samples, Sample{Workload: name, Features: f[:]})
		}
	}
	return ds
}

// Split partitions the dataset into train/test with the given train
// fraction, interleaving per workload so both halves see every workload.
func (ds Dataset) Split(trainFrac float64) (train, test Dataset) {
	byWl := map[string][]Sample{}
	var order []string
	for _, s := range ds.Samples {
		if _, ok := byWl[s.Workload]; !ok {
			order = append(order, s.Workload)
		}
		byWl[s.Workload] = append(byWl[s.Workload], s)
	}
	sort.Strings(order)
	for _, wl := range order {
		ss := byWl[wl]
		cut := int(float64(len(ss)) * trainFrac)
		train.Samples = append(train.Samples, ss[:cut]...)
		test.Samples = append(test.Samples, ss[cut:]...)
	}
	return train, test
}

// Model is the trained workload-type classifier: standardization
// parameters, k-means centroids, the majority workload set per cluster,
// and a distance threshold for "unknown" detection.
type Model struct {
	KM        *KMeans
	Mean, Std []float64
	// ClusterWorkloads[c] lists the workloads whose windows predominantly
	// landed in cluster c.
	ClusterWorkloads [][]string
	// WorkloadCluster maps each training workload to its majority cluster.
	WorkloadCluster map[string]int
	// MaxDist[c] is the maximum training distance to centroid c; points
	// beyond a slack factor of it are "unknown" (→ unified reward, §3.4).
	MaxDist []float64
}

// Train fits the classifier with k clusters.
func Train(ds Dataset, k int, seed int64) *Model {
	rng := sim.NewRNG(seed)
	raw := make([][]float64, len(ds.Samples))
	for i, s := range ds.Samples {
		raw[i] = s.Features
	}
	scaled, mean, std := Standardize(raw)
	km := fitKMeans(scaled, k, 100, rng)

	votes := make([]map[string]int, k)
	for i := range votes {
		votes[i] = map[string]int{}
	}
	maxDist := make([]float64, k)
	for i, p := range scaled {
		c := km.assign(p)
		votes[c][ds.Samples[i].Workload]++
		if d := math.Sqrt(sqDist(p, km.Centroids[c])); d > maxDist[c] {
			maxDist[c] = d
		}
	}
	m := &Model{
		KM: km, Mean: mean, Std: std,
		ClusterWorkloads: make([][]string, k),
		WorkloadCluster:  map[string]int{},
		MaxDist:          maxDist,
	}
	// Majority cluster per workload.
	perWl := map[string]map[int]int{}
	for i, p := range scaled {
		wl := ds.Samples[i].Workload
		if perWl[wl] == nil {
			perWl[wl] = map[int]int{}
		}
		perWl[wl][km.assign(p)]++
	}
	for wl, counts := range perWl {
		best, bestN := 0, -1
		for c, n := range counts {
			if n > bestN {
				best, bestN = c, n
			}
		}
		m.WorkloadCluster[wl] = best
		m.ClusterWorkloads[best] = append(m.ClusterWorkloads[best], wl)
	}
	for c := range m.ClusterWorkloads {
		sort.Strings(m.ClusterWorkloads[c])
	}
	return m
}

// classify returns the cluster of a raw feature vector and whether it is
// within the known region (false → use the unified reward function).
func (m *Model) classify(features []float64) (cluster int, known bool) {
	// Standardized on the stack: online typing runs this every few windows
	// per tenant.
	var buf [featureDim]float64
	p := appendApplied(buf[:0], features, m.Mean, m.Std)
	c := m.KM.assign(p)
	d := math.Sqrt(sqDist(p, m.KM.Centroids[c]))
	return c, d <= m.MaxDist[c]*1.5
}

// Label names a cluster for deterministic human-readable reporting:
// "C<idx>:<anchor>", where anchor is the alphabetically first training
// workload that landed in the cluster ("empty" if none did), with a "?"
// suffix when the classified point fell outside the known region.
func (m *Model) Label(cluster int, known bool) string {
	anchor := "empty"
	if cluster >= 0 && cluster < len(m.ClusterWorkloads) && len(m.ClusterWorkloads[cluster]) > 0 {
		anchor = m.ClusterWorkloads[cluster][0]
	}
	s := fmt.Sprintf("C%d:%s", cluster, anchor)
	if !known {
		s += "?"
	}
	return s
}

// minTypingRecords is the fewest recorded requests a tenant is typed from;
// a shorter window is too noisy to classify.
const minTypingRecords = 100

// ClassifyRecorder classifies the traffic a tenant's recorder currently
// holds — the one typing path behind online re-typing, the fleet's type
// tally and the harness's type labels. ok is false, and nothing is
// classified, when rec is nil or holds fewer than 100 records. It reads the
// recorder's storage in place (trace.Recorder.Walk) and allocates nothing:
// the storage is aliased only for the duration of the call, so rec must not
// be added to concurrently, and nothing of it is retained afterwards.
func (m *Model) ClassifyRecorder(rec *trace.Recorder, pageSize int, logicalPages int64) (cluster int, known, ok bool) {
	if rec == nil || rec.Len() < minTypingRecords {
		return 0, false, false
	}
	f := recorderFeatures(rec, pageSize, logicalPages)
	cluster, known = m.classify(f[:])
	return cluster, known, true
}

// recorderFeatures is features over the window rec holds, read in place.
func recorderFeatures(rec *trace.Recorder, pageSize int, logicalPages int64) [featureDim]float64 {
	s := newFeatureSums(pageSize, logicalPages)
	rec.Walk(s.add)
	return s.features()
}

// Accuracy evaluates the model on labeled samples: a sample is correct
// when it lands in its workload's majority cluster.
func (m *Model) Accuracy(ds Dataset) float64 {
	if len(ds.Samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range ds.Samples {
		c, _ := m.classify(s.Features)
		if c == m.WorkloadCluster[s.Workload] {
			correct++
		}
	}
	return float64(correct) / float64(len(ds.Samples))
}
