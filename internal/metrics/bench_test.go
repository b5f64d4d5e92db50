package metrics

import "testing"

// BenchmarkHistogramAdd measures the per-sample recording cost, which sits
// on every request completion.
func BenchmarkHistogramAdd(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Add(int64(i%1000) * 1000)
	}
}

// BenchmarkHistogramQuantile measures tail-quantile queries on a populated
// histogram.
func BenchmarkHistogramQuantile(b *testing.B) {
	var h Histogram
	for i := int64(0); i < 100000; i++ {
		h.Add(i * 37 % 10_000_000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.quantile(0.99)
	}
}
