//go:build amd64

package nn

import "testing"

// forEachKernel runs f under every implementation of accumRows/tanhSlice
// this host can execute: the portable Go loops always (they are the only
// inference path on a host without AVX-512, and this box would otherwise
// never run a network through them), then the assembly when detected.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	detected := useAVX512
	defer func() { useAVX512 = detected }()
	useAVX512 = false
	t.Run("portable", f)
	if detected {
		useAVX512 = true
		t.Run("avx512", f)
	}
}
