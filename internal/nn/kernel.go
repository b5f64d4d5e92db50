package nn

import "math"

// accumRows is the one compute primitive behind every batched kernel:
//
//	dst[j] += Σ_k coeffs[k*cs] * rows[k*ld+j]   for j in [0, len(dst))
//
// with the k-sum accumulated SERIALLY in ascending k for every j — each
// dst element is its own accumulator chain, updated with a separate
// multiply then add per k (never a fused multiply-add, never a split
// partial sum). That makes the result bit-identical to the scalar reference
// loops regardless of how many j lanes a SIMD implementation processes at
// once: vector lanes map to independent dst elements, and reductions are
// never reassociated. IEEE-754 multiplication and addition are commutative
// at the bit level for the finite values these kernels see, so
// coeff*row == row*coeff exactly even where the scalar code wrote the
// operands in the other order.
//
// It expresses, in one shape, all three batched matrix products:
//
//	forward   y_r  += x_r[i]  * Wᵀ[i][:]   (rows = transposed weights)
//	grad-W    GW_o += dy_r[o] * x_r[:]     (rows = batch inputs)
//	grad-x    dx_r += dy_r[o] * W[o][:]    (rows = weights)
//
// On amd64 with AVX-512 an assembly implementation (kernel_amd64.s)
// processes 32 dst lanes per step; everywhere else the portable Go loop
// below runs. Both orderings are identical by construction, pinned by
// TestAccumRowsImplsMatch and by TestBatchMatchesScalarOracle, which runs
// every trial against the scalar reference (oracle_test.go) under each.
func accumRows(dst, rows, coeffs []float64, n, ld, cs int) {
	if len(dst) == 0 || n <= 0 {
		return
	}
	if useAVX512 {
		accumRowsAVX512(dst, rows, coeffs, n, ld, cs)
		return
	}
	accumRowsGeneric(dst, rows, coeffs, n, ld, cs)
}

// accumRowsGeneric is the portable reference implementation.
func accumRowsGeneric(dst, rows, coeffs []float64, n, ld, cs int) {
	for k := 0; k < n; k++ {
		c := coeffs[k*cs]
		row := rows[k*ld : k*ld+len(dst)]
		for j, rj := range row {
			dst[j] += c * rj
		}
	}
}

// tanhSlice writes dst[i] = math.Tanh(src[i]), bit-identical to the scalar
// loop. On AVX-512 the bulk of the slice goes through tanhVecAVX512, which
// reproduces math.Tanh's exact operation sequence per lane; it cannot
// replicate NaN propagation through archExp's early-out branches, so if any
// NaN lane was seen the whole slice is redone with the scalar function
// (NaN inputs mean the run is already lost — only identical garbage
// matters, not speed).
func tanhSlice(dst, src []float64) {
	if useAVX512 && len(dst) >= 8 {
		n := len(dst) &^ 7
		if tanhVecAVX512(dst[:n], src[:n]) {
			for i, v := range src {
				dst[i] = math.Tanh(v)
			}
			return
		}
		for i := n; i < len(dst); i++ {
			dst[i] = math.Tanh(src[i])
		}
		return
	}
	for i, v := range src {
		dst[i] = math.Tanh(v)
	}
}
