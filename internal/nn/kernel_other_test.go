//go:build !amd64

package nn

import "testing"

// forEachKernel runs f under the one kernel implementation this platform
// has (see kernel_amd64_test.go).
func forEachKernel(t *testing.T, f func(t *testing.T)) { t.Run("portable", f) }
