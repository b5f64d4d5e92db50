package core

import "fmt"

// Tier ids for hybrid (tiered) fleets. Tier 0 is the fast, low-latency,
// low-density class (SLC-like); tier 1 is the dense, slow class
// (QLC-like). The fleet layer assigns device shards to tiers; the
// placement action head below emits one of these per decision window.
const (
	// TierFast is the short-ReadPage/ProgramPage, few-blocks class.
	TierFast = 0
	// TierDense is the long-timing, many-blocks class.
	TierDense = 1
)

// tierLevels maps the placement head's categorical index to a tier id
// (head index → tier), the same head-to-level shape as HarvestLevels and
// PriorityLevels. Its length is the head width.
var tierLevels = []int{TierFast, TierDense}

// tierFromHead decodes a placement-head sample into a tier id. It panics
// on an out-of-range head index — the head width and tierLevels are built
// from the same slice, so a mismatch is a programming error.
func tierFromHead(h int) int {
	if h < 0 || h >= len(tierLevels) {
		panic(fmt.Sprintf("core: placement head index %d out of range [0,%d)", h, len(tierLevels)))
	}
	return tierLevels[h]
}
