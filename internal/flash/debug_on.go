//go:build flashdebug

package flash

import "math"

// poolDebug enables use-after-release poisoning of recycled Ops: every
// field a stale holder might read is overwritten with an obviously-wrong
// sentinel on release, so a use-after-release shows up as an
// out-of-range-channel panic or a NaN pass value instead of silent
// corruption. Enabled with `go test -tags=flashdebug`.
const poolDebug = true

// poisonOp stomps the released op's payload fields. The sequence number
// and the pool links are left alone — releaseOp and AcquireOp own those.
func poisonOp(op *Op) {
	op.Kind = OpKind(0xEE)
	op.Addr = PPA{Channel: -1 << 30, Chip: -1 << 30, Block: -1 << 30, Page: -1 << 30}
	op.Tenant = -1 << 30
	op.Priority = -1 << 30
	op.Pass = math.NaN()
	op.CtxI = -1 << 62
}
