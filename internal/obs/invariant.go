package obs

import (
	"fmt"
	"strings"
)

// Invariant is one row of what a finished run must satisfy: a named
// conservation identity (LHS = RHS) or bound (LHS ≤ RHS) over the run's
// counters, with the two sides as the run left them and whether the
// relation holds. Each layer's Invariants method returns its rows; a row's
// name starts with the layer that states it ("ftl.free", "fleet.arrived").
type Invariant struct {
	Name     string
	LHS, RHS int64
	OK       bool
}

// Failing prints the rows of rows that do not hold, "name LHS vs RHS"
// each, joined by "; ". It is "" when every row holds.
func Failing(rows []Invariant) string {
	var b strings.Builder
	for _, r := range rows {
		if r.OK {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s %d vs %d", r.Name, r.LHS, r.RHS)
	}
	return b.String()
}
