package harness

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/workload"
)

// workloadLevels is the steady/diurnal/bursty/replay ladder of the workload
// scenario — the temporal analogue of faultLevels: a named arrival
// shape overlaid on every tenant of the mix.
func workloadLevels() []level {
	var out []level
	for _, s := range workload.Shapes() {
		out = append(out, level{s.String(), func(o *Options) { o.WorkloadShape = s }})
	}
	return out
}

// typeLabels is the clusterer's view of each tenant's measured traffic:
// every tenant's recorded window is classified by the shared type model,
// the same path core.FleetIO.retype uses online. Tenants under the typing
// floor label "n/a"; a run whose policy never re-types recorded nothing and
// has no labels.
func (r *Run) typeLabels() []string {
	tm, _ := TypeModel()
	plat := r.Platform()
	pageSize := plat.FlashConfig().PageSize
	labels := make([]string, len(r.recs))
	for i, rec := range r.recs {
		labels[i] = "n/a"
		logical := int64(plat.VSSD(i).Tenant().LogicalPages())
		if c, known, ok := tm.ClassifyRecorder(rec, pageSize, logical); ok {
			labels[i] = tm.Label(c, known)
		}
	}
	return labels
}

// figureWorkloads renders the temporal-realism scenario: every mix of g
// over the steady/diurnal/bursty/replay ladder under FleetIO (with the
// clusterer's workload-type labels per tenant), then one steady
// cohort-churn rack with arrivals, departures, and live traffic typing.
// The ladder sweeps the shape, so opt's own shape reaches neither. Output
// is deterministic for a given seed at any worker count.
func figureWorkloads(w io.Writer, g grid, opt Options) {
	fmt.Fprintf(w, "== Workload scenarios: temporal shapes, trace replay, and cohort churn (seed=%d) ==\n", opt.Seed)
	head := fmt.Sprintf(" %12s %12s  %s", "BI MB/s", "LS p99 ms", "types")
	ladder(w, g, opt, 8, "shape", head, func(c cell) string {
		return fmt.Sprintf(" %12.1f %12.3f  %s", c.BandwidthTenant(), c.LatencyTenantP99(), strings.Join(c.types, ","))
	})
	st := cohortRack(opt)
	fmt.Fprintf(w, "cohort churn: %d-device rack, exponential sessions, live traffic typing\n", st.Devices)
	st.Render(w)
}
