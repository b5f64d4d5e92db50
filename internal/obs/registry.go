package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType distinguishes the two Prometheus series types the registry
// exposes.
type metricType uint8

// Metric types.
const (
	// typeGauge is a value that can go up and down (bandwidth, P99, …).
	typeGauge metricType = iota
	// typeCounter is a monotonically non-decreasing value (totals).
	typeCounter
)

// String returns the Prometheus TYPE keyword.
func (t metricType) String() string {
	if t == typeCounter {
		return "counter"
	}
	return "gauge"
}

// Metric is one series: a (name, label-set) pair holding a float64. Set
// and Add are atomic, so the simulation goroutine can update while HTTP
// scrapes read. A nil *Metric (handed out by a nil *Registry) ignores
// Set/Add and reads as 0, keeping disabled-path instrumentation to one
// nil check.
type Metric struct {
	labels string // pre-rendered {k="v",…} or ""
	bits   atomic.Uint64
}

// Set stores v.
func (m *Metric) Set(v float64) {
	if m == nil {
		return
	}
	m.bits.Store(math.Float64bits(v))
}

// Add atomically adds v.
func (m *Metric) Add(v float64) {
	if m == nil {
		return
	}
	for {
		old := m.bits.Load()
		cur := math.Float64frombits(old)
		if m.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Value returns the current value (0 for a nil metric).
func (m *Metric) Value() float64 {
	if m == nil {
		return 0
	}
	return math.Float64frombits(m.bits.Load())
}

// family groups every label-set of one metric name under a shared HELP
// and TYPE line.
type family struct {
	name, help string
	typ        metricType
	series     map[string]*Metric
	order      []string
}

// Registry is a set of metric families rendered in the Prometheus text
// exposition format. Registration is idempotent: asking for an existing
// (name, labels) pair returns the same *Metric, so samplers can
// re-register across runs. A nil *Registry returns nil metrics from
// Gauge/Counter and writes nothing.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Gauge registers (or finds) a gauge series. Labels are key/value pairs:
// Gauge("name", "help", "vssd", "0", "workload", "YCSB-0").
func (r *Registry) Gauge(name, help string, labels ...string) *Metric {
	return r.metric(typeGauge, name, help, labels)
}

// Counter registers (or finds) a counter series. Counters must only be
// moved forward (Set with a larger value, or Add with v >= 0).
func (r *Registry) Counter(name, help string, labels ...string) *Metric {
	return r.metric(typeCounter, name, help, labels)
}

func (r *Registry) metric(typ metricType, name, help string, labels []string) *Metric {
	if r == nil {
		return nil
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list for %s: %v", name, labels))
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*Metric)}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if m, ok := f.series[ls]; ok {
		return m
	}
	m := &Metric{labels: ls}
	f.series[ls] = m
	f.order = append(f.order, ls)
	return m
}

// renderLabels builds the {k="v",…} suffix with Prometheus escaping.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// writePrometheus renders every family in registration order:
//
//	# HELP fleetio_vssd_iops Completed requests per second.
//	# TYPE fleetio_vssd_iops gauge
//	fleetio_vssd_iops{vssd="0",workload="YCSB-0"} 1234
func (r *Registry) writePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.fams[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, ls := range f.order {
			v := f.series[ls].Value()
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, ls, strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return nil
}
