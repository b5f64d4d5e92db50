package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilRegistryAndMetric(t *testing.T) {
	var reg *Registry
	m := reg.Gauge("fleetio_x", "help")
	if m != nil {
		t.Fatal("nil registry returned a live metric")
	}
	m.Set(3)
	m.Add(4)
	if m.Value() != 0 {
		t.Fatal("nil metric has a value")
	}
	if err := reg.writePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Gauge("fleetio_util", "SSD utilization.", "vssd", "0")
	b := reg.Gauge("fleetio_util", "SSD utilization.", "vssd", "0")
	if a != b {
		t.Fatal("same (name, labels) returned distinct metrics")
	}
	c := reg.Gauge("fleetio_util", "SSD utilization.", "vssd", "1")
	if a == c {
		t.Fatal("distinct labels share a metric")
	}
	a.Set(0.5)
	c.Add(1)
	c.Add(0.25)
	if a.Value() != 0.5 || c.Value() != 1.25 {
		t.Fatalf("values %v %v", a.Value(), c.Value())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("fleetio_vssd_iops", "Completed requests per second.", "vssd", "0", "name", "YCSB-0").Set(1234)
	reg.Counter("fleetio_ftl_erases_total", "Block erases.").Set(42)
	var buf bytes.Buffer
	if err := reg.writePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP fleetio_vssd_iops Completed requests per second.\n",
		"# TYPE fleetio_vssd_iops gauge\n",
		`fleetio_vssd_iops{vssd="0",name="YCSB-0"} 1234` + "\n",
		"# TYPE fleetio_ftl_erases_total counter\n",
		"fleetio_ftl_erases_total 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("fleetio_esc", "h", "name", "a\"b\\c\nd").Set(1)
	var buf bytes.Buffer
	if err := reg.writePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `fleetio_esc{name="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", buf.String())
	}
}

func TestOddLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list did not panic")
		}
	}()
	NewRegistry().Gauge("fleetio_bad", "h", "vssd")
}
