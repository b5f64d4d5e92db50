package trainer

import (
	"encoding/json"
	"fmt"
	"os"
)

// RoundStats is one JSONL training-telemetry record: learner losses,
// policy drift, collection throughput, and the eval gate's verdict. The
// TransPerSec/WallMs pair makes training speed itself benchmarkable
// across worker counts and hardware.
//
// Serialized with the json tags below, one object per line (see
// docs/OBSERVABILITY.md, "Trainer JSONL schema"). EvalScore and Best are
// omitted on rounds where the eval gate did not run; WallMs/TransPerSec
// are wall-clock measurements, everything else is training statistics.
// The same fields back the fleetio_train_* gauges when Config.Obs is set.
type RoundStats struct {
	Round       int      `json:"round"`
	Episodes    int      `json:"episodes"`
	Transitions int      `json:"transitions"`
	PolicyLoss  float64  `json:"policy_loss"`
	ValueLoss   float64  `json:"value_loss"`
	Entropy     float64  `json:"entropy"`
	ApproxKL    float64  `json:"approx_kl"`
	MeanReward  float64  `json:"mean_reward"`
	EvalScore   *float64 `json:"eval_score,omitempty"`
	Best        bool     `json:"best,omitempty"`
	WallMs      float64  `json:"wall_ms"`
	TransPerSec float64  `json:"transitions_per_sec"`
}

// metricsWriter appends RoundStats as JSON lines. Append mode lets a
// resumed run extend the same trajectory file.
type metricsWriter struct {
	f   *os.File
	enc *json.Encoder
}

func newMetricsWriter(path string) (*metricsWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trainer: metrics file: %w", err)
	}
	return &metricsWriter{f: f, enc: json.NewEncoder(f)}, nil
}

// write appends one record (json.Encoder terminates it with a newline).
func (m *metricsWriter) write(rs RoundStats) error {
	if err := m.enc.Encode(rs); err != nil {
		return fmt.Errorf("trainer: metrics write: %w", err)
	}
	return nil
}

func (m *metricsWriter) Close() error { return m.f.Close() }
