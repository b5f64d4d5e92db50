package core

import (
	"repro/internal/sim"
	"repro/internal/vssd"
)

// StatesPerWindow is the RL state width of one time window: the nine
// Table 1 states plus the two shared multi-agent states (§3.3.1).
const StatesPerWindow = 11

// DefaultHistoryWindows is how many windows are stacked into one model
// input (§3.3.1: three prior time windows).
const DefaultHistoryWindows = 3

// stateScales normalizes raw measurements into the ~[0,1] ranges the tiny
// MLP trains well on.
type stateScales struct {
	// guaranteedBW is the vSSD's allocated bandwidth (bytes/s): owned
	// channels × per-channel bandwidth.
	guaranteedBW float64
	// iopsScale divides IOPS readings.
	iopsScale float64
	// latScale divides latencies (ns).
	latScale float64
	// capScale divides available capacity (bytes).
	capScale float64
	// queueScale divides queue lengths.
	queueScale float64
}

// encodeWindow converts one snapshot into the 11-dimensional window state.
func encodeWindow(s vssd.WindowSnapshot, sc stateScales, sharedIOPS, sharedVio float64) []float64 {
	dur := s.Duration
	if dur <= 0 {
		dur = 1
	}
	bw := s.Window.Bandwidth(dur)
	out := make([]float64, StatesPerWindow)
	out[0] = clamp(bw/nz(sc.guaranteedBW), 0, 4)                                // Avg_BW
	out[1] = clamp(s.Window.IOPS(dur)/nz(sc.iopsScale), 0, 4)                   // Avg_IOPS
	out[2] = clamp(s.Window.AvgLatency()/nz(sc.latScale), 0, 4)                 // Avg_Lat
	out[3] = clamp(s.Window.SLOViolationRate(), 0, 1)                           // SLO_Vio
	out[4] = clamp(float64(s.QueueLen+s.InflightPages)/nz(sc.queueScale), 0, 4) // QDelay proxy
	out[5] = s.Window.ReadRatio()                                               // RW_Ratio
	out[6] = clamp(float64(s.AvailCapacity)/nz(sc.capScale), 0, 1)              // Avail_Capacity
	if s.InGC {
		out[7] = 1 // In_GC
	}
	out[8] = float64(s.Priority) / 3.0                  // Cur_Priority
	out[9] = clamp(sharedIOPS/nz(sc.iopsScale)/4, 0, 4) // Σ others' IOPS
	out[10] = clamp(sharedVio, 0, 1)                    // Σ others' SLO_Vio
	return out
}

func nz(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// history stacks the most recent window states into one model input.
type history struct {
	windows int
	width   int
	buf     [][]float64
}

// newHistoryWidth holds the last `windows` window-states of `width`
// features each (FleetIO.stateWidth).
func newHistoryWidth(windows, width int) *history {
	if windows <= 0 {
		windows = DefaultHistoryWindows
	}
	if width <= 0 {
		width = StatesPerWindow
	}
	return &history{windows: windows, width: width}
}

// push appends a window state, evicting the oldest beyond capacity.
func (h *history) push(state []float64) {
	h.buf = append(h.buf, state)
	if len(h.buf) > h.windows {
		h.buf = h.buf[1:]
	}
}

// vector returns the stacked input (windows × width), zero-padded at the
// front until enough history accumulates — oldest first.
func (h *history) vector() []float64 {
	out := make([]float64, h.windows*h.width)
	pad := h.windows - len(h.buf)
	for i, w := range h.buf {
		copy(out[(pad+i)*h.width:], w)
	}
	return out
}

// defaultScales derives normalization constants from a vSSD's allocation.
func defaultScales(ownedChannels int, channelBW float64, logicalBytes int64) stateScales {
	if ownedChannels < 1 {
		ownedChannels = 1
	}
	return stateScales{
		guaranteedBW: float64(ownedChannels) * channelBW,
		iopsScale:    5000,
		latScale:     float64(10 * sim.Millisecond),
		capScale:     float64(logicalBytes),
		queueScale:   128,
	}
}
