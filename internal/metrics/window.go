package metrics

// Window accumulates the per-decision-window statistics that become the RL
// state of a vSSD (Table 1 of the paper): bandwidth, IOPS, average latency,
// SLO violations, queue delay, read/write mix. Table 1 has no tail quantile.
type Window struct {
	// readBytes and writeBytes are payload bytes completed in the window.
	readBytes  int64
	writeBytes int64
	// Reads and Writes count completed requests.
	Reads  int64
	Writes int64
	// latencySum is the sum of request latencies (ns); LatencyCount the
	// number of completed requests contributing to it.
	latencySum   int64
	LatencyCount int64
	// SLOViolations counts completed requests whose latency exceeded the
	// vSSD's SLO.
	SLOViolations int64
	// QueueDelaySum is the total time (ns) requests spent queued before
	// their first flash operation was dispatched.
	QueueDelaySum int64
	// Retries counts page writes re-dispatched after an injected NAND
	// program failure; zero without a fault injector. The per-tenant
	// error-rate RL state feature derives from it.
	Retries int64
}

// Reset zeroes the window in place for reuse.
func (w *Window) Reset() { *w = Window{} }

// Requests returns the number of completed requests.
func (w *Window) Requests() int64 { return w.Reads + w.Writes }

// Bytes returns the total payload bytes moved.
func (w *Window) Bytes() int64 { return w.readBytes + w.writeBytes }

// Bandwidth returns bytes per second over a window of length dur (ns).
func (w *Window) Bandwidth(dur int64) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(w.Bytes()) / (float64(dur) / 1e9)
}

// IOPS returns completed requests per second over a window of length dur.
func (w *Window) IOPS(dur int64) float64 {
	if dur <= 0 {
		return 0
	}
	return float64(w.Requests()) / (float64(dur) / 1e9)
}

// AvgLatency returns the mean request latency in ns.
func (w *Window) AvgLatency() float64 {
	if w.LatencyCount == 0 {
		return 0
	}
	return float64(w.latencySum) / float64(w.LatencyCount)
}

// SLOViolationRate returns the fraction of requests violating the SLO.
func (w *Window) SLOViolationRate() float64 {
	n := w.Requests()
	if n == 0 {
		return 0
	}
	return float64(w.SLOViolations) / float64(n)
}

// ReadRatio returns reads / (reads+writes), or 0.5 when idle (a neutral
// value so an idle vSSD does not look write-only to the RL state).
func (w *Window) ReadRatio() float64 {
	n := w.Requests()
	if n == 0 {
		return 0.5
	}
	return float64(w.Reads) / float64(n)
}

// Complete records a finished request into the window.
func (w *Window) Complete(isWrite bool, bytes, latency, queueDelay, slo int64) {
	if isWrite {
		w.Writes++
		w.writeBytes += bytes
	} else {
		w.Reads++
		w.readBytes += bytes
	}
	w.latencySum += latency
	w.LatencyCount++
	w.QueueDelaySum += queueDelay
	if slo > 0 && latency > slo {
		w.SLOViolations++
	}
}
