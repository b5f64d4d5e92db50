package obs

// Observer bundles the two observability pieces a run can carry: the
// decision-event Recorder and the metric Registry (sampled every
// DefaultSamplePeriod of virtual time). The harness threads one Observer
// through platform construction (Options.Obs); cmd binaries build it
// behind their -http and -decisions flags. A nil *Observer disables
// everything.
type Observer struct {
	// Rec receives decision events; nil disables tracing.
	Rec *Recorder
	// Reg receives time-series samples; nil disables telemetry.
	Reg *Registry
}

// NewObserver returns an observer with a fresh recorder and registry.
func NewObserver() *Observer {
	return &Observer{Rec: newRecorder(0), Reg: NewRegistry()}
}

// Recorder returns the observer's recorder, nil for a nil observer (so
// call sites can pass o.Recorder() straight into SetObserver hooks).
func (o *Observer) Recorder() *Recorder {
	if o == nil {
		return nil
	}
	return o.Rec
}

// Registry returns the observer's registry, nil for a nil observer.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}
