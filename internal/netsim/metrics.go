package netsim

import "dense802154/internal/telemetry"

// Package-level run telemetry. The hot loops count into plain int fields on
// the runner-local env (zero cost beyond the increment); foldRunMetrics
// moves the totals into these shared atomics exactly once per Run, so the
// per-run allocation budget (~5 allocs per pooled run) is untouched and the
// atomics never sit on a per-event path.
var (
	runsTotal     telemetry.Counter
	eventsTotal   telemetry.Counter
	ccaTotal      telemetry.Counter
	backoffsTotal telemetry.Counter
	heapDepthMax  telemetry.MaxGauge
)

// RegisterMetrics exposes the simulator's process-wide run counters in r:
//
//	wsn_netsim_runs_total                  counter  completed simulation runs
//	wsn_netsim_events_total                counter  DES events dispatched
//	wsn_netsim_cca_attempts_total          counter  clear channel assessments
//	wsn_netsim_backoffs_total              counter  CSMA/CA backoff draws
//	wsn_netsim_heap_depth_max              gauge    deepest event heap across runs
//
// The counters are owned by this package and shared by every registry they
// are registered into, so multiple servers in one process scrape one truth.
func RegisterMetrics(r *telemetry.Registry) {
	r.RegisterCounter("wsn_netsim_runs_total", "Completed network simulation runs.", &runsTotal)
	r.RegisterCounter("wsn_netsim_events_total", "Discrete events dispatched across all runs.", &eventsTotal)
	r.RegisterCounter("wsn_netsim_cca_attempts_total", "Clear channel assessments performed across all runs.", &ccaTotal)
	r.RegisterCounter("wsn_netsim_backoffs_total", "CSMA/CA backoff draws across all runs.", &backoffsTotal)
	r.RegisterMaxGauge("wsn_netsim_heap_depth_max", "Deepest the DES event heap has grown in any run.", &heapDepthMax)
}

// foldRunMetrics folds one finished run's local counters into the shared
// totals: five atomic updates, no allocation.
func foldRunMetrics(e *env) {
	runsTotal.Inc()
	eventsTotal.Add(e.sim.Fired())
	ccaTotal.Add(uint64(e.ccaAttempts))
	backoffsTotal.Add(uint64(e.backoffs))
	heapDepthMax.Observe(int64(e.sim.MaxHeapDepth()))
}
