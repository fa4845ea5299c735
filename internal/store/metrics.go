package store

import "dense802154/internal/telemetry"

// Metrics are the store's package-level counters and gauges (telemetry's
// shared-source idiom): every Store instance in the process folds into the
// same totals, so any number of registries can expose one truth.
var (
	// HitsTotal counts lookups served from the store (memory or disk tier).
	HitsTotal telemetry.Counter
	// MissesTotal counts lookups served by neither tier.
	MissesTotal telemetry.Counter
	// PutsTotal counts entries stored (task results and whole-query bodies).
	PutsTotal telemetry.Counter
	// EvictionsTotal counts in-memory tables (one query's task lines and
	// body each) evicted by the byte budget.
	EvictionsTotal telemetry.Counter
	// DiskHitsTotal counts hits that fell through memory to the disk tier.
	DiskHitsTotal telemetry.Counter
	// DiskErrorsTotal counts disk-tier failures: unreadable, truncated or
	// checksum-failing entries (each treated as a miss) and failed writes.
	DiskErrorsTotal telemetry.Counter
	// BytesGauge and EntriesGauge track the in-memory tier's current charge
	// against its byte budget and the task lines and bodies it holds.
	BytesGauge   telemetry.Gauge
	EntriesGauge telemetry.Gauge
)

// RegisterMetrics exposes the wsn_store_* families on r.
func RegisterMetrics(r *telemetry.Registry) {
	r.RegisterCounter("wsn_store_hits_total", "Result-store lookups served from the store (memory or disk tier).", &HitsTotal)
	r.RegisterCounter("wsn_store_misses_total", "Result-store lookups served by neither tier.", &MissesTotal)
	r.RegisterCounter("wsn_store_puts_total", "Entries stored: per-task results and whole-query bodies.", &PutsTotal)
	r.RegisterCounter("wsn_store_evictions_total", "In-memory tables (one query's task lines and body) evicted by the byte budget.", &EvictionsTotal)
	r.RegisterCounter("wsn_store_disk_hits_total", "Hits served by the on-disk tier after a memory miss.", &DiskHitsTotal)
	r.RegisterCounter("wsn_store_disk_errors_total", "Disk-tier failures: corrupt or truncated entries and failed writes.", &DiskErrorsTotal)
	r.GaugeFunc("wsn_store_bytes", "In-memory tier bytes currently charged against the budget.", func() float64 {
		return float64(BytesGauge.Value())
	})
	r.GaugeFunc("wsn_store_entries", "In-memory task lines and whole-query bodies currently resident.", func() float64 {
		return float64(EntriesGauge.Value())
	})
}
