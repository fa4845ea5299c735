package dist

import "dense802154/internal/telemetry"

// Metrics are the coordinator's package-level counters. They live at package
// scope (telemetry's shared-source idiom) so any number of registries —
// production server, test servers — can expose the same totals.
var (
	// QueriesTotal counts Distribute calls that took the distributed path.
	QueriesTotal telemetry.Counter
	// ShardsDispatchedTotal counts shard dispatches, including retries and
	// speculative re-dispatches.
	ShardsDispatchedTotal telemetry.Counter
	// RetriesTotal counts shard attempts after the first for a given range.
	RetriesTotal telemetry.Counter
	// RedispatchTotal counts ranges re-dispatched after a worker timeout,
	// transport error, disconnect or death.
	RedispatchTotal telemetry.Counter
	// StragglerRedispatchTotal counts speculative duplicates launched
	// against slow-but-alive shards.
	StragglerRedispatchTotal telemetry.Counter
	// ShardSplitsTotal counts shards whose tail was split off to an idle
	// worker (each split also dispatches one shard).
	ShardSplitsTotal telemetry.Counter
	// TasksRemoteTotal counts tasks whose accepted result came from a
	// worker stream.
	TasksRemoteTotal telemetry.Counter
	// TasksLocalTotal counts tasks computed locally (fallback or
	// non-shardable plans routed through Distribute).
	TasksLocalTotal telemetry.Counter
	// LocalFallbackTotal counts queries that degraded to local execution
	// after the fleet was lost or retries were exhausted.
	LocalFallbackTotal telemetry.Counter
	// WorkerFailuresTotal counts individual worker failures observed
	// (failed dispatches, broken streams, failed probes at admission).
	WorkerFailuresTotal telemetry.Counter
	// TasksServedTotal counts task lines this process served to remote
	// coordinators over /v2/tasks (the worker-side mirror of
	// TasksRemoteTotal).
	TasksServedTotal telemetry.Counter
	// WorkersReady / WorkersEvicted count the workers the coordinators'
	// fleet records hold admitted and evicted (one coordinator per
	// process in production). They move when a record changes, not per
	// query; a worker no query has probed yet is in neither.
	WorkersReady   telemetry.Gauge
	WorkersEvicted telemetry.Gauge
)

// RegisterMetrics exposes the wsn_dist_* families on r.
func RegisterMetrics(r *telemetry.Registry) {
	r.RegisterCounter("wsn_dist_queries_total", "Queries executed through the distributed coordinator path.", &QueriesTotal)
	r.RegisterCounter("wsn_dist_shards_dispatched_total", "Shard dispatches to workers, including retries and speculation.", &ShardsDispatchedTotal)
	r.RegisterCounter("wsn_dist_retries_total", "Shard attempts after the first for an index range.", &RetriesTotal)
	r.RegisterCounter("wsn_dist_redispatch_total", "Index ranges re-dispatched after worker timeout, error or disconnect.", &RedispatchTotal)
	r.RegisterCounter("wsn_dist_straggler_redispatch_total", "Speculative duplicate dispatches against straggling shards.", &StragglerRedispatchTotal)
	r.RegisterCounter("wsn_dist_shard_splits_total", "Shards whose tail was split off to an idle worker.", &ShardSplitsTotal)
	r.RegisterCounter("wsn_dist_tasks_remote_total", "Tasks whose accepted result came from a worker.", &TasksRemoteTotal)
	r.RegisterCounter("wsn_dist_tasks_local_total", "Tasks computed locally by the coordinator.", &TasksLocalTotal)
	r.RegisterCounter("wsn_dist_local_fallback_total", "Queries degraded to local execution after fleet loss.", &LocalFallbackTotal)
	r.RegisterCounter("wsn_dist_worker_failures_total", "Worker failures observed: failed dispatches, broken streams, failed probes.", &WorkerFailuresTotal)
	r.RegisterCounter("wsn_dist_tasks_served_total", "Task lines served to remote coordinators over /v2/tasks.", &TasksServedTotal)
	r.GaugeFunc("wsn_dist_workers_ready", "Workers currently admitted to the fleet.", func() float64 {
		return float64(WorkersReady.Value())
	})
	r.GaugeFunc("wsn_dist_workers_evicted", "Workers currently evicted pending readmission.", func() float64 {
		return float64(WorkersEvicted.Value())
	})
}
