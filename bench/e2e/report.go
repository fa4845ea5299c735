package main

import (
	"math"
	"slices"
)

// units names the unit of every metric the benchmark can report. The
// end-to-end and per-layer subsets of the closing result line are declared,
// with their bounds, in BENCHMARK.json at the repository root.
var units = map[string]string{
	"setup_s":          "s",
	"latency_p50_ms":   "ms",
	"latency_p90_ms":   "ms",
	"qps":              "queries/s",
	"tasks_per_s":      "tasks/s",
	"ttfl_p50_ms":      "ms",
	"ttfl_p90_ms":      "ms",
	"cpu_ms_per_query": "ms",
	"allocs_per_query": "count",
	"rss_peak_mb":      "MB",
	"fail_ratio":       "ratio",

	"service.self_ms":               "ms",
	"service.worker_wait_ms":        "ms",
	"service.resp_kb":               "KB",
	"query.decode_us":               "us",
	"query.compile_ms":              "ms",
	"query.execute_self_ms":         "ms",
	"query.encode_ms":               "ms",
	"query.first_yield_ms":          "ms",
	"query.tasks_per_query":         "count",
	"store.key_us":                  "us",
	"store.get_result_us":           "us",
	"store.hit_ratio":               "ratio",
	"store.task_put_ms":             "ms",
	"store.put_result_us":           "us",
	"store.evictions":               "count",
	"engine.task_ms":                "ms",
	"engine.task_wait_ms":           "ms",
	"engine.busy_frac":              "ratio",
	"kernel.share":                  "ratio",
	"contention.hit_ratio":          "ratio",
	"contention.misses_per_query":   "count",
	"netsim.events_per_query":       "count",
	"netsim.ns_per_event":           "ns",
	"netsim.cca_per_query":          "count",
	"netsim.heap_depth_max":         "count",
	"lifetime.epochs_per_query":     "count",
	"lifetime.ms_per_epoch":         "ms",
	"lifetime.ff_share":             "ratio",
	"dist.shards_per_query":         "count",
	"dist.send_ms":                  "ms",
	"dist.line_gap_ms":              "ms",
	"dist.merge_ms":                 "ms",
	"dist.worker_task_ms":           "ms",
	"dist.remote_task_frac":         "ratio",
	"dist.redispatch":               "count",
	"runtime.alloc_kb_per_query":    "KB",
	"runtime.gc_per_query":          "count",
	"runtime.gc_pause_ms_per_query": "ms",
	"client.latency_p99_ms":         "ms",
	"client.samples":                "count",
	"trace.overhead_frac":           "ratio",
	"trace.unattributed_frac":       "ratio",
}

// value is one reported metric. Samples is the count behind a percentile;
// Spread is the quartile spread over the run's sub-windows as a share of
// their median (setup_s: see endToEnd), the repeatability estimate -compare
// uses.
type value struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples int      `json:"samples,omitempty"`
	Spread  *float64 `json:"spread,omitempty"`
}

// workloadReport is one workload's outcome.
type workloadReport struct {
	Correct      bool             `json:"correct"`
	Attempted    int              `json:"attempted"`
	Failed       int              `json:"failed"`
	FirstFailure string           `json:"first_failure,omitempty"`
	SetupsS      []float64        `json:"setups_s"` // every set-up, in order
	Metrics      map[string]value `json:"metrics"`
}

func (r *workloadReport) set(name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.Metrics[name] = value{Value: v, Unit: units[name], Samples: samples}
}

// percentile interpolates linearly between closest ranks of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method), the rule the benchmark's repeatability check is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	n, m := len(d), len(d)+1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

func median(xs []float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	_, q2, _ := quartiles(xs)
	return q2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowMetrics computes the end-to-end metrics a stretch of the window
// supports: the successful requests in it, the fleet's resource use over it
// and its length.
func windowMetrics(done []obs, u usage, seconds float64) map[string]float64 {
	var lat, ttfl []float64
	tasks := 0
	for _, o := range done {
		lat = append(lat, o.latMS)
		ttfl = append(ttfl, o.ttflMS)
		tasks += o.tasks
	}
	slices.Sort(lat)
	slices.Sort(ttfl)
	n := float64(len(done))
	return map[string]float64{
		"latency_p50_ms":   percentile(lat, 50),
		"latency_p90_ms":   percentile(lat, 90),
		"qps":              n / seconds,
		"tasks_per_s":      float64(tasks) / seconds,
		"ttfl_p50_ms":      percentile(ttfl, 50),
		"ttfl_p90_ms":      percentile(ttfl, 90),
		"cpu_ms_per_query": ratio(u.cpuMS, n),
		"allocs_per_query": ratio(u.mallocs, n),
		"rss_peak_mb":      u.hwmMB,
	}
}

// endToEnd fills the end-to-end metrics of a window and its set-ups, each
// with its sub-window spread.
func endToEnd(r *workloadReport, win *window, setups []float64, checkFailed int, firstCheck string) {
	var ok []obs
	failed := checkFailed
	for _, o := range win.obs {
		if o.err != "" {
			failed++
			if r.FirstFailure == "" {
				r.FirstFailure = o.err
			}
			continue
		}
		ok = append(ok, o)
	}
	if r.FirstFailure == "" {
		r.FirstFailure = firstCheck
	}
	r.Attempted = len(win.obs)
	r.Failed = failed
	r.Correct = failed == 0 && len(ok) > 0

	first, last := win.marks[0], win.marks[len(win.marks)-1]
	whole := windowMetrics(ok, between(first, last), win.duration.Seconds())
	subs := map[string][]float64{}
	for k := 0; k+1 < len(win.marks); k++ {
		a, b := win.marks[k], win.marks[k+1]
		var part []obs
		for _, o := range ok {
			if !o.doneAt.Before(a.at) && o.doneAt.Before(b.at) {
				part = append(part, o)
			}
		}
		if len(part) == 0 {
			continue
		}
		for name, v := range windowMetrics(part, between(a, b), b.at.Sub(a.at).Seconds()) {
			subs[name] = append(subs[name], v)
		}
	}
	for name, v := range whole {
		r.set(name, v, len(ok))
		// A peak only grows across sub-windows, so their spread says nothing
		// about repeatability.
		if m, found := r.Metrics[name]; found && name != "rss_peak_mb" {
			s := spread(subs[name])
			m.Spread = &s
			r.Metrics[name] = m
		}
	}
	// setup_s is the median of the set-ups. Its run-to-run spread is the
	// set-ups' own spread shrunk by √n, the scale on which a median of n
	// draws varies; one slow set-up in a few moves the median little.
	s := spread(setups) / math.Sqrt(float64(len(setups)))
	r.Metrics["setup_s"] = value{Value: median(setups), Unit: units["setup_s"], Samples: len(setups), Spread: &s}
	r.set("fail_ratio", ratio(float64(failed), float64(len(win.obs))), len(win.obs))
}

// perLayer fills the per-layer metrics: counts from the /metrics deltas of
// the untraced window, times from the traced replay.
func perLayer(r *workloadReport, win *window, tr *traceResult) {
	delta := func(name string) float64 { return win.after[name] - win.before[name] }
	var lat []float64
	var bytes float64
	for _, o := range win.obs {
		if o.err == "" {
			lat = append(lat, o.latMS)
			bytes += float64(o.bytes)
		}
	}
	slices.Sort(lat)
	n := float64(len(lat))
	u := between(win.marks[0], win.marks[len(win.marks)-1])
	taskSec := delta("wsn_engine_task_seconds_sum")

	r.set("service.worker_wait_ms", 1e3*ratio(delta("wsn_worker_wait_seconds_sum"), delta("wsn_worker_wait_seconds_count")), 0)
	r.set("service.resp_kb", ratio(bytes, n)/1024, 0)
	r.set("query.tasks_per_query", ratio(delta("wsn_query_tasks_total"), n), 0)
	r.set("store.hit_ratio", ratio(delta("wsn_store_hits_total"), delta("wsn_store_hits_total")+delta("wsn_store_misses_total")), 0)
	r.set("store.evictions", delta("wsn_store_evictions_total"), 0)
	r.set("engine.task_ms", 1e3*ratio(taskSec, delta("wsn_engine_task_seconds_count")), 0)
	r.set("engine.task_wait_ms", 1e3*ratio(delta("wsn_engine_task_wait_seconds_sum"), delta("wsn_engine_task_wait_seconds_count")), 0)
	r.set("engine.busy_frac", ratio(taskSec, win.duration.Seconds()*win.after["wsn_worker_pool_capacity"]), 0)
	cHits, cMiss := delta("wsn_contention_cache_hits_total"), delta("wsn_contention_cache_misses_total")
	r.set("contention.hit_ratio", ratio(cHits, cHits+cMiss), 0)
	r.set("contention.misses_per_query", ratio(cMiss, n), 0)
	events := delta("wsn_netsim_events_total")
	r.set("netsim.events_per_query", ratio(events, n), 0)
	r.set("netsim.cca_per_query", ratio(delta("wsn_netsim_cca_attempts_total"), n), 0)
	r.set("netsim.heap_depth_max", win.after["wsn_netsim_heap_depth_max"], 0)
	if events > 0 {
		r.set("netsim.ns_per_event", 1e9*taskSec/events, 0)
	}
	epochs := delta("wsn_lifetime_epochs_total")
	ff, sim := delta("wsn_lifetime_fast_forward_seconds_total"), delta("wsn_lifetime_simulated_seconds_total")
	r.set("lifetime.epochs_per_query", ratio(epochs, n), 0)
	r.set("lifetime.ff_share", ratio(ff, ff+sim), 0)
	if epochs > 0 {
		r.set("lifetime.ms_per_epoch", 1e3*taskSec/epochs, 0)
	}
	remote, local := delta("wsn_dist_tasks_remote_total"), delta("wsn_dist_tasks_local_total")
	r.set("dist.shards_per_query", ratio(delta("wsn_dist_shards_dispatched_total"), n), 0)
	r.set("dist.remote_task_frac", ratio(remote, remote+local), 0)
	r.set("dist.redispatch", delta("wsn_dist_redispatch_total"), 0)
	r.set("runtime.alloc_kb_per_query", ratio(u.allocKB, n), 0)
	r.set("runtime.gc_per_query", ratio(u.gcs, n), 0)
	r.set("runtime.gc_pause_ms_per_query", ratio(u.pauseMS, n), 0)
	r.set("client.latency_p99_ms", percentile(lat, 99), len(lat))
	r.set("client.samples", n, 0)

	var (
		untraced                      = slices.Sorted(slices.Values(tr.untracedWallMS))
		decode, compile, key, get     []float64
		execSelf, encode, put, taskPt []float64
		firstYield                    []float64
		send, gap, worker, merge      []float64
		kernel, unattributed, wall    float64
	)
	for _, t := range tr.traced {
		decode = append(decode, t.decode)
		compile = append(compile, t.compile)
		key = append(key, t.key)
		get = append(get, t.getResult)
		kernel += t.kernel
		unattributed += t.unattributed
		wall += t.wall
		if t.firstYield > 0 {
			firstYield = append(firstYield, t.firstYield)
		}
		if !t.executed {
			continue
		}
		execSelf = append(execSelf, t.executeSelf)
		encode = append(encode, t.encode)
		put = append(put, t.putResult)
		taskPt = append(taskPt, t.taskPut)
		send = append(send, t.distSend...)
		gap = append(gap, t.distGap...)
		worker = append(worker, t.distWorker...)
		if t.distShards > 0 {
			merge = append(merge, t.distMerge)
		}
	}
	r.set("service.self_ms", percentile(lat, 50)-percentile(untraced, 50), len(untraced))
	r.set("query.decode_us", 1e3*mean(decode), len(decode))
	r.set("query.compile_ms", mean(compile), len(compile))
	r.set("query.execute_self_ms", mean(execSelf), len(execSelf))
	r.set("query.encode_ms", mean(encode), len(encode))
	r.set("query.first_yield_ms", mean(firstYield), len(firstYield))
	r.set("store.key_us", 1e3*mean(key), len(key))
	r.set("store.get_result_us", 1e3*mean(get), len(get))
	r.set("store.task_put_ms", mean(taskPt), len(taskPt))
	r.set("store.put_result_us", 1e3*mean(put), len(put))
	r.set("kernel.share", ratio(kernel, wall), len(tr.traced))
	r.set("trace.overhead_frac", ratio(mean(tr.tracedWallMS), mean(tr.untracedWallMS))-1, len(tr.tracedWallMS))
	r.set("trace.unattributed_frac", ratio(unattributed, wall), len(tr.traced))
	if len(send) > 0 {
		r.set("dist.send_ms", mean(send), len(send))
		r.set("dist.line_gap_ms", mean(gap), len(gap))
		r.set("dist.merge_ms", mean(merge), len(merge))
		r.set("dist.worker_task_ms", mean(worker), len(worker))
	}
}
