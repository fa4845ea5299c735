// Package telemetry is the repository's zero-dependency metrics substrate:
// atomic counters, gauges and fixed-bucket histograms behind a race-safe
// Registry whose Prometheus text-format encoding is byte-stable — the same
// registry state always renders to the same bytes, so scrapes are diffable
// and the encoder can be golden-tested.
//
// Design constraints, in order:
//
//   - Hot-path cost: Counter.Add and Histogram.Observe are a handful of
//     atomic operations and never allocate, so the simulation cores can fold
//     per-run totals into package-level metrics without disturbing their
//     alloc budgets (netsim stays at its ~5 allocs per pooled run).
//   - Process-wide sources stay where they live: packages own their metric
//     values (or expose snapshot functions) and register them into any
//     number of registries via Register*/Func collectors, so two servers in
//     one test binary can each scrape the same shared counters without a
//     global registry or duplicate-registration panics.
//   - The exposition format is the Prometheus text format (version 0.0.4):
//     families sorted by name, series sorted by label values, floats in
//     strconv 'g' form, label values escaped per the spec. ParseText reads
//     it back and validates the structural invariants, which CI uses as a
//     scrape lint.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; all methods are safe for concurrent use and never allocate.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 level (in-flight requests, pool occupancy). The
// zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reports the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// MaxGauge tracks the maximum value ever observed (a high-water mark such
// as the deepest event heap seen). The zero value is ready to use.
type MaxGauge struct{ v atomic.Int64 }

// Observe raises the mark to n if n exceeds it.
func (g *MaxGauge) Observe(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value reports the high-water mark.
func (g *MaxGauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed cumulative buckets, Prometheus
// style: bucket i counts observations ≤ bounds[i], with an implicit +Inf
// bucket holding everything. Observe is lock-free and allocation-free; a
// concurrent scrape sees each atomic consistently (the sum may trail the
// counts by in-flight observations, as in every atomic histogram).
type Histogram struct {
	bounds  []float64 // ascending, finite upper bounds
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// NewHistogram builds a histogram over the given ascending finite bucket
// bounds (the +Inf bucket is implicit). It panics on an invalid layout —
// bucket sets are compile-time decisions, not runtime inputs.
func NewHistogram(bounds ...float64) *Histogram {
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("telemetry: bucket bound %v not finite", b))
		}
		if i > 0 && bounds[i-1] >= b {
			panic(fmt.Sprintf("telemetry: bucket bounds not ascending at %d (%v ≥ %v)", i, bounds[i-1], b))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot renders the histogram's cumulative bucket samples plus _sum and
// _count, with extra label pairs prefixed onto every sample.
func (h *Histogram) snapshot(labels []Label) []Sample {
	out := make([]Sample, 0, len(h.bounds)+3)
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		out = append(out, Sample{
			Suffix: "_bucket",
			Labels: appendLabel(labels, Label{"le", formatFloat(b)}),
			Value:  float64(cum),
		})
	}
	cum += h.counts[len(h.bounds)].Load()
	out = append(out, Sample{
		Suffix: "_bucket",
		Labels: appendLabel(labels, Label{"le", "+Inf"}),
		Value:  float64(cum),
	})
	out = append(out,
		Sample{Suffix: "_sum", Labels: labels, Value: h.Sum()},
		Sample{Suffix: "_count", Labels: labels, Value: float64(cum)},
	)
	return out
}

// Label is one name="value" pair of a sample.
type Label struct{ Name, Value string }

// appendLabel copies base and appends l, so samples never alias a shared
// label slice.
func appendLabel(base []Label, l Label) []Label {
	out := make([]Label, 0, len(base)+1)
	out = append(out, base...)
	return append(out, l)
}

// Sample is one exposition line of a family: the family name plus Suffix
// ("" for plain metrics, "_bucket"/"_sum"/"_count" for histograms), the
// label pairs in output order, and the value.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// Type is a metric family's exposition type.
type Type string

// The family types the encoder understands.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// Collector produces a family's current samples at scrape time.
type Collector interface{ Collect() []Sample }

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func() []Sample

// Collect implements Collector.
func (f CollectorFunc) Collect() []Sample { return f() }

// family is one registered metric family.
type family struct {
	name, help string
	typ        Type
	collectors []Collector
}

// Registry is a set of metric families rendered together by WritePrometheus.
// Registration is expected at construction time and is safe concurrently
// with scrapes; metric values themselves are atomic, so the hot paths never
// touch the registry lock.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// register adds a collector under name, creating the family on first use.
// Registering the same name twice with a different type or help panics: two
// sources disagreeing about a family is a wiring bug, not a runtime
// condition. Registering the same name with matching metadata appends the
// collector (several label-disjoint sources may feed one family).
func (r *Registry) register(name, help string, typ Type, c Collector) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
	} else if f.typ != typ || f.help != help {
		panic(fmt.Sprintf("telemetry: conflicting registration for %q", name))
	}
	f.collectors = append(f.collectors, c)
}

// Counter registers and returns a new unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, c)
	return c
}

// RegisterCounter exposes an externally owned Counter (a package-level
// total, say) under name.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.register(name, help, TypeCounter, CollectorFunc(func() []Sample {
		return []Sample{{Value: float64(c.Value())}}
	}))
}

// Gauge registers and returns a new unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, TypeGauge, CollectorFunc(func() []Sample {
		return []Sample{{Value: float64(g.Value())}}
	}))
	return g
}

// RegisterMaxGauge exposes an externally owned MaxGauge under name.
func (r *Registry) RegisterMaxGauge(name, help string, g *MaxGauge) {
	r.register(name, help, TypeGauge, CollectorFunc(func() []Sample {
		return []Sample{{Value: float64(g.Value())}}
	}))
}

// GaugeFunc registers a gauge computed at scrape time (uptime, cache
// occupancy, pool headroom).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeGauge, CollectorFunc(func() []Sample {
		return []Sample{{Value: fn()}}
	}))
}

// CounterFunc registers a counter whose value is read at scrape time from
// an external monotone source (an existing stats snapshot, say).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeCounter, CollectorFunc(func() []Sample {
		return []Sample{{Value: fn()}}
	}))
}

// ConstGauge registers a gauge pinned to value with fixed labels — the
// build-info idiom (wsn_build_info{version="..."} 1).
func (r *Registry) ConstGauge(name, help string, value float64, labels ...Label) {
	ls := append([]Label(nil), labels...)
	r.register(name, help, TypeGauge, CollectorFunc(func() []Sample {
		return []Sample{{Labels: ls, Value: value}}
	}))
}

// Histogram registers and returns a new unlabeled histogram over bounds.
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	h := NewHistogram(bounds...)
	r.RegisterHistogram(name, help, h)
	return h
}

// RegisterHistogram exposes an externally owned Histogram under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.register(name, help, TypeHistogram, CollectorFunc(func() []Sample {
		return h.snapshot(nil)
	}))
}

// CounterVec is a family of counters keyed by label values. With resolves
// (and lazily creates) one series; hot paths resolve once and hold the
// *Counter, so the vec lock is never on a per-event path.
type CounterVec struct {
	labelNames []string
	mu         sync.Mutex
	series     map[string]*Counter
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	v := &CounterVec{labelNames: append([]string(nil), labelNames...), series: make(map[string]*Counter)}
	r.register(name, help, TypeCounter, CollectorFunc(v.collect))
	return v
}

// With returns the counter for the given label values (one per label name,
// in registration order).
func (v *CounterVec) With(values ...string) *Counter {
	var buf [keyBuf]byte
	key := appendSeriesKey(buf[:0], v.labelNames, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.series[string(key)]
	if !ok {
		c = &Counter{}
		v.series[string(key)] = c
	}
	return c
}

func (v *CounterVec) collect() []Sample {
	v.mu.Lock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Sample, 0, len(keys))
	for _, k := range keys {
		out = append(out, Sample{Labels: splitKey(v.labelNames, k), Value: float64(v.series[k].Value())})
	}
	v.mu.Unlock()
	return out
}

// HistogramVec is a family of histograms keyed by label values, sharing one
// bucket layout.
type HistogramVec struct {
	labelNames []string
	bounds     []float64
	mu         sync.Mutex
	series     map[string]*Histogram
}

// HistogramVec registers a labeled histogram family over bounds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	v := &HistogramVec{
		labelNames: append([]string(nil), labelNames...),
		bounds:     append([]float64(nil), bounds...),
		series:     make(map[string]*Histogram),
	}
	NewHistogram(bounds...) // validate the layout eagerly
	r.register(name, help, TypeHistogram, CollectorFunc(v.collect))
	return v
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	var buf [keyBuf]byte
	key := appendSeriesKey(buf[:0], v.labelNames, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.series[string(key)]
	if !ok {
		h = NewHistogram(v.bounds...)
		v.series[string(key)] = h
	}
	return h
}

func (v *HistogramVec) collect() []Sample {
	v.mu.Lock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Sample
	for _, k := range keys {
		out = append(out, v.series[k].snapshot(splitKey(v.labelNames, k))...)
	}
	v.mu.Unlock()
	return out
}

// seriesKey joins label values with a separator no label value may contain
// unescaped ambiguity for, since keys are only split against the known
// name count.
const keySep = "\x1f"

// keyBuf sizes the stack buffer a series key is built in: a With on an
// existing series whose key fits allocates nothing, and only a new series
// copies its key into the map.
const keyBuf = 128

// appendSeriesKey appends the series key of values to b.
func appendSeriesKey(b []byte, names, values []string) []byte {
	if len(values) != len(names) {
		panic(fmt.Sprintf("telemetry: %d label values for %d label names", len(values), len(names)))
	}
	for i, v := range values {
		if i > 0 {
			b = append(b, keySep...)
		}
		b = append(b, v...)
	}
	return b
}

func splitKey(names []string, key string) []Label {
	values := strings.Split(key, keySep)
	out := make([]Label, len(names))
	for i, n := range names {
		out[i] = Label{Name: n, Value: values[i]}
	}
	return out
}

// validMetricName enforces the Prometheus metric-name charset.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
