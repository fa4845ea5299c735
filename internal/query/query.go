// Package query is the unified declarative layer over the whole model
// surface of this repository. One versioned Query value names an operating
// point (or a grid of them) in the paper's parameter space — radio, BER
// model, BO/SO, payload, load, path-loss population, improvement flags —
// and a kind selecting what to compute over it:
//
//	evaluate        one analytical-model evaluation (eqs. 3-14)
//	batch           many evaluations, one per batch element
//	casestudy       the §5 population integration
//	pathloss-sweep  the Fig. 7 energy-vs-path-loss curve family
//	thresholds      the Fig. 7 link-adaptation switching points
//	payload-sweep   the Fig. 8 energy-vs-payload series
//	simulate        one cycle-accurate discrete-event network simulation
//	replicas        n independent simulations with across-replica 95% CIs
//	lifetime        n battery-lifetime runs (node death, partition time, CIs)
//	scenario        one cross-model catalog scenario (optionally golden-diffed)
//	experiment      one registered paper-artifact driver
//	grid            the joint product sweep (losses × payloads × BO × node counts)
//
// Compile validates a Query and lowers it to a deterministic execution
// Plan — an ordered list of engine tasks (one per batch element or
// simulation replica, one for single-result kinds). Execute runs the plan
// on the shared engine worker pool with DeriveSeed-derived streams and the
// process-wide contention cache, so results are bit-identical at any worker
// count, and assembles one tagged ResultSet whose Encode is byte-stable
// (internal/wire.Float everywhere a float travels).
//
// Every consumer speaks this one type: dense802154.Run / RunStream wrap it
// in-process, internal/service exposes it as POST /v2/query and
// /v2/query/stream (and lowers the frozen v1 routes onto it), and
// cmd/wsn-query drives it from the command line. A new scenario axis is a
// new Query field — not a new function, endpoint, codec and flag set.
//
// Request bytes, like result bytes, have one writer and one reader, neither
// reflective (request.go). AppendQuery writes a Query exactly as a
// json.Encoder with HTML escaping off would; Canonical, the store key's
// bytes, and the coordinator's /v2/tasks bodies are that writer's output.
// DecodeQuery, used by the HTTP service and wsn-query alike, reads a
// document in the writer's shape (keys in its order, omitempty members
// optional — what any encoding/json client sends) with a wire.Scanner, into
// one arena of pointees and without a string that aliases the input. On
// anything else it replays the strict decoder, wire.DecodeStrict (unknown
// fields rejected, nothing but whitespace after the document), over the
// same bytes, so the documents accepted, the values decoded and the error
// messages are the strict decoder's whichever path runs.
package query

import (
	"math"

	"dense802154/internal/channel"
	"dense802154/internal/core"
	"dense802154/internal/experiments"
)

// Version is the wire version this package implements; requests may carry
// it explicitly (POST /v2/query) or omit it (0 means "current").
const Version = 2

// Kind selects what a Query computes.
type Kind string

// The query kinds, one per computation the repository offers.
const (
	KindEvaluate      Kind = "evaluate"
	KindBatch         Kind = "batch"
	KindCaseStudy     Kind = "casestudy"
	KindPathLossSweep Kind = "pathloss-sweep"
	KindPayloadSweep  Kind = "payload-sweep"
	KindThresholds    Kind = "thresholds"
	KindSimulate      Kind = "simulate"
	KindReplicas      Kind = "replicas"
	KindLifetime      Kind = "lifetime"
	KindScenario      Kind = "scenario"
	KindExperiment    Kind = "experiment"
	KindGrid          Kind = "grid"
)

// Kinds lists every valid query kind in declaration order.
func Kinds() []Kind {
	return []Kind{
		KindEvaluate, KindBatch, KindCaseStudy, KindPathLossSweep,
		KindPayloadSweep, KindThresholds, KindSimulate, KindReplicas,
		KindLifetime, KindScenario, KindExperiment, KindGrid,
	}
}

// MaxBatch caps the batch elements of one query; larger workloads page
// across several queries.
const MaxBatch = 10000

// MaxGridTasks caps the task count of one grid query (the product of its
// axis lengths); larger surfaces page across several queries.
const MaxGridTasks = 10000

// MaxGridPoints caps one sweep axis.
const MaxGridPoints = 100000

// MaxReplicas caps one replicas query.
const MaxReplicas = 4096

// Axis declares a float64 grid: either an explicit Values list or a
// From/To range expanded with Points (an inclusive linspace, the same
// channel.LossGrid rule the case study integrates over) or a positive Step.
// Exactly one of the two forms may be used; every point must be finite.
type Axis struct {
	Values []Float `json:"values,omitempty"`
	From   *Float  `json:"from,omitempty"`
	To     *Float  `json:"to,omitempty"`
	Points *int    `json:"points,omitempty"`
	Step   *Float  `json:"step,omitempty"`
}

// Grid expands the axis (nil selects def()); field scopes validation errors.
func (a *Axis) Grid(field string, def func() []float64) ([]float64, *Error) {
	if a == nil {
		return def(), nil
	}
	if len(a.Values) > 0 {
		if a.From != nil || a.To != nil || a.Points != nil || a.Step != nil {
			return nil, errf(field, "values and from/to/points/step are mutually exclusive")
		}
		if len(a.Values) > MaxGridPoints {
			return nil, errf(field+".values", "grid too large (%d points, max %d)", len(a.Values), MaxGridPoints)
		}
		out := make([]float64, a.Len(0))
		for i, v := range a.Values {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, errf(field+".values", "point %d is not finite", i)
			}
			out[i] = f
		}
		return out, nil
	}
	if a.From == nil || a.To == nil {
		return nil, errf(field, "a range axis needs both from and to")
	}
	from, to := float64(*a.From), float64(*a.To)
	if !(from < to) || math.IsInf(from, 0) || math.IsInf(to, 0) {
		return nil, errf(field, "range %g..%g not a finite ascending interval", from, to)
	}
	switch {
	case a.Points != nil && a.Step != nil:
		return nil, errf(field, "points and step are mutually exclusive")
	case a.Points != nil:
		if *a.Points < 2 || *a.Points > MaxGridPoints {
			return nil, errf(field+".points", "%d outside 2..%d", *a.Points, MaxGridPoints)
		}
		return channel.LossGrid(from, to, a.Len(0)), nil
	case a.Step != nil:
		step := float64(*a.Step)
		if !(step > 0) || math.IsInf(step, 0) {
			return nil, errf(field+".step", "%g not a positive finite step", step)
		}
		if (to-from)/step >= MaxGridPoints {
			return nil, errf(field+".step", "step %g yields more than %d points", step, MaxGridPoints)
		}
		out := make([]float64, a.Len(0))
		for i := range out {
			out[i] = from + float64(i)*step
		}
		return out, nil
	}
	return nil, errf(field, "a range axis needs points or step")
}

// Len is the number of points a valid axis expands to, def for a nil one.
// It is the one statement of each form's point count: Grid sizes its
// points with it, and Query.NumTasks counts a grid's tasks with it without
// expanding any axis. An axis Grid rejects has no meaningful Len.
func (a *Axis) Len(def int) int {
	switch {
	case a == nil:
		return def
	case len(a.Values) > 0:
		return len(a.Values)
	case a.Points != nil:
		return *a.Points
	case a.From == nil || a.To == nil || a.Step == nil:
		return 0
	}
	// The step form holds every from + i·step ≤ to. Those points rise with
	// i, so they are a prefix of the walk, and the quotient lands within
	// one of its end.
	from, to, step := float64(*a.From), float64(*a.To), float64(*a.Step)
	n := int((to-from)/step) + 1
	for n > 1 && from+float64(n-1)*step > to {
		n--
	}
	for from+float64(n)*step <= to {
		n++
	}
	return n
}

// IntAxis declares an integer grid: an explicit Values list, or a From/To
// range walked with Step (default 1).
type IntAxis struct {
	Values []int `json:"values,omitempty"`
	From   *int  `json:"from,omitempty"`
	To     *int  `json:"to,omitempty"`
	Step   *int  `json:"step,omitempty"`
}

// Grid expands the axis (nil selects def()); field scopes validation errors.
func (a *IntAxis) Grid(field string, def func() []int) ([]int, *Error) {
	if a == nil {
		return def(), nil
	}
	if len(a.Values) > 0 {
		if a.From != nil || a.To != nil || a.Step != nil {
			return nil, errf(field, "values and from/to/step are mutually exclusive")
		}
		if len(a.Values) > MaxGridPoints {
			return nil, errf(field+".values", "grid too large (%d points, max %d)", len(a.Values), MaxGridPoints)
		}
		return append([]int(nil), a.Values...), nil
	}
	if a.From == nil || a.To == nil {
		return nil, errf(field, "a range axis needs both from and to")
	}
	from, to, step := *a.From, *a.To, 1
	if a.Step != nil {
		step = *a.Step
	}
	// The magnitude bound makes the span/count arithmetic below immune to
	// integer overflow (a hostile from/to near MaxInt would otherwise wrap
	// the count negative and panic the slice allocation, or wrap the walk
	// into an endless loop). 2^30 is far beyond any integer grid the model
	// accepts downstream.
	const maxAxisMagnitude = 1 << 30
	if from < -maxAxisMagnitude || from > maxAxisMagnitude || to < -maxAxisMagnitude || to > maxAxisMagnitude {
		return nil, errf(field, "range endpoints outside ±%d", maxAxisMagnitude)
	}
	if step < 1 || step > maxAxisMagnitude {
		return nil, errf(field+".step", "%d outside 1..%d", step, maxAxisMagnitude)
	}
	if from > to {
		return nil, errf(field, "range %d..%d not ascending", from, to)
	}
	count := a.Len(0)
	if count > MaxGridPoints {
		return nil, errf(field, "range yields more than %d points", MaxGridPoints)
	}
	out := make([]int, count)
	for i := range out {
		out[i] = from + i*step
	}
	return out, nil
}

// Len is the number of points a valid axis expands to, def for a nil one;
// see Axis.Len.
func (a *IntAxis) Len(def int) int {
	switch {
	case a == nil:
		return def
	case len(a.Values) > 0:
		return len(a.Values)
	case a.From == nil || a.To == nil:
		return 0
	}
	step := 1
	if a.Step != nil {
		step = *a.Step
	}
	return (*a.To-*a.From)/step + 1
}

// Direct carries the loss grid of the frozen POST /v1/sweep/pathloss and
// /v1/sweep/thresholds routes past the losses Axis. v1 computes non-finite
// losses, which Axis rejects, so its list cannot travel as an Axis. Losses
// replaces the losses axis of kinds pathloss-sweep and thresholds. Direct
// never travels over the wire, and a query carrying it has no canonical
// form, so it is never cached.
type Direct struct {
	Losses []float64
}

// Query is the one declarative, versioned request type over the model, the
// simulator, the sweeps and the scenario catalog. Kind selects the
// computation; the remaining fields parameterize it (each kind accepts only
// its own fields — Compile rejects stray ones, so a typo'd request fails
// loudly instead of silently computing the default).
type Query struct {
	// Version is the wire version: 0 (meaning "current") or 2.
	Version int `json:"version,omitempty"`
	// Kind selects the computation; see Kinds.
	Kind Kind `json:"kind"`

	// Params is the shared analytic-model base point (kinds evaluate,
	// casestudy, pathloss-sweep, payload-sweep, thresholds); omitted
	// fields default to the paper's §5 configuration.
	Params *ParamsWire `json:"params,omitempty"`
	// Batch lists the parameter sets of a batch query (kind batch), one
	// task per element.
	Batch []ParamsWire `json:"batch,omitempty"`
	// Config tunes the §5 population integration (kind casestudy).
	Config *CaseStudyConfigWire `json:"config,omitempty"`
	// Sim configures the discrete-event simulator (kinds simulate,
	// replicas, lifetime).
	Sim *SimConfigWire `json:"sim,omitempty"`

	// Lifetime parameterizes the battery/death layer over Sim (kind
	// lifetime); omitted fields default to a CR2032 cell per node.
	Lifetime *LifetimeWire `json:"lifetime,omitempty"`

	// Losses is the path-loss grid axis in dB (kinds pathloss-sweep,
	// thresholds, grid; default: the case-study population grid, or the
	// base point for kind grid).
	Losses *Axis `json:"losses,omitempty"`
	// Payloads is the payload grid axis in bytes (kinds payload-sweep,
	// grid; default: the Fig. 8 grid, or the base point for kind grid).
	Payloads *IntAxis `json:"payloads,omitempty"`
	// BOs is the beacon-order grid axis (kind grid; default: the base
	// superframe's BO). Each point keeps the base SO, so BO > SO points
	// sweep the paper's duty-cycling lever.
	BOs *IntAxis `json:"bos,omitempty"`
	// Nodes is the per-channel population grid axis (kind grid). Each
	// point n sets the load to Superframe.ChannelLoad(n, Tpacket) — the
	// same rule the §5 case study applies — after the point's payload and
	// BO are in place. Omitted, the base Load is kept unchanged.
	Nodes *IntAxis `json:"nodes,omitempty"`
	// Replicas is the replication count (kinds replicas, lifetime;
	// default 1), one task per replica.
	Replicas int `json:"replicas,omitempty"`

	// Scenario names a catalog scenario (kind scenario); Diff additionally
	// scores the fresh run against its committed golden.
	Scenario string `json:"scenario,omitempty"`
	Diff     bool   `json:"diff,omitempty"`

	// Experiment names a registered paper driver (kind experiment); Quick
	// shrinks its grids and Seed drives its randomized components.
	Experiment string `json:"experiment,omitempty"`
	Quick      bool   `json:"quick,omitempty"`
	Seed       *int64 `json:"seed,omitempty"`

	// Workers is the parallelism the query asks for (0 ⇒ NumCPU in
	// process; servers clamp it to their token budget). Results never
	// depend on it.
	Workers int `json:"workers,omitempty"`

	// Trace opts into plan execution tracing: the ResultSet carries a
	// PlanTraceWire with per-task wall times. Like workers, it is legal on
	// every kind and never changes computed result bytes — traces are
	// observability, not results, and are excluded from byte-identity
	// comparisons.
	Trace bool `json:"trace,omitempty"`

	// TimeoutMS is the per-query execution deadline in milliseconds
	// (0 = none). Like workers and trace it is legal on every kind and
	// never changes computed result bytes — a query either completes with
	// its full deterministic result or fails with a deadline error (the
	// HTTP layer answers a structured 504). The deadline propagates into
	// every task context, locally and across distributed shards.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Direct carries the v1 path-loss routes' loss grid; it is not part of
	// the wire form.
	Direct *Direct `json:"-"`
}

// queryFieldNames names the kind-specific Query fields, in the order the
// strict field-compatibility check reports them.
var queryFieldNames = [...]string{
	"params", "batch", "config", "sim", "lifetime", "losses", "payloads",
	"bos", "nodes", "replicas", "scenario", "diff", "experiment", "quick", "seed",
}

// setFields reports, in queryFieldNames order, which kind-specific fields q
// sets. It is plain code rather than a table of funcs so that checking a
// query does not make it escape to the heap.
func (q *Query) setFields() [len(queryFieldNames)]bool {
	return [...]bool{
		q.Params != nil, q.Batch != nil, q.Config != nil, q.Sim != nil,
		q.Lifetime != nil, q.Losses != nil, q.Payloads != nil, q.BOs != nil,
		q.Nodes != nil, q.Replicas != 0, q.Scenario != "", q.Diff,
		q.Experiment != "", q.Quick, q.Seed != nil,
	}
}

// allowedFields maps each kind to the Query fields it consumes (version,
// kind and workers are always allowed).
var allowedFields = map[Kind][]string{
	KindEvaluate:      {"params"},
	KindBatch:         {"batch"},
	KindCaseStudy:     {"params", "config"},
	KindPathLossSweep: {"params", "losses"},
	KindThresholds:    {"params", "losses"},
	KindPayloadSweep:  {"params", "payloads"},
	KindSimulate:      {"sim"},
	KindReplicas:      {"sim", "replicas"},
	KindLifetime:      {"sim", "lifetime", "replicas"},
	KindScenario:      {"scenario", "diff"},
	KindExperiment:    {"experiment", "quick", "seed"},
	KindGrid:          {"params", "losses", "payloads", "bos", "nodes"},
}

// ValidateShape checks version, timeout_ms, kind and kind/field
// compatibility. Compile runs it first; it covers the fields a store key
// drops (version, timeout_ms), so a server runs it before answering a
// query from the store.
func (q *Query) ValidateShape() *Error {
	if q.Version != 0 && q.Version != Version {
		return errf("version", "unsupported version %d (want %d, or omit)", q.Version, Version)
	}
	if q.TimeoutMS < 0 {
		return errf("timeout_ms", "negative deadline %d", q.TimeoutMS)
	}
	allowed, ok := allowedFields[q.Kind]
	if !ok {
		if q.Kind == "" {
			return errf("kind", "missing kind (want one of %s)", kindList())
		}
		return errf("kind", "unknown kind %q (want one of %s)", q.Kind, kindList())
	}
	for i, set := range q.setFields() {
		if !set {
			continue
		}
		name := queryFieldNames[i]
		found := false
		for _, a := range allowed {
			if a == name {
				found = true
				break
			}
		}
		if !found {
			return errf(name, "field not valid for kind %q", q.Kind)
		}
	}
	return nil
}

// kindList renders the valid kinds for error messages.
func kindList() string {
	s := ""
	for i, k := range Kinds() {
		if i > 0 {
			s += ", "
		}
		s += string(k)
	}
	return s
}

// DefaultLossGrid is the case-study population grid, derived from the same
// scenario constants RunCaseStudy integrates over so the query default
// cannot drift from the in-process one.
func DefaultLossGrid() []float64 {
	cfg := core.DefaultCaseStudy()
	return channel.LossGrid(cfg.MinLossDB, cfg.MaxLossDB, cfg.LossGridPoints)
}

// DefaultPayloadSizes is the Fig. 8 payload grid, shared with the fig8
// experiment driver.
func DefaultPayloadSizes() []int { return experiments.Fig8Sizes() }
