package query

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"dense802154/internal/core"
	"dense802154/internal/engine"
	"dense802154/internal/experiments"
	"dense802154/internal/frame"
	"dense802154/internal/mac"
	"dense802154/internal/netsim"
	"dense802154/internal/scenario"
)

// TaskResult is one unit of a ResultSet: the outcome of one plan task,
// tagged by index in plan order. Exactly one payload field is set,
// according to the query kind. The streaming surfaces emit TaskResults one
// per line; the non-streaming ResultSet carries the same values in its
// Results slice, so the two transports are bit-identical element by
// element.
type TaskResult struct {
	Index int    `json:"index"`
	Label string `json:"label,omitempty"`

	Metrics    *MetricsWire          `json:"metrics,omitempty"`
	CaseStudy  *CaseStudyResultWire  `json:"casestudy,omitempty"`
	Curves     []EnergyCurveWire     `json:"curves,omitempty"`
	Thresholds []ThresholdWire       `json:"thresholds,omitempty"`
	Payload    *PayloadSeriesWire    `json:"payload,omitempty"`
	Sim        *SimResultWire        `json:"sim,omitempty"`
	Lifetime   *LifetimeResultWire   `json:"lifetime,omitempty"`
	Scenario   *ScenarioReportWire   `json:"scenario,omitempty"`
	Experiment *ExperimentReportWire `json:"experiment,omitempty"`

	// value is the in-process model result the facade wrappers unwrap;
	// it does not travel on the wire.
	value any
}

// Value returns the in-process result behind the wire payload: core.Metrics
// (evaluate, batch), core.CaseStudyResult, []core.EnergyCurve,
// []core.Threshold, stats.Series, netsim.Result (simulate, replicas),
// lifetime.Result (lifetime), *scenario.Result or []*stats.Table, per the
// query kind. It is nil on a TaskResult decoded from the wire.
func (t *TaskResult) Value() any { return t.value }

// ReplicaSummaryWire is the across-replica statistics block of a replicas
// query (the same merged statistics netsim.RunReplicas reports).
type ReplicaSummaryWire struct {
	Replicas int     `json:"replicas"`
	Seeds    []int64 `json:"seeds"`

	AvgPowerUW    ReplicaStatWire `json:"avg_power_uw"`
	DeliveryRatio ReplicaStatWire `json:"delivery_ratio"`
	PrFail        ReplicaStatWire `json:"pr_fail"`
	PrCF          ReplicaStatWire `json:"pr_cf"`
	PrCol         ReplicaStatWire `json:"pr_col"`
	NCCA          ReplicaStatWire `json:"ncca"`
	TcontMS       ReplicaStatWire `json:"tcont_ms"`
	MeanDelayMS   ReplicaStatWire `json:"mean_delay_ms"`
}

// WireReplicaSummary converts a merged ReplicaSet's statistics to the wire
// form.
func WireReplicaSummary(rs netsim.ReplicaSet) ReplicaSummaryWire {
	return ReplicaSummaryWire{
		Replicas:      rs.Replicas,
		Seeds:         rs.Seeds,
		AvgPowerUW:    WireReplicaStat(rs.AvgPowerUW),
		DeliveryRatio: WireReplicaStat(rs.DeliveryRatio),
		PrFail:        WireReplicaStat(rs.PrFail),
		PrCF:          WireReplicaStat(rs.PrCF),
		PrCol:         WireReplicaStat(rs.PrCol),
		NCCA:          WireReplicaStat(rs.NCCA),
		TcontMS:       WireReplicaStat(rs.TcontMS),
		MeanDelayMS:   WireReplicaStat(rs.MeanDelayMS),
	}
}

// TaskSpanWire is one task's timing inside a plan trace: its plan index and
// label, the seed it ran under where the plan assigns per-task seeds
// (replica tasks), and its wall time. Wall times are measured, not
// computed — two identical queries produce different spans — so traces are
// never part of the byte-identity contract.
type TaskSpanWire struct {
	Index  int    `json:"index"`
	Label  string `json:"label"`
	Seed   *int64 `json:"seed,omitempty"`
	WallMS Float  `json:"wall_ms"`
}

// PlanTraceWire is the opt-in execution trace of one query (Query.Trace):
// the plan shape, the worker grant it ran under, the end-to-end wall time
// and one TaskSpanWire per task in plan order.
type PlanTraceWire struct {
	Kind    Kind           `json:"kind"`
	Workers int            `json:"workers"`
	Tasks   int            `json:"tasks"`
	WallMS  Float          `json:"wall_ms"`
	Spans   []TaskSpanWire `json:"spans"`
}

// ResultSet is the tagged outcome of one Query: the per-task results in
// plan order plus, for replica plans, the across-replica summary.
type ResultSet struct {
	Version int                 `json:"version"`
	Kind    Kind                `json:"kind"`
	Results []TaskResult        `json:"results"`
	Summary *ReplicaSummaryWire `json:"summary,omitempty"`
	// LifetimeSummary is the across-replica statistics block of a lifetime
	// query (the lifetime analogue of Summary).
	LifetimeSummary *LifetimeSummaryWire `json:"lifetime_summary,omitempty"`
	Trace           *PlanTraceWire       `json:"trace,omitempty"`

	// value is the merged in-process result where one exists (a
	// netsim.ReplicaSet for kind replicas, a lifetime.ReplicaSet for kind
	// lifetime); see TaskResult.Value for the per-task payloads.
	value any
}

// Value returns the merged in-process result (netsim.ReplicaSet for kind
// replicas, lifetime.ReplicaSet for kind lifetime, nil otherwise).
func (rs *ResultSet) Value() any { return rs.value }

// Encode renders the byte-stable JSON form: compact, HTML escaping off,
// trailing newline. Field order is fixed, floats travel as
// internal/wire.Float and no maps are involved, so the same ResultSet
// always encodes to the same bytes — the property that makes the HTTP v2
// body, the streamed NDJSON lines and an in-process Run comparable with
// bytes.Equal. The bytes come from AppendJSON; the returned slice is the
// only allocation once the scratch-buffer pool is warm.
func (rs *ResultSet) Encode() ([]byte, error) {
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	b, err := rs.AppendJSON((*bp)[:0])
	if err != nil {
		return nil, err
	}
	return bytes.Clone(keepLine(bp, b)), nil
}

// task is one schedulable unit of a compiled plan.
type task struct {
	label string
	seed  *int64 // per-task seed, set where the plan derives one (replicas)
	run   func(ctx context.Context) (TaskResult, error)
}

// exec is one materialized execution: the tasks plus the optional assembly
// step that derives the merged summary from the per-task results.
// assemble consumes the in-process task values; assembleWire recomputes the
// same summary from the wire payloads alone, for results that crossed a
// machine boundary (Plan.Assemble) and therefore carry no values.
type exec struct {
	tasks        []task
	assemble     func(rs *ResultSet)
	assembleWire func(rs *ResultSet) *Error
}

// Plan is a compiled Query: a validated, deterministic list of engine
// tasks. Compile materializes the declarative specs once to validate them;
// Execute re-materializes with the granted worker count (worker counts
// never change computed bytes — only how fast they arrive) and runs the
// tasks on the shared engine pool.
type Plan struct {
	// Kind echoes the query kind.
	Kind Kind
	// Workers is the parallelism the query asked for (0 ⇒ NumCPU).
	Workers int
	// Trace carries the query's tracing opt-in; Execute attaches a
	// PlanTraceWire to the ResultSet when set.
	Trace bool
	// Timeout is the per-query execution deadline (Query.TimeoutMS;
	// 0 = none). Execute and ExecuteRange bound their context with it.
	Timeout time.Duration
	// Store, when set, is the per-task result cache of this plan's query
	// (store.Store.Tasks keys one to the query's content hash): Execute and
	// ExecuteRange consult it before computing a task and store what they
	// compute. Stored results carry wire payloads only, so a store-enabled
	// plan assembles through the wire path — bit-identical to the in-process
	// one by the exact-round-trip float contract. Attach it between Compile
	// and Execute; it never changes result bytes, only whether they are
	// recomputed.
	Store TaskStore

	numTasks int
	labels   []string
	build    func(workers int) (*exec, *Error)
}

// NumTasks reports how many tasks the plan schedules (batch elements,
// simulation replicas, or 1 for single-result kinds).
func (p *Plan) NumTasks() int { return p.numTasks }

// Labels lists the task labels in plan order.
func (p *Plan) Labels() []string { return append([]string(nil), p.labels...) }

// Compile validates q and lowers it to an execution plan. Validation
// failures return a field-scoped *Error suitable for a structured 400.
func Compile(q Query) (*Plan, error) {
	if aerr := q.validateShape(); aerr != nil {
		return nil, aerr
	}
	var build func(workers int) (*exec, *Error)
	switch q.Kind {
	case KindEvaluate:
		build = q.buildEvaluate
	case KindBatch:
		build = q.buildBatch
	case KindCaseStudy:
		build = q.buildCaseStudy
	case KindPathLossSweep:
		build = q.buildPathLossSweep
	case KindThresholds:
		build = q.buildThresholds
	case KindPayloadSweep:
		build = q.buildPayloadSweep
	case KindSimulate:
		build = q.buildSimulate
	case KindReplicas:
		build = q.buildReplicas
	case KindLifetime:
		build = q.buildLifetime
	case KindScenario:
		build = q.buildScenario
	case KindExperiment:
		build = q.buildExperiment
	case KindGrid:
		build = q.buildGrid
	}
	// Materialize once at the request's own parallelism to surface every
	// validation error before any work is scheduled.
	ex, aerr := build(engine.ResolveWorkers(q.Workers))
	if aerr != nil {
		return nil, aerr
	}
	// A timeout_ms past ~292 years would overflow the Duration multiply;
	// clamp to the maximum representable deadline (operationally: none).
	timeout := time.Duration(q.TimeoutMS) * time.Millisecond
	if q.TimeoutMS > math.MaxInt64/int64(time.Millisecond) {
		timeout = math.MaxInt64
	}
	p := &Plan{
		Kind: q.Kind, Workers: q.Workers, Trace: q.Trace,
		Timeout:  timeout,
		numTasks: len(ex.tasks), build: build,
	}
	for _, t := range ex.tasks {
		p.labels = append(p.labels, t.label)
	}
	return p, nil
}

// Execute runs the plan on workers goroutines (≤ 0 ⇒ NumCPU) and returns
// the assembled ResultSet. When yield is non-nil it receives every
// TaskResult in plan order as soon as it and all its predecessors have
// completed — tasks still run concurrently, the emission order is just
// pinned to the plan — and a yield error cancels the remaining tasks and is
// returned. A canceled ctx stops the plan promptly with ctx.Err().
func (p *Plan) Execute(ctx context.Context, workers int, yield func(TaskResult) error) (*ResultSet, error) {
	workers = engine.ResolveWorkers(workers)
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	ex, aerr := p.build(workers)
	if aerr != nil {
		return nil, aerr
	}
	n := len(ex.tasks)
	results := make([]TaskResult, n)
	var spans []TaskSpanWire
	var planStart time.Time
	if p.Trace {
		spans = make([]TaskSpanWire, n)
		planStart = time.Now()
	}
	runTask := func(ctx context.Context, i int) error {
		var taskStart time.Time
		if spans != nil {
			taskStart = time.Now()
		}
		r, hit := p.taskFromStore(i)
		var err error
		if !hit {
			r, err = ex.tasks[i].run(ctx)
		}
		if spans != nil {
			spans[i] = TaskSpanWire{
				Index:  i,
				Label:  ex.tasks[i].label,
				Seed:   ex.tasks[i].seed,
				WallMS: Float(time.Since(taskStart).Seconds() * 1e3),
			}
		}
		if err != nil {
			return err
		}
		r.Index = i
		r.Label = ex.tasks[i].label
		if !hit {
			p.storeTask(&r)
		}
		results[i] = r
		return nil
	}

	if yield == nil {
		if err := engine.Map(ctx, workers, n, func(i int) error { return runTask(ctx, i) }); err != nil {
			return nil, err
		}
	} else {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		done := make(chan int, n)
		var mapErr error
		go func() {
			defer close(done)
			mapErr = engine.Map(ctx, workers, n, func(i int) error {
				if err := runTask(ctx, i); err != nil {
					return err
				}
				select {
				case done <- i:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			})
		}()
		var yieldErr error
		ready := make([]bool, n)
		next := 0
		for i := range done {
			ready[i] = true
			for next < n && ready[next] {
				if yieldErr == nil {
					if err := yield(results[next]); err != nil {
						yieldErr = err
						cancel()
					}
				}
				next++
			}
		}
		if yieldErr != nil {
			return nil, yieldErr
		}
		if mapErr != nil {
			return nil, mapErr
		}
	}

	rs := &ResultSet{Version: Version, Kind: p.Kind, Results: results}
	if p.storeEnabled() && ex.assembleWire != nil {
		// Store hits carry wire payloads only (no in-process value), so the
		// summary is recomputed from the wire — bit-identical by the
		// exact-round-trip contract Plan.Assemble already relies on.
		if aerr := ex.assembleWire(rs); aerr != nil {
			return nil, aerr
		}
	} else if ex.assemble != nil {
		ex.assemble(rs)
	}
	if spans != nil {
		rs.Trace = &PlanTraceWire{
			Kind:    p.Kind,
			Workers: workers,
			Tasks:   n,
			WallMS:  Float(time.Since(planStart).Seconds() * 1e3),
			Spans:   spans,
		}
	}
	return rs, nil
}

// ExecuteRange runs only the tasks [from,to) of the plan on workers
// goroutines and yields each TaskResult in plan order as soon as it and all
// its range predecessors have completed, together with its measured wall
// time in milliseconds. It is the worker half of distributed execution: a
// shard of any compiled plan is a pure function of (query, range), so any
// machine that can compile the query can compute any shard, and the
// emission order lets a coordinator resume a partially-streamed shard from
// the first missing index. No assembly step runs — the coordinator merges
// shards with Assemble. A yield error cancels the remaining tasks.
func (p *Plan) ExecuteRange(ctx context.Context, workers, from, to int, yield func(tr TaskResult, wallMS float64) error) error {
	if from < 0 || to > p.numTasks || from >= to {
		return errf("range", "task range [%d,%d) outside plan of %d tasks", from, to, p.numTasks)
	}
	workers = engine.ResolveWorkers(workers)
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	ex, aerr := p.build(workers)
	if aerr != nil {
		return aerr
	}
	n := to - from
	results := make([]TaskResult, n)
	walls := make([]float64, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan int, n)
	var mapErr error
	go func() {
		defer close(done)
		mapErr = engine.Map(ctx, workers, n, func(i int) error {
			idx := from + i
			start := time.Now()
			r, hit := p.taskFromStore(idx)
			if !hit {
				var err error
				r, err = ex.tasks[idx].run(ctx)
				if err != nil {
					return err
				}
			}
			walls[i] = time.Since(start).Seconds() * 1e3
			r.Index = idx
			r.Label = ex.tasks[idx].label
			if !hit {
				p.storeTask(&r)
			}
			results[i] = r
			select {
			case done <- i:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()
	var yieldErr error
	ready := make([]bool, n)
	next := 0
	for i := range done {
		ready[i] = true
		for next < n && ready[next] {
			if yieldErr == nil {
				if err := yield(results[next], walls[next]); err != nil {
					yieldErr = err
					cancel()
				}
			}
			next++
		}
	}
	if yieldErr != nil {
		return yieldErr
	}
	return mapErr
}

// Assemble merges already-computed per-task results (in plan order, e.g.
// collected from distributed ExecuteRange shards) into the same ResultSet
// Execute produces, byte for byte: the per-kind assembly step (the replicas
// summary) is recomputed from the wire payloads, whose exact-round-trip
// floats make the merged statistics bit-identical to a local run. Every
// task of the plan must be present with its payload set.
func (p *Plan) Assemble(results []TaskResult) (*ResultSet, error) {
	if len(results) != p.numTasks {
		return nil, errf("results", "%d results for a plan of %d tasks", len(results), p.numTasks)
	}
	ex, aerr := p.build(engine.ResolveWorkers(p.Workers))
	if aerr != nil {
		return nil, aerr
	}
	rs := &ResultSet{Version: Version, Kind: p.Kind, Results: results}
	if ex.assembleWire != nil {
		if err := ex.assembleWire(rs); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// Shardable reports whether the plan benefits from distributed execution:
// its kind fans out into per-task wire payloads that round-trip exactly
// (batch elements, simulation replicas, grid points) and it has more than
// one task. Single-task plans and the catalog/driver kinds always run where
// they were compiled.
func (p *Plan) Shardable() bool {
	switch p.Kind {
	case KindBatch, KindReplicas, KindLifetime, KindGrid:
		return p.numTasks > 1
	}
	return false
}

// Run compiles and executes q in one step with q.Workers goroutines.
func Run(ctx context.Context, q Query) (*ResultSet, error) {
	p, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return p.Execute(ctx, q.Workers, nil)
}

// RunStream is Run with per-task streaming; see Plan.Execute.
func RunStream(ctx context.Context, q Query, yield func(TaskResult) error) (*ResultSet, error) {
	p, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return p.Execute(ctx, q.Workers, yield)
}

// ---- per-kind builders ----

// baseParams materializes the shared analytic base point: the Direct value
// verbatim when present, the declarative spec (defaulting to the paper's §5
// configuration) otherwise.
func (q *Query) baseParams(workers, mcWorkers int) (core.Params, *Error) {
	if q.Direct != nil && q.Direct.Params != nil {
		return *q.Direct.Params, nil
	}
	w := q.Params
	if w == nil {
		w = &ParamsWire{}
	}
	return w.Params(workers, mcWorkers)
}

func (q *Query) buildEvaluate(workers int) (*exec, *Error) {
	// A lone evaluation has no sweep level, so the whole grant goes to its
	// Monte-Carlo contention characterization (as /v1/evaluate did).
	p, aerr := q.baseParams(workers, workers)
	if aerr != nil {
		return nil, aerr
	}
	return &exec{tasks: []task{{label: string(KindEvaluate), run: func(ctx context.Context) (TaskResult, error) {
		m, err := core.Evaluate(p)
		if err != nil {
			return TaskResult{}, err
		}
		mw := WireMetrics(m)
		return TaskResult{Metrics: &mw, value: m}, nil
	}}}}, nil
}

func (q *Query) buildBatch(workers int) (*exec, *Error) {
	var ps []core.Params
	if q.Direct != nil {
		// Direct batches arrive pre-validated from the in-process facade;
		// an empty one is a legal no-op (as core.EvaluateBatch treats it).
		ps = q.Direct.Batch
	} else {
		if len(q.Batch) == 0 {
			return nil, errf("batch", "empty batch: need at least one element")
		}
		if len(q.Batch) > MaxBatch {
			return nil, errf("batch", "batch too large (%d elements, max %d)", len(q.Batch), MaxBatch)
		}
		ps = make([]core.Params, len(q.Batch))
		for i, pw := range q.Batch {
			p, aerr := pw.Params(workers, 1)
			if aerr != nil {
				aerr.Field = "batch[" + strconv.Itoa(i) + "]." + aerr.Field
				return nil, aerr
			}
			ps[i] = p
		}
	}
	tasks := make([]task, len(ps))
	for i := range ps {
		p := ps[i]
		tasks[i] = task{label: "batch[" + strconv.Itoa(i) + "]", run: func(ctx context.Context) (TaskResult, error) {
			m, err := core.Evaluate(p)
			if err != nil {
				return TaskResult{}, err
			}
			mw := WireMetrics(m)
			return TaskResult{Metrics: &mw, value: m}, nil
		}}
	}
	return &exec{tasks: tasks}, nil
}

func (q *Query) buildCaseStudy(workers int) (*exec, *Error) {
	var cfg core.CaseStudyConfig
	if q.Direct != nil && q.Direct.CaseStudy != nil {
		cfg = *q.Direct.CaseStudy
	} else {
		var aerr *Error
		cfg, aerr = q.Config.Config()
		if aerr != nil {
			return nil, aerr
		}
	}
	p, aerr := q.baseParams(workers, 1)
	if aerr != nil {
		return nil, aerr
	}
	return &exec{tasks: []task{{label: string(KindCaseStudy), run: func(ctx context.Context) (TaskResult, error) {
		res, err := core.RunCaseStudyCtx(ctx, p, cfg)
		if err != nil {
			return TaskResult{}, err
		}
		rw := WireCaseStudyResult(res)
		return TaskResult{CaseStudy: &rw, value: res}, nil
	}}}}, nil
}

// lossGrid resolves the loss axis: Direct grid, declarative axis, or the
// case-study population default.
func (q *Query) lossGrid() ([]float64, *Error) {
	if q.Direct != nil && q.Direct.Losses != nil {
		return q.Direct.Losses, nil
	}
	return q.Losses.Grid("losses", DefaultLossGrid)
}

func (q *Query) buildPathLossSweep(workers int) (*exec, *Error) {
	losses, aerr := q.lossGrid()
	if aerr != nil {
		return nil, aerr
	}
	p, aerr := q.baseParams(workers, 1)
	if aerr != nil {
		return nil, aerr
	}
	return &exec{tasks: []task{{label: string(KindPathLossSweep), run: func(ctx context.Context) (TaskResult, error) {
		curves, err := core.EnergyVsPathLossCtx(ctx, p, losses)
		if err != nil {
			return TaskResult{}, err
		}
		out := make([]EnergyCurveWire, len(curves))
		for i, c := range curves {
			out[i] = WireEnergyCurve(c)
		}
		return TaskResult{Curves: out, value: curves}, nil
	}}}}, nil
}

func (q *Query) buildThresholds(workers int) (*exec, *Error) {
	losses, aerr := q.lossGrid()
	if aerr != nil {
		return nil, aerr
	}
	p, aerr := q.baseParams(workers, 1)
	if aerr != nil {
		return nil, aerr
	}
	return &exec{tasks: []task{{label: string(KindThresholds), run: func(ctx context.Context) (TaskResult, error) {
		ths, err := core.ThresholdsCtx(ctx, p, losses)
		if err != nil {
			return TaskResult{}, err
		}
		out := make([]ThresholdWire, len(ths))
		for i, t := range ths {
			out[i] = WireThreshold(t)
		}
		return TaskResult{Thresholds: out, value: ths}, nil
	}}}}, nil
}

func (q *Query) buildPayloadSweep(workers int) (*exec, *Error) {
	var sizes []int
	if q.Direct != nil && q.Direct.Payloads != nil {
		sizes = q.Direct.Payloads
	} else {
		var aerr *Error
		sizes, aerr = q.Payloads.Grid("payloads", DefaultPayloadSizes)
		if aerr != nil {
			return nil, aerr
		}
	}
	p, aerr := q.baseParams(workers, 1)
	if aerr != nil {
		return nil, aerr
	}
	return &exec{tasks: []task{{label: string(KindPayloadSweep), run: func(ctx context.Context) (TaskResult, error) {
		series, err := core.EnergyVsPayloadCtx(ctx, p, sizes)
		if err != nil {
			return TaskResult{}, err
		}
		pw := WirePayloadSeries(sizes, series)
		return TaskResult{Payload: &pw, value: series}, nil
	}}}}, nil
}

// simConfig materializes the simulator configuration.
func (q *Query) simConfig() (netsim.Config, *Error) {
	if q.Direct != nil && q.Direct.Sim != nil {
		return *q.Direct.Sim, nil
	}
	return q.Sim.Config()
}

func (q *Query) buildSimulate(workers int) (*exec, *Error) {
	cfg, aerr := q.simConfig()
	if aerr != nil {
		return nil, aerr
	}
	return &exec{tasks: []task{{label: string(KindSimulate), run: func(ctx context.Context) (TaskResult, error) {
		r := netsim.Run(cfg)
		rw := WireSimResult(cfg.Seed, r)
		return TaskResult{Sim: &rw, value: r}, nil
	}}}}, nil
}

func (q *Query) buildReplicas(workers int) (*exec, *Error) {
	cfg, aerr := q.simConfig()
	if aerr != nil {
		return nil, aerr
	}
	// The replica bound protects the wire surface; in-process facade
	// callers (Direct) keep the unbounded legacy semantics.
	if q.Direct == nil && (q.Replicas < 0 || q.Replicas > MaxReplicas) {
		return nil, errf("replicas", "%d outside 0..%d", q.Replicas, MaxReplicas)
	}
	n := q.Replicas
	if n < 1 {
		n = 1
	}
	seeds := netsim.ReplicaSeeds(cfg.Seed, n)
	tasks := make([]task, n)
	for i := range tasks {
		seed := seeds[i]
		idx := i
		tasks[i] = task{label: "replica[" + strconv.Itoa(idx) + "]", seed: &seed, run: func(ctx context.Context) (TaskResult, error) {
			c := cfg
			c.Seed = seed
			r := netsim.Run(c)
			rw := WireSimResult(seed, r)
			return TaskResult{Sim: &rw, value: r}, nil
		}}
	}
	return &exec{tasks: tasks, assemble: func(rs *ResultSet) {
		results := make([]netsim.Result, len(rs.Results))
		for i := range rs.Results {
			results[i] = rs.Results[i].value.(netsim.Result)
		}
		set := netsim.Merge(cfg, seeds, results)
		summary := WireReplicaSummary(set)
		rs.Summary = &summary
		rs.value = set
	}, assembleWire: func(rs *ResultSet) *Error {
		// The wire replica payloads round-trip the exact floats the merge
		// folds, so the summary recomputed here is bit-identical to the
		// in-process assemble above.
		results := make([]netsim.Result, len(rs.Results))
		for i := range rs.Results {
			if rs.Results[i].Sim == nil {
				return errf("results", "task %d carries no sim payload", i)
			}
			results[i] = rs.Results[i].Sim.Result()
		}
		set := netsim.Merge(cfg, seeds, results)
		summary := WireReplicaSummary(set)
		rs.Summary = &summary
		return nil
	}}, nil
}

func (q *Query) buildScenario(workers int) (*exec, *Error) {
	var sc scenario.Scenario
	if q.Direct != nil && q.Direct.Scenario != nil {
		sc = *q.Direct.Scenario
	} else {
		if q.Scenario == "" {
			return nil, errf("scenario", "missing scenario name")
		}
		var ok bool
		sc, ok = scenario.ByName(q.Scenario)
		if !ok {
			return nil, errf("scenario", "unknown scenario %q", q.Scenario)
		}
	}
	diff := q.Diff
	return &exec{tasks: []task{{label: string(KindScenario), run: func(ctx context.Context) (TaskResult, error) {
		res, err := scenario.Run(ctx, sc, workers)
		if err != nil {
			return TaskResult{}, err
		}
		report := ScenarioReportWire{Result: res}
		if diff {
			rep, err := scenario.Diff(res)
			if err != nil {
				return TaskResult{}, err
			}
			report.Diff = &rep
		}
		return TaskResult{Scenario: &report, value: res}, nil
	}}}}, nil
}

func (q *Query) buildExperiment(workers int) (*exec, *Error) {
	if q.Experiment == "" {
		return nil, errf("experiment", "missing experiment name")
	}
	e, ok := experiments.ByName(q.Experiment)
	if !ok {
		return nil, errf("experiment", "unknown experiment %q", q.Experiment)
	}
	var opt experiments.Options
	direct := q.Direct != nil && q.Direct.ExperimentOpts != nil
	if direct {
		opt = *q.Direct.ExperimentOpts
	} else {
		opt = experiments.DefaultOptions()
		opt.Quick = q.Quick
		if q.Seed != nil {
			opt.Seed = *q.Seed
		}
		opt.Workers = workers
	}
	name := q.Experiment
	return &exec{tasks: []task{{label: string(KindExperiment) + ":" + name, run: func(ctx context.Context) (TaskResult, error) {
		o := opt
		if !direct {
			o.Context = ctx
		}
		tables, err := e.Run(o)
		if err != nil {
			return TaskResult{}, err
		}
		return TaskResult{Experiment: &ExperimentReportWire{Name: name, Tables: tables}, value: tables}, nil
	}}}}, nil
}

// buildGrid materializes the joint product sweep — losses × payloads × BOs
// × node counts, one analytical evaluation per point — the paper-scale
// Fig. 6 surface generator. Axis order is fixed (nodes fastest, losses
// slowest), so task index i maps to a unique point and any shard of the
// plan is recomputable anywhere from (query, index range) alone. Omitted
// axes collapse to the base point: a grid over losses only is the batch of
// evaluations a client would otherwise page by hand.
func (q *Query) buildGrid(workers int) (*exec, *Error) {
	base, aerr := q.baseParams(workers, 1)
	if aerr != nil {
		return nil, aerr
	}
	losses, aerr := q.Losses.Grid("losses", func() []float64 { return []float64{base.PathLossDB} })
	if aerr != nil {
		return nil, aerr
	}
	payloads, aerr := q.Payloads.Grid("payloads", func() []int { return []int{base.PayloadBytes} })
	if aerr != nil {
		return nil, aerr
	}
	bos, aerr := q.BOs.Grid("bos", func() []int { return []int{int(base.Superframe.BO)} })
	if aerr != nil {
		return nil, aerr
	}
	nodes, aerr := q.Nodes.Grid("nodes", func() []int { return nil })
	if aerr != nil {
		return nil, aerr
	}
	// nil means "keep the base load"; materialize as one sentinel point.
	loadFromNodes := nodes != nil
	if !loadFromNodes {
		nodes = []int{0}
	}

	total := 1
	for _, l := range []int{len(losses), len(payloads), len(bos), len(nodes)} {
		total *= l
		if total > MaxGridTasks {
			return nil, errf("grid", "grid too large (> %d points); page across several queries", MaxGridTasks)
		}
	}
	if total < 1 {
		return nil, errf("grid", "empty grid")
	}

	// Pre-validate each point's parameter set so every error surfaces at
	// compile time, before any work is scheduled, and build the task list
	// in the fixed row-major order.
	tasks := make([]task, 0, total)
	for _, loss := range losses {
		for _, payload := range payloads {
			for _, bo := range bos {
				if bo < 0 || bo > int(mac.MaxBeaconOrder) {
					return nil, errf("bos", "beacon order %d outside 0..%d", bo, mac.MaxBeaconOrder)
				}
				sf, err := mac.NewSuperframe(uint8(bo), base.Superframe.SO)
				if err != nil {
					return nil, errf("bos", "bo=%d with base so=%d: %v", bo, base.Superframe.SO, err)
				}
				for _, n := range nodes {
					p := base
					p.PathLossDB = loss
					p.PayloadBytes = payload
					p.Superframe = sf
					label := fmt.Sprintf("grid[%d]:loss=%g,payload=%d,bo=%d", len(tasks), loss, payload, bo)
					if loadFromNodes {
						if n < 1 {
							return nil, errf("nodes", "population %d < 1", n)
						}
						p.Load = sf.ChannelLoad(n, frame.PaperPacketDuration(payload))
						label += fmt.Sprintf(",n=%d", n)
					}
					if err := p.Validate(); err != nil {
						return nil, errf("grid", "%s: %v", label, err)
					}
					pt := p
					tasks = append(tasks, task{label: label, run: func(ctx context.Context) (TaskResult, error) {
						m, err := core.Evaluate(pt)
						if err != nil {
							return TaskResult{}, err
						}
						mw := WireMetrics(m)
						return TaskResult{Metrics: &mw, value: m}, nil
					}})
				}
			}
		}
	}
	return &exec{tasks: tasks}, nil
}

// String implements fmt.Stringer with a one-line plan summary.
func (p *Plan) String() string {
	return fmt.Sprintf("query plan: kind=%s tasks=%d", p.Kind, p.numTasks)
}
