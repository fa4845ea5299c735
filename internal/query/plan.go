package query

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"dense802154/internal/contention"
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

	// enc is the result's canonical line — its AppendJSON bytes and a
	// newline — when a plan execution has it at hand: the bytes it wrote to
	// the task's store entry (through a TaskKeeper) or read from it.
	// AppendJSON copies them instead of formatting the result again, so a
	// result is never modified once its execution hands it out.
	enc []byte
}

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
}

// Encode renders the byte-stable JSON form: compact, HTML escaping off,
// trailing newline. Field order is fixed, floats travel as
// internal/wire.Float and no maps are involved, so the same ResultSet
// always encodes to the same bytes — the property that makes the HTTP v2
// body, the streamed NDJSON lines and an in-process Run comparable with
// bytes.Equal. The bytes come from AppendJSON. When every result carries
// its canonical line (a plan execution with a store attached), the lines
// are spliced into a body sized once; otherwise the body is written into a
// pooled scratch buffer and copied out. Either way the returned slice is
// the only allocation once the scratch-buffer pool is warm.
func (rs *ResultSet) Encode() ([]byte, error) {
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	if size, ok := rs.splicedSize(); ok {
		// The head and the optional blocks are formatted into the scratch
		// buffer first, so the body's exact size is known before it is
		// written.
		sc := rs.appendHead((*bp)[:0])
		head := len(sc)
		sc = appendOptional(sc, rs.Summary, rs.LifetimeSummary, rs.Trace)
		*bp = sc
		b := append(make([]byte, 0, size+len(sc)), sc[:head]...)
		b, err := appendResults(b, rs.Results) // spliced: cannot fail
		if err != nil {
			return nil, err
		}
		b = append(b, sc[head:]...)
		return append(b, '}', '\n'), nil
	}
	b, err := rs.AppendJSON((*bp)[:0])
	if err != nil {
		return nil, err
	}
	return bytes.Clone(keepLine(bp, b)), nil
}

// splicedSize reports the bytes of rs's body other than its head and
// optional blocks — the results array, the closing brace and the newline —
// when every result carries its canonical line.
func (rs *ResultSet) splicedSize() (int, bool) {
	if len(rs.Results) == 0 {
		return 0, false
	}
	n := 2 + len(rs.Results) - 1 + 2 // [ ], the commas, } and the newline
	for i := range rs.Results {
		if rs.Results[i].enc == nil {
			return 0, false
		}
		n += len(rs.Results[i].enc) - 1
	}
	return n, true
}

// exec is the materialized form of a compiled plan: the task labels in plan
// order, the per-task seeds where the plan derives them (replicas,
// lifetime), how task i is computed under a worker grant, and the optional
// assembly step that derives the merged summary from the per-task wire
// payloads — the only form a task result takes, whether it was computed
// here, read from the store or streamed from a worker. Executions read only
// what Compile materialized (per-kind slices such as grid points and
// replica seeds), so any number of them may share one exec concurrently.
//
// Each execution cuts one payload slab for its range (payloads), and task
// i writes its payload into its slot there. The model kinds (evaluate,
// batch, grid) have no run step: task i evaluates points[i] under the
// contention statistics of its configuration, which each execution
// resolves once per configuration of its range before its tasks start. The
// other kinds compute task i with run; a lifetime replica's curve holds at
// most curveLen points. The slab and the resolved statistics belong to the
// execution, never to the plan.
type exec struct {
	labels   []string
	seeds    []int64
	points   []core.Params
	curveLen int
	run      func(ctx context.Context, workers, i int, slot payloads) (TaskResult, error)
	assemble func(rs *ResultSet) *Error
}

// payloads is the payload slab of one execution: one slice per payload
// type its plan's kind carries, sized to the execution's range, and for
// lifetime plans one curve buffer of curveLen points per task. A task's
// slot (slot) is a view of its elements, each cap-limited so that no task
// can write into its neighbour's. The slab is never pooled, so a result
// handed out by its execution is never modified afterwards.
type payloads struct {
	metrics   []MetricsWire
	sims      []SimResultWire
	lifetimes []LifetimeResultWire
	curves    []LifetimeCurvePointWire
	curveLen  int
}

// newPayloads cuts the slab of an execution of n tasks.
func (p *Plan) newPayloads(n int) payloads {
	switch p.Kind {
	case KindEvaluate, KindBatch, KindGrid:
		return payloads{metrics: make([]MetricsWire, n)}
	case KindSimulate, KindReplicas:
		return payloads{sims: make([]SimResultWire, n)}
	case KindLifetime:
		return payloads{
			lifetimes: make([]LifetimeResultWire, n),
			curves:    make([]LifetimeCurvePointWire, n*p.curveLen),
			curveLen:  p.curveLen,
		}
	}
	return payloads{}
}

// slot returns task i's view of the slab: its one-element payload slices
// and, for lifetime plans, an empty curve segment of curveLen points'
// capacity.
func (s payloads) slot(i int) payloads {
	t := payloads{metrics: one(s.metrics, i), sims: one(s.sims, i), lifetimes: one(s.lifetimes, i)}
	if s.curves != nil {
		t.curves = s.curves[i*s.curveLen : i*s.curveLen : (i+1)*s.curveLen]
	}
	return t
}

// one returns element i of xs as a cap-limited one-element slice, or nil
// for a nil xs.
func one[T any](xs []T, i int) []T {
	if xs == nil {
		return nil
	}
	return xs[i : i+1 : i+1]
}

// seedAt returns a copy of task i's derived seed for its trace span, or nil
// where the plan assigns none.
func (x *exec) seedAt(i int) *int64 {
	if x.seeds == nil {
		return nil
	}
	s := x.seeds[i]
	return &s
}

// single is the exec of a one-task kind without a slab payload: run
// receives the whole worker grant for the kind's inner parallelism.
func single(label string, run func(ctx context.Context, workers int) (TaskResult, error)) exec {
	return exec{labels: []string{label}, run: func(ctx context.Context, workers, _ int, _ payloads) (TaskResult, error) {
		return run(ctx, workers)
	}}
}

// model is the exec of a model kind: one evaluation per point, labelled by
// labels.
func model(labels []string, points []core.Params) exec {
	return exec{labels: labels, points: points}
}

// contKey identifies a contention configuration: a point's source,
// payload and load, the only things its statistics depend on. Sources are
// told apart by value, which for a Monte-Carlo source is its pointer: the
// points of one compiled query share their source. A source that is no
// Monte-Carlo source must be comparable.
type contKey struct {
	source  contention.Source
	payload int
	load    float64
}

// resolveContention resolves, on workers goroutines until ctx is done, the
// contention statistics of the tasks from, from+1, … (one per results
// slot) that are not read from the store (no stored line in their slot),
// each distinct configuration once: a 1,000-point grid over ten payloads
// resolves ten. Slot i's statistics are ls[of[i]]; a stored slot has no
// entry (of[i] = -1).
func (p *Plan) resolveContention(ctx context.Context, workers, from int, results []TaskResult) (of []int32, ls []contention.Lookup, err error) {
	of = make([]int32, len(results))
	seen := make(map[contKey]int32)
	for i := range results {
		if results[i].enc != nil {
			of[i] = -1
			continue
		}
		pt := &p.points[from+i]
		k := contKey{source: pt.Contention, payload: pt.PayloadBytes, load: pt.Load}
		j, ok := seen[k]
		if !ok {
			j = int32(len(seen))
			seen[k] = j
		}
		of[i] = j
	}
	ls = make([]contention.Lookup, len(seen))
	for k, j := range seen {
		ls[j] = contention.Lookup{Source: k.source, PayloadBytes: k.payload, Load: k.load}
	}
	return of, ls, contention.Resolve(ctx, workers, ls)
}

// labelBuf builds many task labels into one backing string: append a
// label's bytes to b, close it with end, and split the whole run with
// labels — one allocation for the text instead of one per label.
type labelBuf struct {
	b    []byte
	ends []int
}

func newLabelBuf(n, perLabel int) *labelBuf {
	return &labelBuf{b: make([]byte, 0, n*perLabel), ends: make([]int, 0, n)}
}

// end closes the label appended since the previous end.
func (lb *labelBuf) end() { lb.ends = append(lb.ends, len(lb.b)) }

// labels returns the closed labels, each a substring of one string.
func (lb *labelBuf) labels() []string {
	all := string(lb.b)
	out := make([]string, len(lb.ends))
	start := 0
	for i, e := range lb.ends {
		out[i] = all[start:e]
		start = e
	}
	return out
}

// indexLabels returns the labels prefix[0] … prefix[n-1].
func indexLabels(prefix string, n int) []string {
	lb := newLabelBuf(n, len(prefix)+6)
	for i := 0; i < n; i++ {
		lb.b = append(lb.b, prefix...)
		lb.b = append(lb.b, '[')
		lb.b = strconv.AppendInt(lb.b, int64(i), 10)
		lb.b = append(lb.b, ']')
		lb.end()
	}
	return lb.labels()
}

// Plan is a compiled Query: a validated, deterministic list of engine
// tasks. Compile materializes it exactly once — labels, per-task inputs
// (grid points, replica seeds) and the run and assembly steps — and
// Execute, ExecuteRange and Assemble only read it, so one Plan serves any
// number of executions, concurrent ones included. Execute (the whole plan)
// and ExecuteRange (a shard) run their tasks through one loop, which owns
// the timeout, the store, the order of emission and the wall times;
// Assemble is the one merger of per-task results and BuildTrace the one
// trace builder. The worker grant is an argument of each execution, never
// part of the plan: worker counts never change computed bytes, only how
// fast they arrive.
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
	// compute. A stored result decodes to the same wire payloads a computed
	// one carries (the exact-round-trip float contract), so attach it
	// between Compile and Execute; it never changes result bytes, only
	// whether they are recomputed.
	Store TaskStore

	exec
}

// NumTasks reports how many tasks the plan schedules (batch elements,
// simulation replicas, or 1 for single-result kinds).
func (p *Plan) NumTasks() int { return len(p.labels) }

// Labels lists the task labels in plan order.
func (p *Plan) Labels() []string { return append([]string(nil), p.labels...) }

// Compile validates q and lowers it to an execution plan — the only place
// a plan is materialized. Validation failures return a field-scoped *Error
// suitable for a structured 400.
func Compile(q Query) (*Plan, error) {
	if aerr := q.ValidateShape(); aerr != nil {
		return nil, aerr
	}
	var ex exec
	var aerr *Error
	switch q.Kind {
	case KindEvaluate:
		ex, aerr = q.buildEvaluate()
	case KindBatch:
		ex, aerr = q.buildBatch()
	case KindCaseStudy:
		ex, aerr = q.buildCaseStudy()
	case KindPathLossSweep:
		ex, aerr = q.buildPathLossSweep()
	case KindThresholds:
		ex, aerr = q.buildThresholds()
	case KindPayloadSweep:
		ex, aerr = q.buildPayloadSweep()
	case KindSimulate:
		ex, aerr = q.buildSimulate()
	case KindReplicas:
		ex, aerr = q.buildReplicas()
	case KindLifetime:
		ex, aerr = q.buildLifetime()
	case KindScenario:
		ex, aerr = q.buildScenario()
	case KindExperiment:
		ex, aerr = q.buildExperiment()
	case KindGrid:
		ex, aerr = q.buildGrid()
	}
	if aerr != nil {
		return nil, aerr
	}
	// A timeout_ms past ~292 years would overflow the Duration multiply;
	// clamp to the maximum representable deadline (operationally: none).
	timeout := time.Duration(q.TimeoutMS) * time.Millisecond
	if q.TimeoutMS > math.MaxInt64/int64(time.Millisecond) {
		timeout = math.MaxInt64
	}
	return &Plan{
		Kind: q.Kind, Workers: q.Workers, Trace: q.Trace,
		Timeout: timeout,
		exec:    ex,
	}, nil
}

// NumTasks reports how many tasks Compile(q) schedules — batch elements,
// replicas, grid points, or 1 for the single-result kinds — without
// compiling q, so a server answering q from the store can still count its
// tasks. It is meaningful only for a q that compiles. The builders take
// their counts from the same helpers (replicaCount, gridDims), so it
// cannot disagree with the compiled plan's NumTasks.
func (q *Query) NumTasks() int {
	switch q.Kind {
	case KindBatch:
		return len(q.Batch)
	case KindReplicas, KindLifetime:
		n, _ := q.replicaCount()
		return n
	case KindGrid:
		n := 1
		for _, l := range q.gridDims() {
			n *= l
		}
		return n
	}
	return 1
}

// Execute runs the plan on workers goroutines (≤ 0 ⇒ NumCPU) and returns
// the assembled ResultSet, with its trace when the query opted in. When
// yield is non-nil it receives every TaskResult in plan order as soon as it
// and all its predecessors have completed — tasks still run concurrently,
// the emission order is just pinned to the plan — and a yield error stops
// the remaining tasks and is returned. Calls to yield never overlap, but
// they may come from any of the plan's worker goroutines. A canceled ctx
// stops the plan promptly with ctx.Err(). With or without yield, the tasks
// run through the same loop as ExecuteRange's, and the results are merged
// by Assemble, as a coordinator merges its shards.
func (p *Plan) Execute(ctx context.Context, workers int, yield func(TaskResult) error) (*ResultSet, error) {
	workers = engine.ResolveWorkers(workers)
	start := time.Now()
	results := make([]TaskResult, len(p.labels))
	var walls []float64
	if p.Trace {
		walls = make([]float64, len(results))
	}
	err := p.runTasks(ctx, workers, 0, results, func(i int, wallMS float64) error {
		if walls != nil {
			walls[i] = wallMS
		}
		if yield == nil {
			return nil
		}
		return yield(results[i])
	})
	if err != nil {
		return nil, err
	}
	rs, err := p.Assemble(results)
	if err != nil {
		return nil, err
	}
	if walls != nil {
		rs.Trace = p.BuildTrace(workers, start, walls)
	}
	return rs, nil
}

// ExecuteRange runs only the tasks [from,to) of the plan on workers
// goroutines and yields each TaskResult in plan order as soon as it and all
// its range predecessors have completed, together with its measured wall
// time in milliseconds. It is the worker half of distributed execution and
// the coordinator's local fallback: a shard of any compiled plan is a pure
// function of (query, range), so any machine that can compile the query can
// compute any shard, and the emission order lets a coordinator resume a
// partially-streamed shard from the first missing index. No assembly step
// runs — the coordinator merges shards with Assemble. yield is called as
// Execute's is, and a yield error stops the remaining tasks and is
// returned. The range must hold at least one task.
func (p *Plan) ExecuteRange(ctx context.Context, workers, from, to int, yield func(tr TaskResult, wallMS float64) error) error {
	if from < 0 || to > len(p.labels) || from >= to {
		return errf("range", "task range [%d,%d) outside plan of %d tasks", from, to, len(p.labels))
	}
	results := make([]TaskResult, to-from)
	return p.runTasks(ctx, engine.ResolveWorkers(workers), from, results, func(i int, wallMS float64) error {
		return yield(results[i], wallMS)
	})
}

// runTasks is the plan's one task loop. It runs the tasks from, from+1, …
// (one per results slot) on workers goroutines under the plan timeout. Each
// task is read from the attached store when the store holds it and computed
// otherwise, stamped with its index and label, stored when it was computed,
// and left in results[i]; a computed payload, and a Metrics payload read
// from the store, lives in the execution's slab. emit(i, wallMS) then
// releases the slots in order, with each task's wall time in milliseconds:
// slot i is emitted as soon as it and every slot before it are filled, and
// emit calls never overlap. Before its tasks start, a model plan resolves the
// contention configurations its computed tasks use (resolveContention); a ctx
// done meanwhile stops the fill between Monte-Carlo shards, and runTasks
// returns ctx.Err() without running a task. An emit error stops the
// remaining tasks and is returned; otherwise the error of the
// lowest-indexed failing task, or ctx.Err(), is (engine.Map's rule).
func (p *Plan) runTasks(ctx context.Context, workers, from int, results []TaskResult, emit func(i int, wallMS float64) error) error {
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	o := inOrder{slots: make([]slot, len(results)), emit: emit}
	p.storedLines(from, results)
	slab := p.newPayloads(len(results))
	var of []int32
	var lookups []contention.Lookup
	if p.points != nil {
		var err error
		if of, lookups, err = p.resolveContention(ctx, workers, from, results); err != nil {
			return err
		}
	}
	err := engine.Map(ctx, workers, len(results), func(i int) error {
		idx := from + i
		start := time.Now()
		slot := slab.slot(i)
		r, hit := p.decodeStored(results[i].enc, slot.metrics)
		if !hit {
			var cs *contention.Stats
			if of != nil && of[i] >= 0 {
				cs = &lookups[of[i]].Stats
			}
			var err error
			if r, err = p.compute(ctx, workers, idx, slot, cs); err != nil {
				return err
			}
		}
		wallMS := time.Since(start).Seconds() * 1e3
		r.Index = idx
		r.Label = p.labels[idx]
		if !hit {
			p.StoreTask(&r)
		}
		results[i] = r
		return o.done(i, wallMS)
	})
	if o.err != nil {
		return o.err
	}
	return err
}

// compute runs task idx, writing its payload into slot. A model task
// evaluates its point under its configuration's resolved statistics cs —
// or, with cs nil when its stored line did not decode (resolveContention
// skips stored tasks), through the contention source, which gives the same
// bits.
func (p *Plan) compute(ctx context.Context, workers, idx int, slot payloads, cs *contention.Stats) (TaskResult, error) {
	if p.points == nil {
		return p.run(ctx, workers, idx, slot)
	}
	var m core.Metrics
	var err error
	if cs == nil {
		m, err = core.Evaluate(p.points[idx])
	} else {
		m, err = core.EvaluateWithStats(p.points[idx], *cs)
	}
	if err != nil {
		return TaskResult{}, err
	}
	slot.metrics[0] = WireMetrics(m)
	return TaskResult{Metrics: &slot.metrics[0]}, nil
}

// inOrder releases filled slots to emit in slot order. The goroutine whose
// done call fills the first unemitted slot emits, with the lock released
// around each emit call, every filled slot from there on — including slots
// other goroutines fill meanwhile, whose done calls return at once. So emit
// calls never overlap and never skip ahead; after an emit error nothing
// more is emitted and every done call returns that error.
type inOrder struct {
	mu       sync.Mutex
	slots    []slot
	next     int
	emitting bool
	err      error
	emit     func(i int, wallMS float64) error
}

type slot struct {
	wallMS float64
	filled bool
}

func (o *inOrder) done(i int, wallMS float64) error {
	o.mu.Lock()
	o.slots[i] = slot{wallMS: wallMS, filled: true}
	if o.emitting {
		o.mu.Unlock()
		return nil
	}
	o.emitting = true
	for o.err == nil && o.next < len(o.slots) && o.slots[o.next].filled {
		k, wallMS := o.next, o.slots[o.next].wallMS
		o.next++
		o.mu.Unlock()
		err := o.emit(k, wallMS)
		o.mu.Lock()
		o.err = err
	}
	o.emitting = false
	err := o.err
	o.mu.Unlock()
	return err
}

// BuildTrace is the one builder of a plan's execution trace: one span per
// task in plan order carrying its index, label, derived seed (where the plan
// assigns one) and the wall time walls[i] in milliseconds, under the worker
// grant and the plan wall time since start. Execute and the distributed
// coordinator both trace through it, so a trace names the same tasks and
// seeds wherever they ran.
func (p *Plan) BuildTrace(workers int, start time.Time, walls []float64) *PlanTraceWire {
	spans := make([]TaskSpanWire, len(p.labels))
	for i := range spans {
		spans[i] = TaskSpanWire{Index: i, Label: p.labels[i], Seed: p.seedAt(i), WallMS: Float(walls[i])}
	}
	return &PlanTraceWire{
		Kind:    p.Kind,
		Workers: workers,
		Tasks:   len(spans),
		WallMS:  Float(time.Since(start).Seconds() * 1e3),
		Spans:   spans,
	}
}

// Assemble merges per-task results in plan order — computed by Execute,
// read from the store, or collected from distributed ExecuteRange shards —
// into the plan's ResultSet: the per-kind assembly step (the replicas or
// lifetime summary) folds the wire payloads, whose exact-round-trip floats
// make the merged statistics the engine's own wherever the tasks ran. Every
// task of the plan must be present with its payload set.
func (p *Plan) Assemble(results []TaskResult) (*ResultSet, error) {
	if len(results) != len(p.labels) {
		return nil, errf("results", "%d results for a plan of %d tasks", len(results), len(p.labels))
	}
	rs := &ResultSet{Version: Version, Kind: p.Kind, Results: results}
	if p.assemble != nil {
		if err := p.assemble(rs); err != nil {
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
		return len(p.labels) > 1
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

// ---- per-kind builders (called by Compile only) ----

// baseParams materializes the shared analytic base point from the
// declarative spec (defaulting to the paper's §5 configuration). It compiles
// serial (see ParamsWire.Params); each run applies its worker grant with
// granted, so one compiled point serves every execution.
func (q *Query) baseParams() (core.Params, *Error) {
	w := q.Params
	if w == nil {
		w = &ParamsWire{}
	}
	return w.Params()
}

// granted returns base point p with the worker grant on the model's sweep
// level. Its Monte-Carlo characterization was compiled serial
// (baseParams): a sweep either asks for it from its granted workers or
// resolves it under the grant before its points start, so concurrency
// stays within the grant (see ParamsWire.Params).
func granted(p core.Params, workers int) core.Params {
	p.Workers = workers
	return p
}

func (q *Query) buildEvaluate() (exec, *Error) {
	base, aerr := q.baseParams()
	if aerr != nil {
		return exec{}, aerr
	}
	return model([]string{string(KindEvaluate)}, []core.Params{base}), nil
}

func (q *Query) buildBatch() (exec, *Error) {
	if len(q.Batch) == 0 {
		return exec{}, errf("batch", "empty batch: need at least one element")
	}
	if len(q.Batch) > MaxBatch {
		return exec{}, errf("batch", "batch too large (%d elements, max %d)", len(q.Batch), MaxBatch)
	}
	ps := make([]core.Params, len(q.Batch))
	for i, pw := range q.Batch {
		p, aerr := pw.Params()
		if aerr != nil {
			aerr.Field = "batch[" + strconv.Itoa(i) + "]." + aerr.Field
			return exec{}, aerr
		}
		ps[i] = p
	}
	return model(indexLabels("batch", len(ps)), ps), nil
}

func (q *Query) buildCaseStudy() (exec, *Error) {
	cfg, aerr := q.Config.Config()
	if aerr != nil {
		return exec{}, aerr
	}
	base, aerr := q.baseParams()
	if aerr != nil {
		return exec{}, aerr
	}
	return single(string(KindCaseStudy), func(ctx context.Context, workers int) (TaskResult, error) {
		res, err := core.RunCaseStudyCtx(ctx, granted(base, workers), cfg)
		if err != nil {
			return TaskResult{}, err
		}
		rw := WireCaseStudyResult(res)
		return TaskResult{CaseStudy: &rw}, nil
	}), nil
}

// lossGrid resolves the loss axis: the v1 routes' Direct losses, the
// declarative axis, or the case-study population default.
func (q *Query) lossGrid() ([]float64, *Error) {
	if q.Direct != nil && q.Direct.Losses != nil {
		return q.Direct.Losses, nil
	}
	return q.Losses.Grid("losses", DefaultLossGrid)
}

func (q *Query) buildPathLossSweep() (exec, *Error) {
	losses, aerr := q.lossGrid()
	if aerr != nil {
		return exec{}, aerr
	}
	base, aerr := q.baseParams()
	if aerr != nil {
		return exec{}, aerr
	}
	return single(string(KindPathLossSweep), func(ctx context.Context, workers int) (TaskResult, error) {
		curves, err := core.EnergyVsPathLossCtx(ctx, granted(base, workers), losses)
		if err != nil {
			return TaskResult{}, err
		}
		out := make([]EnergyCurveWire, len(curves))
		for i, c := range curves {
			out[i] = WireEnergyCurve(c)
		}
		return TaskResult{Curves: out}, nil
	}), nil
}

func (q *Query) buildThresholds() (exec, *Error) {
	losses, aerr := q.lossGrid()
	if aerr != nil {
		return exec{}, aerr
	}
	base, aerr := q.baseParams()
	if aerr != nil {
		return exec{}, aerr
	}
	return single(string(KindThresholds), func(ctx context.Context, workers int) (TaskResult, error) {
		ths, err := core.ThresholdsCtx(ctx, granted(base, workers), losses)
		if err != nil {
			return TaskResult{}, err
		}
		out := make([]ThresholdWire, len(ths))
		for i, t := range ths {
			out[i] = WireThreshold(t)
		}
		return TaskResult{Thresholds: out}, nil
	}), nil
}

func (q *Query) buildPayloadSweep() (exec, *Error) {
	sizes, aerr := q.Payloads.Grid("payloads", DefaultPayloadSizes)
	if aerr != nil {
		return exec{}, aerr
	}
	base, aerr := q.baseParams()
	if aerr != nil {
		return exec{}, aerr
	}
	return single(string(KindPayloadSweep), func(ctx context.Context, workers int) (TaskResult, error) {
		series, err := core.EnergyVsPayloadCtx(ctx, granted(base, workers), sizes)
		if err != nil {
			return TaskResult{}, err
		}
		pw := WirePayloadSeries(sizes, series)
		return TaskResult{Payload: &pw}, nil
	}), nil
}

func (q *Query) buildSimulate() (exec, *Error) {
	cfg, aerr := q.Sim.Config()
	if aerr != nil {
		return exec{}, aerr
	}
	return exec{labels: []string{string(KindSimulate)}, run: func(_ context.Context, _, _ int, slot payloads) (TaskResult, error) {
		slot.sims[0] = WireSimResult(cfg.Seed, netsim.RunHeadline(cfg))
		return TaskResult{Sim: &slot.sims[0]}, nil
	}}, nil
}

// replicaCount validates and resolves a query's replica count (default 1).
func (q *Query) replicaCount() (int, *Error) {
	if q.Replicas < 0 || q.Replicas > MaxReplicas {
		return 0, errf("replicas", "%d outside 0..%d", q.Replicas, MaxReplicas)
	}
	return max(q.Replicas, 1), nil
}

func (q *Query) buildReplicas() (exec, *Error) {
	cfg, aerr := q.Sim.Config()
	if aerr != nil {
		return exec{}, aerr
	}
	n, aerr := q.replicaCount()
	if aerr != nil {
		return exec{}, aerr
	}
	seeds := netsim.ReplicaSeeds(cfg.Seed, n)
	// Resolved once per plan: the replicas share one default radio, BER
	// model and deployment instead of each run building its own.
	run := cfg.WithDefaults()
	return exec{labels: indexLabels("replica", n), seeds: seeds, run: func(_ context.Context, _, i int, slot payloads) (TaskResult, error) {
		c := run
		c.Seed = seeds[i]
		slot.sims[0] = WireSimResult(c.Seed, netsim.RunHeadline(c))
		return TaskResult{Sim: &slot.sims[0]}, nil
	}, assemble: func(rs *ResultSet) *Error {
		// The wire replica payloads round-trip the exact floats the merge
		// folds, so the summary is netsim.RunReplicas' own. Every execution
		// gets its own copy of the seeds, which the summary keeps.
		results := make([]netsim.Result, len(rs.Results))
		for i := range rs.Results {
			if rs.Results[i].Sim == nil {
				return errf("results", "task %d carries no sim payload", i)
			}
			results[i] = rs.Results[i].Sim.Result()
		}
		summary := WireReplicaSummary(netsim.Merge(cfg, slices.Clone(seeds), results))
		rs.Summary = &summary
		return nil
	}}, nil
}

func (q *Query) buildScenario() (exec, *Error) {
	if q.Scenario == "" {
		return exec{}, errf("scenario", "missing scenario name")
	}
	sc, ok := scenario.ByName(q.Scenario)
	if !ok {
		return exec{}, errf("scenario", "unknown scenario %q (known: %s)",
			q.Scenario, strings.Join(scenario.Names(), ", "))
	}
	diff := q.Diff
	return single(string(KindScenario), func(ctx context.Context, workers int) (TaskResult, error) {
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
		return TaskResult{Scenario: &report}, nil
	}), nil
}

func (q *Query) buildExperiment() (exec, *Error) {
	if q.Experiment == "" {
		return exec{}, errf("experiment", "missing experiment name")
	}
	e, ok := experiments.ByName(q.Experiment)
	if !ok {
		return exec{}, errf("experiment", "unknown experiment %q (known: %s)",
			q.Experiment, strings.Join(experiments.Names(), ", "))
	}
	opt := experiments.DefaultOptions()
	opt.Quick = q.Quick
	if q.Seed != nil {
		opt.Seed = *q.Seed
	}
	name := q.Experiment
	return single(string(KindExperiment)+":"+name, func(ctx context.Context, workers int) (TaskResult, error) {
		o := opt
		o.Context = ctx
		o.Workers = workers
		tables, err := e.Run(o)
		if err != nil {
			return TaskResult{}, err
		}
		return TaskResult{Experiment: &ExperimentReportWire{Name: name, Tables: tables}}, nil
	}), nil
}

// gridLabelBytes sizes the label buffer per grid point: enough for
// "grid[9999]:loss=<17-digit float>,payload=127,bo=14" and most node counts.
const gridLabelBytes = 64

// appendGridLabel appends the label of grid point i, byte-identical to
// fmt.Sprintf("grid[%d]:loss=%g,payload=%d,bo=%d", i, loss, payload, bo)
// followed, on a nodes axis (n > 0; its absence is the sentinel point 0),
// by fmt.Sprintf(",n=%d", n).
func appendGridLabel(b []byte, i int, loss float64, payload, bo, n int) []byte {
	b = append(b, "grid["...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, "]:loss="...)
	b = strconv.AppendFloat(b, loss, 'g', -1, 64)
	b = append(b, ",payload="...)
	b = strconv.AppendInt(b, int64(payload), 10)
	b = append(b, ",bo="...)
	b = strconv.AppendInt(b, int64(bo), 10)
	if n > 0 {
		b = append(b, ",n="...)
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return b
}

// gridDims returns the point counts of a valid grid's loss, payload, BO
// and node axes; an omitted axis is the base point's one.
func (q *Query) gridDims() [4]int {
	return [4]int{q.Losses.Len(1), q.Payloads.Len(1), q.BOs.Len(1), q.Nodes.Len(1)}
}

// buildGrid materializes the joint product sweep — losses × payloads × BOs
// × node counts, one analytical evaluation per point — the paper-scale
// Fig. 6 surface generator. Axis order is fixed (nodes fastest, losses
// slowest), so task index i maps to a unique point and any shard of the
// plan is recomputable anywhere from (query, index range) alone. Omitted
// axes collapse to the base point: a grid over losses only is the batch of
// evaluations a client would otherwise page by hand.
func (q *Query) buildGrid() (exec, *Error) {
	base, aerr := q.baseParams()
	if aerr != nil {
		return exec{}, aerr
	}
	losses, aerr := q.Losses.Grid("losses", func() []float64 { return []float64{base.PathLossDB} })
	if aerr != nil {
		return exec{}, aerr
	}
	payloads, aerr := q.Payloads.Grid("payloads", func() []int { return []int{base.PayloadBytes} })
	if aerr != nil {
		return exec{}, aerr
	}
	bos, aerr := q.BOs.Grid("bos", func() []int { return []int{int(base.Superframe.BO)} })
	if aerr != nil {
		return exec{}, aerr
	}
	nodes, aerr := q.Nodes.Grid("nodes", func() []int { return nil })
	if aerr != nil {
		return exec{}, aerr
	}
	// nil means "keep the base load"; materialize as one sentinel point.
	loadFromNodes := nodes != nil
	if !loadFromNodes {
		nodes = []int{0}
	}

	total := 1
	for _, l := range q.gridDims() {
		total *= l
		if total > MaxGridTasks {
			return exec{}, errf("grid", "grid too large (> %d points); page across several queries", MaxGridTasks)
		}
	}
	if total < 1 {
		return exec{}, errf("grid", "empty grid")
	}

	// Pre-validate each point's parameter set so every error surfaces at
	// compile time, before any work is scheduled, and lay the points and
	// their labels out in the fixed row-major order.
	points := make([]core.Params, 0, total)
	lb := newLabelBuf(total, gridLabelBytes)
	for _, loss := range losses {
		for _, payload := range payloads {
			for _, bo := range bos {
				if bo < 0 || bo > int(mac.MaxBeaconOrder) {
					return exec{}, errf("bos", "beacon order %d outside 0..%d", bo, mac.MaxBeaconOrder)
				}
				sf, err := mac.NewSuperframe(uint8(bo), base.Superframe.SO)
				if err != nil {
					return exec{}, errf("bos", "bo=%d with base so=%d: %v", bo, base.Superframe.SO, err)
				}
				for _, n := range nodes {
					p := base
					p.PathLossDB = loss
					p.PayloadBytes = payload
					p.Superframe = sf
					if loadFromNodes {
						if n < 1 {
							return exec{}, errf("nodes", "population %d < 1", n)
						}
						p.Load = sf.ChannelLoad(n, frame.PaperPacketDuration(payload))
					}
					start := len(lb.b)
					lb.b = appendGridLabel(lb.b, len(points), loss, payload, bo, n)
					if err := p.Validate(); err != nil {
						return exec{}, errf("grid", "%s: %v", lb.b[start:], err)
					}
					lb.end()
					points = append(points, p)
				}
			}
		}
	}
	return model(lb.labels(), points), nil
}

// String implements fmt.Stringer with a one-line plan summary.
func (p *Plan) String() string {
	return fmt.Sprintf("query plan: kind=%s tasks=%d", p.Kind, len(p.labels))
}
