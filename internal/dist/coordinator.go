package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"dense802154/internal/engine"
	"dense802154/internal/query"
	"dense802154/internal/telemetry"
)

// Options configures a Coordinator. The zero value of every field selects a
// sensible default; only Workers is required for distribution to engage.
type Options struct {
	// Workers lists the fleet's base URLs (e.g. "http://10.0.0.7:8080").
	// Empty means no fleet: every query runs locally.
	Workers []string
	// Transport carries shards (nil ⇒ HTTPTransport). Tests substitute a
	// FaultTransport here.
	Transport Transport
	// ShardSize is the task count per dispatched shard (0 ⇒ one shard per
	// admitted worker). Whatever the size, a worker left idle can take
	// over half of what a long shard has left (see distRun.split).
	ShardSize int
	// MaxAttempts bounds dispatch attempts per index range before the range
	// falls back to local execution (0 ⇒ 4).
	MaxAttempts int
	// RetryBase/RetryCap shape the exponential backoff between attempts of
	// one range: attempt k waits ~RetryBase·2^(k-1), jittered, capped at
	// RetryCap (0 ⇒ 50ms / 2s). Jitter affects timing only, never results.
	RetryBase time.Duration
	RetryCap  time.Duration
	// ShardTimeout is the per-shard deadline: a dispatch that has not
	// finished streaming by then is abandoned and its remainder
	// re-dispatched (0 ⇒ 60s).
	ShardTimeout time.Duration
	// StragglerFactor and StragglerMin set the speculation threshold: a
	// shard that has not progressed for max(StragglerMin, StragglerFactor ×
	// the mean of the query's observed per-task wall times; StragglerMin
	// alone until a task line has arrived) is speculatively duplicated on
	// an idle worker (0 ⇒ 4 / 250ms). Duplicates are deduplicated by
	// task index, so speculation never changes bytes.
	StragglerFactor float64
	StragglerMin    time.Duration
	// ReprobeAfter (0 ⇒ 5s) is the interval between readmission probes of
	// an evicted worker, and also how long a vouch lasts. The Coordinator
	// keeps one record per worker across queries; a successful probe or a
	// shard the worker ended cleanly vouches for it. A query probes at its
	// start only the workers that are evicted or that nothing vouched for
	// within ReprobeAfter, so the queries of a healthy, busy fleet send no
	// probes. A stale vouch costs at most one failed dispatch: it evicts the
	// worker fleet-wide and re-dispatches the range, and the next query
	// probes it again.
	ReprobeAfter time.Duration
	// Logger receives dispatch/failure/eviction events (nil ⇒ discard).
	Logger *slog.Logger
	// Store, when set, is the coordinator's slice of the content-addressed
	// result store (store.Store implements it): task results already stored
	// under the query's content key are adopted before any span is
	// dispatched, and every accepted remote result is stored for the next
	// query — re-dispatched and speculated ranges whose tasks are stored
	// become lookups instead of recomputes. Stored results are byte-identical
	// to computed ones by the store's contract, so this changes dispatch
	// volume only, never merged bytes.
	Store Store
}

const (
	// probeTimeout bounds one readiness probe.
	probeTimeout = 2 * time.Second
	// jitterSeed seeds the backoff jitter, drawn on a query's first retry:
	// fixed, so a schedule is reproducible. Jitter moves timing only, never
	// results.
	jitterSeed = 1
)

// Store is the narrow store seam the coordinator needs: a per-query task
// view keyed by content hash. store.Store implements it; the indirection
// keeps this package independent of the store's tiering.
type Store interface {
	Tasks(q query.Query) query.TaskStore
}

// Coordinator shards compiled plans across a worker fleet and merges the
// returned shards into ResultSets byte-identical to local execution. It is
// safe for concurrent Distribute calls.
type Coordinator struct {
	opts Options

	// mu guards fleet, the admission record every query shares (see
	// Options.ReprobeAfter). The fleet gauges follow it.
	mu    sync.Mutex
	fleet map[string]*member
}

// member is the Coordinator's standing record of one worker. What one
// query knows besides (busy, consecutive failures, its own evictions) is
// in that query's workerState.
type member struct {
	state   memberState
	vouched time.Time // the last successful probe or clean shard end
}

type memberState int8

const (
	memberUnknown memberState = iota // never probed
	memberReady
	memberEvicted
)

// fleetGauges is the gauge counting the members in each state.
var fleetGauges = [...]*telemetry.Gauge{memberReady: &WorkersReady, memberEvicted: &WorkersEvicted}

// moveTo sets m's state and moves it between the fleet gauges; the
// Coordinator's mu is held.
func (m *member) moveTo(s memberState) {
	if g := fleetGauges[m.state]; g != nil {
		g.Add(-1)
	}
	if g := fleetGauges[s]; g != nil {
		g.Add(1)
	}
	m.state = s
}

// unvouched returns the workers a query must probe before it trusts them:
// the evicted, the never probed and those nothing vouched for within
// ReprobeAfter. A healthy fleet in steady use returns none.
func (c *Coordinator) unvouched(now time.Time) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, w := range c.opts.Workers {
		if m := c.fleet[w]; m.state != memberReady || now.Sub(m.vouched) >= c.opts.ReprobeAfter {
			out = append(out, w)
		}
	}
	return out
}

// vouch records that worker answered a probe or ended a shard cleanly.
func (c *Coordinator) vouch(worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.fleet[worker]
	m.moveTo(memberReady)
	m.vouched = time.Now()
}

// recordEviction marks worker evicted fleet-wide, so the next query probes
// it before trusting it.
func (c *Coordinator) recordEviction(worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fleet[worker].moveTo(memberEvicted)
}

// New returns a Coordinator with defaults applied over opts.
func New(opts Options) *Coordinator {
	if opts.Transport == nil {
		opts.Transport = &HTTPTransport{}
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 50 * time.Millisecond
	}
	if opts.RetryCap <= 0 {
		opts.RetryCap = 2 * time.Second
	}
	if opts.ShardTimeout <= 0 {
		opts.ShardTimeout = 60 * time.Second
	}
	if opts.StragglerFactor <= 0 {
		opts.StragglerFactor = 4
	}
	if opts.StragglerMin <= 0 {
		opts.StragglerMin = 250 * time.Millisecond
	}
	if opts.ReprobeAfter <= 0 {
		opts.ReprobeAfter = 5 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	fleet := make(map[string]*member, len(opts.Workers))
	for _, w := range opts.Workers {
		fleet[w] = &member{}
	}
	return &Coordinator{opts: opts, fleet: fleet}
}

// Fleet reports the configured worker URLs.
func (c *Coordinator) Fleet() []string { return append([]string(nil), c.opts.Workers...) }

// message kinds of the coordinator's single-threaded main loop.
const (
	msgLine = iota
	msgEnd
	msgProbe
)

type msg struct {
	kind   int
	fid    int
	line   TaskLine
	err    error
	worker string
}

// span is a pending index range awaiting dispatch.
type span struct {
	from, to   int
	attempts   int
	notBefore  time.Time
	lastWorker string
}

// flight is one in-progress dispatch (remote shard or local fallback).
type flight struct {
	id         int
	worker     string // "" ⇒ local execution
	from, to   int
	next       int // next expected plan index (stream is in range order)
	attempts   int
	speculated bool
	// shrunk records that a split cut to short of the range the worker
	// was asked for: the worker streams on past to, so the flight retires
	// when it delivers to-1 instead of at the done line.
	shrunk   bool
	cancel   context.CancelFunc
	lastMove time.Time
}

type workerState struct {
	busy        bool
	evicted     bool
	consecFails int
}

// distRun is the per-Distribute state machine. All fields are owned by the
// main loop; flight and probe goroutines communicate only through ch, and
// Distribute waits for every one of them (wg) before it returns.
type distRun struct {
	c     *Coordinator
	ctx   context.Context
	q     query.Query
	plan  *query.Plan
	local int
	yield func(query.TaskResult) error
	// labels are the plan's task labels: every accepted line must carry
	// its task's label, and decoded labels share these strings.
	labels []string
	// shard carries the labels and the encoded query to every Send.
	shard *shardContext

	n         int
	results   []query.TaskResult
	walls     []float64
	have      []bool
	haveCount int
	nextYield int
	start     time.Time

	ch      chan msg
	wg      sync.WaitGroup
	pending []span
	workers map[string]*workerState
	flights map[int]*flight
	nextFID int
	rng     *rand.Rand // backoff jitter, built on the first retry
	// wallSum and wallCount total the observed per-task wall times (ms);
	// their mean prices a split and the straggler threshold. One preempted
	// task would lift an EWMA a hundredfold on a grid of 15 µs tasks, but
	// barely moves the mean.
	wallSum   float64
	wallCount int
	// fellBack records that the query degraded to local execution;
	// localBusy that a local flight is in the air. There is at most one,
	// because it runs under the whole local worker grant.
	fellBack  bool
	localBusy bool
}

// Distribute executes plan, sharding it across the fleet when it is
// shardable and a fleet exists, and returns a ResultSet byte-identical to
// plan.Execute run locally. yield, when non-nil, receives every TaskResult
// in plan order exactly once (regardless of which machine computed it); a
// yield error cancels the query. Worker failures of every kind — dispatch
// errors, mid-stream disconnects, timeouts, death — are retried with
// exponential backoff and re-dispatched elsewhere; with the whole fleet
// lost, or none of it admitted, the remaining ranges run locally, one
// plan.ExecuteRange flight at a time under localWorkers, and the query
// still completes. The plan's store (Options.Store's view of the query
// when the caller attached none) is read before anything is dispatched and
// back-filled with every accepted remote result. Only a non-shardable plan
// or an empty fleet runs through plan.Execute. Distribute returns only
// after every goroutine it started (flights, probes, readmission loops) has
// ended; what outlives it is the Coordinator's fleet record.
func (c *Coordinator) Distribute(ctx context.Context, q query.Query, plan *query.Plan, localWorkers int, yield func(query.TaskResult) error) (*query.ResultSet, error) {
	if !plan.Shardable() || len(c.opts.Workers) == 0 {
		return plan.Execute(ctx, localWorkers, yield)
	}
	if plan.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, plan.Timeout)
		defer cancel()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := plan.NumTasks()
	r := &distRun{
		c: c, ctx: ctx, q: q, plan: plan, local: localWorkers, yield: yield,
		labels:  plan.Labels(),
		n:       n,
		results: make([]query.TaskResult, n),
		walls:   make([]float64, n),
		have:    make([]bool, n),
		start:   time.Now(),
		ch:      make(chan msg, 256),
		workers: make(map[string]*workerState),
		flights: make(map[int]*flight),
	}
	r.shard = newShardContext(&r.q, r.labels)
	if c.opts.Store != nil && plan.Store == nil {
		// The prefill, the remote back-fill and the local flights all go
		// through the plan's store, so they read and write one view.
		plan.Store = c.opts.Store.Tasks(q)
	}
	rs, err := r.run()
	cancel()
	r.wg.Wait()
	return rs, err
}

func (r *distRun) run() (*query.ResultSet, error) {
	if err := r.prefill(); err != nil {
		return nil, err
	}
	if r.haveCount == r.n {
		// Every task was already in the store: the query completes without
		// probing a single worker.
		QueriesTotal.Inc()
		return r.finish()
	}
	r.admit()
	shard := r.c.opts.ShardSize
	if ready := r.readyCount(); ready == 0 {
		// No worker admitted: schedule runs every hole locally, each as one
		// span, so one flight computes it under the whole local grant.
		r.c.opts.Logger.Warn("dist: no workers ready, running locally", "fleet", len(r.c.opts.Workers))
		shard = r.n
	} else {
		QueriesTotal.Inc()
		if shard <= 0 {
			// One shard per worker: each worker compiles the query and
			// resolves its contention once. A worker that finishes early
			// can take over half of what a slower one has left (split).
			remaining := r.n - r.haveCount
			shard = max(1, (remaining+ready-1)/ready)
		}
	}
	// Pending spans cover the maximal runs the prefill left unfilled; a
	// warm store dispatches only the holes.
	for i := 0; i < r.n; {
		if r.have[i] {
			i++
			continue
		}
		j := i
		for j < r.n && !r.have[j] {
			j++
		}
		for from := i; from < j; from += shard {
			r.pending = append(r.pending, span{from: from, to: min(from+shard, j)})
		}
		i = j
	}

	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	r.schedule()
	for r.haveCount < r.n {
		select {
		case <-r.ctx.Done():
			return nil, r.ctx.Err()
		case m := <-r.ch:
			var err error
			switch m.kind {
			case msgLine:
				err = r.onLine(m)
			case msgEnd:
				err = r.onEnd(m)
			case msgProbe:
				r.onProbe(m)
			}
			if err != nil {
				return nil, err
			}
		case <-ticker.C:
			r.checkStragglers()
		}
		r.schedule()
	}
	for _, f := range r.flights {
		f.cancel()
	}
	return r.finish()
}

// prefill adopts every task result the plan's store already holds before
// anything is dispatched, then yields the contiguous prefix. Stored bytes
// are byte-identical to computed ones, so adoption changes dispatch volume
// only. An entry that fails to decode is a miss (Plan.TasksFromStore) — the
// span machinery recomputes it. The hits' Metrics payloads share one slab.
func (r *distRun) prefill() error {
	r.haveCount = r.plan.TasksFromStore(r.results, r.have)
	if r.haveCount > 0 {
		r.c.opts.Logger.Debug("dist: prefilled from store", "tasks", r.haveCount, "of", r.n)
	}
	return r.drainYield()
}

// drainYield delivers the contiguous completed prefix to the caller's yield
// in plan order.
func (r *distRun) drainYield() error {
	for r.nextYield < r.n && r.have[r.nextYield] {
		if r.yield != nil {
			if err := r.yield(r.results[r.nextYield]); err != nil {
				return err
			}
		}
		r.nextYield++
	}
	return nil
}

// finish assembles the completed result vector into the final ResultSet and
// attaches the execution trace when the query opted in, built by the plan's
// one trace builder (prefilled tasks carry no wall time).
func (r *distRun) finish() (*query.ResultSet, error) {
	rs, err := r.plan.Assemble(r.results)
	if err != nil {
		return nil, err
	}
	if r.plan.Trace {
		rs.Trace = r.plan.BuildTrace(engine.ResolveWorkers(r.local), r.start, r.walls)
	}
	return rs, nil
}

// admit starts the query with every worker admitted and probes, in
// parallel, those the fleet record does not vouch for; a worker that fails
// its probe starts evicted with a readmission loop already running.
func (r *distRun) admit() {
	for _, w := range r.c.opts.Workers {
		r.workers[w] = &workerState{}
	}
	probes := r.c.unvouched(time.Now())
	if len(probes) == 0 {
		return
	}
	type probe struct {
		worker string
		err    error
	}
	ch := make(chan probe, len(probes))
	for _, w := range probes {
		r.wg.Add(1)
		go func(w string) {
			defer r.wg.Done()
			pctx, pcancel := context.WithTimeout(r.ctx, probeTimeout)
			defer pcancel()
			ch <- probe{w, r.c.opts.Transport.Ready(pctx, w)}
		}(w)
	}
	for range probes {
		p := <-ch
		if p.err == nil {
			r.c.vouch(p.worker)
			continue
		}
		WorkerFailuresTotal.Inc()
		r.c.recordEviction(p.worker)
		r.workers[p.worker].evicted = true
		r.c.opts.Logger.Warn("dist: worker not admitted", "worker", p.worker, "err", p.err)
		r.reprobe(p.worker)
	}
}

func (r *distRun) readyCount() int {
	n := 0
	for _, ws := range r.workers {
		if !ws.evicted {
			n++
		}
	}
	return n
}

// pickWorker returns an idle admitted worker, preferring one other than
// avoid, or "" when none is idle. Iteration over the fleet slice (not the
// map) keeps the choice deterministic given the same state.
func (r *distRun) pickWorker(avoid string) string {
	fallback := ""
	for _, w := range r.c.opts.Workers {
		ws := r.workers[w]
		if ws == nil || ws.evicted || ws.busy {
			continue
		}
		if w != avoid {
			return w
		}
		fallback = w
	}
	return fallback
}

// trim shrinks a span past results that arrived meanwhile (speculative
// duplicates are deduplicated by index, so edges of a requeued range may
// already be present).
func (r *distRun) trim(s span) span {
	for s.from < s.to && r.have[s.from] {
		s.from++
	}
	for s.to > s.from && r.have[s.to-1] {
		s.to--
	}
	return s
}

// schedule is the dispatch pass run after every event. It dispatches the
// pending spans, then, while nothing is left pending and a worker is idle,
// splits the longest remote flight and dispatches the back half.
func (r *distRun) schedule() {
	r.dispatchPending()
	for len(r.pending) == 0 && r.split() {
		r.dispatchPending()
	}
}

// dispatchPending sends each pending span to an idle worker, to local
// execution when its attempts are exhausted or no worker is admitted, or
// leaves it pending until its backoff expires or the one local flight has
// landed.
func (r *distRun) dispatchPending() {
	now := time.Now()
	// Filter in place: schedule runs after every event, often with spans
	// still waiting, so a fresh slice each pass would allocate per line.
	still := r.pending[:0]
	for _, s := range r.pending {
		s = r.trim(s)
		if s.from >= s.to {
			continue
		}
		switch {
		case s.attempts >= r.c.opts.MaxAttempts || r.readyCount() == 0:
			if r.localBusy {
				still = append(still, s)
				continue
			}
			if !r.fellBack {
				r.fellBack = true
				LocalFallbackTotal.Inc()
			}
			r.c.opts.Logger.Warn("dist: range falling back to local execution",
				"from", s.from, "to", s.to, "attempts", s.attempts, "ready", r.readyCount())
			r.launchLocal(s)
		case now.Before(s.notBefore):
			still = append(still, s)
		default:
			w := r.pickWorker(s.lastWorker)
			if w == "" {
				still = append(still, s)
				continue
			}
			r.launchRemote(w, s, false)
		}
	}
	r.pending = still
}

// split gives an idle worker half of the work the busiest remote flight has
// left. It picks the non-speculated remote flight with the most tasks left
// and, when those tasks are estimated (tasks left × the mean per-task wall
// time) to take longer than StragglerMin, shrinks the flight's range to the
// front half of what is left and queues the back half as a pending span.
// Short or balanced shards are never split, so a healthy fleet sends one
// shard per worker. It reports whether it queued a span.
func (r *distRun) split() bool {
	if r.pickWorker("") == "" {
		return false
	}
	var f *flight
	for _, g := range r.flights {
		if g.worker == "" || g.speculated {
			continue
		}
		// Ties go to the older flight, so the choice does not depend on
		// map order.
		if f == nil || g.to-g.next > f.to-f.next || (g.to-g.next == f.to-f.next && g.id < f.id) {
			f = g
		}
	}
	if f == nil {
		return false
	}
	left := f.to - f.next
	if left < 2 || r.wallCount == 0 {
		return false
	}
	mean := r.wallSum / float64(r.wallCount)
	if time.Duration(float64(left)*mean*float64(time.Millisecond)) <= r.c.opts.StragglerMin {
		return false
	}
	mid := f.next + left/2
	r.pending = append(r.pending, span{from: mid, to: f.to, attempts: f.attempts, lastWorker: f.worker})
	ShardSplitsTotal.Inc()
	r.c.opts.Logger.Info("dist: splitting shard", "worker", f.worker,
		"from", f.next, "mid", mid, "to", f.to)
	f.to = mid
	f.shrunk = true
	return true
}

func (r *distRun) launchRemote(worker string, s span, speculative bool) {
	fid := r.nextFID
	r.nextFID++
	fctx, fcancel := context.WithTimeout(r.ctx, r.c.opts.ShardTimeout)
	r.flights[fid] = &flight{
		id: fid, worker: worker, from: s.from, to: s.to, next: s.from,
		attempts: s.attempts, speculated: speculative, cancel: fcancel, lastMove: time.Now(),
	}
	r.workers[worker].busy = true
	ShardsDispatchedTotal.Inc()
	if s.attempts > 0 && !speculative {
		RetriesTotal.Inc()
	}
	if lg := r.c.opts.Logger; lg.Enabled(r.ctx, slog.LevelDebug) {
		lg.Debug("dist: dispatch", "worker", worker, "from", s.from, "to", s.to,
			"attempt", s.attempts, "speculative", speculative)
	}
	req := TaskRequest{Query: r.q, From: s.from, To: s.to}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer fcancel()
		stream, err := r.c.opts.Transport.Send(withShardContext(fctx, r.shard), worker, req)
		if err != nil {
			r.post(msg{kind: msgEnd, fid: fid, err: err})
			return
		}
		defer stream.Close()
		for {
			line, err := stream.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					// EOF before the terminal done line is a disconnect.
					err = io.ErrUnexpectedEOF
				}
				r.post(msg{kind: msgEnd, fid: fid, err: err})
				return
			}
			if line.Done {
				r.post(msg{kind: msgEnd, fid: fid})
				return
			}
			r.post(msg{kind: msgLine, fid: fid, line: line})
			if line.Error != "" {
				return // terminal compute-error line; the main loop aborts
			}
		}
	}()
}

func (r *distRun) launchLocal(s span) {
	fid := r.nextFID
	r.nextFID++
	fctx, fcancel := context.WithCancel(r.ctx)
	r.flights[fid] = &flight{id: fid, worker: "", from: s.from, to: s.to, next: s.from, cancel: fcancel, lastMove: time.Now()}
	r.localBusy = true
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer fcancel()
		err := r.plan.ExecuteRange(fctx, r.local, s.from, s.to, func(tr query.TaskResult, wallMS float64) error {
			res := tr
			m := msg{kind: msgLine, fid: fid, line: TaskLine{Index: tr.Index, WallMS: wallMS, Result: &res}}
			select {
			case r.ch <- m:
				return nil
			case <-fctx.Done():
				return fctx.Err()
			}
		})
		r.post(msg{kind: msgEnd, fid: fid, err: err})
	}()
}

func (r *distRun) post(m msg) {
	select {
	case r.ch <- m:
	case <-r.ctx.Done():
	}
}

func (r *distRun) onLine(m msg) error {
	f := r.flights[m.fid]
	if f == nil {
		return nil // flight already retired
	}
	line := m.line
	if line.Error != "" {
		// A worker-reported task error is a deterministic compute failure:
		// re-running the same pure task elsewhere fails identically, so the
		// query aborts instead of burning retries.
		return errors.New(line.Error)
	}
	if line.Result == nil || line.Index != f.next || line.Index >= f.to {
		r.failFlight(f, fmt.Errorf("dist: worker %s broke stream order (got index %d, want %d)", f.worker, line.Index, f.next))
		return nil
	}
	if res := line.Result; res.Index != line.Index || res.Label != r.labels[line.Index] {
		// The worker's plan has another shape than ours (version skew the
		// range check cannot see): its result is not this task's.
		r.failFlight(f, fmt.Errorf("dist: worker %s sent result %d %q for task %d %q",
			f.worker, res.Index, res.Label, line.Index, r.labels[line.Index]))
		return nil
	}
	f.next++
	f.lastMove = time.Now()
	if f.shrunk && f.next == f.to {
		// The flight's shrunk range is complete; what its worker streams
		// after this belongs to the split-off span, so the stream ends here.
		f.cancel()
		r.retire(f)
	}
	if line.WallMS > 0 {
		r.wallSum += line.WallMS
		r.wallCount++
	}
	i := line.Index
	if !r.have[i] {
		r.have[i] = true
		r.results[i] = *line.Result
		r.walls[i] = line.WallMS
		r.haveCount++
		if f.worker == "" {
			TasksLocalTotal.Inc()
		} else {
			TasksRemoteTotal.Inc()
			// Back-fill the plan's store with accepted remote results (local
			// flights store theirs in ExecuteRange). Re-dispatched or
			// repeated queries then prefill instead of recomputing.
			r.plan.StoreTask(&r.results[i])
		}
		if err := r.drainYield(); err != nil {
			return err
		}
	}
	return nil
}

func (r *distRun) onEnd(m msg) error {
	f := r.flights[m.fid]
	if f == nil {
		return nil
	}
	if f.worker == "" {
		delete(r.flights, m.fid)
		r.localBusy = false
		if m.err != nil {
			if r.ctx.Err() != nil {
				return r.ctx.Err()
			}
			return m.err // deterministic local compute failure
		}
		return nil
	}
	err := m.err
	if err == nil && f.next < f.to {
		err = fmt.Errorf("dist: worker %s ended shard early at %d of [%d,%d)", f.worker, f.next, f.from, f.to)
	}
	if err == nil {
		r.retire(f)
		return nil
	}
	if r.ctx.Err() != nil {
		return r.ctx.Err()
	}
	r.failFlight(f, err)
	return nil
}

// retire ends a remote flight that completed its range: it frees the
// worker and vouches for it.
func (r *distRun) retire(f *flight) {
	delete(r.flights, f.id)
	ws := r.workers[f.worker]
	ws.busy = false
	ws.consecFails = 0
	r.c.vouch(f.worker)
}

// failFlight retires a remote flight after a transport-level failure:
// counts it, applies the eviction policy, and requeues whatever the flight
// had not yet delivered for re-dispatch elsewhere.
func (r *distRun) failFlight(f *flight, err error) {
	delete(r.flights, f.id)
	f.cancel()
	ws := r.workers[f.worker]
	ws.busy = false
	WorkerFailuresTotal.Inc()
	r.c.opts.Logger.Warn("dist: shard failed", "worker", f.worker,
		"from", f.from, "to", f.to, "progress", f.next-f.from, "err", err)
	if f.next == f.from {
		// Zero progress: the worker is unreachable or dying — evict now.
		r.evict(f.worker)
	} else {
		ws.consecFails++
		if ws.consecFails >= 2 {
			r.evict(f.worker)
		}
	}
	r.requeueRemainder(f)
}

// requeueRemainder turns the undelivered part of a failed flight into
// pending spans. The stream was in range order, so everything before f.next
// arrived; of the rest, runs already covered by results or by other active
// flights (speculation) are skipped.
func (r *distRun) requeueRemainder(f *flight) {
	covered := func(i int) bool {
		for _, g := range r.flights {
			if i >= g.next && i < g.to {
				return true
			}
		}
		return false
	}
	attempts := f.attempts + 1
	notBefore := time.Now().Add(r.backoff(attempts))
	i := f.next
	for i < f.to {
		if r.have[i] || covered(i) {
			i++
			continue
		}
		j := i
		for j < f.to && !r.have[j] && !covered(j) {
			j++
		}
		r.pending = append(r.pending, span{from: i, to: j, attempts: attempts, notBefore: notBefore, lastWorker: f.worker})
		RedispatchTotal.Inc()
		i = j
	}
}

// backoff returns the jittered exponential delay before attempt k of a
// range: base·2^(k-1) capped at RetryCap, jittered into [d/2, d].
func (r *distRun) backoff(attempt int) time.Duration {
	d := r.c.opts.RetryBase
	for k := 1; k < attempt && d < r.c.opts.RetryCap; k++ {
		d *= 2
	}
	d = min(d, r.c.opts.RetryCap)
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(jitterSeed))
	}
	return d/2 + time.Duration(r.rng.Int63n(int64(d/2)+1))
}

// evict takes worker out of this query's dispatch and records the eviction
// fleet-wide, so the next query probes it before trusting it.
func (r *distRun) evict(worker string) {
	ws := r.workers[worker]
	r.c.recordEviction(worker)
	if ws.evicted {
		return
	}
	ws.evicted = true
	r.c.opts.Logger.Warn("dist: worker evicted", "worker", worker)
	r.reprobe(worker)
}

// reprobe runs the readmission loop for an evicted worker: probe every
// ReprobeAfter until the worker answers ready or the query ends.
func (r *distRun) reprobe(worker string) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			select {
			case <-r.ctx.Done():
				return
			case <-time.After(r.c.opts.ReprobeAfter):
			}
			pctx, pcancel := context.WithTimeout(r.ctx, probeTimeout)
			err := r.c.opts.Transport.Ready(pctx, worker)
			pcancel()
			if err == nil {
				r.post(msg{kind: msgProbe, worker: worker})
				return
			}
		}
	}()
}

func (r *distRun) onProbe(m msg) {
	r.c.vouch(m.worker)
	ws := r.workers[m.worker]
	if !ws.evicted {
		return
	}
	ws.evicted = false
	ws.consecFails = 0
	r.c.opts.Logger.Info("dist: worker readmitted", "worker", m.worker)
}

// checkStragglers speculatively duplicates shards that have stalled for
// longer than the straggler threshold derived from observed per-task wall
// times. The duplicate races the original; index-level deduplication keeps
// the merged bytes identical either way.
func (r *distRun) checkStragglers() {
	threshold := r.c.opts.StragglerMin
	if r.wallCount > 0 {
		mean := r.wallSum / float64(r.wallCount)
		threshold = max(threshold, time.Duration(r.c.opts.StragglerFactor*mean*float64(time.Millisecond)))
	}
	now := time.Now()
	for _, f := range r.flights {
		if f.worker == "" || f.speculated || now.Sub(f.lastMove) <= threshold {
			continue
		}
		s := r.trim(span{from: f.next, to: f.to, lastWorker: f.worker, attempts: f.attempts})
		if s.from >= s.to {
			continue
		}
		w := r.pickWorker(f.worker)
		if w == "" || w == f.worker {
			continue
		}
		f.speculated = true
		StragglerRedispatchTotal.Inc()
		r.c.opts.Logger.Info("dist: speculating straggler shard", "worker", f.worker,
			"spare", w, "from", s.from, "to", s.to)
		r.launchRemote(w, s, true)
	}
}
