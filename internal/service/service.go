// Package service exposes the whole model surface of this repository as an
// HTTP JSON API — the batch-evaluation front-end the production deployment
// story needs: many clients submit analytical-model evaluations, paper
// sweeps, case-study integrations, discrete-event simulations and
// registered experiment drivers to one process that shares a bounded
// contention cache and a server-wide worker pool.
//
// # Endpoints
//
//	GET  /healthz                    liveness probe (uptime + build info)
//	GET  /livez                      bare liveness probe (process is serving)
//	GET  /readyz                     readiness probe (503 while initializing or draining)
//	GET  /metrics                    Prometheus text-format metrics
//	GET  /v1/stats                   cache and request counters
//	POST /v1/evaluate                one Params → Metrics
//	POST /v1/batch                   many Params → []Metrics (NDJSON with ?stream=1)
//	POST /v1/casestudy               §5 population integration
//	POST /v1/sweep/pathloss          Fig. 7 energy-vs-path-loss curve family
//	POST /v1/sweep/thresholds        Fig. 7 link-adaptation switching points
//	POST /v1/sweep/payload           Fig. 8 energy-vs-payload curve
//	POST /v1/simulate                netsim with server-side parallel replications
//	GET  /v1/experiments             registered paper drivers
//	POST /v1/experiments/{name}      run one driver
//	GET  /v1/scenarios               the committed cross-model scenario catalog
//	GET  /v1/scenarios/{name}        the committed golden result for one scenario
//	POST /v1/scenarios/{name}        run one scenario fresh (optionally diffed vs its golden)
//	POST /v2/query                   one declarative Query → tagged ResultSet
//	POST /v2/query/stream            same Query, NDJSON TaskResults in plan order
//	POST /v2/tasks                   one task-index range of a compiled plan (NDJSON)
//	GET  /v2/store/stats             result-store counters and tier occupancy
//
// The v2 routes speak the unified query type of internal/query: one
// versioned request covers everything the per-endpoint v1 routes do, and
// new parameter axes become Query fields instead of new endpoints. The v1
// routes are maintained but frozen, and they compute nothing themselves:
// each POST v1 route is a translator over the same query.Compile →
// Plan.Execute path the v2 routes run (the v1 route table in handlers.go is
// the v1 → v2 mapping). v1 requests execute locally, outside the result
// store and the Distributor, and are not counted in wsn_query_total.
//
// /v2/tasks is the worker half of distributed execution (internal/dist): a
// coordinator posts a query plus an index range and streams back the
// corresponding TaskResults in range order. When Config.Distributor is set,
// the /v2/query routes run through it instead of executing locally, so the
// same binary serves as coordinator or worker depending on configuration.
//
// Every route handler and metrics collector runs under panic recovery: a
// panic is logged with its stack, counted in wsn_http_panics_total, and
// answered with a structured 500 when no bytes have been written yet — one
// broken request never takes down the fleet member serving it.
//
// /readyz is the admission signal the distributed coordinator keys on: it
// answers 503 until the server is fully constructed and again after
// SetReady(false) during drain. A coordinator probes a worker only when its
// record of it is stale or evicted, so a draining worker also refuses
// /v2/tasks with a 503: the next shard dispatched to it fails, evicts it
// and runs elsewhere.
//
// # Observability
//
// Every server owns a telemetry.Registry scraped at GET /metrics in the
// Prometheus text format. The exported families:
//
//	wsn_http_requests_total{route,code}        counter    requests by route pattern and status
//	wsn_http_request_duration_seconds{route}   histogram  wall time per request
//	wsn_http_requests_in_flight                gauge      requests currently executing
//	wsn_http_errors_total{route,class}         counter    non-2xx responses, class 4xx or 5xx
//	wsn_http_panics_total                      counter    handler/collector panics recovered
//	wsn_query_total{kind}                      counter    v2 queries by query kind
//	wsn_query_tasks_total                      counter    plan tasks of v2 queries, store hits included
//	wsn_worker_pool_capacity                   gauge      worker-token budget
//	wsn_worker_pool_in_use                     gauge      tokens currently held
//	wsn_worker_acquires_total                  counter    token-pool acquisitions
//	wsn_worker_wait_seconds                    histogram  wait for the first token
//	wsn_uptime_seconds                         gauge      seconds since server start
//	wsn_build_info{version,revision,goversion} gauge      constant 1, build identification
//
// plus the engine worker-pool metrics (wsn_engine_*), the contention cache
// (wsn_contention_cache_*), the simulator run counters (wsn_netsim_*), the
// network-lifetime counters (wsn_lifetime_*: runs, epochs, node deaths,
// simulated vs fast-forwarded seconds), the distributed-execution families
// (wsn_dist_*: queries, shard dispatches, retries, re-dispatches, straggler
// speculation, remote/local task counts, fleet membership) and the
// content-addressed result store (wsn_store_*: hits, misses, puts,
// evictions, disk hits/errors, resident bytes and entries); see the
// RegisterMetrics doc of each package. Those families read process-wide
// sources, so two servers in one process scrape one truth. The store
// counters are also served as JSON at GET /v2/store/stats.
//
// Request logging is structured (log/slog): one record per request with a
// monotone request id (also echoed in the X-Request-Id response header),
// method, path, matched route, status, byte count and duration.
//
// # Concurrency model
//
// The server owns a pool of worker tokens (Config.Workers, default NumCPU).
// Every request acquires at least one token before computing and greedily
// takes as many as are free, up to what it asked for; concurrent clients
// therefore share the machine instead of each oversubscribing it. Because
// every sweep in the repository is worker-count independent, the grant
// changes only latency, never results: the JSON a client receives is bit
// for bit what an in-process Evaluate/EvaluateBatch/RunCaseStudy call
// returns. Request contexts flow into every sweep, so a disconnected
// client cancels its computation end to end; cancellation is observed
// between evaluation points, batch elements and simulation replicas — an
// in-flight Monte-Carlo contention characterization (bounded by the wire
// cap on its superframes) runs to completion and is cached for the next
// request.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dense802154/internal/buildinfo"
	"dense802154/internal/contention"
	"dense802154/internal/dist"
	"dense802154/internal/engine"
	"dense802154/internal/lifetime"
	"dense802154/internal/netsim"
	"dense802154/internal/query"
	"dense802154/internal/store"
	"dense802154/internal/telemetry"
	"dense802154/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the server-wide worker-token budget shared by all
	// requests (0 ⇒ NumCPU).
	Workers int
	// CacheLimit bounds the process-wide contention cache to this many
	// Monte-Carlo characterizations with LRU eviction (0 = unbounded).
	// NewServer installs the bound unconditionally: the cache is process
	// state, so the most recently constructed server wins.
	CacheLimit int
	// RequestTimeout is the per-request computation deadline, counted
	// from the request's arrival (0 = no deadline); requests exceeding it
	// are canceled at the granularity the package doc describes. A request
	// still waiting for workers, or a v1 computation, is answered 503; a
	// v2 query execution that runs past it is answered with a structured
	// 504, as a query's own timeout_ms is. Only requests that compute carry
	// it: a whole-query store hit, a listing or a probe sets up no
	// deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (0 ⇒ 8 MiB).
	MaxBodyBytes int64
	// Logger receives one structured record per request (nil ⇒ no
	// logging).
	Logger *slog.Logger
	// Distributor, when set, executes /v2/query and /v2/query/stream plans
	// (a dist.Coordinator shards them across a worker fleet and merges the
	// results byte-identically to local execution). Nil runs every plan
	// locally.
	Distributor Distributor
	// Store, when set, is the content-addressed result store consulted by
	// the v2 routes: /v2/query answers repeated (untraced) queries from
	// stored whole-query bytes in O(1), every executed plan — each
	// /v2/query/stream included — reuses and persists per-task results, and
	// /v2/tasks
	// serves stored tasks without recomputing — which makes a worker fleet a
	// shared shard cache. Cached bytes equal freshly computed bytes always;
	// the store changes cost, never results.
	Store *store.Store
	// FaultExitAfterTasks, when positive, makes the process exit with
	// status 3 after serving this many /v2/tasks lines — a deterministic
	// mid-stream worker death for multi-process fault-injection tests.
	// Never set it on a server sharing a process with anything you care
	// about.
	FaultExitAfterTasks int
}

// Distributor executes a compiled plan on behalf of the v2 query routes —
// the seam where distributed execution plugs in. dist.Coordinator
// implements it; the contract is that of query.Plan.Execute: yield receives
// every TaskResult in plan order and the returned ResultSet encodes to the
// same bytes a local run produces.
type Distributor interface {
	Distribute(ctx context.Context, q query.Query, plan *query.Plan, localWorkers int, yield func(query.TaskResult) error) (*query.ResultSet, error)
}

// requestDurationBuckets spans the request range: sub-millisecond stats
// reads through multi-second Monte-Carlo sweeps.
var requestDurationBuckets = []float64{0.001, 0.01, 0.1, 1, 10, 60}

// workerWaitBuckets resolves queueing under load: instant grants through
// multi-second waits behind long sweeps.
var workerWaitBuckets = []float64{0.0001, 0.001, 0.01, 0.1, 1, 10}

// requestStats is the mutex-guarded request ledger behind /v1/stats. One
// lock covers every field, so a stats snapshot is a single consistent
// observation instead of a field-by-field read that can tear across
// concurrent requests (a request appearing in requests_total but not yet in
// responses_4xx, say).
type requestStats struct {
	mu       sync.Mutex
	requests uint64
	inflight int64
	resp4xx  uint64
	resp5xx  uint64
}

func (st *requestStats) begin() {
	st.mu.Lock()
	st.requests++
	st.inflight++
	st.mu.Unlock()
}

func (st *requestStats) end(status int) {
	st.mu.Lock()
	st.inflight--
	switch {
	case status >= 500:
		st.resp5xx++
	case status >= 400:
		st.resp4xx++
	}
	st.mu.Unlock()
}

// snapshot returns all fields under one lock acquisition.
func (st *requestStats) snapshot() (requests uint64, inflight int64, resp4xx, resp5xx uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.requests, st.inflight, st.resp4xx, st.resp5xx
}

func (st *requestStats) inFlight() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.inflight
}

// Server is the HTTP front-end. It implements http.Handler and is safe for
// concurrent use; construct it with NewServer.
type Server struct {
	cfg  Config
	pool *limiter
	mux  *http.ServeMux
	log  *slog.Logger

	started time.Time
	stats   requestStats
	reqSeq  atomic.Uint64
	ridBase string // request-id prefix, unique per server instance

	ready       atomic.Bool  // readiness gate behind GET /readyz and POST /v2/tasks
	tasksServed atomic.Int64 // /v2/tasks lines served (FaultExitAfterTasks)

	reg          *telemetry.Registry
	httpRequests *telemetry.CounterVec
	httpDuration *telemetry.HistogramVec
	httpInFlight *telemetry.Gauge
	httpErrors   *telemetry.CounterVec
	httpPanics   *telemetry.Counter
	queryKinds   *telemetry.CounterVec
	queryTasks   *telemetry.Counter
}

// NewServer builds the service with its routes, worker pool, cache bound
// and metrics registry installed.
func NewServer(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	started := time.Now()
	s := &Server{
		cfg:     cfg,
		pool:    newLimiter(cfg.Workers),
		mux:     http.NewServeMux(),
		log:     cfg.Logger,
		started: started,
		ridBase: strconv.FormatInt(started.UnixNano(), 36),
		reg:     telemetry.NewRegistry(),
	}
	contention.SetCacheLimit(cfg.CacheLimit)
	s.registerMetrics()

	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /livez", s.handleLivez)
	s.handle("GET /readyz", s.handleReadyz)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("POST /v1/evaluate", serveV1(s, v1Evaluate))
	s.handle("POST /v1/batch", serveV1(s, v1Batch))
	s.handle("POST /v1/casestudy", serveV1(s, v1CaseStudy))
	s.handle("POST /v1/sweep/pathloss", serveV1(s, v1SweepPathLoss))
	s.handle("POST /v1/sweep/thresholds", serveV1(s, v1SweepThresholds))
	s.handle("POST /v1/sweep/payload", serveV1(s, v1SweepPayload))
	s.handle("POST /v1/simulate", serveV1(s, v1Simulate))
	s.handle("GET /v1/experiments", s.handleExperimentList)
	s.handle("POST /v1/experiments/{name}", serveV1(s, v1ExperimentRun))
	s.handle("GET /v1/scenarios", s.handleScenarioList)
	s.handle("GET /v1/scenarios/{name}", s.handleScenarioGolden)
	s.handle("POST /v1/scenarios/{name}", serveV1(s, v1ScenarioRun))
	s.handle("POST /v2/query", s.handleQuery)
	s.handle("POST /v2/query/stream", s.handleQueryStream)
	s.handle("POST /v2/tasks", s.handleTasks)
	s.handle("GET /v2/store/stats", s.handleStoreStats)
	s.ready.Store(true) // construction complete: worker pool and routes live
	return s
}

// SetReady flips the readiness gate behind /readyz and /v2/tasks. Servers
// construct ready; drain paths call SetReady(false) before shutdown so the
// distributed coordinator evicts the worker instead of dispatching into a
// dying process.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// registerMetrics wires the server-owned families plus the process-wide
// engine, contention-cache and simulator sources into this server's
// registry.
func (s *Server) registerMetrics() {
	r := s.reg
	s.httpRequests = r.CounterVec("wsn_http_requests_total", "HTTP requests by route pattern and status code.", "route", "code")
	s.httpDuration = r.HistogramVec("wsn_http_request_duration_seconds", "Request wall time by route pattern.", requestDurationBuckets, "route")
	s.httpInFlight = r.Gauge("wsn_http_requests_in_flight", "Requests currently executing.")
	s.httpErrors = r.CounterVec("wsn_http_errors_total", "Non-2xx responses by route pattern and class (4xx or 5xx).", "route", "class")
	s.httpPanics = r.Counter("wsn_http_panics_total", "Handler or collector panics recovered by the server.")
	s.queryKinds = r.CounterVec("wsn_query_total", "v2 queries accepted, by query kind.", "kind")
	s.queryTasks = r.Counter("wsn_query_tasks_total", "Plan tasks of accepted v2 queries, counted for store hits too.")

	r.GaugeFunc("wsn_worker_pool_capacity", "Worker-token budget shared by all requests.",
		func() float64 { return float64(s.pool.capacity) })
	r.GaugeFunc("wsn_worker_pool_in_use", "Worker tokens currently held by requests.",
		func() float64 { return float64(s.pool.inUse()) })
	r.RegisterCounter("wsn_worker_acquires_total", "Worker-token pool acquisitions.", &s.pool.acquires)
	r.RegisterHistogram("wsn_worker_wait_seconds", "Wait for the first worker token.", s.pool.waitHist)
	r.GaugeFunc("wsn_uptime_seconds", "Seconds since server start.",
		func() float64 { return time.Since(s.started).Seconds() })
	bi := buildinfo.Read()
	r.ConstGauge("wsn_build_info", "Build identification; value is constant 1.", 1,
		telemetry.Label{Name: "version", Value: bi.Version},
		telemetry.Label{Name: "revision", Value: bi.Revision},
		telemetry.Label{Name: "goversion", Value: bi.GoVersion})

	engine.RegisterMetrics(r)
	contention.RegisterMetrics(r)
	netsim.RegisterMetrics(r)
	lifetime.RegisterMetrics(r)
	dist.RegisterMetrics(r)
	store.RegisterMetrics(r)
}

// Metrics exposes the server's telemetry registry (tests and embedders
// scrape it without HTTP).
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// handle registers a route, stamping the pattern into the request's
// statusWriter so ServeHTTP-level metrics and logs see the matched route
// (http.Request.Pattern is only set on the handler's copy of the request).
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if sw, ok := w.(*statusWriter); ok {
			sw.route = pattern
		}
		h(w, r)
	})
}

// statusWriter captures the response status, byte count and matched route
// for the metrics/logging epilogue. It forwards Flush so a streaming
// handler's lineWriter can push each coalesced batch of lines out as one
// chunk.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	route  string
	start  time.Time // the request's arrival, which RequestTimeout counts from
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Flush implements http.Flusher when the underlying writer does.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// ServeHTTP implements http.Handler: request id, body cap, in-flight
// accounting, metrics and structured logging around the route handlers
// (the per-request deadline is the computing routes' own, see
// acquireWorkers).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var ridBuf [48]byte
	b := append(append(ridBuf[:0], s.ridBase...), '-')
	rid := string(strconv.AppendUint(b, s.reqSeq.Add(1), 10))
	w.Header()["X-Request-Id"] = []string{rid}

	s.stats.begin()
	s.httpInFlight.Add(1)
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, start: start}
	defer func() {
		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: net/http sends 200
		}
		elapsed := time.Since(start)
		route := sw.route
		if route == "" {
			route = "unmatched" // mux-level 404/405, before any registered handler
		}
		s.httpRequests.With(route, codeString(status)).Inc()
		s.httpDuration.With(route).Observe(elapsed.Seconds())
		switch {
		case status >= 500:
			s.httpErrors.With(route, "5xx").Inc()
		case status >= 400:
			s.httpErrors.With(route, "4xx").Inc()
		}
		s.httpInFlight.Add(-1)
		s.stats.end(status)
		if s.log != nil {
			s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("id", rid),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("route", route),
				slog.Int("status", status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("duration", elapsed.Round(time.Microsecond)))
		}
	}()

	// Registered after the metrics/logging defer above, so it runs first
	// (LIFO): the recovery writes the 500, then the epilogue counts it.
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler { // deliberate abort: not our panic
			panic(rec)
		}
		s.httpPanics.Inc()
		if s.log != nil {
			s.log.LogAttrs(r.Context(), slog.LevelError, "panic recovered",
				slog.String("id", rid),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Any("panic", rec),
				slog.String("stack", string(debug.Stack())))
		}
		if sw.status == 0 {
			writeError(sw, http.StatusInternalServerError, "internal error", "")
		}
	}()

	r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
	// Config.RequestTimeout is applied by acquireWorkers, on the routes
	// that compute, not here on every request.
	s.mux.ServeHTTP(sw, r)
}

// codeStrings holds the decimal text of every status code net/http names,
// so the per-request metrics epilogue formats none of them.
var codeStrings = func() map[int]string {
	m := make(map[int]string)
	for code := 100; code < 600; code++ {
		if http.StatusText(code) != "" {
			m[code] = strconv.Itoa(code)
		}
	}
	return m
}()

// codeString is the decimal text of an HTTP status code.
func codeString(code int) string {
	if s, ok := codeStrings[code]; ok {
		return s
	}
	return strconv.Itoa(code)
}

// statsResponse is the /v1/stats body. The request block is one atomic
// snapshot of the requestStats ledger; the worker block reads the limiter's
// own counters.
type statsResponse struct {
	UptimeSeconds Float `json:"uptime_seconds"`

	Requests     uint64 `json:"requests_total"`
	InFlight     int64  `json:"requests_in_flight"`
	Responses4xx uint64 `json:"responses_4xx_total"`
	Responses5xx uint64 `json:"responses_5xx_total"`

	WorkerBudget     int    `json:"worker_budget"`
	WorkersBusy      int    `json:"workers_busy"`
	WorkerAcquires   uint64 `json:"worker_acquires_total"`
	WorkerWaitTotalS Float  `json:"worker_wait_seconds_total"`

	Cache cacheStatsWire `json:"contention_cache"`
}

// cacheStatsWire is the JSON form of engine.CacheStats.
type cacheStatsWire struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Limit     int    `json:"limit"`
	HitRate   Float  `json:"hit_rate"`
}

// healthzResponse is the /healthz body: liveness plus build identification.
type healthzResponse struct {
	Status        string `json:"status"`
	UptimeSeconds Float  `json:"uptime_seconds"`
	Version       string `json:"version"`
	Revision      string `json:"revision,omitempty"`
	GoVersion     string `json:"goversion"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bi := buildinfo.Read()
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:        "ok",
		UptimeSeconds: Float(time.Since(s.started).Seconds()),
		Version:       bi.Version,
		Revision:      bi.Revision,
		GoVersion:     bi.GoVersion,
	})
}

// handleLivez is the bare liveness probe: the process accepts requests.
// Distinct from /readyz — a draining server is still live but not ready.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the admission probe the distributed coordinator keys on:
// 200 only while the server is fully constructed and not draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not-ready"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Render into a buffer first: a panicking GaugeFunc collector then
	// fires before any byte or header is written, so the recovery layer
	// can still answer a structured 500.
	var buf bytes.Buffer
	if err := s.reg.WritePrometheus(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), "")
		return
	}
	w.Header()["Content-Type"] = metricsType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := contention.CacheStats()
	requests, inflight, resp4xx, resp5xx := s.stats.snapshot()
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds:    Float(time.Since(s.started).Seconds()),
		Requests:         requests,
		InFlight:         inflight,
		Responses4xx:     resp4xx,
		Responses5xx:     resp5xx,
		WorkerBudget:     s.pool.capacity,
		WorkersBusy:      s.pool.inUse(),
		WorkerAcquires:   s.pool.acquires.Value(),
		WorkerWaitTotalS: Float(s.pool.waitHist.Sum()),
		Cache: cacheStatsWire{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Evictions: cs.Evictions,
			Entries:   cs.Entries,
			Limit:     cs.Limit,
			HitRate:   Float(cs.HitRate()),
		},
	})
}

// errorBody is the envelope of every non-2xx JSON response.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Status  int    `json:"status"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
}

// writeError renders a structured error response.
func writeError(w http.ResponseWriter, status int, message, field string) {
	writeJSON(w, status, errorBody{Error: errorDetail{Status: status, Message: message, Field: field}})
}

// writeValidationError renders a codec *Error as a 400.
func writeValidationError(w http.ResponseWriter, err *Error) {
	writeError(w, http.StatusBadRequest, err.Message, err.Field)
}

// writeCtxError maps a context failure to 503 (deadline) or 499-style 503
// (client gone; the connection is usually dead anyway).
func writeCtxError(w http.ResponseWriter, err error) {
	writeError(w, http.StatusServiceUnavailable, err.Error(), "")
}

// The Content-Type values of every response. net/http only reads a
// header's values, so each response shares one slice instead of the one
// Header().Set allocates per call.
var (
	jsonType    = []string{"application/json"}
	ndjsonType  = []string{"application/x-ndjson"}
	metricsType = []string{telemetry.ContentType}
)

// writeJSON renders v with the JSON content type.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeJSONBytes answers 200 with body, an encoded JSON document.
func writeJSONBytes(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// decodeJSON parses the request body into dst with strict field checking.
// An empty body leaves dst at its zero value (every request type has full
// defaults). Malformed payloads, unknown fields and trailing garbage are
// 400s; an oversized body is a 413.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	return decodeBody(w, r, func(b []byte, rerr error) error {
		return wire.DecodeStrict(wire.Replay(b, rerr), dst)
	})
}

// decodeQueryBody is decodeJSON for a v2 query: a Query in its writer's
// shape decodes without reflection, and q, typed rather than passed as
// any, stays in the caller's frame.
func decodeQueryBody(w http.ResponseWriter, r *http.Request, q *query.Query) bool {
	return decodeBody(w, r, func(b []byte, rerr error) error {
		return query.DecodeQuery(b, rerr, q)
	})
}

// decodeTaskRequest is decodeQueryBody for a /v2/tasks request.
func decodeTaskRequest(w http.ResponseWriter, r *http.Request, req *dist.TaskRequest) bool {
	return decodeBody(w, r, func(b []byte, rerr error) error {
		return dist.DecodeTaskRequest(b, rerr, req)
	})
}

// decodeBody reads the request body once, up to the size cap, into a pooled
// buffer and hands decode the bytes read and the error that ended the read.
// Every decoder replays the strict decoder over those bytes followed by the
// read error for anything its fast path does not take, so statuses and
// messages are exactly the streaming decoder's. No decoded value may alias
// the buffer.
func decodeBody(w http.ResponseWriter, r *http.Request, decode func(b []byte, rerr error) error) bool {
	bp := bodyBufs.Get().(*[]byte)
	b, rerr := readBody(r.Body, (*bp)[:0])
	err := decode(b, rerr)
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyBufs.Put(bp)
	}
	if err == nil || errors.Is(err, io.EOF) {
		return true // an empty body decodes to all defaults
	}
	var maxErr *http.MaxBytesError
	switch {
	case errors.As(err, &maxErr):
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds "+strconv.FormatInt(maxErr.Limit, 10)+" bytes", "")
	case errors.Is(err, wire.ErrTrailing):
		writeError(w, http.StatusBadRequest, "trailing data after JSON body", "")
	default:
		writeError(w, http.StatusBadRequest, "malformed request: "+err.Error(), "")
	}
	return false
}

// bodyBufs recycles the buffers decodeJSON reads request bodies into;
// buffers grown past maxPooledBody are left to the collector.
var bodyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledBody = 1 << 20

// readBody appends everything r yields to b and returns it with the error
// that ended the read: nil at the end of the body.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
