package service

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dense802154/internal/experiments"
	"dense802154/internal/query"
	"dense802154/internal/scenario"
	"dense802154/internal/wire"
)

// acquireWorkers is the prologue of every route that computes: it applies
// Config.RequestTimeout, counted from the request's arrival, and blocks
// under that deadline for a share of the server worker pool. The returned
// context carries the deadline, and release frees both the workers and the
// deadline's timer. A request that computes nothing (a whole-query store
// hit, a listing, a probe) never gets here and pays for no deadline.
func (s *Server) acquireWorkers(w http.ResponseWriter, r *http.Request, want int) (context.Context, int, func(), bool) {
	ctx := r.Context()
	var cancel context.CancelFunc
	if s.cfg.RequestTimeout > 0 {
		start := time.Now()
		if sw, ok := w.(*statusWriter); ok {
			start = sw.start
		}
		ctx, cancel = context.WithDeadline(ctx, start.Add(s.cfg.RequestTimeout))
	}
	got, release, err := s.pool.acquire(ctx, want)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		writeCtxError(w, err)
		return nil, 0, nil, false
	}
	if cancel != nil {
		free := release
		release = func() { free(); cancel() }
	}
	return ctx, got, release, true
}

// ---- the frozen POST /v1 routes ----

// v1Route translates one frozen POST /v1 route onto query.Compile →
// Plan.Execute: it lowers the decoded request to a query.Query and reshapes
// the ResultSet into the v1 response. The v1Route values below are the
// v1 → v2 mapping; serveV1 is the runner they share.
type v1Route[Req any] struct {
	// noun, when set, names what the {name} path value selects; known
	// resolves it before the body is decoded, and an unknown name is v1's
	// 404 "unknown <noun> <name>".
	noun  string
	known func(name string) bool
	// toQuery runs the v1 checks whose message, field or status differ
	// from v2's and lowers the request to a Query; its Workers is the
	// parallelism the request asks for.
	toQuery func(r *http.Request, req *Req) (query.Query, *Error)
	// stream, when set, reports after compilation whether the response is
	// the NDJSON batch stream.
	stream func(r *http.Request, req *Req) (bool, *Error)
	// failStatus and failField render an execution failure of a request
	// whose context is still live (a gone or timed-out request is a 503).
	failStatus int
	failField  string
	// respond reshapes the ResultSet into the v1 response body.
	respond func(rs *query.ResultSet) any
}

// serveV1 is the shared v1 runner: decode, the route's own checks, worker
// tokens, Compile with Workers = the grant, Execute under the request
// context, and the reshaped response.
func serveV1[Req any](s *Server, rt v1Route[Req]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rt.known != nil {
			if name := r.PathValue("name"); !rt.known(name) {
				writeError(w, http.StatusNotFound, "unknown "+rt.noun+" "+name, "name")
				return
			}
		}
		var req Req
		if !decodeJSON(w, r, &req) {
			return
		}
		q, aerr := rt.toQuery(r, &req)
		if aerr != nil {
			writeValidationError(w, aerr)
			return
		}
		ctx, got, release, ok := s.acquireWorkers(w, r, q.Workers)
		if !ok {
			return
		}
		defer release()
		q.Workers = got
		plan, err := query.Compile(q)
		if err != nil {
			// v1 names the batch elements params[i], where v2 says batch[i].
			var aerr *Error
			if errors.As(err, &aerr) && strings.HasPrefix(aerr.Field, "batch[") {
				aerr.Field = "params" + strings.TrimPrefix(aerr.Field, "batch")
			}
			writeCompileError(w, err)
			return
		}
		if rt.stream != nil {
			stream, aerr := rt.stream(r, &req)
			if aerr != nil {
				writeValidationError(w, aerr)
				return
			}
			if stream {
				streamBatch(ctx, w, plan, got)
				return
			}
		}
		rs, err := plan.Execute(ctx, got, nil)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				writeCtxError(w, cerr)
			} else {
				writeError(w, rt.failStatus, err.Error(), rt.failField)
			}
			return
		}
		writeJSON(w, http.StatusOK, rt.respond(rs))
	}
}

// batchLine is one NDJSON record of the /v1/batch stream: index (the Params
// element) plus metrics, in element order, then a summary line with
// done=true and the count. Error stays in the frozen shape, but no element
// fails once Compile has validated the batch.
type batchLine struct {
	Index   *int         `json:"index,omitempty"`
	Metrics *MetricsWire `json:"metrics,omitempty"`
	Error   string       `json:"error,omitempty"`
	Done    bool         `json:"done,omitempty"`
	Count   int          `json:"count,omitempty"`
}

// streamBatch answers /v1/batch as NDJSON through a lineWriter: one
// batchLine per element as it and its predecessors complete, then the done
// line, each encoded by encoding/json as the frozen v1 stream always was.
// Plan.Execute drains its workers before it returns, so the caller's worker
// tokens are released only once no task still runs, even when the client
// goes away.
func streamBatch(ctx context.Context, w http.ResponseWriter, plan *query.Plan, workers int) {
	w.Header()["Content-Type"] = ndjsonType
	w.WriteHeader(http.StatusOK)
	lw := newLineWriter(w)
	defer lw.close()
	write := func(ln batchLine) error {
		b, err := lw.appendJSON(ln)
		if err != nil {
			return err
		}
		return lw.write(b) // a failure means the client went away; Execute cancels the rest
	}
	_, err := plan.Execute(ctx, workers, func(tr query.TaskResult) error {
		return write(batchLine{Index: &tr.Index, Metrics: tr.Metrics})
	})
	if err == nil {
		_ = write(batchLine{Done: true, Count: plan.NumTasks()})
	}
}

// ---- POST /v1/evaluate ----

type evaluateRequest struct {
	Params ParamsWire `json:"params"`
}

type evaluateResponse struct {
	Metrics MetricsWire `json:"metrics"`
}

var v1Evaluate = v1Route[evaluateRequest]{
	toQuery: func(_ *http.Request, req *evaluateRequest) (query.Query, *Error) {
		return query.Query{Kind: query.KindEvaluate, Params: &req.Params, Workers: req.Params.Workers}, nil
	},
	failStatus: http.StatusBadRequest, failField: "params",
	respond: func(rs *query.ResultSet) any { return evaluateResponse{Metrics: *rs.Results[0].Metrics} },
}

// ---- POST /v1/batch ----

type batchRequest struct {
	Params []ParamsWire `json:"params"`
	// Stream switches the response to NDJSON, one line per element (also
	// selectable with the ?stream=1 query parameter).
	Stream bool `json:"stream,omitempty"`
}

type batchResponse struct {
	Metrics []MetricsWire `json:"metrics"`
}

var v1Batch = v1Route[batchRequest]{
	toQuery: func(_ *http.Request, req *batchRequest) (query.Query, *Error) {
		if len(req.Params) == 0 {
			return query.Query{}, &Error{Field: "params", Message: "empty batch: params must hold at least one element"}
		}
		if len(req.Params) > query.MaxBatch {
			return query.Query{}, &Error{Field: "params", Message: "batch too large"}
		}
		want := 0
		for _, pw := range req.Params {
			want = max(want, pw.Workers)
		}
		return query.Query{Kind: query.KindBatch, Batch: req.Params, Workers: want}, nil
	},
	stream: func(r *http.Request, req *batchRequest) (bool, *Error) {
		v := r.URL.Query().Get("stream")
		if v == "" {
			return req.Stream, nil
		}
		b, err := strconv.ParseBool(v)
		if err != nil {
			return false, &Error{Field: "stream", Message: "stream must be a boolean"}
		}
		return b, nil
	},
	failStatus: http.StatusBadRequest, failField: "params",
	respond: func(rs *query.ResultSet) any {
		out := make([]MetricsWire, len(rs.Results))
		for i := range rs.Results {
			out[i] = *rs.Results[i].Metrics
		}
		return batchResponse{Metrics: out}
	},
}

// ---- POST /v1/casestudy ----

type caseStudyRequest struct {
	Params ParamsWire           `json:"params"`
	Config *CaseStudyConfigWire `json:"config,omitempty"`
}

type caseStudyResponse struct {
	Result CaseStudyResultWire `json:"result"`
}

var v1CaseStudy = v1Route[caseStudyRequest]{
	toQuery: func(_ *http.Request, req *caseStudyRequest) (query.Query, *Error) {
		return query.Query{Kind: query.KindCaseStudy, Params: &req.Params, Config: req.Config, Workers: req.Params.Workers}, nil
	},
	failStatus: http.StatusBadRequest,
	respond:    func(rs *query.ResultSet) any { return caseStudyResponse{Result: *rs.Results[0].CaseStudy} },
}

// ---- POST /v1/sweep/{pathloss,thresholds,payload} ----

type pathLossSweepRequest struct {
	Params ParamsWire `json:"params"`
	// Losses is the path-loss grid in dB (default: 55..95 in 0.5 dB
	// steps, the case-study population).
	Losses []Float `json:"losses,omitempty"`
}

type pathLossSweepResponse struct {
	Curves []query.EnergyCurveWire `json:"curves"`
}

type thresholdsResponse struct {
	Thresholds []query.ThresholdWire `json:"thresholds"`
}

type payloadSweepRequest struct {
	Params ParamsWire `json:"params"`
	// Sizes is the payload grid in bytes (default: the Fig. 8 grid,
	// 5..123).
	Sizes []int `json:"sizes,omitempty"`
}

// v1LossSweep is the translator of the two path-loss sweep routes. The loss
// list travels as Direct.Losses, the one Direct field, because v1 never ran
// its grids through the v2 Axis checks (a "NaN" loss is computed, not
// rejected).
func v1LossSweep(kind query.Kind, respond func(rs *query.ResultSet) any) v1Route[pathLossSweepRequest] {
	return v1Route[pathLossSweepRequest]{
		toQuery: func(_ *http.Request, req *pathLossSweepRequest) (query.Query, *Error) {
			if len(req.Losses) > query.MaxGridPoints {
				return query.Query{}, &Error{Field: "losses", Message: "grid too large (" + strconv.Itoa(len(req.Losses)) + " points)"}
			}
			losses := query.DefaultLossGrid()
			if len(req.Losses) > 0 {
				losses = wire.Float64s(req.Losses)
			}
			return query.Query{Kind: kind, Params: &req.Params, Workers: req.Params.Workers, Direct: &query.Direct{Losses: losses}}, nil
		},
		failStatus: http.StatusBadRequest,
		respond:    respond,
	}
}

var (
	v1SweepPathLoss = v1LossSweep(query.KindPathLossSweep, func(rs *query.ResultSet) any {
		return pathLossSweepResponse{Curves: rs.Results[0].Curves}
	})
	v1SweepThresholds = v1LossSweep(query.KindThresholds, func(rs *query.ResultSet) any {
		return thresholdsResponse{Thresholds: rs.Results[0].Thresholds}
	})
)

var v1SweepPayload = v1Route[payloadSweepRequest]{
	toQuery: func(_ *http.Request, req *payloadSweepRequest) (query.Query, *Error) {
		sizes := req.Sizes
		if len(sizes) == 0 {
			sizes = query.DefaultPayloadSizes()
		}
		if len(sizes) > query.MaxGridPoints {
			return query.Query{}, &Error{Field: "sizes", Message: "grid too large"}
		}
		return query.Query{Kind: query.KindPayloadSweep, Params: &req.Params, Workers: req.Params.Workers, Payloads: &query.IntAxis{Values: sizes}}, nil
	},
	failStatus: http.StatusBadRequest,
	respond:    func(rs *query.ResultSet) any { return rs.Results[0].Payload },
}

// ---- POST /v1/simulate ----

type simulateRequest struct {
	Config *SimConfigWire `json:"config,omitempty"`
	// Replicas is the number of independent replications merged into the
	// confidence statistics (default 1).
	Replicas int `json:"replicas,omitempty"`
	// Workers is the requested parallelism (clamped to the server pool).
	Workers int `json:"workers,omitempty"`
}

// simulateResponse is the v1 replicas body: ReplicaSummaryWire's fields
// with the per-replica results between the seeds and the statistics.
type simulateResponse struct {
	Replicas int             `json:"replicas"`
	Seeds    []int64         `json:"seeds"`
	Results  []SimResultWire `json:"results"`

	AvgPowerUW    ReplicaStatWire `json:"avg_power_uw"`
	DeliveryRatio ReplicaStatWire `json:"delivery_ratio"`
	PrFail        ReplicaStatWire `json:"pr_fail"`
	PrCF          ReplicaStatWire `json:"pr_cf"`
	PrCol         ReplicaStatWire `json:"pr_col"`
	NCCA          ReplicaStatWire `json:"ncca"`
	TcontMS       ReplicaStatWire `json:"tcont_ms"`
	MeanDelayMS   ReplicaStatWire `json:"mean_delay_ms"`
}

var v1Simulate = v1Route[simulateRequest]{
	toQuery: func(_ *http.Request, req *simulateRequest) (query.Query, *Error) {
		// v1 reports a bad configuration ahead of a bad replica count.
		if _, aerr := req.Config.Config(); aerr != nil {
			return query.Query{}, aerr
		}
		if req.Replicas < 0 || req.Replicas > query.MaxReplicas {
			return query.Query{}, &Error{Field: "replicas", Message: "replicas outside 0.." + strconv.Itoa(query.MaxReplicas)}
		}
		// v1 always answers with across-replica statistics, so a lone
		// simulation is a one-replica plan.
		return query.Query{Kind: query.KindReplicas, Sim: req.Config, Replicas: max(req.Replicas, 1), Workers: req.Workers}, nil
	},
	failStatus: http.StatusServiceUnavailable,
	respond: func(rs *query.ResultSet) any {
		sum := rs.Summary
		resp := simulateResponse{
			Replicas:      sum.Replicas,
			Seeds:         sum.Seeds,
			Results:       make([]SimResultWire, len(rs.Results)),
			AvgPowerUW:    sum.AvgPowerUW,
			DeliveryRatio: sum.DeliveryRatio,
			PrFail:        sum.PrFail,
			PrCF:          sum.PrCF,
			PrCol:         sum.PrCol,
			NCCA:          sum.NCCA,
			TcontMS:       sum.TcontMS,
			MeanDelayMS:   sum.MeanDelayMS,
		}
		for i := range rs.Results {
			resp.Results[i] = *rs.Results[i].Sim
		}
		return resp
	},
}

// ---- GET /v1/experiments, POST /v1/experiments/{name} ----

type experimentInfo struct {
	Name        string `json:"name"`
	Title       string `json:"title"`
	Description string `json:"description"`
}

type experimentListResponse struct {
	Experiments []experimentInfo `json:"experiments"`
}

type experimentRunRequest struct {
	// Quick shrinks grids and Monte-Carlo runs as in ExperimentOpts.
	Quick bool `json:"quick,omitempty"`
	// Seed drives all randomized components (default 2005).
	Seed *int64 `json:"seed,omitempty"`
	// Workers is the requested parallelism (clamped to the server pool).
	Workers int `json:"workers,omitempty"`
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	all := experiments.All()
	resp := experimentListResponse{Experiments: make([]experimentInfo, len(all))}
	for i, e := range all {
		resp.Experiments[i] = experimentInfo{Name: e.Name, Title: e.Title, Description: e.Description}
	}
	writeJSON(w, http.StatusOK, resp)
}

var v1ExperimentRun = v1Route[experimentRunRequest]{
	noun:  "experiment",
	known: func(name string) bool { _, ok := experiments.ByName(name); return ok },
	toQuery: func(r *http.Request, req *experimentRunRequest) (query.Query, *Error) {
		return query.Query{Kind: query.KindExperiment, Experiment: r.PathValue("name"), Quick: req.Quick, Seed: req.Seed, Workers: req.Workers}, nil
	},
	failStatus: http.StatusInternalServerError,
	respond:    func(rs *query.ResultSet) any { return rs.Results[0].Experiment },
}

// ---- GET /v1/scenarios, GET and POST /v1/scenarios/{name} ----

type scenarioListResponse struct {
	Scenarios []scenario.Scenario `json:"scenarios"`
}

func (s *Server) handleScenarioList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, scenarioListResponse{Scenarios: scenario.Catalog()})
}

// The GET form serves the committed golden result — the pinned cross-model
// outcome this build ships — without computing anything.
func (s *Server) handleScenarioGolden(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	b, ok := scenario.Golden(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scenario "+name, "name")
		return
	}
	writeJSONBytes(w, b)
}

type scenarioRunRequest struct {
	// Workers is the requested parallelism (clamped to the server pool;
	// results never depend on it).
	Workers int `json:"workers,omitempty"`
	// Diff additionally scores the fresh run against the committed golden.
	Diff bool `json:"diff,omitempty"`
}

var v1ScenarioRun = v1Route[scenarioRunRequest]{
	noun:  "scenario",
	known: func(name string) bool { _, ok := scenario.ByName(name); return ok },
	toQuery: func(r *http.Request, req *scenarioRunRequest) (query.Query, *Error) {
		return query.Query{Kind: query.KindScenario, Scenario: r.PathValue("name"), Diff: req.Diff, Workers: req.Workers}, nil
	},
	failStatus: http.StatusInternalServerError,
	respond:    func(rs *query.ResultSet) any { return rs.Results[0].Scenario },
}
