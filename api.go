package dense802154

import (
	"context"
	"net/http"

	"dense802154/internal/contention"
	"dense802154/internal/core"
	"dense802154/internal/engine"
	"dense802154/internal/experiments"
	"dense802154/internal/netsim"
	"dense802154/internal/phy"
	"dense802154/internal/query"
	"dense802154/internal/radio"
	"dense802154/internal/scenario"
	"dense802154/internal/service"
	"dense802154/internal/stats"
	"dense802154/internal/units"
)

// Re-exported model types. Params configures one evaluation of the paper's
// analytical model; Metrics is its output.
type (
	Params            = core.Params
	Metrics           = core.Metrics
	Breakdown         = core.Breakdown
	StateTimes        = core.StateTimes
	CaseStudyConfig   = core.CaseStudyConfig
	CaseStudyResult   = core.CaseStudyResult
	Threshold         = core.Threshold
	EnergyCurve       = core.EnergyCurve
	ImprovementResult = core.ImprovementResult
)

// Re-exported radio types.
type (
	Radio   = radio.Characterization
	TXLevel = radio.TXLevel
	Power   = units.Power
	Energy  = units.Energy
)

// Re-exported contention and simulation types.
type (
	ContentionConfig = contention.Config
	ContentionResult = contention.Result
	ContentionStats  = contention.Stats
	SimConfig        = netsim.Config
	SimResult        = netsim.Result
	SimReplicaSet    = netsim.ReplicaSet
	ReplicaStat      = netsim.ReplicaStat
	Experiment       = experiments.Experiment
	ExperimentOpts   = experiments.Options
	Table            = stats.Table
	CacheStats       = engine.CacheStats
)

// Re-exported unified-query types: one declarative, versioned request type
// over the model, the simulator, the sweeps and the scenario catalog. A
// Query names an operating point (or a grid of them) and a kind selecting
// what to compute; Run returns one tagged ResultSet. The wire-facing spec
// types (QueryParams and friends) mirror the JSON the HTTP v2 endpoints
// accept, so an in-process Query literal and a POST /v2/query body are the
// same vocabulary.
type (
	Query        = query.Query
	QueryKind    = query.Kind
	QueryAxis    = query.Axis
	QueryIntAxis = query.IntAxis
	ResultSet    = query.ResultSet
	TaskResult   = query.TaskResult

	QueryParams          = query.ParamsWire
	QueryContention      = query.ContentionWire
	QuerySuperframe      = query.SuperframeWire
	QueryCaseStudyConfig = query.CaseStudyConfigWire
	QuerySimConfig       = query.SimConfigWire
	ReplicaSummary       = query.ReplicaSummaryWire
)

// The query kinds, one per computation the repository offers.
const (
	KindEvaluate      = query.KindEvaluate
	KindBatch         = query.KindBatch
	KindCaseStudy     = query.KindCaseStudy
	KindPathLossSweep = query.KindPathLossSweep
	KindPayloadSweep  = query.KindPayloadSweep
	KindThresholds    = query.KindThresholds
	KindSimulate      = query.KindSimulate
	KindReplicas      = query.KindReplicas
	KindScenario      = query.KindScenario
	KindExperiment    = query.KindExperiment
)

// Run validates q, compiles it to a deterministic execution plan and runs
// the plan on the shared engine worker pool (q.Workers goroutines, 0 ⇒
// NumCPU). Results are bit-identical at any worker count and byte-stable
// across runs (ResultSet.Encode); a canceled ctx stops the plan promptly
// with ctx.Err(). Validation failures return a field-scoped *query.Error.
//
// Run is the single entry point the rest of the public surface is built
// on: the classic facade functions below are thin wrappers over it, the
// HTTP service exposes it as POST /v2/query, and cmd/wsn-query drives it
// from the command line.
func Run(ctx context.Context, q Query) (*ResultSet, error) { return query.Run(ctx, q) }

// RunStream is Run with per-task streaming: yield receives every
// TaskResult in plan order (batch elements, simulation replicas) as soon
// as it and its predecessors complete, while later tasks are still
// computing. A yield error cancels the remaining tasks and is returned.
// The full ResultSet — bit-identical to what Run returns — is assembled
// and returned once the plan drains.
func RunStream(ctx context.Context, q Query, yield func(TaskResult) error) (*ResultSet, error) {
	return query.RunStream(ctx, q, yield)
}

// AutoTXLevel requests link adaptation in Params.TXLevelIndex.
const AutoTXLevel = core.AutoTXLevel

// DefaultParams returns the paper's §5 case-study configuration: CC2420
// radio, eq. (1) bit-error model, Monte-Carlo contention source, BO=6,
// 120-byte packets at 43% load.
func DefaultParams() Params { return core.DefaultParams() }

// Evaluate runs the analytical model (eqs. 3-14). It is a thin wrapper
// over Run with a single-evaluation Query.
func Evaluate(p Params) (Metrics, error) {
	rs, err := Run(context.Background(), Query{
		Kind:    KindEvaluate,
		Workers: p.Workers,
		Direct:  &query.Direct{Params: &p},
	})
	if err != nil {
		return Metrics{}, err
	}
	return rs.Results[0].Metrics.Metrics(), nil
}

// EvaluateBatch evaluates many parameter sets concurrently on a worker pool
// and returns the metrics in input order. The pool is sized to the largest
// Params.Workers in the batch; if any element leaves Workers unset (≤ 0)
// the pool defaults to runtime.NumCPU(). Setting Workers = 1 on every
// element forces serial evaluation — the escape hatch for contention
// sources that are not safe for concurrent use.
//
// The batch is deterministic — identical to a serial loop of Evaluate at
// any parallelism — and a canceled ctx stops it promptly with ctx.Err().
// Contention statistics shared between elements are simulated once for the
// whole batch (see ContentionCacheReset to bound long-lived cache growth).
func EvaluateBatch(ctx context.Context, ps []Params) ([]Metrics, error) {
	workers := 1
	for _, p := range ps {
		if p.Workers < 1 {
			workers = 0 // an element asks for the NumCPU default
			break
		}
		if p.Workers > workers {
			workers = p.Workers
		}
	}
	rs, err := Run(ctx, Query{
		Kind:    KindBatch,
		Workers: workers,
		Direct:  &query.Direct{Batch: ps},
	})
	if err != nil {
		return nil, err
	}
	out := make([]Metrics, len(rs.Results))
	for i := range rs.Results {
		out[i] = rs.Results[i].Metrics.Metrics()
	}
	return out, nil
}

// ContentionCacheReset drops the process-wide memoized Monte-Carlo
// contention cache. Long-running services sweeping unbounded parameter
// spaces should call it between sweeps to bound memory — or install a
// standing bound with SetContentionCacheLimit.
func ContentionCacheReset() { contention.ResetCache() }

// SetContentionCacheLimit bounds the process-wide contention cache to at
// most n Monte-Carlo characterizations with least-recently-used eviction;
// n ≤ 0 removes the bound.
func SetContentionCacheLimit(n int) { contention.SetCacheLimit(n) }

// ContentionCacheStats snapshots the contention cache's hit/miss/eviction
// counters and current size.
func ContentionCacheStats() CacheStats { return contention.CacheStats() }

// OptimalTXLevel picks the energy-optimal transmit level for p's path loss
// (channel-inversion link adaptation).
func OptimalTXLevel(p Params) (int, error) { return core.OptimalTXLevel(p) }

// Thresholds locates the link-adaptation switching path losses (Fig. 7).
func Thresholds(p Params, losses []float64) ([]Threshold, error) {
	return ThresholdsCtx(context.Background(), p, losses)
}

// ThresholdsCtx is Thresholds with cancellation. It wraps Run with a
// thresholds Query.
func ThresholdsCtx(ctx context.Context, p Params, losses []float64) ([]Threshold, error) {
	rs, err := Run(ctx, Query{
		Kind:    KindThresholds,
		Workers: p.Workers,
		Direct:  &query.Direct{Params: &p, Losses: losses},
	})
	if err != nil {
		return nil, err
	}
	return rs.Results[0].Value().([]Threshold), nil
}

// EnergyVsPathLoss evaluates energy per bit across a path-loss grid for
// every transmit level (the Fig. 7 curve family).
func EnergyVsPathLoss(p Params, losses []float64) ([]EnergyCurve, error) {
	return EnergyVsPathLossCtx(context.Background(), p, losses)
}

// EnergyVsPathLossCtx is EnergyVsPathLoss with cancellation. It wraps Run
// with a pathloss-sweep Query.
func EnergyVsPathLossCtx(ctx context.Context, p Params, losses []float64) ([]EnergyCurve, error) {
	rs, err := Run(ctx, Query{
		Kind:    KindPathLossSweep,
		Workers: p.Workers,
		Direct:  &query.Direct{Params: &p, Losses: losses},
	})
	if err != nil {
		return nil, err
	}
	return rs.Results[0].Value().([]EnergyCurve), nil
}

// AdaptationSavings reports the energy saved by link adaptation versus
// always transmitting at full power.
func AdaptationSavings(p Params, lossDB float64) (float64, error) {
	return core.AdaptationSavings(p, lossDB)
}

// EnergyVsPayload evaluates energy per bit across payload sizes (Fig. 8).
func EnergyVsPayload(p Params, sizes []int) (stats.Series, error) {
	return EnergyVsPayloadCtx(context.Background(), p, sizes)
}

// EnergyVsPayloadCtx is EnergyVsPayload with cancellation. It wraps Run
// with a payload-sweep Query.
func EnergyVsPayloadCtx(ctx context.Context, p Params, sizes []int) (stats.Series, error) {
	rs, err := Run(ctx, Query{
		Kind:    KindPayloadSweep,
		Workers: p.Workers,
		Direct:  &query.Direct{Params: &p, Payloads: sizes},
	})
	if err != nil {
		return stats.Series{}, err
	}
	return rs.Results[0].Value().(stats.Series), nil
}

// OptimalPayload reports the energy-optimal payload size.
func OptimalPayload(p Params, step int) (int, float64, error) {
	return core.OptimalPayload(p, step)
}

// DefaultCaseStudy returns the paper's 1600-node scenario.
func DefaultCaseStudy() CaseStudyConfig { return core.DefaultCaseStudy() }

// RunCaseStudy integrates the model over the path-loss population (§5).
func RunCaseStudy(p Params, cfg CaseStudyConfig) (CaseStudyResult, error) {
	return RunCaseStudyCtx(context.Background(), p, cfg)
}

// RunCaseStudyCtx is RunCaseStudy with cancellation: a canceled ctx stops
// the population sweep promptly with ctx.Err(). It wraps Run with a
// casestudy Query.
func RunCaseStudyCtx(ctx context.Context, p Params, cfg CaseStudyConfig) (CaseStudyResult, error) {
	rs, err := Run(ctx, Query{
		Kind:    KindCaseStudy,
		Workers: p.Workers,
		Direct:  &query.Direct{Params: &p, CaseStudy: &cfg},
	})
	if err != nil {
		return CaseStudyResult{}, err
	}
	return rs.Results[0].Value().(CaseStudyResult), nil
}

// EvaluateImprovements runs the §5 radio-architecture ablations.
func EvaluateImprovements(p Params, cfg CaseStudyConfig) (ImprovementResult, error) {
	return core.EvaluateImprovements(p, cfg, core.DefaultImprovements())
}

// CC2420 returns the paper's measured radio characterization (Fig. 3).
func CC2420() *Radio { return radio.CC2420() }

// Eq1BER is the paper's measured bit-error regression (eq. 1).
var Eq1BER = phy.Eq1

// SimulateContention runs the Monte-Carlo slotted CSMA/CA characterization
// (the methodology behind Fig. 6).
func SimulateContention(cfg ContentionConfig) ContentionResult {
	return contention.Simulate(cfg)
}

// Simulate runs the cycle-accurate discrete-event network simulation. It
// wraps Run with a simulate Query.
func Simulate(cfg SimConfig) SimResult {
	rs, err := Run(context.Background(), Query{
		Kind:   KindSimulate,
		Direct: &query.Direct{Sim: &cfg},
	})
	if err != nil {
		// Unreachable with a background context (the simulator itself
		// cannot fail); keep the legacy direct path rather than panicking.
		return netsim.Run(cfg)
	}
	return rs.Results[0].Value().(SimResult)
}

// SimulateReplicas runs n independent replications of cfg concurrently on
// workers goroutines (0 ⇒ NumCPU) and merges them into across-replica mean
// and 95% confidence statistics. Replica 0 keeps cfg.Seed — a 1-replica
// run reproduces Simulate(cfg) — and the remaining seeds derive from it,
// so any replica count reuses the same random streams. A canceled ctx
// stops the batch promptly with ctx.Err(). It wraps Run with a replicas
// Query.
func SimulateReplicas(ctx context.Context, cfg SimConfig, n, workers int) (SimReplicaSet, error) {
	rs, err := Run(ctx, Query{
		Kind:     KindReplicas,
		Replicas: n,
		Workers:  workers,
		Direct:   &query.Direct{Sim: &cfg},
	})
	if err != nil {
		return SimReplicaSet{}, err
	}
	return rs.Value().(SimReplicaSet), nil
}

// Re-exported scenario-catalog types. A Scenario is a declarative
// operating point of the model/simulator space; ScenarioResult is the
// cross-model outcome the committed golden files pin byte for byte.
type (
	Scenario          = scenario.Scenario
	ScenarioResult    = scenario.Result
	ScenarioTolerance = scenario.Tolerance
	ScenarioDiff      = scenario.DiffReport
)

// Scenarios returns the committed cross-model scenario catalog: named
// operating points spanning sparse→dense networks, light→saturated traffic
// and short→long beacon intervals, each with declared analytic-vs-simulated
// agreement tolerances and a committed golden file.
func Scenarios() []Scenario { return scenario.Catalog() }

// ScenarioByName finds a catalog scenario.
func ScenarioByName(name string) (Scenario, bool) { return scenario.ByName(name) }

// RunScenario pushes one scenario through both the analytical model and
// the discrete-event simulator and scores their agreement. Results are
// bit-identical at any worker count (0 ⇒ NumCPU). It wraps Run with a
// scenario Query.
func RunScenario(ctx context.Context, sc Scenario, workers int) (*ScenarioResult, error) {
	rs, err := Run(ctx, Query{
		Kind:    KindScenario,
		Workers: workers,
		Direct:  &query.Direct{Scenario: &sc},
	})
	if err != nil {
		return nil, err
	}
	return rs.Results[0].Value().(*ScenarioResult), nil
}

// ScenarioGolden returns the committed golden-file bytes for a scenario.
func ScenarioGolden(name string) ([]byte, bool) { return scenario.Golden(name) }

// DiffScenario compares a fresh scenario result against its committed
// golden: byte-identical passes outright, otherwise per-metric drift is
// scored under the scenario's tolerances.
func DiffScenario(fresh *ScenarioResult) (ScenarioDiff, error) { return scenario.Diff(fresh) }

// Experiments lists the registered paper-artifact drivers.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment executes one driver by name (e.g. "fig6", "casestudy").
// It wraps Run with an experiment Query.
func RunExperiment(name string, opt ExperimentOpts) ([]*Table, error) {
	if _, ok := experiments.ByName(name); !ok {
		return nil, errUnknownExperiment(name)
	}
	rs, err := Run(context.Background(), Query{
		Kind:       KindExperiment,
		Experiment: name,
		Workers:    opt.Workers,
		Direct:     &query.Direct{ExperimentOpts: &opt},
	})
	if err != nil {
		return nil, err
	}
	return rs.Results[0].Value().([]*Table), nil
}

// ServeConfig configures the HTTP batch-evaluation service front-end (see
// internal/service for the endpoint list and wire formats).
type ServeConfig = service.Config

// NewHTTPHandler builds the HTTP JSON API exposing the whole model surface
// — the unified /v2/query endpoints plus the frozen per-endpoint v1 routes
// — with a server-wide worker pool, per-request deadlines and a bounded
// contention cache. Mount it on any http.Server; cmd/wsn-serve is the
// reference deployment.
func NewHTTPHandler(cfg ServeConfig) http.Handler { return service.NewServer(cfg) }

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "dense802154: unknown experiment " + string(e)
}
