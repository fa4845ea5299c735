package query

import (
	"context"
	"math"
	"slices"

	"dense802154/internal/battery"
	"dense802154/internal/lifetime"
	"dense802154/internal/netsim"
	"dense802154/internal/units"
)

// LifetimeWire parameterizes a network-lifetime query (kind lifetime) on
// top of the shared Sim base configuration. Every field is optional; the
// supply preset resolves first, then explicit battery fields override it.
type LifetimeWire struct {
	// Supply names a battery preset: "cr2032" (default), "aa" or
	// "harvester" (the paper's 100 µW scavenging budget, no finite cell).
	Supply string `json:"supply,omitempty"`
	// CapacityJ overrides the preset's usable battery energy in joules.
	CapacityJ *Float `json:"capacity_j,omitempty"`
	// SelfDischargePerYear overrides the preset's fractional charge loss
	// per year.
	SelfDischargePerYear *Float `json:"self_discharge_per_year,omitempty"`
	// HarvestUW overrides the preset's continuous scavenged power in µW.
	HarvestUW *Float `json:"harvest_uw,omitempty"`
	// ThresholdJ is the shutdown threshold in joules (default 0).
	ThresholdJ *Float `json:"threshold_j,omitempty"`
	// PartitionFrac is the alive fraction below which the network counts
	// as partitioned (default 0.5).
	PartitionFrac *Float `json:"partition_frac,omitempty"`
	// EpochSuperframes is the live-simulated superframes per sampled epoch
	// (default 16).
	EpochSuperframes *int `json:"epoch_superframes,omitempty"`
	// MaxEpochs bounds the live-simulated epochs per replica (default 512).
	MaxEpochs *int `json:"max_epochs,omitempty"`
	// HorizonHours optionally caps the covered network time.
	HorizonHours *Float `json:"horizon_hours,omitempty"`
}

// MaxLifetimeEpochSuperframes caps one epoch's live simulation length.
const MaxLifetimeEpochSuperframes = 10000

// MaxLifetimeEpochs caps the live-simulated epochs of one replica.
const MaxLifetimeEpochs = 100000

// Config materializes the wire form into a lifetime.Config over the given
// simulator base.
func (w *LifetimeWire) Config(sim netsim.Config) (lifetime.Config, *Error) {
	cfg := lifetime.Config{Sim: sim, Supply: battery.CoinCellCR2032()}
	if w == nil {
		return cfg, nil
	}
	switch w.Supply {
	case "", "cr2032":
		cfg.Supply = battery.CoinCellCR2032()
	case "aa":
		cfg.Supply = battery.AACell()
	case "harvester":
		cfg.Supply = battery.VibrationHarvester()
	default:
		return cfg, errf("lifetime.supply", "unknown supply %q (want cr2032, aa or harvester)", w.Supply)
	}
	if w.CapacityJ != nil {
		if v := float64(*w.CapacityJ); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return cfg, errf("lifetime.capacity_j", "%g not a finite non-negative capacity", v)
		}
		cfg.Supply.CapacityJ = float64(*w.CapacityJ)
	}
	if w.SelfDischargePerYear != nil {
		if v := float64(*w.SelfDischargePerYear); !(v >= 0 && v <= 1) { // also rejects NaN
			return cfg, errf("lifetime.self_discharge_per_year", "%g outside [0,1]", v)
		}
		cfg.Supply.SelfDischargePerYear = float64(*w.SelfDischargePerYear)
	}
	if w.HarvestUW != nil {
		if v := float64(*w.HarvestUW); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return cfg, errf("lifetime.harvest_uw", "%g not a finite non-negative power", v)
		}
		cfg.Supply.Harvest = units.Power(*w.HarvestUW) * units.MicroWatt
	}
	if w.ThresholdJ != nil {
		if v := float64(*w.ThresholdJ); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return cfg, errf("lifetime.threshold_j", "%g not a finite non-negative threshold", v)
		}
		cfg.ThresholdJ = float64(*w.ThresholdJ)
	}
	if w.PartitionFrac != nil {
		if v := float64(*w.PartitionFrac); !(v > 0 && v <= 1) { // also rejects NaN
			return cfg, errf("lifetime.partition_frac", "%g outside (0,1]", v)
		}
		cfg.PartitionFrac = float64(*w.PartitionFrac)
	}
	if w.EpochSuperframes != nil {
		if *w.EpochSuperframes < 1 || *w.EpochSuperframes > MaxLifetimeEpochSuperframes {
			return cfg, errf("lifetime.epoch_superframes", "%d outside 1..%d", *w.EpochSuperframes, MaxLifetimeEpochSuperframes)
		}
		cfg.EpochSuperframes = *w.EpochSuperframes
	}
	if w.MaxEpochs != nil {
		if *w.MaxEpochs < 1 || *w.MaxEpochs > MaxLifetimeEpochs {
			return cfg, errf("lifetime.max_epochs", "%d outside 1..%d", *w.MaxEpochs, MaxLifetimeEpochs)
		}
		cfg.MaxEpochs = *w.MaxEpochs
	}
	if w.HorizonHours != nil {
		if v := float64(*w.HorizonHours); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return cfg, errf("lifetime.horizon_hours", "%g not a finite non-negative horizon", v)
		}
		cfg.HorizonHours = float64(*w.HorizonHours)
	}
	return cfg, nil
}

// LifetimeCurvePointWire is one step of the alive-vs-time curve.
type LifetimeCurvePointWire struct {
	TimeS Float `json:"time_s"`
	Alive int   `json:"alive"`
}

// LifetimeResultWire is the JSON form of one lifetime.Result replica.
// Times travel in exact seconds ("+Inf" for never, per the wire.Float
// contract), so a summary merged from decoded shards is bit-identical to
// one merged in process.
type LifetimeResultWire struct {
	Seed  int64 `json:"seed"`
	Nodes int   `json:"nodes"`

	FirstDeathS Float `json:"first_death_s"`
	PartitionS  Float `json:"partition_s"`
	LastDeathS  Float `json:"last_death_s"`

	AliveAtEnd     int   `json:"alive_at_end"`
	AliveFracAtEnd Float `json:"alive_frac_at_end"`
	Deaths         int   `json:"deaths"`

	SimulatedS   Float `json:"simulated_s"`
	FastForwardS Float `json:"fast_forward_s"`
	Epochs       int   `json:"epochs"`
	Sustainable  bool  `json:"sustainable"`

	Curve []LifetimeCurvePointWire `json:"curve"`
}

// WireLifetimeResult converts to the wire form.
func WireLifetimeResult(r lifetime.Result) LifetimeResultWire {
	curve := make([]LifetimeCurvePointWire, len(r.Curve))
	for i, p := range r.Curve {
		curve[i] = wireCurvePoint(p)
	}
	return wireLifetimeResult(r, curve)
}

// wireCurvePoint converts one curve point to the wire form.
func wireCurvePoint(p lifetime.CurvePoint) LifetimeCurvePointWire {
	return LifetimeCurvePointWire{TimeS: Float(p.TimeS), Alive: p.Alive}
}

// wireLifetimeResult converts r to the wire form with curve, the wire form
// of its curve, in place of r.Curve.
func wireLifetimeResult(r lifetime.Result, curve []LifetimeCurvePointWire) LifetimeResultWire {
	return LifetimeResultWire{
		Seed:           r.Seed,
		Nodes:          r.Nodes,
		FirstDeathS:    Float(r.FirstDeathS),
		PartitionS:     Float(r.PartitionS),
		LastDeathS:     Float(r.LastDeathS),
		AliveAtEnd:     r.AliveAtEnd,
		AliveFracAtEnd: Float(r.AliveFracAtEnd),
		Deaths:         r.Deaths,
		SimulatedS:     Float(r.SimulatedS),
		FastForwardS:   Float(r.FastForwardS),
		Epochs:         r.Epochs,
		Sustainable:    r.Sustainable,
		Curve:          curve,
	}
}

// observables reconstructs the lifetime.Result scalars lifetime.Merge
// folds, exactly: the wire carries them in exact seconds. Every other
// field, the curve included, stays zero.
func (w *LifetimeResultWire) observables() lifetime.Result {
	return lifetime.Result{
		FirstDeathS:    float64(w.FirstDeathS),
		PartitionS:     float64(w.PartitionS),
		LastDeathS:     float64(w.LastDeathS),
		AliveFracAtEnd: float64(w.AliveFracAtEnd),
	}
}

// LifetimeSummaryWire is the across-replica statistics block of a lifetime
// query (the same merged statistics lifetime.RunReplicas reports, in
// hours).
type LifetimeSummaryWire struct {
	Replicas int     `json:"replicas"`
	Seeds    []int64 `json:"seeds"`

	FirstDeathHours ReplicaStatWire `json:"first_death_hours"`
	PartitionHours  ReplicaStatWire `json:"partition_hours"`
	LastDeathHours  ReplicaStatWire `json:"last_death_hours"`
	AliveFracAtEnd  ReplicaStatWire `json:"alive_frac_at_end"`
}

// WireLifetimeSummary converts a merged lifetime.ReplicaSet's statistics
// to the wire form.
func WireLifetimeSummary(rs lifetime.ReplicaSet) LifetimeSummaryWire {
	return LifetimeSummaryWire{
		Replicas:        rs.Replicas,
		Seeds:           rs.Seeds,
		FirstDeathHours: WireReplicaStat(rs.FirstDeathHours),
		PartitionHours:  WireReplicaStat(rs.PartitionHours),
		LastDeathHours:  WireReplicaStat(rs.LastDeathHours),
		AliveFracAtEnd:  WireReplicaStat(rs.AliveFracAtEnd),
	}
}

// buildLifetime compiles a lifetime query: one task per replica (each a
// full epoch-sampled lifetime run under its derived seed), merged into the
// across-replica summary — the same shape buildReplicas gives simulation
// replicas, so distributed sharding and the store work unchanged.
func (q *Query) buildLifetime() (exec, *Error) {
	simCfg, aerr := q.Sim.Config()
	if aerr != nil {
		return exec{}, aerr
	}
	lcfg, aerr := q.Lifetime.Config(simCfg)
	if aerr != nil {
		return exec{}, aerr
	}
	n, aerr := q.replicaCount()
	if aerr != nil {
		return exec{}, aerr
	}
	seeds := netsim.ReplicaSeeds(simCfg.Seed, n)
	// Resolved once per plan: the replicas share one default radio, BER
	// model and deployment instead of each run building its own.
	run := lcfg
	run.Sim = simCfg.WithDefaults()
	// Each run writes its curve straight into the wire form, in its slot's
	// curve segment.
	return exec{labels: indexLabels("lifetime", n), seeds: seeds, curveLen: run.CurvePoints(), run: func(_ context.Context, _, i int, slot payloads) (TaskResult, error) {
		c := run
		c.Sim.Seed = seeds[i]
		res, curve := lifetime.RunCurve(c, slot.curves, wireCurvePoint)
		slot.lifetimes[0] = wireLifetimeResult(res, curve)
		return TaskResult{Lifetime: &slot.lifetimes[0]}, nil
	}, assemble: func(rs *ResultSet) *Error {
		// The wire payloads carry the merged observables in exact seconds,
		// so the summary is lifetime.RunReplicas' own; no replica's curve is
		// rebuilt for it. Every execution gets its own copy of the seeds,
		// which the summary keeps.
		results := make([]lifetime.Result, len(rs.Results))
		for i := range rs.Results {
			if rs.Results[i].Lifetime == nil {
				return errf("results", "task %d carries no lifetime payload", i)
			}
			results[i] = rs.Results[i].Lifetime.observables()
		}
		summary := WireLifetimeSummary(lifetime.Merge(lcfg, slices.Clone(seeds), results))
		rs.LifetimeSummary = &summary
		return nil
	}}, nil
}
