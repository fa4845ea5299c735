// Package lifetime answers the question the paper's energy model exists
// for: how long does a dense 802.15.4 network actually live on finite
// batteries? It attaches a battery.Supply to every netsim node, integrates
// each node's radio energy epoch by epoch as the DES runs, kills nodes at
// a shutdown threshold (dead nodes leave the contention population, which
// changes the survivors' energy draw — exactly the coupling closed-form
// battery math cannot capture), and reports first-node-death time, the
// fraction-alive-vs-time curve, and the network partition time.
//
// Simulating months of radio time beacon by beacon would be hopeless, so
// the integrator samples: it live-simulates one epoch (a handful of
// superframes), treats the measured per-node power as the steady state,
// fast-forwards analytically to just before the next predicted death, and
// live-simulates again. Deaths therefore always happen inside a simulated
// epoch, at a beacon, under real contention — the fast-forward only skips
// stretches where the population (and hence the power profile) is
// provably static.
//
// A run binds one netsim.Epochs arena for all its epochs: one pooled
// simulator, with the deployment sampled by the first epoch and kept from
// then on. The run's per-node mask, battery, budget and energy slices are
// the arena's EpochState, and each epoch aggregates no netsim.Result, so a
// run allocates its curve and little else however many epochs it runs
// (TestLifetimeRunAllocBudget).
package lifetime

import (
	"math"
	"time"

	"dense802154/internal/battery"
	"dense802154/internal/netsim"
)

// Config describes one network-lifetime experiment.
type Config struct {
	// Sim is the base network configuration. Sim.Superframes is ignored —
	// the epoch length is EpochSuperframes — and Sim.Seed roots all
	// randomness (deployment fixed for life, traffic re-rooted per epoch).
	Sim netsim.Config

	// Supply is every node's energy source. The zero value defaults to
	// battery.CoinCellCR2032. A supply without a finite capacity
	// (CapacityJ <= 0 or non-finite) is unconstrained: no node can ever
	// die and the run reports Sustainable with infinite death times.
	Supply battery.Supply

	// ThresholdJ is the shutdown threshold: a node dies when its remaining
	// energy falls to this level (usable energy = CapacityJ - ThresholdJ).
	ThresholdJ float64

	// PartitionFrac is the alive fraction below which the network counts
	// as partitioned (default 0.5).
	PartitionFrac float64

	// EpochSuperframes is the number of live-simulated superframes per
	// sampled epoch (default 16).
	EpochSuperframes int

	// MaxEpochs bounds the number of live-simulated epochs (default 512).
	MaxEpochs int

	// HorizonHours optionally caps the covered (simulated + fast-forward)
	// time; 0 means run until the population or MaxEpochs is exhausted.
	HorizonHours float64
}

func (c Config) withDefaults() Config {
	c.Sim = c.Sim.WithDefaults()
	if c.Supply == (battery.Supply{}) {
		c.Supply = battery.CoinCellCR2032()
	}
	if c.ThresholdJ < 0 || math.IsNaN(c.ThresholdJ) {
		c.ThresholdJ = 0
	}
	if !(c.PartitionFrac > 0 && c.PartitionFrac <= 1) {
		c.PartitionFrac = 0.5
	}
	if c.EpochSuperframes <= 0 {
		c.EpochSuperframes = 16
	}
	if c.MaxEpochs <= 0 {
		c.MaxEpochs = 512
	}
	if c.HorizonHours < 0 || math.IsNaN(c.HorizonHours) {
		c.HorizonHours = 0
	}
	return c
}

// CurvePoint is one step of the fraction-alive-vs-time curve.
type CurvePoint struct {
	TimeS float64 // covered time of the step [s]
	Alive int     // population alive from this instant on
	Frac  float64 // Alive / Nodes
}

// Result is one lifetime run. All times are in seconds of covered
// (simulated + fast-forwarded) network time; +Inf means "never within
// this run" and survives the wire encoding exactly.
type Result struct {
	Config Config
	Seed   int64
	Nodes  int

	FirstDeathS float64 // time of the first node death (+Inf if none)
	PartitionS  float64 // first time alive fraction < PartitionFrac (+Inf if never)
	LastDeathS  float64 // time the whole population is dead (+Inf if survivors remain)

	AliveAtEnd     int
	AliveFracAtEnd float64
	Deaths         int

	SimulatedS   float64 // time covered by live DES epochs
	FastForwardS float64 // time skipped analytically between epochs
	Epochs       int     // live-simulated epochs
	Sustainable  bool    // harvest covered every survivor's drain at steady state

	// Curve is the alive-population step function: a leading point at
	// time 0 with everyone alive, then one point per death instant.
	Curve []CurvePoint
}

// Run executes one lifetime experiment. It is deterministic in
// cfg.Sim.Seed and bit-identical across pooled-arena reuse, like the
// netsim runs it is built from.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	n := cfg.Sim.Nodes
	epochCfg := cfg.Sim
	epochCfg.Superframes = cfg.EpochSuperframes
	epochDurS := (epochCfg.Superframe.BeaconInterval() * time.Duration(cfg.EpochSuperframes)).Seconds()

	res := Result{
		Config:      cfg,
		Seed:        cfg.Sim.Seed,
		Nodes:       n,
		FirstDeathS: math.Inf(1),
		PartitionS:  math.Inf(1),
		LastDeathS:  math.Inf(1),
		Curve:       make([]CurvePoint, 1, n+1),
	}
	res.Curve[0] = CurvePoint{TimeS: 0, Alive: n, Frac: 1}

	unconstrained := !(cfg.Supply.CapacityJ > 0) || math.IsInf(cfg.Supply.CapacityJ, 1)
	usable := cfg.Supply.CapacityJ - cfg.ThresholdJ
	harvestW := float64(cfg.Supply.Harvest)
	selfW := float64(cfg.Supply.SelfDischargeDrain())
	ambientW := harvestW - selfW // net non-radio power into each battery

	aliveCount := n

	die := func(atS float64) {
		aliveCount--
		res.Deaths++
		frac := float64(aliveCount) / float64(n)
		res.Curve = append(res.Curve, CurvePoint{TimeS: atS, Alive: aliveCount, Frac: frac})
		if math.IsInf(res.FirstDeathS, 1) {
			res.FirstDeathS = atS
		}
		if math.IsInf(res.PartitionS, 1) && frac < cfg.PartitionFrac {
			res.PartitionS = atS
		}
		if aliveCount == 0 {
			res.LastDeathS = atS
		}
	}

	if !unconstrained && usable <= 0 {
		// The threshold eats the whole battery: everyone is dead on
		// arrival. Degenerate but well-defined — no epoch ever runs.
		for i := 0; i < n; i++ {
			die(0)
		}
		finish(&res, aliveCount, n, 0, 0)
		return res
	}

	epochs := netsim.NewEpochs(epochCfg)
	defer epochs.Release()
	st := epochs.State() // arena storage, every node alive
	alive := st.Alive
	rem := st.RemJ       // remaining usable energy [J]
	budget := st.BudgetJ // the epoch's radio budget [J]
	energy := st.EnergyJ // radio energy spent in the last epoch [J]
	for i := range rem {
		rem[i] = usable
	}

	var t, simulatedS, fastForwardS float64
	horizonS := cfg.HorizonHours * 3600

	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		if aliveCount == 0 {
			break
		}
		if horizonS > 0 && t >= horizonS {
			break
		}

		spec := netsim.EpochSpec{Epoch: epoch, Alive: alive}
		if !unconstrained {
			// A node's radio may spend its remaining energy plus whatever
			// ambient flow (harvest minus self-discharge) arrives during
			// the epoch before the battery hits the threshold.
			for i := range budget {
				b := rem[i] + ambientW*epochDurS
				if b < 0 {
					b = 0
				}
				budget[i] = b
			}
			spec.BudgetJ = budget
		}

		deaths := epochs.Run(spec, energy)
		res.Epochs++
		simulatedS += epochDurS

		for _, d := range deaths {
			rem[d.Node] = 0
			die(t + d.At.Seconds())
		}

		if unconstrained {
			// Nothing can ever die; one epoch characterizes the steady
			// state and the network runs forever.
			t += epochDurS
			res.Sustainable = true
			break
		}

		// Settle the survivors' batteries for the epoch and catch any
		// death the beacon-granularity check missed (a node busy at the
		// last beacon): it dies at the epoch boundary.
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			rem[i] += ambientW*epochDurS - energy[i]
			if rem[i] > usable {
				rem[i] = usable // a battery cannot charge past full
			}
			if rem[i] <= 0 {
				rem[i] = 0
				alive[i] = false
				die(t + epochDurS)
			}
		}
		t += epochDurS
		if aliveCount == 0 {
			break
		}

		// Steady-state fast-forward: with the population unchanged, each
		// survivor's net drain is the epoch's measured radio power minus
		// the ambient flow. Skip analytically to one epoch before the
		// earliest predicted death, so the death itself is simulated live.
		minTT := math.Inf(1)
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			netW := energy[i]/epochDurS - ambientW
			if netW <= 0 {
				continue
			}
			if tt := rem[i] / netW; tt < minTT {
				minTT = tt
			}
		}
		if math.IsInf(minTT, 1) {
			// Every survivor's harvest covers its drain: the network as
			// it now stands runs forever.
			res.Sustainable = true
			break
		}
		skip := minTT - epochDurS
		if horizonS > 0 && t+skip > horizonS {
			skip = horizonS - t
		}
		if skip > 0 {
			for i := 0; i < n; i++ {
				if !alive[i] {
					continue
				}
				netW := energy[i]/epochDurS - ambientW
				rem[i] -= netW * skip
				if rem[i] > usable {
					rem[i] = usable
				}
			}
			t += skip
			fastForwardS += skip
		}
	}

	finish(&res, aliveCount, n, simulatedS, fastForwardS)
	return res
}

// finish closes every return path of Run: it fills the end-of-run fields
// and folds the run into the package counters.
func finish(res *Result, aliveCount, n int, simulatedS, fastForwardS float64) {
	res.AliveAtEnd = aliveCount
	res.AliveFracAtEnd = float64(aliveCount) / float64(n)
	res.SimulatedS = simulatedS
	res.FastForwardS = fastForwardS
	foldRunMetrics(res)
}
