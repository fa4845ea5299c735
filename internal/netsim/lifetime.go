package netsim

import (
	"time"
)

// This file is the simulator's lifetime seam: the epochs of a network whose
// nodes carry finite energy budgets. The orchestration above it — battery
// state, harvest and self-discharge accounting, steady-state fast-forward
// between epochs, replica aggregation — lives in internal/lifetime; netsim
// only knows how to run a population with some nodes dead and to kill the
// ones that exhaust their budget mid-epoch.
//
// One lifetime run binds one Epochs arena: a single Runner for all its
// epochs, with the deployment sampled by the first epoch and kept in the
// arena's nodes from then on. An epoch writes per-node energy into the
// caller's slice and hands back its deaths as a view of arena storage, and
// aggregates no Result, so it costs its DES work and nothing else.

// EpochSpec configures one lifetime epoch over the Epochs' Config.
type EpochSpec struct {
	// Epoch indexes the sampled epoch. Epoch 0 reuses the plain run's
	// traffic streams (epoch 0 with everyone alive simulates exactly what
	// Run does); later epochs re-root the per-node streams so each sampled
	// epoch draws fresh traffic randomness. The deployment — per-node
	// loss, TX level, PER — is a function of cfg.Seed alone and never
	// varies across epochs, so node i keeps its identity for life.
	Epoch int
	// Alive masks the population (len cfg.Nodes; nil = all alive). Dead
	// nodes exist in the deployment but never wake: they skip every
	// superframe, leave the contention population, and accrue no energy.
	// The mask is mutated in place: nodes that die mid-epoch flip false,
	// so the caller's mask is current when the epoch returns.
	Alive []bool
	// BudgetJ is each node's remaining radio energy in joules (len
	// cfg.Nodes; nil = unlimited). A non-busy node whose accrued energy
	// reaches its budget dies at that beacon.
	BudgetJ []float64
}

// NodeDeath records one mid-epoch death at a beacon instant.
type NodeDeath struct {
	Node int
	At   time.Duration
}

// Epochs is the epoch arena of one lifetime run: one Runner bound to one
// Config for every epoch of the run. The first epoch samples the
// deployment; later epochs reuse it from the arena, so a run pays deployment
// sampling once. Recycling stays behavior-free: epoch k on an arena that
// already ran earlier epochs equals epoch k on a fresh arena given the same
// mask and budgets. An Epochs is not safe for concurrent use.
type Epochs struct {
	r        *Runner
	cfg      Config
	deployed bool
}

// NewEpochs binds an arena from the Run pool to cfg. Release returns it.
func NewEpochs(cfg Config) *Epochs {
	return runnerPool.Get().(*Runner).epochs(cfg)
}

// epochs binds this arena to cfg for a sequence of lifetime epochs. The
// Runner must run nothing else until the last epoch: its nodes hold the
// deployment the epochs share.
func (r *Runner) epochs(cfg Config) *Epochs {
	return &Epochs{r: r, cfg: cfg.withDefaults()}
}

// Release hands the arena to the Run pool. The Epochs and any deaths view
// it returned must not be used afterwards.
func (ep *Epochs) Release() {
	runnerPool.Put(ep.r)
	ep.r = nil
}

// Run executes one epoch (see EpochSpec). It writes each node's radio
// energy spent this epoch into energyJ (len cfg.Nodes): zero for nodes dead
// at entry, the exact remaining budget for nodes that died mid-epoch (an
// exhausted battery spends precisely what it had), the ledger total for
// survivors. It returns the mid-epoch deaths in death order, as a view of
// arena storage valid until the next Run or Release.
func (ep *Epochs) Run(spec EpochSpec, energyJ []float64) []NodeDeath {
	ep.r.simulate(ep.cfg, &spec, ep.deployed)
	ep.deployed = true
	e := &ep.r.e
	for i := range e.nodes {
		energyJ[i] = 0
		if spec.Alive == nil || spec.Alive[i] {
			energyJ[i] = float64(e.nodes[i].dev.Ledger().TotalEnergy())
		}
	}
	if spec.BudgetJ != nil {
		for _, d := range e.deaths {
			energyJ[d.Node] = spec.BudgetJ[d.Node]
		}
	}
	return e.deaths
}
