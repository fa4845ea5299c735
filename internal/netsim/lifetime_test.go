package netsim

import (
	"reflect"
	"testing"
	"time"
)

func epochTestConfig() Config {
	return Config{Nodes: 12, Superframes: 6, Seed: 77}
}

// epochOut is everything one epoch reports, plus the Result the arena would
// aggregate from it — copied out, so later epochs on the arena cannot
// change it.
type epochOut struct {
	Result  Result
	EnergyJ []float64
	Deaths  []NodeDeath
}

// runEpoch runs spec on ep and collects the epoch's Result from the arena.
func runEpoch(ep *Epochs, spec EpochSpec) epochOut {
	energy := make([]float64, ep.cfg.Nodes)
	deaths := ep.Run(spec, energy)
	return epochOut{
		Result:  ep.r.e.collect(),
		EnergyJ: energy,
		Deaths:  append([]NodeDeath(nil), deaths...),
	}
}

// Epoch 0 with everyone alive and no budgets is the plain run: same
// traffic streams, same arena path, bit-identical Result. This is the
// invariant that lets lifetime runs share every netsim golden.
func TestRunEpochZeroMatchesRun(t *testing.T) {
	cfg := epochTestConfig()
	plain := Run(cfg)
	ep := NewEpochs(cfg)
	defer ep.Release()
	er := runEpoch(ep, EpochSpec{Epoch: 0})
	if !reflect.DeepEqual(plain, er.Result) {
		t.Fatalf("epoch 0 diverged from Run:\nplain: %+v\nepoch: %+v", plain, er.Result)
	}
	if len(er.Deaths) != 0 {
		t.Fatalf("unbudgeted epoch recorded %d deaths", len(er.Deaths))
	}
	var total float64
	for _, e := range er.EnergyJ {
		if e <= 0 {
			t.Fatal("alive node with non-positive epoch energy")
		}
		total += e
	}
	if agg := float64(plain.Ledger.TotalEnergy()); total < agg*0.999 || total > agg*1.001 {
		t.Fatalf("per-node energy sums to %v J, aggregate ledger says %v J", total, agg)
	}
}

// Later epochs re-root the traffic streams: same deployment, fresh
// randomness, still deterministic per (seed, epoch).
func TestRunEpochReroot(t *testing.T) {
	cfg := epochTestConfig()
	ep := NewEpochs(cfg)
	defer ep.Release()
	e0 := runEpoch(ep, EpochSpec{Epoch: 0})
	e1 := runEpoch(ep, EpochSpec{Epoch: 1})
	e1again := runEpoch(NewRunner().epochs(cfg), EpochSpec{Epoch: 1})
	if !reflect.DeepEqual(e1, e1again) {
		t.Fatal("epoch 1 is not deterministic")
	}
	if reflect.DeepEqual(e0.Result, e1.Result) {
		t.Fatal("epoch 1 reused epoch 0 traffic streams")
	}
}

// Exhausted budgets kill at beacon granularity: the mask flips in place,
// deaths arrive in time order, and a dead node's epoch energy is exactly
// the budget it had left.
func TestRunEpochBudgetKills(t *testing.T) {
	cfg := epochTestConfig()
	n := cfg.withDefaults().Nodes

	alive := make([]bool, n)
	budget := make([]float64, n)
	for i := range alive {
		alive[i] = true
		budget[i] = 1e-5 // microscopic: everyone dies at the second beacon
	}
	ep := NewEpochs(cfg)
	defer ep.Release()
	er := runEpoch(ep, EpochSpec{Epoch: 0, Alive: alive, BudgetJ: budget})
	if len(er.Deaths) != n {
		t.Fatalf("%d deaths, want the whole population (%d)", len(er.Deaths), n)
	}
	var last time.Duration
	for _, d := range er.Deaths {
		if d.At < last {
			t.Fatal("deaths out of time order")
		}
		last = d.At
		if alive[d.Node] {
			t.Fatalf("node %d died but mask still alive", d.Node)
		}
		if er.EnergyJ[d.Node] != budget[d.Node] {
			t.Fatalf("dead node %d energy %v, want its budget %v", d.Node, er.EnergyJ[d.Node], budget[d.Node])
		}
	}
}

// Nodes dead at entry never wake: zero energy, no traffic, and the
// survivors' run is deterministic under the shrunken contention population.
func TestRunEpochDeadAtEntry(t *testing.T) {
	cfg := epochTestConfig()
	n := cfg.withDefaults().Nodes

	mask := func() []bool {
		m := make([]bool, n)
		for i := range m {
			m[i] = i%2 == 0
		}
		return m
	}
	a, b := mask(), mask()
	r1 := runEpoch(NewRunner().epochs(cfg), EpochSpec{Epoch: 0, Alive: a})
	r2 := runEpoch(NewRunner().epochs(cfg), EpochSpec{Epoch: 0, Alive: b})
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("masked epoch is not deterministic")
	}
	for i := 0; i < n; i++ {
		if i%2 == 1 && r1.EnergyJ[i] != 0 {
			t.Fatalf("dead node %d accrued %v J", i, r1.EnergyJ[i])
		}
		if i%2 == 0 && r1.EnergyJ[i] <= 0 {
			t.Fatalf("alive node %d accrued no energy", i)
		}
	}
	full := runEpoch(NewRunner().epochs(cfg), EpochSpec{Epoch: 0})
	if full.Result.PacketsOffered <= r1.Result.PacketsOffered {
		t.Fatal("halving the population did not reduce offered traffic")
	}
}

// TestEpochsRecycleMatchesFresh extends the recycling contract to the
// cached deployment: epoch k on an arena that already ran epochs 0..k-1,
// with deaths along the way, equals epoch k on a fresh arena that samples
// the deployment itself, given the same mask and budgets.
func TestEpochsRecycleMatchesFresh(t *testing.T) {
	cfg := epochTestConfig()
	n := cfg.withDefaults().Nodes
	const k = 2

	// Budget node i for (i%4)+0.5 epochs of its unbudgeted epoch-0 draw:
	// a quarter of the population dies in each of epochs 0, 1 and 2.
	probe := runEpoch(NewRunner().epochs(cfg), EpochSpec{Epoch: 0})
	alive := make([]bool, n)
	budget := make([]float64, n)
	for i := range alive {
		alive[i] = true
		budget[i] = probe.EnergyJ[i] * (float64(i%4) + 0.5)
	}

	ep := NewEpochs(cfg)
	defer ep.Release()
	for epoch := 0; epoch < k; epoch++ {
		out := runEpoch(ep, EpochSpec{Epoch: epoch, Alive: alive, BudgetJ: budget})
		for i := range budget {
			budget[i] = max(0, budget[i]-out.EnergyJ[i])
		}
	}
	deadAtEntry := 0
	for _, a := range alive {
		if !a {
			deadAtEntry++
		}
	}
	if deadAtEntry == 0 {
		t.Fatalf("no node died in epochs 0..%d; the test needs deaths before epoch %d", k-1, k)
	}

	freshAlive := append([]bool(nil), alive...)
	freshBudget := append([]float64(nil), budget...)
	recycled := runEpoch(ep, EpochSpec{Epoch: k, Alive: alive, BudgetJ: budget})
	fresh := runEpoch(NewRunner().epochs(cfg), EpochSpec{Epoch: k, Alive: freshAlive, BudgetJ: freshBudget})
	if !reflect.DeepEqual(recycled, fresh) {
		t.Fatalf("epoch %d on a recycled arena diverges from a fresh one:\nrecycled: %+v\nfresh:    %+v", k, recycled, fresh)
	}
	if !reflect.DeepEqual(alive, freshAlive) {
		t.Fatal("recycled and fresh epochs left different alive masks")
	}
	if len(recycled.Deaths) == 0 {
		t.Fatalf("no node died in epoch %d; the test needs mid-epoch deaths", k)
	}
}
