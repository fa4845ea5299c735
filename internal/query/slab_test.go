package query

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"dense802154/internal/lifetime"
	"dense802154/internal/netsim"
)

// slabPayloads executes plan at the worker grant (Execute) or, with
// cuts set, through ExecuteRange over the shards [cuts[k], cuts[k+1]),
// and returns every task's result in plan order. Results are kept as
// handed out, so their payloads still point into each execution's slab.
func slabPayloads(t *testing.T, plan *Plan, workers int, cuts []int) []TaskResult {
	t.Helper()
	if cuts == nil {
		rs, err := plan.Execute(context.Background(), workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rs.Results
	}
	results := make([]TaskResult, plan.NumTasks())
	for k := 0; k+1 < len(cuts); k++ {
		err := plan.ExecuteRange(context.Background(), workers, cuts[k], cuts[k+1], func(tr TaskResult, _ float64) error {
			results[tr.Index] = tr
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return results
}

// slabRuns are the executions the carve tests compare: the whole plan at
// grants 1 and 4, and three uneven ExecuteRange shards, each with a slab
// sized to its range.
var slabRuns = []struct {
	name    string
	workers int
	cuts    []int
}{
	{"grant1", 1, nil},
	{"grant4", 4, nil},
	{"shards", 2, []int{0, 1, 4, 6}},
}

// TestReplicaSlabPayloads checks the replicas plan's slab carving: every
// task's Sim payload, written into its slot of the execution's slab, is the
// wire form of a fresh netsim.RunHeadline under that replica's seed,
// whatever the grant or shard.
func TestReplicaSlabPayloads(t *testing.T) {
	q := Query{Kind: KindReplicas, Sim: &SimConfigWire{Nodes: intPtr(10), Superframes: intPtr(2), Seed: int64Ptr(5)}, Replicas: 6}
	cfg, aerr := q.Sim.Config()
	if aerr != nil {
		t.Fatal(aerr)
	}
	seeds := netsim.ReplicaSeeds(cfg.Seed, q.Replicas)
	want := make([]SimResultWire, len(seeds))
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		want[i] = WireSimResult(s, netsim.RunHeadline(c))
	}
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range slabRuns {
		t.Run(run.name, func(t *testing.T) {
			for i, tr := range slabPayloads(t, plan, run.workers, run.cuts) {
				if tr.Sim == nil || !reflect.DeepEqual(*tr.Sim, want[i]) {
					t.Fatalf("replica %d: payload %+v, fresh run %+v", i, tr.Sim, want[i])
				}
			}
		})
	}
}

// slabLifetimeQuery is a lifetime query whose replicas stop after a few
// epochs, before every node has died, so their curves leave part of their
// segment unused.
func slabLifetimeQuery() Query {
	q := lifetimeTestQuery()
	q.Lifetime.MaxEpochs = intPtr(6)
	q.Replicas = 6
	return q
}

// TestLifetimeSlabPayloads is the lifetime twin of TestReplicaSlabPayloads:
// every task's Lifetime payload, its curve written into its slot's segment
// of the execution's curve buffer, is the wire form of a fresh
// lifetime.Run under that replica's seed.
func TestLifetimeSlabPayloads(t *testing.T) {
	q := slabLifetimeQuery()
	simCfg, aerr := q.Sim.Config()
	if aerr != nil {
		t.Fatal(aerr)
	}
	lcfg, aerr := q.Lifetime.Config(simCfg)
	if aerr != nil {
		t.Fatal(aerr)
	}
	seeds := netsim.ReplicaSeeds(simCfg.Seed, q.Replicas)
	want := make([]LifetimeResultWire, len(seeds))
	for i, s := range seeds {
		c := lcfg
		c.Sim.Seed = s
		want[i] = WireLifetimeResult(lifetime.Run(c))
	}
	plan, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range slabRuns {
		t.Run(run.name, func(t *testing.T) {
			for i, tr := range slabPayloads(t, plan, run.workers, run.cuts) {
				if tr.Lifetime == nil || !reflect.DeepEqual(*tr.Lifetime, want[i]) {
					t.Fatalf("lifetime replica %d: payload %+v, fresh run %+v", i, tr.Lifetime, want[i])
				}
			}
		})
	}
}

// TestLifetimeCurveSegmentsCapLimited shows that the replicas' curve
// segments, carved from one buffer, are cap-limited: appending to one
// replica's curve past its segment's end never writes into another's.
func TestLifetimeCurveSegmentsCapLimited(t *testing.T) {
	plan, err := Compile(slabLifetimeQuery())
	if err != nil {
		t.Fatal(err)
	}
	results := slabPayloads(t, plan, 2, nil)
	curves := make([][]LifetimeCurvePointWire, len(results))
	for i, tr := range results {
		curves[i] = slices.Clone(tr.Lifetime.Curve)
	}
	sentinel := LifetimeCurvePointWire{TimeS: -1, Alive: -1}
	for i := range results {
		lw := results[i].Lifetime
		kept := lw.Curve
		for len(lw.Curve) <= cap(kept) {
			lw.Curve = append(lw.Curve, sentinel)
		}
		for j := range results {
			if j != i && !slices.Equal(results[j].Lifetime.Curve, curves[j]) {
				t.Fatalf("appending to replica %d's curve changed replica %d's", i, j)
			}
		}
		lw.Curve = kept
	}
}
