package query

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"dense802154/internal/lifetime"
)

// lifetimeTestQuery drains a tiny battery over a small population so a full
// replica set completes in milliseconds.
func lifetimeTestQuery() Query {
	return Query{
		Kind: KindLifetime,
		Sim:  &SimConfigWire{Nodes: intPtr(6), Seed: int64Ptr(9)},
		Lifetime: &LifetimeWire{
			CapacityJ:        floatPtr(0.3),
			EpochSuperframes: intPtr(4),
			MaxEpochs:        intPtr(64),
		},
		Replicas: 3,
	}
}

func TestLifetimeMatchesRunReplicas(t *testing.T) {
	q := lifetimeTestQuery()
	simCfg, aerr := q.Sim.Config()
	if aerr != nil {
		t.Fatal(aerr)
	}
	lcfg, aerr := q.Lifetime.Config(simCfg)
	if aerr != nil {
		t.Fatal(aerr)
	}
	want, err := lifetime.RunReplicas(context.Background(), lcfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	q.Workers = 2
	rs, err := Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rs.LifetimeSummary == nil || !reflect.DeepEqual(*rs.LifetimeSummary, WireLifetimeSummary(want)) {
		t.Fatalf("lifetime summary = %+v, lifetime.RunReplicas = %+v", rs.LifetimeSummary, WireLifetimeSummary(want))
	}
	if rs.Summary != nil {
		t.Fatal("lifetime query must not carry the sim-replica summary")
	}
	if len(rs.Results) != 3 {
		t.Fatalf("results = %d", len(rs.Results))
	}
	for i, tr := range rs.Results {
		if tr.Lifetime == nil {
			t.Fatalf("task %d carries no lifetime payload", i)
		}
		if !reflect.DeepEqual(*tr.Lifetime, WireLifetimeResult(want.Results[i])) {
			t.Fatalf("task %d deviates from lifetime.RunReplicas", i)
		}
		if tr.Lifetime.Deaths == 0 {
			t.Fatalf("task %d: a 0.3 J battery network must lose nodes", i)
		}
	}
}

func TestLifetimeWorkerIndependence(t *testing.T) {
	encode := func(workers int) []byte {
		q := lifetimeTestQuery()
		q.Workers = workers
		rs, err := Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rs.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(encode(1), encode(4)) {
		t.Fatal("lifetime result bytes depend on the worker count")
	}
}

// TestLifetimeAssembleWireBitIdentity pins the distributed path: assembling
// a lifetime plan from wire payloads alone (as the coordinator does with
// remote shards) reproduces the locally-executed ResultSet byte for byte.
func TestLifetimeAssembleWireBitIdentity(t *testing.T) {
	q := lifetimeTestQuery()
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Shardable() {
		t.Fatal("a multi-replica lifetime plan must be shardable")
	}
	local, err := p.Execute(context.Background(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	wireOnly := make([]TaskResult, len(local.Results))
	for i, tr := range local.Results {
		wireOnly[i] = TaskResult{Index: tr.Index, Label: tr.Label, Lifetime: tr.Lifetime}
	}
	assembled, err := p.Assemble(wireOnly)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := local.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ab, err := assembled.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb, ab) {
		t.Fatal("wire-assembled lifetime ResultSet deviates from the local one")
	}
}

// TestLifetimeInfiniteTimesOnWire pins the +Inf contract end to end: a
// sustainable network's death times encode as "+Inf" strings and round-trip
// into an infinite across-replica mean.
func TestLifetimeInfiniteTimesOnWire(t *testing.T) {
	q := lifetimeTestQuery()
	q.Lifetime.Supply = "harvester"
	q.Lifetime.CapacityJ = nil
	q.Replicas = 2
	rs, err := Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"first_death_s":"+Inf"`)) {
		t.Fatalf("infinite first death not on the wire: %s", b)
	}
	if !math.IsInf(float64(rs.LifetimeSummary.FirstDeathHours.Mean), 1) {
		t.Fatalf("summary mean = %v, want +Inf", rs.LifetimeSummary.FirstDeathHours.Mean)
	}
	for _, tr := range rs.Results {
		if !tr.Lifetime.Sustainable {
			t.Fatal("harvester-only supply must report sustainable")
		}
	}
}

func TestLifetimeValidation(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Query)
		field string
	}{
		{"nan capacity", func(q *Query) { q.Lifetime.CapacityJ = floatPtr(math.NaN()) }, "lifetime.capacity_j"},
		{"negative capacity", func(q *Query) { q.Lifetime.CapacityJ = floatPtr(-1) }, "lifetime.capacity_j"},
		{"negative threshold", func(q *Query) { q.Lifetime.ThresholdJ = floatPtr(-0.5) }, "lifetime.threshold_j"},
		{"nan threshold", func(q *Query) { q.Lifetime.ThresholdJ = floatPtr(math.NaN()) }, "lifetime.threshold_j"},
		{"unknown supply", func(q *Query) { q.Lifetime.Supply = "fusion" }, "lifetime.supply"},
		{"partition frac zero", func(q *Query) { q.Lifetime.PartitionFrac = floatPtr(0) }, "lifetime.partition_frac"},
		{"partition frac above one", func(q *Query) { q.Lifetime.PartitionFrac = floatPtr(1.5) }, "lifetime.partition_frac"},
		{"nan partition frac", func(q *Query) { q.Lifetime.PartitionFrac = floatPtr(math.NaN()) }, "lifetime.partition_frac"},
		{"zero epoch superframes", func(q *Query) { q.Lifetime.EpochSuperframes = intPtr(0) }, "lifetime.epoch_superframes"},
		{"huge max epochs", func(q *Query) { q.Lifetime.MaxEpochs = intPtr(MaxLifetimeEpochs + 1) }, "lifetime.max_epochs"},
		{"negative harvest", func(q *Query) { q.Lifetime.HarvestUW = floatPtr(-10) }, "lifetime.harvest_uw"},
		{"infinite horizon", func(q *Query) { q.Lifetime.HorizonHours = floatPtr(math.Inf(1)) }, "lifetime.horizon_hours"},
		{"nan self discharge", func(q *Query) { q.Lifetime.SelfDischargePerYear = floatPtr(math.NaN()) }, "lifetime.self_discharge_per_year"},
		{"too many replicas", func(q *Query) { q.Replicas = MaxReplicas + 1 }, "replicas"},
		{"lifetime field on simulate", func(q *Query) { q.Kind = KindSimulate }, "lifetime"},
		{"params field on lifetime", func(q *Query) { q.Params = &ParamsWire{} }, "params"},
	}
	for _, tc := range cases {
		q := lifetimeTestQuery()
		tc.mut(&q)
		_, err := Compile(q)
		if err == nil {
			t.Errorf("%s: compiled", tc.name)
			continue
		}
		aerr, ok := err.(*Error)
		if !ok {
			t.Errorf("%s: unstructured error %v", tc.name, err)
			continue
		}
		if !strings.HasPrefix(aerr.Field, tc.field) {
			t.Errorf("%s: error field %q, want prefix %q", tc.name, aerr.Field, tc.field)
		}
	}
}

func int64Ptr(v int64) *int64 { return &v }
