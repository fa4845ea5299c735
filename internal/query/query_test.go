package query

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dense802154/internal/core"
	"dense802154/internal/experiments"
	"dense802154/internal/netsim"
	"dense802154/internal/scenario"
)

// quickParams is a ParamsWire with a short Monte-Carlo run so tests finish
// fast.
func quickParams() *ParamsWire {
	seed := int64(3)
	return &ParamsWire{Contention: &ContentionWire{Superframes: 8, Seed: &seed}}
}

func TestAxisExplicitValues(t *testing.T) {
	a := &Axis{Values: []Float{55, 60.5, 95}}
	got, aerr := a.Grid("losses", nil)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if !reflect.DeepEqual(got, []float64{55, 60.5, 95}) {
		t.Fatalf("grid = %v", got)
	}
}

func TestAxisRangePointsMatchesLossGrid(t *testing.T) {
	from, to := Float(55), Float(95)
	points := 81
	a := &Axis{From: &from, To: &to, Points: &points}
	got, aerr := a.Grid("losses", nil)
	if aerr != nil {
		t.Fatal(aerr)
	}
	want := DefaultLossGrid()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("range axis does not reproduce the case-study grid: %d vs %d points", len(got), len(want))
	}
}

func TestAxisRangeStep(t *testing.T) {
	from, to, step := Float(1), Float(2), Float(0.25)
	a := &Axis{From: &from, To: &to, Step: &step}
	got, aerr := a.Grid("x", nil)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if !reflect.DeepEqual(got, []float64{1, 1.25, 1.5, 1.75, 2}) {
		t.Fatalf("grid = %v", got)
	}
}

// TestAxisRangeStepWalk: the step form holds exactly the points of the walk
// from, from+step, … that do not pass to, also where rounding puts the
// quotient of span and step one above (0..1.7 by 0.1) or one below
// (0..4.3 by 0.1) the walk's length.
func TestAxisRangeStepWalk(t *testing.T) {
	for _, c := range []struct{ from, to, step Float }{{0, 1.7, 0.1}, {0, 4.3, 0.1}, {0, 3.9, 1.3}, {50, 90, 0.7}} {
		var want []float64
		for i := 0; float64(c.from)+float64(i)*float64(c.step) <= float64(c.to); i++ {
			want = append(want, float64(c.from)+float64(i)*float64(c.step))
		}
		a := &Axis{From: &c.from, To: &c.to, Step: &c.step}
		got, aerr := a.Grid("x", nil)
		if aerr != nil {
			t.Fatal(aerr)
		}
		if !reflect.DeepEqual(got, want) || a.Len(0) != len(want) {
			t.Fatalf("%v..%v by %v: grid of %d points (Len %d), the walk has %d", c.from, c.to, c.step, len(got), a.Len(0), len(want))
		}
	}
}

// TestAxisRangeStepCap: the step form caps at MaxGridPoints points, like
// the points and values forms.
func TestAxisRangeStepCap(t *testing.T) {
	from, step := Float(0), Float(1)
	for _, c := range []struct {
		to     Float
		points int // 0: rejected
	}{
		{MaxGridPoints - 1, MaxGridPoints},
		{MaxGridPoints, 0},
	} {
		to := c.to
		got, aerr := (&Axis{From: &from, To: &to, Step: &step}).Grid("x", nil)
		if c.points == 0 {
			if aerr == nil {
				t.Fatalf("0..%g step 1 accepted with %d points", float64(to), len(got))
			}
			continue
		}
		if aerr != nil || len(got) != c.points {
			t.Fatalf("0..%g step 1: %d points, err %v; want %d", float64(to), len(got), aerr, c.points)
		}
	}
}

func TestAxisRejectsNonFinite(t *testing.T) {
	inf := Float(1)
	for _, a := range []*Axis{
		{Values: []Float{55, Float(nan())}},
		{From: &inf, To: floatPtr(infVal())},
		{From: floatPtr(-infVal()), To: &inf},
	} {
		if _, aerr := a.Grid("losses", nil); aerr == nil {
			t.Fatalf("axis %+v accepted non-finite input", a)
		}
	}
}

func TestAxisDefault(t *testing.T) {
	var a *Axis
	got, aerr := a.Grid("losses", DefaultLossGrid)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if !reflect.DeepEqual(got, DefaultLossGrid()) {
		t.Fatal("nil axis must select the default grid")
	}
}

func TestIntAxisRejectsOverflowingRanges(t *testing.T) {
	// Hostile endpoints near MaxInt used to wrap the count arithmetic
	// negative (panicking the slice allocation) or wrap the walk into an
	// endless loop; the magnitude bound must reject them cleanly.
	huge := int(^uint(0) >> 1) // MaxInt
	for _, a := range []*IntAxis{
		{From: intPtr(0), To: intPtr(huge)},
		{From: intPtr(0), To: intPtr(huge), Step: intPtr(1)},
		{From: intPtr(huge - 1), To: intPtr(huge), Step: intPtr(5)},
		{From: intPtr(-huge), To: intPtr(huge)},
		{From: intPtr(0), To: intPtr(10), Step: intPtr(huge)},
	} {
		if _, aerr := a.Grid("payloads", nil); aerr == nil {
			t.Fatalf("axis %+v accepted an overflowing range", a)
		}
	}
}

func TestIntAxisForms(t *testing.T) {
	from, to, step := 5, 11, 3
	a := &IntAxis{From: &from, To: &to, Step: &step}
	got, aerr := a.Grid("payloads", nil)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if !reflect.DeepEqual(got, []int{5, 8, 11}) {
		t.Fatalf("grid = %v", got)
	}
	if _, aerr := (&IntAxis{Values: []int{3}, From: &from}).Grid("payloads", nil); aerr == nil {
		t.Fatal("mixed forms must be rejected")
	}
}

func TestCompileRejectsUnknownKind(t *testing.T) {
	_, err := Compile(Query{Kind: "bogus"})
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.Field != "kind" {
		t.Fatalf("err = %v", err)
	}
	if _, err := Compile(Query{}); err == nil {
		t.Fatal("missing kind must be rejected")
	}
}

func TestCompileRejectsWrongVersion(t *testing.T) {
	_, err := Compile(Query{Version: 1, Kind: KindEvaluate})
	var aerr *Error
	if !errors.As(err, &aerr) || aerr.Field != "version" {
		t.Fatalf("err = %v", err)
	}
	if _, err := Compile(Query{Version: Version, Kind: KindSimulate}); err != nil {
		t.Fatalf("explicit current version rejected: %v", err)
	}
}

func TestCompileRejectsForeignFields(t *testing.T) {
	cases := []Query{
		{Kind: KindEvaluate, Replicas: 3},
		{Kind: KindEvaluate, Sim: &SimConfigWire{}},
		{Kind: KindSimulate, Params: &ParamsWire{}},
		{Kind: KindScenario, Scenario: "baseline-case-study", Quick: true},
		{Kind: KindBatch, Batch: []ParamsWire{{}}, Losses: &Axis{}},
		{Kind: KindExperiment, Experiment: "fig8", Diff: true},
	}
	for _, q := range cases {
		if _, err := Compile(q); err == nil {
			t.Fatalf("kind %s accepted a foreign field: %+v", q.Kind, q)
		}
	}
}

// kindTestQueries holds queries of every kind for the task-count check:
// each kind at its defaults, and the counted kinds over every axis form
// (values, points, float steps whose walk ends one point short of and one
// point past the quotient of span and step, integer steps, omitted axes)
// and replica count.
func kindTestQueries() []Query {
	var out []Query
	for _, k := range Kinds() {
		if k != KindBatch && k != KindScenario && k != KindExperiment { // each needs a field
			out = append(out, Query{Kind: k})
		}
	}
	return append(out,
		Query{Kind: KindScenario, Scenario: scenario.Catalog()[0].Name},
		Query{Kind: KindExperiment, Experiment: "fig4", Quick: true},
		Query{Kind: KindBatch, Batch: []ParamsWire{{}, {PayloadBytes: intPtr(60)}, {}}},
		Query{Kind: KindReplicas, Replicas: 1},
		Query{Kind: KindReplicas, Replicas: 7},
		Query{Kind: KindLifetime, Replicas: 5},
		Query{Kind: KindPathLossSweep, Losses: &Axis{From: floatp(55), To: floatp(90), Step: floatp(5)}},
		Query{Kind: KindPayloadSweep, Payloads: &IntAxis{From: intp(10), To: intp(100), Step: intp(7)}},
		Query{Kind: KindGrid, Losses: &Axis{From: floatp(0), To: floatp(1.7), Step: floatp(0.1)}},
		Query{Kind: KindGrid, Losses: &Axis{From: floatp(0), To: floatp(4.3), Step: floatp(0.1)}},
		Query{Kind: KindGrid, Losses: &Axis{From: floatp(50), To: floatp(90), Step: floatp(0.7)}, BOs: &IntAxis{From: intp(6), To: intp(10)}},
		Query{Kind: KindGrid, Losses: &Axis{From: floatp(50), To: floatp(90), Points: intp(20)},
			Payloads: &IntAxis{Values: []int{10, 20, 30}}, BOs: &IntAxis{From: intp(6), To: intp(12), Step: intp(3)},
			Nodes: &IntAxis{From: intp(5), To: intp(40), Step: intp(5)}},
		Query{Kind: KindGrid, Losses: &Axis{Values: []Float{55, 70}}, Nodes: &IntAxis{Values: []int{10, 50, 100}}},
	)
}

// TestNumTasksMatchesCompile: the task count a query reports without
// compiling is its compiled plan's, for every kind test query and every
// query the FuzzQueryDecode corpus decodes to.
func TestNumTasksMatchesCompile(t *testing.T) {
	check := func(q Query, mustCompile bool) {
		plan, err := Compile(q)
		if err != nil {
			if mustCompile {
				t.Fatalf("%s: %v", AppendQuery(nil, &q), err)
			}
			return
		}
		if got, want := q.NumTasks(), plan.NumTasks(); got != want {
			t.Errorf("%s: NumTasks %d, compiled plan %d", AppendQuery(nil, &q), got, want)
		}
	}
	for _, q := range append(kindTestQueries(), realQueries()...) {
		check(q, true)
	}
	for _, in := range append([]string{grid1000Body}, nonCanonicalQueries...) {
		var q Query
		if DecodeQuery([]byte(in), nil, &q) == nil {
			check(q, false)
		}
	}
}

func TestCompileValidatesEagerly(t *testing.T) {
	// An unknown name is rejected with every registered name, so the error
	// doubles as the listing.
	var scenarios, drivers []string
	for _, sc := range scenario.Catalog() {
		scenarios = append(scenarios, sc.Name)
	}
	for _, e := range experiments.All() {
		drivers = append(drivers, e.Name)
	}
	for _, c := range []struct {
		q    Query
		want []string // substrings the error must carry
	}{
		{q: Query{Kind: KindBatch}},                                         // empty batch
		{q: Query{Kind: KindEvaluate, Params: &ParamsWire{Radio: "bogus"}}}, // unknown radio
		{q: Query{Kind: KindScenario, Scenario: "no-such-scenario"}, want: append(scenarios, `"no-such-scenario"`)},       // unknown scenario
		{q: Query{Kind: KindExperiment, Experiment: "no-such-experiment"}, want: append(drivers, `"no-such-experiment"`)}, // unknown experiment
		{q: Query{Kind: KindReplicas, Replicas: MaxReplicas + 1}},                                                         // replica bound
		{q: Query{Kind: KindSimulate, Sim: &SimConfigWire{Nodes: intPtr(100001)}}},                                        // sim bound
	} {
		_, err := Compile(c.q)
		if err == nil {
			t.Fatalf("query %+v compiled", c.q)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("query %+v: error %q does not name %s", c.q, err, w)
			}
		}
	}
}

func TestEvaluateMatchesCore(t *testing.T) {
	// The spec path must agree with a hand-materialized core call — the
	// two go through different plumbing (plan task vs direct Evaluate).
	p, aerr := quickParams().Params(1, 1)
	if aerr != nil {
		t.Fatal(aerr)
	}
	want, err := core.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(context.Background(), Query{Kind: KindEvaluate, Params: quickParams(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Results[0].Metrics == nil {
		t.Fatal("wire payload missing")
	}
	got := rs.Results[0].Metrics.Metrics()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("query evaluate deviates from core.Evaluate:\n got %+v\nwant %+v", got, want)
	}
	if *rs.Results[0].Metrics != WireMetrics(want) {
		t.Fatal("wire payload deviates from WireMetrics of the core result")
	}
}

func TestReplicasMatchesRunReplicas(t *testing.T) {
	sim := &SimConfigWire{Nodes: intPtr(10), Superframes: intPtr(4)}
	cfg, aerr := sim.Config()
	if aerr != nil {
		t.Fatal(aerr)
	}
	want, err := netsim.RunReplicas(context.Background(), cfg, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(context.Background(), Query{Kind: KindReplicas, Sim: sim, Replicas: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Summary == nil || !reflect.DeepEqual(*rs.Summary, WireReplicaSummary(want)) {
		t.Fatalf("summary = %+v, netsim.RunReplicas = %+v", rs.Summary, WireReplicaSummary(want))
	}
	if len(rs.Results) != 3 {
		t.Fatalf("results = %d", len(rs.Results))
	}
	for i, r := range want.Results {
		if sim := rs.Results[i].Sim; sim == nil || !reflect.DeepEqual(*sim, WireSimResult(want.Seeds[i], r)) {
			t.Fatalf("replica %d deviates from netsim.RunReplicas", i)
		}
	}
}

// TestTraceBitIdentity pins the observability contract of Query.Trace: the
// trace reports the plan faithfully (task count, labels, replica seeds) and
// tracing never disturbs computed bytes — the Results of a traced run at
// any worker count are byte-identical to an untraced run's.
func TestTraceBitIdentity(t *testing.T) {
	base := Query{Kind: KindReplicas, Sim: &SimConfigWire{Nodes: intPtr(10), Superframes: intPtr(3)}, Replicas: 4}

	resultsJSON := func(rs *ResultSet) []byte {
		stripped := *rs
		stripped.Trace = nil
		b, err := stripped.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	plain, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced query returned a trace")
	}
	want := resultsJSON(plain)

	for _, workers := range []int{1, 4} {
		q := base
		q.Workers = workers
		q.Trace = true
		rs, err := Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultsJSON(rs); !bytes.Equal(got, want) {
			t.Fatalf("traced run at workers=%d changed result bytes", workers)
		}
		tr := rs.Trace
		if tr == nil {
			t.Fatalf("workers=%d: no trace on a traced query", workers)
		}
		if tr.Kind != KindReplicas || tr.Tasks != 4 || len(tr.Spans) != 4 {
			t.Fatalf("trace shape = kind %s tasks %d spans %d", tr.Kind, tr.Tasks, len(tr.Spans))
		}
		cfg, _ := base.Sim.Config()
		seeds := netsim.ReplicaSeeds(cfg.Seed, 4)
		for i, sp := range tr.Spans {
			if sp.Index != i || sp.Label != "replica["+strconv.Itoa(i)+"]" {
				t.Fatalf("span %d: index %d label %q", i, sp.Index, sp.Label)
			}
			if sp.Seed == nil || *sp.Seed != seeds[i] {
				t.Fatalf("span %d: seed %v, want %d", i, sp.Seed, seeds[i])
			}
			if sp.WallMS < 0 {
				t.Fatalf("span %d: negative wall time %v", i, sp.WallMS)
			}
		}
	}
}

func TestStreamYieldsPlanOrder(t *testing.T) {
	batch := make([]ParamsWire, 6)
	for i := range batch {
		pb := 20 + 10*i
		pw := *quickParams()
		pw.PayloadBytes = &pb
		batch[i] = pw
	}
	var streamed []int
	rs, err := RunStream(context.Background(), Query{Kind: KindBatch, Batch: batch, Workers: 4},
		func(tr TaskResult) error {
			streamed = append(streamed, tr.Index)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("streamed %d of %d", len(streamed), len(batch))
	}
	for i, idx := range streamed {
		if idx != i {
			t.Fatalf("stream order %v not plan order", streamed)
		}
	}
	// The streamed values and the assembled set are the same objects.
	for i := range rs.Results {
		if rs.Results[i].Index != i || rs.Results[i].Metrics == nil {
			t.Fatalf("result %d malformed", i)
		}
	}
}

func TestStreamYieldErrorCancels(t *testing.T) {
	batch := make([]ParamsWire, 8)
	for i := range batch {
		pw := *quickParams()
		batch[i] = pw
	}
	boom := errors.New("boom")
	_, err := RunStream(context.Background(), Query{Kind: KindBatch, Batch: batch, Workers: 2},
		func(tr TaskResult) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the yield error", err)
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Query{Kind: KindEvaluate, Params: quickParams()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestWorkerCountIndependence(t *testing.T) {
	q := Query{Kind: KindReplicas, Sim: &SimConfigWire{Nodes: intPtr(8), Superframes: intPtr(3)}, Replicas: 4}
	var bodies [][]byte
	for _, w := range []int{1, 3} {
		q.Workers = w
		rs, err := Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rs.Encode()
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	if string(bodies[0]) != string(bodies[1]) {
		t.Fatal("ResultSet bytes depend on the worker count")
	}
}

func TestEncodeByteStable(t *testing.T) {
	q := Query{Kind: KindEvaluate, Params: quickParams(), Workers: 1}
	rs1, err := Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := rs1.Encode()
	b2, _ := rs2.Encode()
	if string(b1) != string(b2) {
		t.Fatal("Encode is not byte-stable across runs")
	}
}

func intPtr(v int) *int         { return &v }
func floatPtr(v float64) *Float { f := Float(v); return &f }
func nan() float64              { return math.NaN() }
func infVal() float64           { return math.Inf(1) }
