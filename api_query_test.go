package dense802154_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dense802154"
	"dense802154/internal/channel"
	"dense802154/internal/contention"
	"dense802154/internal/core"
	"dense802154/internal/query"
	"dense802154/internal/store"
)

// quickP builds the typed twin of the spec body used throughout this file:
// default §5 params with a short Monte-Carlo contention run.
func quickP() dense802154.Params {
	p := dense802154.DefaultParams()
	p.Contention = contention.NewMCSource(contention.Config{Superframes: 8, Seed: 3})
	return p
}

const quickSpec = `{"contention":{"superframes":8,"seed":3}}`

// runBoth executes the JSON query in-process and over HTTP and asserts the
// two encodings are bit-identical before returning the in-process set.
func runBoth(t *testing.T, ts *httptest.Server, body string) *dense802154.ResultSet {
	t.Helper()
	var q dense802154.Query
	if err := json.Unmarshal([]byte(body), &q); err != nil {
		t.Fatal(err)
	}
	rs, err := dense802154.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := rs.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	httpBytes, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, httpBytes)
	}
	if !bytes.Equal(inproc, httpBytes) {
		t.Fatalf("in-process Run and /v2/query disagree:\n proc: %s\n http: %s", inproc, httpBytes)
	}
	return rs
}

// TestQueryKindsMatchFacades is the redesign's observational-equivalence
// gate at the public surface: for every query kind, an in-process Run of
// the declarative spec, the /v2/query HTTP response and the legacy facade
// function produce bit-identical results.
func TestQueryKindsMatchFacades(t *testing.T) {
	ts := httptest.NewServer(dense802154.NewHTTPHandler(dense802154.ServeConfig{Workers: 2}))
	defer ts.Close()
	ctx := context.Background()

	t.Run("evaluate", func(t *testing.T) {
		rs := runBoth(t, ts, `{"kind":"evaluate","params":`+quickSpec+`}`)
		m, err := dense802154.Evaluate(quickP())
		if err != nil {
			t.Fatal(err)
		}
		if *rs.Results[0].Metrics != query.WireMetrics(m) {
			t.Fatal("facade Evaluate deviates from the query result")
		}
	})

	t.Run("batch", func(t *testing.T) {
		rs := runBoth(t, ts, `{"kind":"batch","batch":[`+quickSpec+`,{"contention":{"superframes":8,"seed":3},"payload_bytes":60}]}`)
		p2 := quickP()
		p2.PayloadBytes = 60
		ms, err := dense802154.EvaluateBatch(ctx, []dense802154.Params{quickP(), p2})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range ms {
			if *rs.Results[i].Metrics != query.WireMetrics(m) {
				t.Fatalf("facade EvaluateBatch[%d] deviates from the query result", i)
			}
		}
	})

	t.Run("casestudy", func(t *testing.T) {
		rs := runBoth(t, ts, `{"kind":"casestudy","params":`+quickSpec+`,"config":{"loss_grid_points":11}}`)
		cfg := dense802154.DefaultCaseStudy()
		cfg.LossGridPoints = 11
		res, err := dense802154.RunCaseStudy(quickP(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*rs.Results[0].CaseStudy, query.WireCaseStudyResult(res)) {
			t.Fatal("facade RunCaseStudy deviates from the query result")
		}
	})

	t.Run("pathloss-sweep", func(t *testing.T) {
		rs := runBoth(t, ts, `{"kind":"pathloss-sweep","params":`+quickSpec+`,"losses":{"values":[60,75,90]}}`)
		curves, err := dense802154.EnergyVsPathLoss(quickP(), []float64{60, 75, 90})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]query.EnergyCurveWire, len(curves))
		for i, c := range curves {
			want[i] = query.WireEnergyCurve(c)
		}
		if !reflect.DeepEqual(rs.Results[0].Curves, want) {
			t.Fatal("facade EnergyVsPathLoss deviates from the query result")
		}
	})

	t.Run("thresholds", func(t *testing.T) {
		rs := runBoth(t, ts, `{"kind":"thresholds","params":`+quickSpec+`,"losses":{"from":60,"to":80,"points":11}}`)
		ths, err := dense802154.Thresholds(quickP(), channel.LossGrid(60, 80, 11))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]query.ThresholdWire, len(ths))
		for i, th := range ths {
			want[i] = query.WireThreshold(th)
		}
		if !reflect.DeepEqual(rs.Results[0].Thresholds, want) {
			t.Fatal("facade Thresholds deviates from the query result")
		}
	})

	t.Run("payload-sweep", func(t *testing.T) {
		rs := runBoth(t, ts, `{"kind":"payload-sweep","params":`+quickSpec+`,"payloads":{"values":[20,60,120]}}`)
		series, err := dense802154.EnergyVsPayload(quickP(), []int{20, 60, 120})
		if err != nil {
			t.Fatal(err)
		}
		want := query.WirePayloadSeries([]int{20, 60, 120}, series)
		if !reflect.DeepEqual(*rs.Results[0].Payload, want) {
			t.Fatal("facade EnergyVsPayload deviates from the query result")
		}
	})

	t.Run("simulate", func(t *testing.T) {
		rs := runBoth(t, ts, `{"kind":"simulate","sim":{"nodes":10,"superframes":4,"seed":7}}`)
		r := dense802154.Simulate(dense802154.SimConfig{Nodes: 10, Superframes: 4, Seed: 7})
		if !reflect.DeepEqual(*rs.Results[0].Sim, query.WireSimResult(7, r)) {
			t.Fatal("facade Simulate deviates from the query result")
		}
	})

	t.Run("replicas", func(t *testing.T) {
		rs := runBoth(t, ts, `{"kind":"replicas","sim":{"nodes":10,"superframes":4},"replicas":3}`)
		set, err := dense802154.SimulateReplicas(ctx, dense802154.SimConfig{Nodes: 10, Superframes: 4}, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := query.WireReplicaSummary(set)
		if !reflect.DeepEqual(*rs.Summary, want) {
			t.Fatal("facade SimulateReplicas deviates from the query summary")
		}
		for i, r := range set.Results {
			if !reflect.DeepEqual(*rs.Results[i].Sim, query.WireSimResult(set.Seeds[i], r)) {
				t.Fatalf("facade replica %d deviates from the query result", i)
			}
		}
	})

	t.Run("scenario", func(t *testing.T) {
		rs := runBoth(t, ts, `{"kind":"scenario","scenario":"sparse-idle"}`)
		sc, ok := dense802154.ScenarioByName("sparse-idle")
		if !ok {
			t.Fatal("catalog scenario missing")
		}
		res, err := dense802154.RunScenario(ctx, sc, 2)
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := rs.Results[0].Scenario.Result.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotB, wantB) {
			t.Fatal("facade RunScenario deviates from the query result")
		}
	})

	t.Run("experiment", func(t *testing.T) {
		rs := runBoth(t, ts, `{"kind":"experiment","experiment":"fig8","quick":true}`)
		tables, err := dense802154.RunExperiment("fig8", dense802154.ExperimentOpts{Quick: true, Seed: 2005, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rs.Results[0].Experiment.Tables, tables) {
			t.Fatal("facade RunExperiment deviates from the query result")
		}
	})
}

// TestRunStreamMatchesRun pins the public streaming contract: RunStream
// yields the exact TaskResults of the assembled set, in plan order.
func TestRunStreamMatchesRun(t *testing.T) {
	q := dense802154.Query{
		Kind:     dense802154.KindReplicas,
		Sim:      &dense802154.QuerySimConfig{Nodes: intp(8), Superframes: intp(3)},
		Replicas: 4,
		Workers:  2,
	}
	var order []int
	rs, err := dense802154.RunStream(context.Background(), q, func(tr dense802154.TaskResult) error {
		order = append(order, tr.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("streamed %d of 4", len(order))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("stream order %v not plan order", order)
		}
	}
	plain, err := dense802154.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := rs.Encode()
	b2, _ := plain.Encode()
	if !bytes.Equal(b1, b2) {
		t.Fatal("RunStream result deviates from Run")
	}
}

func intp(v int) *int { return &v }

// TestValueMatchesEvaluate pins the model value behind the kinds whose tasks
// carry a Metrics payload (evaluate, batch, grid). MetricsWire.Metrics
// derives core.Metrics from that payload, so it must be reflect.DeepEqual to
// core.Evaluate of the same point for a computed task, a store hit (decoded
// from stored bytes) and the facade output alike — for grid, whose facade is
// Run, the value behind each of Run's results.
func TestValueMatchesEvaluate(t *testing.T) {
	ctx := context.Background()
	seed := int64(3)
	spec := func(payload int) query.ParamsWire {
		return query.ParamsWire{Contention: &query.ContentionWire{Superframes: 8, Seed: &seed}, PayloadBytes: &payload}
	}
	point := func(payload int, loss float64) dense802154.Params {
		p := quickP()
		p.PayloadBytes = payload
		if loss != 0 {
			p.PathLossDB = loss
		}
		return p
	}
	values := func(rs *query.ResultSet) []any {
		out := make([]any, len(rs.Results))
		for i := range rs.Results {
			out[i] = rs.Results[i].Metrics.Metrics()
		}
		return out
	}
	evalSpec := spec(60)
	batch := []dense802154.Params{point(20, 0), point(100, 0)}
	var gridPoints []dense802154.Params
	for _, loss := range []float64{60, 80} {
		for _, payload := range []int{20, 100} {
			gridPoints = append(gridPoints, point(payload, loss))
		}
	}
	grid := query.Query{Kind: query.KindGrid, Params: &query.ParamsWire{Contention: &query.ContentionWire{Superframes: 8, Seed: &seed}},
		Losses: &query.Axis{Values: []query.Float{60, 80}}, Payloads: &query.IntAxis{Values: []int{20, 100}}}
	cases := []struct {
		name   string
		q      query.Query
		points []dense802154.Params
		facade func() ([]any, error)
	}{
		{"evaluate", query.Query{Kind: query.KindEvaluate, Params: &evalSpec}, []dense802154.Params{point(60, 0)}, func() ([]any, error) {
			m, err := dense802154.Evaluate(point(60, 0))
			return []any{m}, err
		}},
		{"batch", query.Query{Kind: query.KindBatch, Batch: []query.ParamsWire{spec(20), spec(100)}}, batch, func() ([]any, error) {
			ms, err := dense802154.EvaluateBatch(ctx, batch)
			out := make([]any, len(ms))
			for i, m := range ms {
				out[i] = m
			}
			return out, err
		}},
		{"grid", grid, gridPoints, func() ([]any, error) {
			rs, err := dense802154.Run(ctx, grid)
			if err != nil {
				return nil, err
			}
			return values(rs), nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			check := func(how string, got []any) {
				t.Helper()
				if len(got) != len(c.points) {
					t.Fatalf("%s: %d values for %d points", how, len(got), len(c.points))
				}
				for i, p := range c.points {
					want, err := core.Evaluate(p)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got[i], want) {
						t.Errorf("%s: metrics of task %d = %+v, core.Evaluate = %+v", how, i, got[i], want)
					}
				}
			}
			st, err := store.New(store.Config{})
			if err != nil {
				t.Fatal(err)
			}
			execute := func() *query.ResultSet {
				plan, err := query.Compile(c.q)
				if err != nil {
					t.Fatal(err)
				}
				plan.Store = st.Tasks(c.q)
				rs, err := plan.Execute(ctx, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				return rs
			}
			check("computed", values(execute()))
			hits := store.HitsTotal.Value()
			check("store hit", values(execute()))
			if d := store.HitsTotal.Value() - hits; d != uint64(len(c.points)) {
				t.Fatalf("second execution took %d store hits, want %d", d, len(c.points))
			}
			facade, err := c.facade()
			if err != nil {
				t.Fatal(err)
			}
			check("facade", facade)
		})
	}
}
