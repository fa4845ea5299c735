// Package benchsuite holds the repository's tracked benchmark kernels: the
// serial/parallel engine pairs and the hot-path micro-benchmarks of the
// simulation cores, the result store and the 1,000-point grid plan.
//
// The table has two entry points that run the same bodies. cmd/wsn-bench
// runs it through testing.Benchmark and writes the JSON report the
// committed BENCH_*.json files hold; the root package's BenchmarkKernels
// runs it under `go test -bench 'Kernels/<name>'` for -count medians and
// -cpuprofile. Both reset the process-wide contention cache before each
// kernel.
package benchsuite

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"dense802154"
	"dense802154/internal/battery"
	"dense802154/internal/contention"
	"dense802154/internal/core"
	"dense802154/internal/des"
	"dense802154/internal/dist"
	"dense802154/internal/engine"
	"dense802154/internal/lifetime"
	"dense802154/internal/netsim"
	"dense802154/internal/query"
	"dense802154/internal/store"
)

// Kernel pairs a stable report name with the benchmark body.
type Kernel struct {
	Name string
	F    func(b *testing.B)
}

// Kernels returns the tracked benchmark set. quick shrinks the Monte-Carlo
// workloads so a smoke pass stays under a few seconds; quick and full runs
// list the same kernels in the same order but are not comparable to each
// other, only to runs of the same mode.
func Kernels(quick bool) []Kernel {
	mcSuperframes := 64
	fig6Superframes := 32
	fig6Payloads := []int{10, 20, 50, 100}
	if quick {
		mcSuperframes = 16
		fig6Superframes = 8
		fig6Payloads = []int{20, 100}
	}
	loads := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	if quick {
		loads = []float64{0.1, 0.4, 0.7}
	}

	// The *Serial/*Parallel pairs run the same workload at Workers=1 and
	// Workers=NumCPU; results are bit-identical, only the wall-clock
	// differs. Seeds vary per iteration and per variant so the shared
	// contention cache never serves a previously simulated point.
	caseStudy := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			cfg := dense802154.DefaultCaseStudy()
			for i := 0; i < b.N; i++ {
				p := dense802154.DefaultParams()
				p.Workers = workers
				p.Contention = contention.NewMCSource(contention.Config{
					Superframes: mcSuperframes,
					Seed:        int64(1_000_000*(workers+1) + i),
					Workers:     workers,
				})
				if _, err := dense802154.RunCaseStudy(p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	fig6 := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				base := contention.Config{
					Superframes: fig6Superframes,
					Seed:        int64(2_000_000*(workers+1) + i),
					Workers:     workers,
				}
				for _, L := range fig6Payloads {
					contention.BuildCurve(L, loads, base)
				}
			}
		}
	}

	return []Kernel{
		{"ContentionMC", func(b *testing.B) {
			// One Monte-Carlo superframe of the case-study channel.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				contention.Simulate(contention.Config{
					TargetLoad: 0.433, Superframes: 1, Seed: int64(i),
				})
			}
		}},
		{"ContentionMCShard", func(b *testing.B) {
			// One full 8-superframe shard: the unit of Monte-Carlo
			// parallelism.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				contention.Simulate(contention.Config{
					TargetLoad: 0.433, Superframes: 8, Seed: int64(i), Workers: 1,
				})
			}
		}},
		{"NetsimSuperframe", func(b *testing.B) {
			// One discrete-event superframe of the 100-node channel on the
			// pooled run path.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				netsim.Run(netsim.Config{Nodes: 100, Superframes: 1, Seed: int64(i)})
			}
		}},
		{"NetsimDense200", func(b *testing.B) {
			// The 200-node dense operating regime of the Fig. 6-8
			// surfaces: the scenario the indexed medium targets.
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				netsim.Run(netsim.Config{Nodes: 200, Superframes: 4, Seed: int64(i)})
			}
		}},
		{"NetsimReplicas8", func(b *testing.B) {
			// A whole dense replica sweep: every replica after a worker's
			// first reuses that worker's pooled arena, so this is where
			// run-state recycling shows up. Workers is pinned to 2 to keep
			// allocs/op machine-independent.
			b.ReportAllocs()
			cfg := netsim.Config{Nodes: 200, Superframes: 4}
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i)
				if _, err := netsim.RunReplicas(context.Background(), cfg, 8, 2); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"DESScheduleFire", func(b *testing.B) {
			// Typed-dispatch schedule→fire churn through the value heap.
			b.ReportAllocs()
			s := des.New(1)
			s.SetDispatcher(func(kind, actor int32, arg time.Duration) {})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ScheduleEvent(time.Duration(i%64)*time.Microsecond, 0, 0, 0)
				if i%64 == 63 {
					s.Run()
				}
			}
			s.Run()
		}},
		{"DESFastForward", func(b *testing.B) {
			// A pre-sorted sparse timeline — thousands of beacon-grid
			// instants with nothing between them — parked and drained in one
			// go: the idle fast-forward path of a lifetime run.
			b.ReportAllocs()
			s := des.New(1)
			s.SetDispatcher(func(kind, actor int32, arg time.Duration) {})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 4096; j++ {
					s.ScheduleEvent(time.Duration(j)*time.Millisecond, 0, 0, 0)
				}
				s.Run()
			}
		}},
		{"NetsimLifetime", func(b *testing.B) {
			// One full battery-lifetime integration: epoch-sampled DES with
			// steady-state fast-forward until the last node dies.
			b.ReportAllocs()
			cfg := lifetime.Config{
				Sim:              netsim.Config{Nodes: 8, Superframes: 1},
				Supply:           battery.Supply{CapacityJ: 0.5, SelfDischargePerYear: 0.01},
				EpochSuperframes: 4,
			}
			for i := 0; i < b.N; i++ {
				cfg.Sim.Seed = int64(i)
				lifetime.Run(cfg)
			}
		}},
		{"EngineRNG", func(b *testing.B) {
			b.ReportAllocs()
			r := engine.NewRNG(1)
			for i := 0; i < b.N; i++ {
				_ = r.Uint64()
			}
		}},
		{"ModelEvaluate", func(b *testing.B) {
			// One closed-form model evaluation, kept pure-analytical.
			b.ReportAllocs()
			p := dense802154.DefaultParams()
			p.Contention = contention.Approx{}
			p.TXLevelIndex = 7
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Evaluate(p); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"CaseStudySerial", caseStudy(1)},
		{"CaseStudyParallel", caseStudy(0)},
		{"Fig6ContentionSerial", fig6(1)},
		{"Fig6ContentionParallel", fig6(0)},
		{"StoreKey", func(b *testing.B) {
			// Content-key derivation: canonical encode + SHA-256, the fixed
			// per-query cost of every store lookup.
			b.ReportAllocs()
			q := storeBenchQuery()
			for i := 0; i < b.N; i++ {
				if _, ok := store.KeyFor(q); !ok {
					b.Fatal("query not keyable")
				}
			}
		}},
		{"StoreTaskHit", func(b *testing.B) {
			// Memory-tier task hit — the path a warm worker rides per task.
			b.ReportAllocs()
			st, err := store.New(store.Config{})
			if err != nil {
				b.Fatal(err)
			}
			key, _ := store.KeyFor(storeBenchQuery())
			st.PutTask(key, 0, make([]byte, 512))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := st.GetTask(key, 0); !ok {
					b.Fatal("miss on warm store")
				}
			}
		}},
		{"StoreResultHit", func(b *testing.B) {
			// Whole-query body hit — the O(1) answer path of /v2/query.
			b.ReportAllocs()
			st, err := store.New(store.Config{})
			if err != nil {
				b.Fatal(err)
			}
			key, _ := store.KeyFor(storeBenchQuery())
			st.PutResult(key, make([]byte, 4096))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := st.GetResult(key); !ok {
					b.Fatal("miss on warm store")
				}
			}
		}},
		{"EncodeGrid1000", func(b *testing.B) {
			// The whole-body result writer on the largest body the
			// end-to-end benchmark serves: the 1,000-point grid-cold ResultSet.
			b.ReportAllocs()
			rs := grid1000Result(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rs.Encode(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"CompileGrid1000", func(b *testing.B) {
			// Plan construction for the grid-cold query: validate every
			// point and lay out the points and their labels, once per query.
			b.ReportAllocs()
			q := grid1000Query()
			for i := 0; i < b.N; i++ {
				if _, err := query.Compile(q); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"DecodeTaskLines1000", func(b *testing.B) {
			// The coordinator's read side of the dist-fanout workload: the
			// 1,000 grid task lines and the done line of one worker's
			// /v2/tasks body, through the production line stream, as one
			// flight reads its shard.
			b.ReportAllocs()
			body, labels := grid1000TaskLines(b)
			var src bytes.Reader
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Reset(body)
				ls := dist.NewLineStream(io.NopCloser(&src), labels, len(labels))
				for {
					l, err := ls.Next()
					if err != nil {
						b.Fatal(err)
					}
					if l.Done {
						break
					}
				}
			}
		}},
		{"StoreTaskPut", func(b *testing.B) {
			// The per-task store feed of a cold plan (Plan.StoreTask): encode
			// one grid task into a reused buffer and put it into the memory
			// tier, which copies what it keeps.
			b.ReportAllocs()
			rs := grid1000Result(b)
			st, err := store.New(store.Config{})
			if err != nil {
				b.Fatal(err)
			}
			key, _ := store.KeyFor(grid1000Query())
			var buf []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(rs.Results)
				if buf, err = rs.Results[j].AppendJSON(buf[:0]); err != nil {
					b.Fatal(err)
				}
				buf = append(buf, '\n')
				st.PutTask(key, j, buf)
			}
		}},
		{"StoreTaskPutFresh", func(b *testing.B) {
			// StoreTaskPut cycles over 1,000 keys and so measures
			// overwrites after its first pass. This one puts a new
			// (key, index) every op into a 64-entry budget, so every put
			// inserts and evicts: the cold-plan store feed in steady state.
			b.ReportAllocs()
			rs := grid1000Result(b)
			buf, err := rs.Results[0].AppendJSON(nil)
			if err != nil {
				b.Fatal(err)
			}
			buf = append(buf, '\n')
			st, err := store.New(store.Config{MaxBytes: 64 * int64(len(buf)+128)})
			if err != nil {
				b.Fatal(err)
			}
			key, _ := store.KeyFor(grid1000Query())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.PutTask(key, i, buf)
			}
		}},
		{"ExecuteGrid1000Stored", func(b *testing.B) {
			// The grid-cold plan without the HTTP layer: Execute the
			// compiled 1,000-point grid against a fresh store each op, so
			// every point is evaluated, encoded and stored.
			b.ReportAllocs()
			grid1000Result(b) // warm the contention cache the points share
			q := grid1000Query()
			plan, err := query.Compile(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := store.New(store.Config{})
				if err != nil {
					b.Fatal(err)
				}
				plan.Store = st.Tasks(q)
				if _, err := plan.Execute(context.Background(), 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"QueryGrid1000Cold", func(b *testing.B) {
			// The grid-cold handler without HTTP: compile a never-seen
			// 1,000-point grid (a fresh contention seed each op), execute it
			// against a fresh store, so every configuration is simulated and
			// every point evaluated and stored, then encode the body.
			b.ReportAllocs()
			q := grid1000Query()
			for i := 0; i < b.N; i++ {
				seed := int64(3_000_000 + i)
				q.Params = &query.ParamsWire{Contention: &query.ContentionWire{Superframes: 8, Seed: &seed}}
				st, err := store.New(store.Config{})
				if err != nil {
					b.Fatal(err)
				}
				plan, err := query.Compile(q)
				if err != nil {
					b.Fatal(err)
				}
				plan.Store = st.Tasks(q)
				rs, err := plan.Execute(context.Background(), 0, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rs.Encode(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"DecodeQueryGrid1000", func(b *testing.B) {
			// The request side of the grid-cold query: decode its body, as
			// a client's encoding/json writes it, into a Query, as every
			// /v2/query and /v2/tasks request does before compiling.
			b.ReportAllocs()
			q := grid1000Query()
			body := query.AppendQuery(nil, &q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var got query.Query
				if err := query.DecodeQuery(body, nil, &got); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// grid1000Query is the 1,000-point grid of the end-to-end grid-cold
// workload under seed 7: losses 50→90 dB over 20 points × ten payloads ×
// BO 6..10, Monte-Carlo contention at 8 superframes.
func grid1000Query() query.Query {
	seed := int64(7)
	from, to, points := query.Float(50), query.Float(90), 20
	bo0, bo1 := 6, 10
	return query.Query{
		Kind:     query.KindGrid,
		Params:   &query.ParamsWire{Contention: &query.ContentionWire{Superframes: 8, Seed: &seed}},
		Losses:   &query.Axis{From: &from, To: &to, Points: &points},
		Payloads: &query.IntAxis{Values: []int{10, 20, 30, 40, 50, 60, 70, 80, 100, 120}},
		BOs:      &query.IntAxis{From: &bo0, To: &bo1},
	}
}

// grid1000Result computes the grid1000Query ResultSet the encode kernels
// write (outside their timed loops).
func grid1000Result(b *testing.B) *query.ResultSet {
	rs, err := query.Run(context.Background(), grid1000Query())
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// grid1000TaskLines renders grid1000Query as the /v2/tasks body one worker
// streams for the whole plan (task lines with their measured wall times,
// then the done line) and returns it with the plan's labels.
func grid1000TaskLines(b *testing.B) ([]byte, []string) {
	plan, err := query.Compile(grid1000Query())
	if err != nil {
		b.Fatal(err)
	}
	var body []byte
	err = plan.ExecuteRange(context.Background(), 0, 0, plan.NumTasks(), func(tr query.TaskResult, wallMS float64) error {
		var err error
		body, err = (&dist.TaskLine{Index: tr.Index, WallMS: wallMS, Result: &tr}).AppendJSON(body)
		body = append(body, '\n')
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	body = append(body, `{"done":true,"count":1000}`+"\n"...)
	return body, plan.Labels()
}

// storeBenchQuery is the standard 6-task grid workload of the store
// benchmarks (the same shape the dist and service tests use).
func storeBenchQuery() query.Query {
	seed := int64(3)
	return query.Query{
		Kind:     query.KindGrid,
		Params:   &query.ParamsWire{Contention: &query.ContentionWire{Superframes: 8, Seed: &seed}},
		Losses:   &query.Axis{Values: []query.Float{55, 70, 85}},
		Payloads: &query.IntAxis{Values: []int{20, 100}},
	}
}
