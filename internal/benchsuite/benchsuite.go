// Package benchsuite holds the repository's tracked benchmark kernels: the
// serial/parallel engine pairs and the hot-path micro-benchmarks of the
// simulation cores, the result store, the 1,000-point grid and 16-replica
// plans and the HTTP handler's store-hit path.
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
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
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
	"dense802154/internal/service"
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
			// instants with nothing between them — queued and drained in one
			// go: 4096 heap pushes in ascending order, then pops from a heap
			// twenty times deeper than a 200-node netsim run ever gets.
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
			// StoreTaskPut cycles over the 1,000 lines of one table and so
			// measures re-puts after its first pass. This one fills a new
			// 1,000-task table every 1,000 ops in a budget of four tables,
			// so every put is a new line and older tables are evicted: the
			// cold-plan store feed in steady state.
			b.ReportAllocs()
			rs := grid1000Result(b)
			buf, err := rs.Results[0].AppendJSON(nil)
			if err != nil {
				b.Fatal(err)
			}
			buf = append(buf, '\n')
			n := len(rs.Results)
			st, err := store.New(store.Config{MaxBytes: 4 * int64(n*(len(buf)+32))})
			if err != nil {
				b.Fatal(err)
			}
			var key store.Key
			var view query.TaskStore
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % n
				if j == 0 {
					binary.LittleEndian.PutUint64(key[:], uint64(i))
					view = st.TasksAt(key, 0, n)
				}
				view.PutTask(j, buf)
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
			//
			// An op allocates about 3 MB, near the collector's 4 MB minimum
			// goal, so left alone its allocation count would depend on
			// where collections (and the sync.Pool refills after them)
			// land, and on how far the contention cache's map has grown.
			// Every op therefore starts from the same state: an empty
			// cache and one collection, with the timer stopped and the
			// collector otherwise off, after an untimed op that refills
			// the pools the benchmark's own collection emptied. ns/op
			// excludes collection work.
			b.ReportAllocs()
			q := grid1000Query()
			op := func(seed int64) {
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
			b.StopTimer()
			op(2_999_999)
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			for i := 0; i < b.N; i++ {
				contention.ResetCache()
				runtime.GC()
				b.StartTimer()
				op(int64(3_000_000 + i))
				b.StopTimer()
			}
		}},
		{"QueryReplicas16Cold", func(b *testing.B) {
			// The sim-stream handler without HTTP: compile a never-seen
			// 16-replica, 100-node, 8-superframe replicas query (a fresh
			// seed each op), execute it against a fresh store, so every
			// replica is simulated, encoded and stored, then encode the
			// body. Workers is pinned to 2 to keep allocs/op
			// machine-independent.
			b.ReportAllocs()
			nodes, superframes := 100, 8
			q := query.Query{Kind: query.KindReplicas, Replicas: 16,
				Sim: &query.SimConfigWire{Nodes: &nodes, Superframes: &superframes}}
			for i := 0; i < b.N; i++ {
				seed := int64(5_000_000 + i)
				q.Sim.Seed = &seed
				st, err := store.New(store.Config{})
				if err != nil {
					b.Fatal(err)
				}
				plan, err := query.Compile(q)
				if err != nil {
					b.Fatal(err)
				}
				plan.Store = st.Tasks(q)
				rs, err := plan.Execute(context.Background(), 2, nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rs.Encode(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"DistQueryGrid1000", func(b *testing.B) {
			// The dist-fanout workload in one process: a never-seen
			// 1,000-point grid (a fresh contention seed each op) posted to
			// a coordinator fronting two single-token workers, all on
			// httptest and each with its own store, as wsn-serve runs them.
			// The count covers the client and both sides of every shard
			// exchange.
			b.ReportAllocs()
			coord, stop := distFleet(b)
			defer stop()
			q := grid1000Query()
			post := func(seed int64) {
				q.Params = &query.ParamsWire{Contention: &query.ContentionWire{Superframes: 8, Seed: &seed}}
				resp, err := http.Post(coord+"/v2/query", "application/json", bytes.NewReader(query.AppendQuery(nil, &q)))
				if err != nil {
					b.Fatal(err)
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d, read error %v", resp.StatusCode, err)
				}
			}
			post(4_000_000 - 1) // admission and connections
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(int64(4_000_000 + i))
			}
		}},
		{"ServeQueryHit", func(b *testing.B) {
			// A whole-query store hit through the HTTP handler: a stored
			// 100-point grid, the warm-mix grid shape, asked again through
			// Server.ServeHTTP with an httptest recorder — decode, shape
			// check, key, lookup, counters and the write.
			b.ReportAllocs()
			st, err := store.New(store.Config{})
			if err != nil {
				b.Fatal(err)
			}
			srv := service.NewServer(service.Config{Workers: 1, Store: st})
			q := grid100Query()
			body := query.AppendQuery(nil, &q)
			var src bytes.Reader
			serve := func() {
				src.Reset(body)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/query", &src))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			serve() // compute and store the grid
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
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

// grid100Query is a 100-point grid of the warm-mix working set's shape:
// ten losses × five payloads × two BOs, Monte-Carlo contention at 12
// superframes.
func grid100Query() query.Query {
	seed := int64(11)
	from, to, points := query.Float(50), query.Float(90), 10
	return query.Query{
		Kind:     query.KindGrid,
		Params:   &query.ParamsWire{Contention: &query.ContentionWire{Superframes: 12, Seed: &seed}},
		Losses:   &query.Axis{From: &from, To: &to, Points: &points},
		Payloads: &query.IntAxis{Values: []int{20, 40, 60, 80, 100}},
		BOs:      &query.IntAxis{Values: []int{6, 8}},
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

// distFleet starts two single-token workers and a single-token coordinator
// fronting them on httptest, each server with its own result store, and
// returns the coordinator's URL and the function that stops all three.
func distFleet(b *testing.B) (string, func()) {
	newStore := func() *store.Store {
		st, err := store.New(store.Config{})
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	worker := func() *httptest.Server {
		return httptest.NewServer(service.NewServer(service.Config{Workers: 1, Store: newStore()}))
	}
	w0, w1 := worker(), worker()
	st := newStore()
	c := dist.New(dist.Options{Workers: []string{w0.URL, w1.URL}, Store: st})
	coord := httptest.NewServer(service.NewServer(service.Config{Workers: 1, Store: st, Distributor: c}))
	return coord.URL, func() {
		coord.Close()
		w0.Close()
		w1.Close()
	}
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
