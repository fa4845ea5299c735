// Top-level benchmark harness: one benchmark per table/figure of the
// paper, each regenerating the artifact through the same driver the
// experiment query kind runs, plus micro-benchmarks of the hot paths.
//
//	go test -bench=. -benchmem
//
// The figure benchmarks run the drivers at reduced Monte-Carlo scale per
// iteration and report the headline reproduced quantities as custom
// metrics (µW, probabilities, nJ/bit), so a benchmark run doubles as a
// regression check of the reproduction.
package dense802154_test

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
	"dense802154/internal/experiments"
	"dense802154/internal/lifetime"
	"dense802154/internal/netsim"
	"dense802154/internal/phy"
	"dense802154/internal/query"
	"dense802154/internal/store"
)

func benchOpts(i int) experiments.Options {
	return experiments.Options{Quick: true, Seed: int64(1000 + i)}
}

// runDriver executes a registered experiment driver b.N times.
func runDriver(b *testing.B, name string) {
	b.Helper()
	b.ReportAllocs()
	e, ok := experiments.ByName(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Characterization regenerates the radio characterization
// tables of Fig. 3.
func BenchmarkFig3Characterization(b *testing.B) { runDriver(b, "fig3") }

// BenchmarkFig4BER regenerates the BER sweep and eq. (1) regression of
// Fig. 4.
func BenchmarkFig4BER(b *testing.B) { runDriver(b, "fig4") }

// BenchmarkFig5Timeline regenerates the uplink transaction timeline of
// Fig. 5 from the event simulator's trace facility.
func BenchmarkFig5Timeline(b *testing.B) { runDriver(b, "fig5") }

// BenchmarkFig6Contention regenerates the four CSMA/CA characterization
// panels of Fig. 6 and reports the case-study operating point.
func BenchmarkFig6Contention(b *testing.B) {
	runDriver(b, "fig6")
	r := contention.Simulate(contention.Config{
		TargetLoad: 0.433, Superframes: 40, Seed: 42,
	})
	b.ReportMetric(r.PrCF, "Prcf@0.43")
	b.ReportMetric(r.PrCol, "Prcol@0.43")
	b.ReportMetric(r.MeanCCAs, "NCCA@0.43")
}

// BenchmarkFig7LinkAdaptation regenerates the energy-vs-path-loss family
// and switching thresholds of Fig. 7.
func BenchmarkFig7LinkAdaptation(b *testing.B) { runDriver(b, "fig7") }

// BenchmarkFig8PacketSize regenerates the energy-vs-payload study of
// Fig. 8.
func BenchmarkFig8PacketSize(b *testing.B) { runDriver(b, "fig8") }

// BenchmarkFig9Breakdown regenerates the phase/state breakdowns of Fig. 9
// and reports the reproduced shares.
func BenchmarkFig9Breakdown(b *testing.B) {
	runDriver(b, "fig9")
	cs, err := dense802154.RunCaseStudy(dense802154.DefaultParams(), dense802154.DefaultCaseStudy())
	if err != nil {
		b.Fatal(err)
	}
	sh := cs.Breakdown.Share()
	b.ReportMetric(sh[0]*100, "%beacon")
	b.ReportMetric(sh[1]*100, "%contention")
	b.ReportMetric(sh[2]*100, "%transmit")
	b.ReportMetric(sh[3]*100, "%ack")
	b.ReportMetric(cs.States.Fractions()[0]*100, "%shutdown")
}

// BenchmarkCaseStudy regenerates the §5 headline numbers (paper: 211 µW,
// 16% failure, 1.45 s delay) and reports the reproduced values.
func BenchmarkCaseStudy(b *testing.B) {
	runDriver(b, "casestudy")
	cs, err := dense802154.RunCaseStudy(dense802154.DefaultParams(), dense802154.DefaultCaseStudy())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(cs.AvgPower.MicroWatts(), "µW(paper:211)")
	b.ReportMetric(cs.MeanPrFail*100, "%fail(paper:16)")
	b.ReportMetric(cs.MeanDelay.Seconds(), "delay-s(paper:1.45)")
}

// BenchmarkImprovements regenerates the §5 radio ablations (paper: -12%
// for 2x faster transitions, -15% for the scalable receiver).
func BenchmarkImprovements(b *testing.B) {
	runDriver(b, "improvements")
	res, err := dense802154.EvaluateImprovements(dense802154.DefaultParams(), dense802154.DefaultCaseStudy())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Rows[0].Reduction*100, "%fast(paper:12)")
	b.ReportMetric(res.Rows[1].Reduction*100, "%scalable(paper:15)")
}

// ---- serial-vs-parallel engine benchmarks ----
//
// The *Serial/*Parallel pairs run the same workload at Workers=1 and
// Workers=NumCPU; results are bit-identical (see the determinism tests),
// only the wall-clock differs. Seeds vary per iteration and per variant so
// the shared contention cache never serves a previously simulated point.

// benchCaseStudyWorkers integrates the §5 case study with a fresh
// Monte-Carlo contention source per iteration.
func benchCaseStudyWorkers(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	cfg := dense802154.DefaultCaseStudy()
	for i := 0; i < b.N; i++ {
		p := dense802154.DefaultParams()
		p.Workers = workers
		p.Contention = contention.NewMCSource(contention.Config{
			Superframes: 64,
			Seed:        int64(1_000_000*(workers+1) + i),
			Workers:     workers,
		})
		if _, err := dense802154.RunCaseStudy(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCaseStudySerial is the single-goroutine baseline of the §5
// case-study integration.
func BenchmarkCaseStudySerial(b *testing.B) { benchCaseStudyWorkers(b, 1) }

// BenchmarkCaseStudyParallel runs the same integration on NumCPU workers
// (grid points and Monte-Carlo shards both parallel).
func BenchmarkCaseStudyParallel(b *testing.B) { benchCaseStudyWorkers(b, 0) }

// benchFig6Workers rebuilds the four Fig. 6 curve families.
func benchFig6Workers(b *testing.B, workers int) {
	b.Helper()
	b.ReportAllocs()
	loads := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	for i := 0; i < b.N; i++ {
		base := contention.Config{
			Superframes: 32,
			Seed:        int64(2_000_000*(workers+1) + i),
			Workers:     workers,
		}
		for _, L := range []int{10, 20, 50, 100} {
			contention.BuildCurve(L, loads, base)
		}
	}
}

// BenchmarkFig6ContentionSerial is the single-goroutine baseline of the
// Fig. 6 contention characterization.
func BenchmarkFig6ContentionSerial(b *testing.B) { benchFig6Workers(b, 1) }

// BenchmarkFig6ContentionParallel builds the same curves on NumCPU workers
// (load points and superframe shards both parallel).
func BenchmarkFig6ContentionParallel(b *testing.B) { benchFig6Workers(b, 0) }

// BenchmarkModelVsSim runs the validation experiment: analytical model vs
// discrete-event simulation.
func BenchmarkModelVsSim(b *testing.B) { runDriver(b, "validate") }

// BenchmarkExtBLE quantifies the Battery Life Extension rejection (EXT1).
func BenchmarkExtBLE(b *testing.B) { runDriver(b, "ble") }

// BenchmarkExtGTS quantifies the GTS capacity argument (EXT2).
func BenchmarkExtGTS(b *testing.B) { runDriver(b, "gts") }

// BenchmarkAblationContentionModel compares Monte-Carlo vs closed-form
// contention sources (ABL1).
func BenchmarkAblationContentionModel(b *testing.B) { runDriver(b, "contmodel") }

// BenchmarkAblationArrival compares arrival models (ABL2).
func BenchmarkAblationArrival(b *testing.B) { runDriver(b, "arrival") }

// BenchmarkExtBeaconOrder sweeps the beacon order (EXT3).
func BenchmarkExtBeaconOrder(b *testing.B) { runDriver(b, "bosweep") }

// BenchmarkExtLifetime computes supply lifetimes (EXT4).
func BenchmarkExtLifetime(b *testing.B) { runDriver(b, "lifetime") }

// BenchmarkExtDownlink costs the indirect exchange (EXT5).
func BenchmarkExtDownlink(b *testing.B) { runDriver(b, "downlink") }

// BenchmarkExtBands compares the three PHY bands (EXT6).
func BenchmarkExtBands(b *testing.B) { runDriver(b, "bands") }

// BenchmarkExtDutyCycle sweeps the superframe order (EXT7).
func BenchmarkExtDutyCycle(b *testing.B) { runDriver(b, "sosweep") }

// BenchmarkValPtrDistribution validates eqs. (7)-(8) (VAL2).
func BenchmarkValPtrDistribution(b *testing.B) { runDriver(b, "ptr") }

// ---- micro-benchmarks of the hot paths ----

// BenchmarkModelEvaluate measures one closed-form model evaluation.
func BenchmarkModelEvaluate(b *testing.B) {
	b.ReportAllocs()
	p := dense802154.DefaultParams()
	p.Contention = contention.Approx{} // keep it pure-analytical
	p.TXLevelIndex = 7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContentionMC measures one Monte-Carlo superframe of the
// case-study channel.
func BenchmarkContentionMC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		contention.Simulate(contention.Config{
			TargetLoad: 0.433, Superframes: 1, Seed: int64(i),
		})
	}
}

// BenchmarkNetsimSuperframe measures one discrete-event superframe of the
// 100-node channel on the pooled run path (the arena recycles across
// iterations exactly as it does across replica sweeps).
func BenchmarkNetsimSuperframe(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		netsim.Run(netsim.Config{Nodes: 100, Superframes: 1, Seed: int64(i)})
	}
}

// BenchmarkNetsimDense200 measures the 200-node dense operating regime of
// the paper's Fig. 6-8 surfaces over four superframes — the scenario whose
// per-CCA medium scans motivated the end-time-ordered active-set index.
func BenchmarkNetsimDense200(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		netsim.Run(netsim.Config{Nodes: 200, Superframes: 4, Seed: int64(i)})
	}
}

// BenchmarkRunReplicas measures a whole replica sweep at the dense 200-node
// configuration — the workload run-state recycling targets: every replica
// after a worker's first reuses that worker's arena. Workers is pinned to 2
// so allocs/op stays comparable across machines with different core counts.
func BenchmarkRunReplicas(b *testing.B) {
	b.ReportAllocs()
	cfg := netsim.Config{Nodes: 200, Superframes: 4}
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := netsim.RunReplicas(context.Background(), cfg, 8, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDESFastForward mirrors the wsn-bench suite's DESFastForward
// workload: a pre-sorted sparse timeline parked in the kernel's far band and
// drained in one go — the idle fast-forward path of a lifetime run.
func BenchmarkDESFastForward(b *testing.B) {
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
}

// BenchmarkNetsimLifetime mirrors the wsn-bench suite's NetsimLifetime
// workload: one full battery-lifetime integration — epoch-sampled DES with
// steady-state fast-forward — until the last of eight nodes dies.
func BenchmarkNetsimLifetime(b *testing.B) {
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
}

// BenchmarkDespreadByte measures chip-level despreading of one octet.
func BenchmarkDespreadByte(b *testing.B) {
	b.ReportAllocs()
	chips := phy.SpreadBytes([]byte{0xA5})
	for i := 0; i < b.N; i++ {
		phy.DespreadBytes(chips)
	}
}

// storeBenchQuery mirrors the wsn-bench suite's store workload: the standard
// 6-task grid query.
func storeBenchQuery() query.Query {
	seed := int64(3)
	return query.Query{
		Kind:     query.KindGrid,
		Params:   &query.ParamsWire{Contention: &query.ContentionWire{Superframes: 8, Seed: &seed}},
		Losses:   &query.Axis{Values: []query.Float{55, 70, 85}},
		Payloads: &query.IntAxis{Values: []int{20, 100}},
	}
}

// BenchmarkStoreKey measures content-key derivation — canonical encode plus
// SHA-256, the fixed per-query cost of every result-store lookup.
func BenchmarkStoreKey(b *testing.B) {
	b.ReportAllocs()
	q := storeBenchQuery()
	for i := 0; i < b.N; i++ {
		if _, ok := store.KeyFor(q); !ok {
			b.Fatal("query not keyable")
		}
	}
}

// BenchmarkStoreTaskHit measures the memory-tier task hit — the path a warm
// worker rides once per task instead of recomputing it.
func BenchmarkStoreTaskHit(b *testing.B) {
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
}

// BenchmarkStoreResultHit measures the whole-query body hit — the O(1)
// answer path of a warm /v2/query.
func BenchmarkStoreResultHit(b *testing.B) {
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
}

// grid1000Query mirrors the wsn-bench suite's encode workload: the
// 1,000-point grid of the end-to-end grid-cold workload under seed 7.
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

func grid1000Result(b *testing.B) *query.ResultSet {
	rs, err := query.Run(context.Background(), grid1000Query())
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// BenchmarkEncodeGrid1000 measures the whole-body result writer on the
// largest body the end-to-end benchmark serves: the 1,000-point grid.
func BenchmarkEncodeGrid1000(b *testing.B) {
	b.ReportAllocs()
	rs := grid1000Result(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rs.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileGrid1000 measures plan construction for the grid-cold
// query: validate every point and lay out the points and their labels.
func BenchmarkCompileGrid1000(b *testing.B) {
	b.ReportAllocs()
	q := grid1000Query()
	for i := 0; i < b.N; i++ {
		if _, err := query.Compile(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeTaskLines1000 measures the coordinator's read side of the
// dist-fanout workload: one worker's /v2/tasks body for the 1,000-point
// grid through the production line stream.
func BenchmarkDecodeTaskLines1000(b *testing.B) {
	b.ReportAllocs()
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
	labels := plan.Labels()
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
}

// BenchmarkStoreTaskPut measures the per-task store feed of a cold plan:
// encode one grid task into a reused buffer and put it into the memory
// tier, which copies what it keeps.
func BenchmarkStoreTaskPut(b *testing.B) {
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
}

// BenchmarkStoreTaskPutFresh measures the cold-plan store feed in steady
// state: a new (key, index) every op into a 64-entry budget, so every put
// inserts and evicts (BenchmarkStoreTaskPut cycles over 1,000 keys and so
// measures overwrites after its first pass).
func BenchmarkStoreTaskPutFresh(b *testing.B) {
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
}

// BenchmarkExecuteGrid1000Stored measures the grid-cold plan without the
// HTTP layer: Execute of the compiled 1,000-point grid against a fresh
// store each op, so every point is evaluated, encoded and stored.
func BenchmarkExecuteGrid1000Stored(b *testing.B) {
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
}
