// Top-level benchmark harness: one benchmark per table/figure of the
// paper, each regenerating the artifact through the same driver the
// experiment query kind runs, plus BenchmarkKernels, the tracked hot-path
// kernels of internal/benchsuite that cmd/wsn-bench records.
//
//	go test -bench=. -benchmem
//	go test -run NONE -bench 'Kernels/<name>' -count 6        # ns/op medians
//	go test -run NONE -bench 'Kernels/<name>' -cpuprofile cpu.out
//
// The figure benchmarks run the drivers at reduced Monte-Carlo scale per
// iteration and report the headline reproduced quantities as custom
// metrics (µW, probabilities, nJ/bit), so a benchmark run doubles as a
// regression check of the reproduction.
package dense802154_test

import (
	"testing"

	"dense802154"
	"dense802154/internal/benchsuite"
	"dense802154/internal/contention"
	"dense802154/internal/experiments"
	"dense802154/internal/phy"
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

// BenchmarkKernels runs the tracked kernel table of internal/benchsuite —
// the same bodies cmd/wsn-bench records into BENCH_*.json — one
// sub-benchmark per kernel, with the contention cache reset before each as
// wsn-bench does. -short selects the sizes of wsn-bench -quick.
func BenchmarkKernels(b *testing.B) {
	for _, k := range benchsuite.Kernels(testing.Short()) {
		contention.ResetCache()
		b.Run(k.Name, k.F)
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
