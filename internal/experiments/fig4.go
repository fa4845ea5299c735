package experiments

import (
	"dense802154/internal/fit"
	"dense802154/internal/phy"
	"dense802154/internal/stats"
)

func init() {
	register(Experiment{
		Name:        "fig4",
		Title:       "Fig. 4 / eq. (1): bit error probability vs received power",
		Description: "Chip-level Monte-Carlo BER bench (the synthetic wired-attenuator testbed) swept over received power, with the exponential regression re-derived and compared to the paper's eq. (1).",
		Run:         runFig4,
	})
}

func runFig4(opt Options) ([]*stats.Table, error) {
	bench := phy.NewBench(opt.Seed)
	targetErrors, maxBits := 400, 4_000_000
	if opt.Quick {
		targetErrors, maxBits = 60, 400_000
	}
	points := bench.Sweep(-96, -86, 1, targetErrors, maxBits)

	tbl := stats.NewTable("BER vs received power (synthetic CC2420 bench, AWGN)",
		"PRx [dBm]", "measured BER", "eq.(1) BER", "bits simulated")
	var xs, ys []float64
	for _, p := range points {
		tbl.AddRow(p.PRxDBm, p.BER, phy.Eq1.BitErrorRate(p.PRxDBm), p.Bits)
		if p.BER > 0 {
			xs = append(xs, p.PRxDBm)
			ys = append(ys, p.BER)
		}
	}

	reg := stats.NewTable("Exponential regression (the paper's eq. 1 pipeline)",
		"model", "A", "B [1/dBm]", "R² (log)")
	if len(xs) >= 3 {
		e, err := fit.FitExponential(xs, ys)
		if err != nil {
			return nil, err
		}
		reg.AddRow("synthetic bench", e.A, e.B, e.R2)
	}
	reg.AddRow("paper eq.(1)", phy.Eq1.A, phy.Eq1.B, "n/a")
	reg.AddNote("the synthetic O-QPSK/DSSS bench has a steeper waterfall than the measured CC2420 (no analog impairments); shape and pipeline match, coefficients differ, so the model keeps the paper's eq. (1)")
	sens := stats.NewTable("Receiver sensitivity (1% PER, 20-byte PSDU)",
		"model", "sensitivity [dBm]")
	sens.AddRow("paper eq.(1) regression", phy.Sensitivity(phy.Eq1))
	sens.AddRow("CC2420 datasheet", -95.0)
	return []*stats.Table{tbl, reg, sens}, nil
}
