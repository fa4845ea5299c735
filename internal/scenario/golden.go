package scenario

import (
	"bytes"
	"embed"
	"fmt"

	"dense802154/internal/wire"
)

// goldenFS carries the committed golden files into the binary, so the
// scenario query kind and the /v1/scenarios service endpoints can diff and
// serve them from anywhere — not just a checkout with testdata/ beside the
// working directory.
//
//go:embed testdata/*.golden.json
var goldenFS embed.FS

// Golden returns the committed golden-file bytes for a scenario name.
func Golden(name string) ([]byte, bool) {
	b, err := goldenFS.ReadFile("testdata/" + name + ".golden.json")
	if err != nil {
		return nil, false
	}
	return b, true
}

// DiffEntry scores one metric's drift between a fresh run and the golden.
type DiffEntry struct {
	Metric  string     `json:"metric"`
	Golden  wire.Float `json:"golden"`
	Fresh   wire.Float `json:"fresh"`
	AbsDiff wire.Float `json:"abs_diff"`
	Allowed wire.Float `json:"allowed"`
	Pass    bool       `json:"pass"`
}

// DiffReport is the outcome of checking a fresh Result against the
// committed golden.
type DiffReport struct {
	Scenario string `json:"scenario"`
	// ByteIdentical is the strong verdict: the fresh encoding equals the
	// golden bytes exactly, which is what same-platform determinism
	// promises. When false, Entries carries the per-metric drift and Pass
	// says whether it stayed inside the scenario's declared tolerances.
	ByteIdentical bool        `json:"byte_identical"`
	Entries       []DiffEntry `json:"entries,omitempty"`
	// FreshAgrees echoes the fresh run's own analytic-vs-sim verdict.
	FreshAgrees bool `json:"fresh_agrees"`
	Pass        bool `json:"pass"`
}

// Diff compares a fresh Result against the committed golden for the same
// scenario. Byte-identical encodings pass outright; otherwise every
// headline metric (analytic and simulated) is compared under the scenario's
// tolerance envelope, with the golden's own CI95 supplying the statistical
// slack for simulated metrics. The fresh run must also still agree
// analytic-vs-sim.
func Diff(fresh *Result) (DiffReport, error) {
	name := fresh.Scenario.Name
	goldenBytes, ok := Golden(name)
	if !ok {
		return DiffReport{}, fmt.Errorf("scenario: no golden for %q (add one with go test ./internal/scenario -run TestGoldens -update)", name)
	}
	freshBytes, err := fresh.Encode()
	if err != nil {
		return DiffReport{}, err
	}
	rep := DiffReport{Scenario: name, FreshAgrees: fresh.Pass}
	if bytes.Equal(freshBytes, goldenBytes) {
		rep.ByteIdentical = true
		rep.Pass = fresh.Pass
		return rep, nil
	}
	golden, err := Decode(goldenBytes)
	if err != nil {
		return DiffReport{}, fmt.Errorf("scenario: corrupt golden for %q: %w", name, err)
	}

	tol := fresh.Scenario.Tol
	entry := func(metric string, g, f, ci float64, t Tolerance) {
		diff := g - f
		if diff < 0 {
			diff = -diff
		}
		allowed := t.Allowed(g, f, ci)
		rep.Entries = append(rep.Entries, DiffEntry{
			Metric:  metric,
			Golden:  wire.Float(g),
			Fresh:   wire.Float(f),
			AbsDiff: wire.Float(diff),
			Allowed: wire.Float(allowed),
			Pass:    diff <= allowed,
		})
	}
	entry("analytic.power_uw", float64(golden.Analytic.MeanPowerUW), float64(fresh.Analytic.MeanPowerUW), 0, tol.PowerUW)
	entry("analytic.pr_fail", float64(golden.Analytic.MeanPrFail), float64(fresh.Analytic.MeanPrFail), 0, tol.PrFail)
	entry("analytic.pr_cf", float64(golden.Analytic.PrCF), float64(fresh.Analytic.PrCF), 0, tol.PrCF)
	entry("analytic.ncca", float64(golden.Analytic.NCCA), float64(fresh.Analytic.NCCA), 0, tol.NCCA)
	entry("analytic.tcont_ms", float64(golden.Analytic.TcontMS), float64(fresh.Analytic.TcontMS), 0, tol.TcontMS)
	simEntry := func(metric string, g, f SimStat, t Tolerance) {
		entry("sim."+metric, float64(g.Mean), float64(f.Mean), float64(g.CI95), t)
	}
	simEntry("power_uw", golden.Sim.PowerUW, fresh.Sim.PowerUW, tol.PowerUW)
	simEntry("pr_fail", golden.Sim.PrFail, fresh.Sim.PrFail, tol.PrFail)
	simEntry("pr_cf", golden.Sim.PrCF, fresh.Sim.PrCF, tol.PrCF)
	simEntry("ncca", golden.Sim.NCCA, fresh.Sim.NCCA, tol.NCCA)
	simEntry("tcont_ms", golden.Sim.TcontMS, fresh.Sim.TcontMS, tol.TcontMS)

	rep.Pass = fresh.Pass
	for _, e := range rep.Entries {
		if !e.Pass {
			rep.Pass = false
		}
	}
	return rep, nil
}
