package scenario

import (
	"context"
	"strings"
	"testing"
)

// TestGoldenEmbedsMatchCatalog proves every catalog scenario has a
// committed golden and every golden names a catalog scenario.
func TestGoldenEmbedsMatchCatalog(t *testing.T) {
	inCatalog := map[string]bool{}
	for _, name := range Names() {
		inCatalog[name] = true
		b, ok := Golden(name)
		if !ok {
			t.Errorf("scenario %s has no committed golden (run go test -update)", name)
			continue
		}
		res, err := Decode(b)
		if err != nil {
			t.Errorf("golden for %s does not parse: %v", name, err)
			continue
		}
		if res.Scenario.Name != name {
			t.Errorf("golden for %s names scenario %q", name, res.Scenario.Name)
		}
		if !res.Pass {
			t.Errorf("committed golden for %s records an agreement failure", name)
		}
	}
	entries, err := goldenFS.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := strings.TrimSuffix(e.Name(), ".golden.json"); !inCatalog[name] {
			t.Errorf("stale golden %s has no catalog scenario", e.Name())
		}
	}
}

// TestDiffByteIdentical re-runs a scenario and diffs it against its golden:
// on the same platform the encodings must be byte-identical.
func TestDiffByteIdentical(t *testing.T) {
	sc, _ := ByName("sparse-light")
	fresh, err := Run(context.Background(), sc, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Diff(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ByteIdentical {
		t.Errorf("fresh run not byte-identical to golden: %+v", rep.Entries)
	}
	if !rep.Pass {
		t.Error("diff report failed")
	}
}

// TestDiffDetectsDrift perturbs a fresh result beyond tolerance and checks
// the diff flags it, and that in-tolerance drift still passes.
func TestDiffDetectsDrift(t *testing.T) {
	sc, _ := ByName("sparse-light")
	fresh, err := Run(context.Background(), sc, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Small drift: nudge one simulated mean by a hair under its allowance.
	small := *fresh
	small.Sim.PowerUW.Mean *= 1.01
	rep, err := Diff(&small)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ByteIdentical {
		t.Fatal("perturbed result still byte-identical")
	}
	if !rep.Pass {
		t.Errorf("1%% power drift should stay within tolerance: %+v", rep.Entries)
	}

	// Gross drift: double the power.
	big := *fresh
	big.Sim.PowerUW.Mean *= 2
	rep, err = Diff(&big)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Error("2× power drift passed the diff")
	}
	found := false
	for _, e := range rep.Entries {
		if e.Metric == "sim.power_uw" && !e.Pass {
			found = true
		}
	}
	if !found {
		t.Errorf("diff did not name sim.power_uw as the drifted metric: %+v", rep.Entries)
	}

	// A failed fresh agreement fails the report even with matching bytes.
	bad := *fresh
	bad.Pass = false
	rep, err = Diff(&bad)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Error("fresh agreement failure passed the diff")
	}

	// Unknown scenario: an error, not a panic.
	ghost := *fresh
	ghost.Scenario.Name = "no-such-scenario"
	if _, err := Diff(&ghost); err == nil {
		t.Error("diff of unknown scenario succeeded")
	}
}
