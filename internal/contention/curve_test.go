package contention

import (
	"testing"
	"time"

	"dense802154/internal/mac"
)

func TestBuildCurve(t *testing.T) {
	base := Config{Superframes: 15, Seed: 7}
	loads := []float64{0.1, 0.3, 0.5}
	curve := BuildCurve(120, loads, base)
	if curve.PayloadBytes != 120 || len(curve.Loads) != 3 || len(curve.Results) != 3 {
		t.Fatalf("curve shape: %d B, %d loads, %d results", curve.PayloadBytes, len(curve.Loads), len(curve.Results))
	}
	// Each series point is its load point's simulation result.
	for i, r := range curve.Results {
		if curve.Loads[i] != loads[i] || curve.TcontSec[i] != r.MeanContention.Seconds() ||
			curve.NCCA[i] != r.MeanCCAs || curve.PrCF[i] != r.PrCF || curve.PrCol[i] != r.PrCol {
			t.Errorf("point %d: series disagree with its result", i)
		}
	}
}

func TestMCSourceCaching(t *testing.T) {
	src := NewMCSource(Config{Superframes: 10, Seed: 3})
	a := src.Contention(120, 0.42)
	b := src.Contention(120, 0.42)
	if a != b {
		t.Fatal("cache miss on identical query")
	}
	if a.Tcont <= 0 || a.NCCA < 2 {
		t.Fatalf("implausible stats: %+v", a)
	}
	if src.String() == "" {
		t.Fatal("String")
	}
}

func TestApproxQualitativeShape(t *testing.T) {
	a := Approx{}
	low := a.Contention(120, 0.05)
	high := a.Contention(120, 0.7)
	if low.PrCF >= high.PrCF {
		t.Error("approx Prcf must grow with load")
	}
	if low.NCCA >= high.NCCA {
		t.Error("approx NCCA must grow with load")
	}
	if low.Tcont >= high.Tcont {
		t.Error("approx Tcont must grow with load")
	}
	if low.PrCol >= high.PrCol {
		t.Error("approx Prcol must grow with load")
	}
	// At zero load: exactly CW CCAs, no failures.
	zero := a.Contention(120, 0)
	if zero.NCCA != 2 || zero.PrCF != 0 || zero.PrCol != 0 {
		t.Errorf("zero-load approx: %+v", zero)
	}
	if a.String() == "" {
		t.Fatal("String")
	}
}

func TestApproxRoughlyTracksMonteCarlo(t *testing.T) {
	// The closed form is a baseline, not a replacement: require only
	// order-of-magnitude agreement at moderate load.
	mc := NewMCSource(Config{Superframes: 40, Seed: 5})
	ap := Approx{}
	m := mc.Contention(120, 0.3)
	g := ap.Contention(120, 0.3)
	if g.NCCA < m.NCCA/3 || g.NCCA > m.NCCA*3 {
		t.Errorf("approx NCCA %v vs MC %v: off by >3x", g.NCCA, m.NCCA)
	}
	if g.Tcont < m.Tcont/5 || g.Tcont > m.Tcont*5 {
		t.Errorf("approx Tcont %v vs MC %v: off by >5x", g.Tcont, m.Tcont)
	}
}

func TestApproxBLEShrinksBackoff(t *testing.T) {
	p := mac.PaperParams()
	p.BatteryLifeExt = true
	ble := Approx{CSMA: p}.Contention(120, 0.4)
	std := Approx{}.Contention(120, 0.4)
	if ble.Tcont >= std.Tcont {
		t.Errorf("BLE backoff %v not shorter than standard %v", ble.Tcont, std.Tcont)
	}
}

func TestPacketsPerSuperframe(t *testing.T) {
	cfg := Config{PayloadBytes: 120, TargetLoad: 0.433, Seed: 1}
	// λ·Tib/Tpacket = 0.433·983.04ms/4.256ms ≈ 100 packets.
	got := cfg.PacketsPerSuperframe()
	if got < 95 || got > 105 {
		t.Fatalf("packets per superframe = %v, want ≈100", got)
	}
	if cfg.PacketDuration() != 4256*time.Microsecond {
		t.Fatalf("packet duration = %v", cfg.PacketDuration())
	}
}
