package channel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dense802154/internal/phy"
)

func TestReceivedPower(t *testing.T) {
	// Paper eq. (2): P_Rx = P_Tx - A. 0 dBm through 88 dB = -88 dBm.
	if got := ReceivedPowerDBm(0, 88); got != -88 {
		t.Fatalf("PRx = %v", got)
	}
	if got := ReceivedPowerDBm(-15, 55); got != -70 {
		t.Fatalf("PRx = %v", got)
	}
}

// linkPER is the packet error rate of errorBytes bytes sent at txDBm
// through lossDB: eq. (2) feeding the eq. (1) bit-error model.
func linkPER(txDBm, lossDB float64, errorBytes int) float64 {
	return phy.PacketErrorRateBytes(phy.Eq1.BitErrorRate(ReceivedPowerDBm(txDBm, lossDB)), errorBytes)
}

func TestLinkPER(t *testing.T) {
	// At 0 dBm through 88 dB: PRx=-88, BER from eq.(1), PER over 129
	// bytes should be a few percent (the paper's "efficient up to 88 dB").
	per := linkPER(0, 88, 129)
	if per < 0.001 || per > 0.2 {
		t.Fatalf("PER at edge of range = %v, want a few percent", per)
	}
	// At shorter range the link is nearly clean even at the weakest level:
	// PRx = -80 dBm, BER ≈ 2e-7, PER ≈ 2e-4 — low enough that the paper's
	// link adaptation picks -25 dBm below 55 dB loss.
	if p := linkPER(-25, 55, 129); p > 1e-3 {
		t.Fatalf("PER at 55 dB with -25 dBm = %v, want < 1e-3", p)
	}
	// Monotone in TX power.
	if linkPER(-5, 88, 129) <= per {
		t.Fatal("PER must increase when transmit power drops")
	}
}

func TestUniformLossBounds(t *testing.T) {
	u := UniformLoss{MinDB: 55, MaxDB: 95}
	rng := rand.New(rand.NewSource(1))
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := u.Sample(rng)
		if v < 55 || v > 95 {
			t.Fatalf("sample %v out of bounds", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-75) > 0.5 {
		t.Fatalf("mean = %v, want ≈75", mean)
	}
	if u.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestLossGrid(t *testing.T) {
	g := LossGrid(55, 95, 5)
	want := []float64{55, 65, 75, 85, 95}
	if len(g) != 5 {
		t.Fatalf("grid size %d", len(g))
	}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Fatalf("grid[%d] = %v, want %v", i, g[i], want[i])
		}
	}
	if g := LossGrid(55, 95, 1); len(g) != 1 || g[0] != 55 {
		t.Fatal("degenerate grid")
	}
}

// Property: packet error rate grows with path loss.
func TestPropertyLinkMonotonicity(t *testing.T) {
	f := func(a, b uint8) bool {
		loss1 := 40 + float64(a%60)
		loss2 := loss1 + 1 + float64(b%20)
		return linkPER(0, loss2, 129) >= linkPER(0, loss1, 129)-1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
