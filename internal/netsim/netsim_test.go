package netsim

import (
	"math"
	"testing"
	"time"

	"dense802154/internal/channel"
	"dense802154/internal/core"
	"dense802154/internal/mac"
	"dense802154/internal/radio"
)

func smallRun(seed int64) Result {
	return Run(Config{Nodes: 20, Superframes: 10, Seed: seed})
}

func TestRunBasics(t *testing.T) {
	r := smallRun(1)
	if r.PacketsOffered == 0 {
		t.Fatal("no packets offered")
	}
	if r.PacketsDelivered == 0 {
		t.Fatal("nothing delivered")
	}
	if r.DeliveryRatio <= 0.5 {
		t.Fatalf("delivery ratio %v too low for 20 nodes", r.DeliveryRatio)
	}
	if r.AvgPowerPerNode <= 0 {
		t.Fatal("no power accounted")
	}
	if r.MeanDelay <= 0 {
		t.Fatal("no delay measured")
	}
	if r.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestEnergyConservation(t *testing.T) {
	r := smallRun(2)
	l := r.Ledger
	// Total accounted time must equal nodes × horizon.
	horizon := time.Duration(r.Config.Superframes) * r.Config.Superframe.BeaconInterval()
	want := time.Duration(r.Config.Nodes) * horizon
	got := l.TotalTime()
	if d := got - want; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("accounted time %v != %v", got, want)
	}
	// Phase energies must sum to state energies.
	var phaseSum float64
	for _, e := range l.ByPhase {
		phaseSum += float64(e)
	}
	if math.Abs(phaseSum-float64(l.TotalEnergy()))/float64(l.TotalEnergy()) > 1e-9 {
		t.Fatalf("phase sum %v != total %v", phaseSum, float64(l.TotalEnergy()))
	}
}

func TestDeterminism(t *testing.T) {
	a, b := smallRun(3), smallRun(3)
	if a.AvgPowerPerNode != b.AvgPowerPerNode || a.PacketsDelivered != b.PacketsDelivered ||
		a.Collisions != b.Collisions {
		t.Fatal("same seed produced different runs")
	}
	c := smallRun(4)
	if c.AvgPowerPerNode == a.AvgPowerPerNode && c.Collisions == a.Collisions {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestSparseNetworkIsQuiet(t *testing.T) {
	// 2 nodes with small packets: almost no contention, no collisions,
	// delivery ≈ 100%.
	r := Run(Config{Nodes: 2, PayloadBytes: 20, Superframes: 20, Seed: 5,
		Deployment: channel.UniformLoss{MinDB: 55, MaxDB: 70}})
	if r.Collisions > 0 {
		t.Errorf("collisions in a 2-node network: %d", r.Collisions)
	}
	if r.DeliveryRatio < 0.99 {
		t.Errorf("delivery ratio %v in a quiet network", r.DeliveryRatio)
	}
	if r.AccessFailures > 0 {
		t.Errorf("access failures in a quiet network: %d", r.AccessFailures)
	}
	// Contention statistics: ≈2 CCAs, tiny Tcont.
	if r.Contention.NCCA < 2 || r.Contention.NCCA > 2.2 {
		t.Errorf("NCCA = %v, want ≈2", r.Contention.NCCA)
	}
}

func TestDenseNetworkContends(t *testing.T) {
	dense := Run(Config{Nodes: 100, Superframes: 10, Seed: 6})
	sparse := Run(Config{Nodes: 10, Superframes: 10, Seed: 6})
	if dense.Contention.PrCF <= sparse.Contention.PrCF {
		t.Error("dense network must fail channel access more")
	}
	if dense.Contention.NCCA <= sparse.Contention.NCCA {
		t.Error("dense network must need more CCAs")
	}
	if dense.Collisions == 0 {
		t.Error("dense network must collide sometimes")
	}
}

func TestCleanLinksNoCorruption(t *testing.T) {
	// All nodes at 55 dB with a -87 dBm target: BER negligible.
	r := Run(Config{Nodes: 10, Superframes: 10, Seed: 7,
		Deployment: channel.UniformLoss{MinDB: 55, MaxDB: 56}})
	if r.CorruptedFrames > 0 {
		t.Errorf("corrupted frames on clean links: %d", r.CorruptedFrames)
	}
}

func TestWeakLinksCorrupt(t *testing.T) {
	// Path loss beyond the power budget: corruption and redelivery.
	r := Run(Config{Nodes: 10, Superframes: 20, Seed: 8,
		Deployment: channel.UniformLoss{MinDB: 92, MaxDB: 94}})
	if r.CorruptedFrames == 0 {
		t.Error("no corruption at 92-94 dB")
	}
	if r.DeliveryRatio >= 1 {
		t.Error("perfect delivery at 92-94 dB is implausible")
	}
}

func TestChannelInversionPicksLevels(t *testing.T) {
	// Near nodes must use low levels, far nodes the maximum.
	near := Run(Config{Nodes: 5, Superframes: 5, Seed: 9,
		Deployment: channel.UniformLoss{MinDB: 55, MaxDB: 56}})
	far := Run(Config{Nodes: 5, Superframes: 5, Seed: 9,
		Deployment: channel.UniformLoss{MinDB: 90, MaxDB: 91}})
	// Energy per delivered packet must be lower for near nodes.
	if near.AvgPowerPerNode >= far.AvgPowerPerNode {
		t.Errorf("near power %v not below far power %v",
			near.AvgPowerPerNode, far.AvgPowerPerNode)
	}
}

func TestPhaseSharesShape(t *testing.T) {
	// The Fig. 9a shape must also emerge from the event-level simulation:
	// transmit below 60%, every other phase present.
	r := Run(Config{Nodes: 100, Superframes: 15, Seed: 10})
	tot := float64(r.Ledger.TotalEnergy())
	share := func(p radio.Phase) float64 { return float64(r.Ledger.ByPhase[p]) / tot }
	if s := share(radio.PhaseTransmit); s < 0.3 || s > 0.65 {
		t.Errorf("transmit share = %v", s)
	}
	if s := share(radio.PhaseBeacon); s < 0.08 || s > 0.3 {
		t.Errorf("beacon share = %v", s)
	}
	if s := share(radio.PhaseContention); s < 0.08 || s > 0.35 {
		t.Errorf("contention share = %v", s)
	}
	if s := share(radio.PhaseAck); s < 0.05 || s > 0.25 {
		t.Errorf("ack share = %v", s)
	}
	// State dwell: shutdown must dominate.
	frac := float64(r.Ledger.TimeIn[radio.Shutdown]) / float64(r.Ledger.TotalTime())
	if frac < 0.97 {
		t.Errorf("shutdown fraction = %v, want > 0.97", frac)
	}
}

func TestModelAgreement(t *testing.T) {
	// The VAL experiment in miniature: the event-level average power of
	// the 100-node population must agree with the analytical case study
	// within 20%.
	sim := Run(Config{Nodes: 100, Superframes: 20, Seed: 11})
	p := core.DefaultParams()
	cs, err := core.RunCaseStudy(p, core.DefaultCaseStudy())
	if err != nil {
		t.Fatal(err)
	}
	simP := sim.AvgPowerPerNode.MicroWatts()
	modP := cs.AvgPower.MicroWatts()
	if math.Abs(simP-modP)/modP > 0.20 {
		t.Fatalf("sim %v µW vs model %v µW: >20%% apart", simP, modP)
	}
	t.Logf("sim %.1f µW vs model %.1f µW (paper: 211 µW)", simP, modP)
}

func TestTransmitProbScalesLoad(t *testing.T) {
	full := Run(Config{Nodes: 50, Superframes: 10, Seed: 12})
	half := Run(Config{Nodes: 50, Superframes: 10, Seed: 12, TransmitProb: 0.5})
	if half.PacketsOffered >= full.PacketsOffered {
		t.Error("transmit probability did not thin the offering")
	}
	if half.AvgPowerPerNode >= full.AvgPowerPerNode {
		t.Error("halved traffic must cut average power")
	}
}

func TestHigherBeaconOrderCutsPower(t *testing.T) {
	sf7, _ := mac.NewSuperframe(7, 7)
	base := Run(Config{Nodes: 20, Superframes: 10, Seed: 13})
	slower := Run(Config{Nodes: 20, Superframes: 5, Seed: 13, Superframe: sf7})
	if slower.AvgPowerPerNode >= base.AvgPowerPerNode {
		t.Errorf("BO=7 power %v not below BO=6 %v",
			slower.AvgPowerPerNode, base.AvgPowerPerNode)
	}
}

func TestImprovedRadiosInSimulation(t *testing.T) {
	base := Run(Config{Nodes: 50, Superframes: 10, Seed: 14})
	fast := Run(Config{Nodes: 50, Superframes: 10, Seed: 14,
		Radio: radio.CC2420().WithTransitionScale(0.5)})
	scalable := Run(Config{Nodes: 50, Superframes: 10, Seed: 14,
		Radio: radio.CC2420().WithScalableReceiver(0.5)})
	if fast.AvgPowerPerNode >= base.AvgPowerPerNode {
		t.Error("faster transitions must cut simulated power")
	}
	_ = scalable // scalable receiver needs the low-power listen engaged:
	// the netsim nodes use full RX for CCA (physical accounting), so the
	// benefit shows only through core's analytical path; just ensure the
	// run completes.
}

func TestDelayStatistics(t *testing.T) {
	r := Run(Config{Nodes: 50, Superframes: 15, Seed: 15})
	if r.P95Delay < r.MeanDelay/2 {
		t.Fatalf("p95 %v implausibly below mean %v", r.P95Delay, r.MeanDelay)
	}
	// Delays must be below the application retry cap.
	cap := time.Duration(r.Config.MaxPacketSuperframes+1) * r.Config.Superframe.BeaconInterval()
	if r.P95Delay > cap {
		t.Fatalf("p95 delay %v beyond the retry cap %v", r.P95Delay, cap)
	}
}

// TestPacketConservation checks the packet and contention bookkeeping:
// every offered packet is delivered, dropped or still pending, every
// contention procedure ends in a transmission or an access failure (Pr_cf
// is failures over their sum, to the bit), and no more transmissions
// collide than were sent.
func TestPacketConservation(t *testing.T) {
	for _, cfg := range []Config{
		{Nodes: 100, Superframes: 10, Seed: 16},
		{Nodes: 200, Superframes: 4, Seed: 1},
		{Nodes: 10, Superframes: 20, Seed: 8, Deployment: channel.UniformLoss{MinDB: 92, MaxDB: 94}},
	} {
		r := Run(cfg)
		if r.PacketsDelivered+r.PacketsDropped+r.PacketsExpired != r.PacketsOffered {
			t.Errorf("%d nodes: packet bookkeeping: %d + %d + %d != %d", cfg.Nodes,
				r.PacketsDelivered, r.PacketsDropped, r.PacketsExpired, r.PacketsOffered)
		}
		if want := float64(r.AccessFailures) / float64(r.AccessFailures+r.Transmissions); r.Contention.PrCF != want {
			t.Errorf("%d nodes: Pr_cf %v, want %d failures over %d procedures",
				cfg.Nodes, r.Contention.PrCF, r.AccessFailures, r.AccessFailures+r.Transmissions)
		}
		if r.Collisions > r.Transmissions || r.Contention.PrCol < float64(r.Collisions)/float64(r.Transmissions) {
			t.Errorf("%d nodes: %d collisions in %d transmissions, Pr_col %v",
				cfg.Nodes, r.Collisions, r.Transmissions, r.Contention.PrCol)
		}
	}
}

// TestQueueDepthBounded pins the des package's "one pending event per node"
// claim from netsim's side: with each beacon scheduling the next, the event
// queue never holds more than one entry per node plus the pending beacon —
// in a dense superframe, over many sparse superframes (a timeline scheduled
// up front would hold every beacon at once) and across lifetime epochs.
func TestQueueDepthBounded(t *testing.T) {
	sparse, err := mac.NewSuperframe(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Nodes: 200, Superframes: 4, Seed: 1},
		{Nodes: 3, Superframes: 40, TransmitProb: 0.3, Superframe: sparse, Seed: 2},
	} {
		r := NewRunner()
		r.Run(cfg)
		if got := r.e.sim.MaxHeapDepth(); got > cfg.Nodes+1 {
			t.Errorf("%d nodes, %d superframes: queue reached %d entries, want at most %d",
				cfg.Nodes, cfg.Superframes, got, cfg.Nodes+1)
		}
	}

	cfg := Config{Nodes: 12, Superframes: 8, Seed: 77}
	ep := NewEpochs(cfg)
	defer ep.Release()
	alive := make([]bool, cfg.Nodes)
	budget := make([]float64, cfg.Nodes)
	for i := range alive {
		alive[i] = true
		budget[i] = 0.002 * float64(i+1)
	}
	energy := make([]float64, cfg.Nodes)
	for k := 0; k < 4; k++ {
		ep.Run(EpochSpec{Epoch: k, Alive: alive, BudgetJ: budget}, energy)
		if got := ep.r.e.sim.MaxHeapDepth(); got > cfg.Nodes+1 {
			t.Errorf("epoch %d: queue reached %d entries, want at most %d", k, got, cfg.Nodes+1)
		}
	}
}
