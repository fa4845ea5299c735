package radio

import (
	"math"
	"testing"
	"time"

	"dense802154/internal/units"
)

func TestDeviceStayAccrues(t *testing.T) {
	d := NewDevice(CC2420(), Idle)
	d.SetPhase(PhaseContention)
	d.Stay(time.Millisecond)
	l := d.Ledger()
	if l.TimeIn[Idle] != time.Millisecond {
		t.Fatalf("idle time = %v", l.TimeIn[Idle])
	}
	wantE := CC2420().IdlePower.Times(time.Millisecond)
	if math.Abs(float64(l.EnergyIn[Idle]-wantE)) > 1e-15 {
		t.Fatalf("idle energy = %v, want %v", l.EnergyIn[Idle], wantE)
	}
	if math.Abs(float64(l.ByPhase[PhaseContention]-wantE)) > 1e-15 {
		t.Fatalf("phase energy = %v", l.ByPhase[PhaseContention])
	}
}

func TestDeviceTransitionAccounting(t *testing.T) {
	c := CC2420()
	d := NewDevice(c, Shutdown)
	d.SetPhase(PhaseBeacon)
	dt := d.TransitionTo(Idle)
	if dt != 970*time.Microsecond {
		t.Fatalf("transition time = %v", dt)
	}
	if d.State() != Idle {
		t.Fatal("state not updated")
	}
	l := d.Ledger()
	if l.Transitions != 1 {
		t.Fatal("transition count")
	}
	tr, _ := c.Transition(Shutdown, Idle)
	if l.EnergyIn[Idle] != tr.Energy {
		t.Fatalf("arrival energy = %v, want %v", l.EnergyIn[Idle], tr.Energy)
	}
	if l.TimeIn[Idle] != tr.Duration {
		t.Fatal("arrival time")
	}
	if l.ByPhase[PhaseBeacon] != tr.Energy {
		t.Fatal("phase attribution")
	}
}

func TestDeviceSelfTransitionNoop(t *testing.T) {
	d := NewDevice(CC2420(), Idle)
	if dt := d.TransitionTo(Idle); dt != 0 {
		t.Fatal("self transition must be free")
	}
	if d.Ledger().Transitions != 0 {
		t.Fatal("self transition must not count")
	}
}

func TestDeviceIllegalTransitionPanics(t *testing.T) {
	d := NewDevice(CC2420(), Shutdown)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on illegal direct transition")
		}
	}()
	d.TransitionTo(RX)
}

func TestDeviceNegativeStayPanics(t *testing.T) {
	d := NewDevice(CC2420(), Idle)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative dwell")
		}
	}()
	d.Stay(-time.Second)
}

func TestDeviceTXLevelPower(t *testing.T) {
	c := CC2420()
	d := NewDevice(c, TX)
	d.SetTXLevelIndex(0) // -25 dBm
	d.Stay(time.Millisecond)
	e0 := d.Ledger().EnergyIn[TX]
	want := c.TXPowerAt(0).Times(time.Millisecond)
	if math.Abs(float64(e0-want)) > 1e-15 {
		t.Fatalf("TX energy at level 0 = %v, want %v", e0, want)
	}
	d.SetTXLevelIndex(7)
	d.Stay(time.Millisecond)
	e1 := d.Ledger().EnergyIn[TX] - e0
	if e1 <= e0 {
		t.Fatal("higher level must draw more energy")
	}
	// Out-of-range steps clamp to the lowest and highest level.
	for _, tc := range []struct{ set, want int }{{-3, 0}, {50, c.MaxTXLevel()}} {
		d := NewDevice(c, TX)
		d.SetTXLevelIndex(tc.set)
		d.Stay(time.Millisecond)
		if got, want := d.Ledger().EnergyIn[TX], c.TXPowerAt(tc.want).Times(time.Millisecond); got != want {
			t.Fatalf("SetTXLevelIndex(%d): TX energy %v, want level %d's %v", tc.set, got, tc.want, want)
		}
	}
}

func TestDeviceLowPowerListen(t *testing.T) {
	c := CC2420().WithScalableReceiver(0.5)
	d := NewDevice(c, RX)
	d.SetLowPowerListen(true)
	d.Stay(time.Millisecond)
	lp := d.Ledger().EnergyIn[RX]
	want := c.ListenPower.Times(time.Millisecond)
	if math.Abs(float64(lp-want)) > 1e-15 {
		t.Fatalf("listen energy = %v, want %v", lp, want)
	}
	d.SetLowPowerListen(false)
	d.Stay(time.Millisecond)
	full := d.Ledger().EnergyIn[RX] - lp
	if math.Abs(float64(full-c.RXPower.Times(time.Millisecond))) > 1e-15 {
		t.Fatal("full RX power after disengaging listen mode")
	}
}

func TestLedgerTotalsAndMerge(t *testing.T) {
	d1 := NewDevice(CC2420(), Idle)
	d1.Stay(time.Second)
	d2 := NewDevice(CC2420(), RX)
	d2.SetPhase(PhaseAck)
	d2.Stay(time.Second)

	var sum Ledger
	sum.Merge(d1.Ledger())
	sum.Merge(d2.Ledger())
	if sum.TotalTime() != 2*time.Second {
		t.Fatalf("total time = %v", sum.TotalTime())
	}
	wantE := CC2420().IdlePower.Times(time.Second) + CC2420().RXPower.Times(time.Second)
	if math.Abs(float64(sum.TotalEnergy()-wantE))/float64(wantE) > 1e-12 {
		t.Fatalf("total energy = %v, want %v", sum.TotalEnergy(), wantE)
	}
	avg := sum.AveragePower()
	if math.Abs(float64(avg-wantE.Over(2*time.Second)))/float64(avg) > 1e-12 {
		t.Fatalf("average power = %v", avg)
	}
	if sum.ByPhase[PhaseAck] == 0 {
		t.Fatal("phase lost in merge")
	}
}

func TestPhaseStrings(t *testing.T) {
	phases := []Phase{PhaseSleep, PhaseBeacon, PhaseContention, PhaseTransmit, PhaseAck, PhaseIFS, PhaseOther, Phase(99)}
	for _, p := range phases {
		if p.String() == "" {
			t.Fatalf("empty string for phase %d", int(p))
		}
	}
}

func TestEnergyTimeConsistency(t *testing.T) {
	// A full emulated transaction: wake, beacon RX, idle, CCA, TX, ack RX,
	// shutdown. Energy must equal the sum of state powers times dwell
	// times plus transition energies.
	c := CC2420()
	d := NewDevice(c, Shutdown)
	d.SetPhase(PhaseSleep)
	d.Stay(100 * time.Millisecond)
	d.SetPhase(PhaseBeacon)
	d.TransitionTo(Idle)
	d.TransitionTo(RX)
	d.Stay(960 * time.Microsecond)
	d.SetPhase(PhaseContention)
	d.TransitionTo(Idle)
	d.Stay(2 * time.Millisecond)
	d.TransitionTo(RX)
	d.Stay(128 * time.Microsecond)
	d.SetPhase(PhaseTransmit)
	d.TransitionTo(TX)
	d.Stay(4256 * time.Microsecond)
	d.SetPhase(PhaseAck)
	d.TransitionTo(RX)
	d.Stay(352 * time.Microsecond)
	d.SetPhase(PhaseSleep)
	d.TransitionTo(Idle)
	d.TransitionTo(Shutdown)

	l := d.Ledger()
	var phaseSum units.Energy
	for _, e := range l.ByPhase {
		phaseSum += e
	}
	if math.Abs(float64(phaseSum-l.TotalEnergy()))/float64(l.TotalEnergy()) > 1e-12 {
		t.Fatalf("phase energies %v != state energies %v", phaseSum, l.TotalEnergy())
	}
	// shutdown→idle→rx (wake) + rx→idle + idle→rx + rx→tx + tx→rx +
	// rx→idle + idle→shutdown = 8 state changes.
	if l.Transitions != 8 {
		t.Fatalf("transitions = %d, want 8", l.Transitions)
	}
}

func TestDeviceInitResetsInPlace(t *testing.T) {
	// Init must restore a used device to NewDevice's state without
	// allocating — the network simulator recycles value-embedded devices
	// across pooled runs.
	c := CC2420()
	var d Device
	d.Init(c, Shutdown)
	d.SetPhase(PhaseContention)
	d.SetLowPowerListen(true)
	d.SetTXLevelIndex(2)
	d.TransitionTo(Idle)
	d.Stay(time.Millisecond)
	if d.Ledger().TotalEnergy() == 0 {
		t.Fatal("expected accrued energy before reinit")
	}

	d.Init(c, Shutdown)
	fresh := NewDevice(c, Shutdown)
	if d != *fresh {
		t.Fatalf("Init left state behind:\n%+v\nwant\n%+v", d, *fresh)
	}
	if allocs := testing.AllocsPerRun(10, func() { d.Init(c, Shutdown) }); allocs > 0 {
		t.Fatalf("Init allocated %v per call, want 0", allocs)
	}
}
