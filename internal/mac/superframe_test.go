package mac

import (
	"math"
	"testing"
	"time"

	"dense802154/internal/frame"
)

func TestBaseSuperframeDuration(t *testing.T) {
	// Paper: Tib_min = 15.36 ms.
	if BaseSuperframeDuration != 15360*time.Microsecond {
		t.Fatalf("base superframe = %v", BaseSuperframeDuration)
	}
}

func TestBeaconIntervalScaling(t *testing.T) {
	// Paper's case study: BO = 6 -> Tib = 15.36ms · 64 = 983.04 ms.
	if got := BeaconInterval(6); got != 983040*time.Microsecond {
		t.Fatalf("Tib(BO=6) = %v", got)
	}
	if got := BeaconInterval(0); got != BaseSuperframeDuration {
		t.Fatalf("Tib(BO=0) = %v", got)
	}
}

func TestAckTiming(t *testing.T) {
	// Paper: t_ack- = 192 µs, t_ack+ = 864 µs.
	if AckWaitMin != 192*time.Microsecond {
		t.Fatalf("t_ack- = %v", AckWaitMin)
	}
	if AckWaitMax != 864*time.Microsecond {
		t.Fatalf("t_ack+ = %v", AckWaitMax)
	}
}

func TestIFS(t *testing.T) {
	if SIFS != 192*time.Microsecond || LIFS != 640*time.Microsecond {
		t.Fatalf("SIFS/LIFS = %v/%v", SIFS, LIFS)
	}
	if IFSFor(18) != SIFS {
		t.Fatal("18-byte MPDU takes SIFS")
	}
	if IFSFor(19) != LIFS {
		t.Fatal("19-byte MPDU takes LIFS")
	}
}

func TestNewSuperframeValidation(t *testing.T) {
	if _, err := NewSuperframe(6, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSuperframe(15, 6); err == nil {
		t.Error("BO=15 must be rejected")
	}
	if _, err := NewSuperframe(4, 6); err == nil {
		t.Error("SO > BO must be rejected")
	}
	bad := Superframe{BO: 6, SO: 6, FinalCAPSlot: 16}
	if bad.Validate() == nil {
		t.Error("final CAP slot out of range accepted")
	}
	// Tiny CAP: final slot 0 at SO=0 is 60 symbols < aMinCAPLength.
	tiny := Superframe{BO: 0, SO: 0, FinalCAPSlot: 0}
	if tiny.Validate() == nil {
		t.Error("CAP below aMinCAPLength accepted")
	}
}

func TestSuperframeGeometry(t *testing.T) {
	sf, err := NewSuperframe(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if sf.BeaconInterval() != 983040*time.Microsecond {
		t.Fatal("beacon interval")
	}
	if sf.ActiveDuration() != sf.BeaconInterval() {
		t.Fatal("SO=BO means fully active")
	}
	if sf.InactiveDuration() != 0 {
		t.Fatal("no inactive portion at SO=BO")
	}
	if sf.SlotDuration() != sf.ActiveDuration()/16 {
		t.Fatal("slot duration")
	}
	if sf.CAPDuration() != sf.ActiveDuration() {
		t.Fatal("full CAP when FinalCAPSlot=15")
	}
	if sf.CFPDuration() != 0 {
		t.Fatal("no CFP by default")
	}
	if got := sf.DutyCycle(); got != 1 {
		t.Fatalf("duty cycle = %v", got)
	}
	if sf.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestSuperframeDutyCycleSixteenth(t *testing.T) {
	// The paper: "switched off up to 15/16 of the time" — BO-SO=4 gives
	// 1/16 duty cycle.
	sf, err := NewSuperframe(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := sf.DutyCycle(); math.Abs(got-1.0/16) > 1e-12 {
		t.Fatalf("duty cycle = %v, want 1/16", got)
	}
	if sf.InactiveDuration() != sf.BeaconInterval()-sf.ActiveDuration() {
		t.Fatal("inactive duration")
	}
}

func TestBackoffSlots(t *testing.T) {
	sf, _ := NewSuperframe(6, 6)
	// 983.04 ms / 320 µs = 3072 backoff periods.
	if got := sf.BackoffSlots(); got != 3072 {
		t.Fatalf("backoff slots = %d, want 3072", got)
	}
}

func TestChannelLoadMatchesCaseStudy(t *testing.T) {
	// 100 nodes × 4.256 ms / 983.04 ms ≈ 0.433 — the paper's "load of
	// 42% in each channel" (they quote the nominal 42%).
	sf, _ := NewSuperframe(6, 6)
	load := sf.ChannelLoad(100, frame.PaperPacketDuration(120))
	if load < 0.41 || load < 0.42 && load > 0.45 || load > 0.45 {
		t.Fatalf("case-study load = %v, want ≈0.42-0.44", load)
	}
}

func TestGTSAllocation(t *testing.T) {
	sf, _ := NewSuperframe(6, 6)
	db := NewGTSDB(sf)
	d1, err := db.Allocate(0x10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d1.StartSlot != 14 || d1.Length != 2 {
		t.Fatalf("first GTS = %+v, want start 14 len 2", d1)
	}
	d2, err := db.Allocate(0x20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d2.StartSlot != 11 {
		t.Fatalf("second GTS start = %d, want 11", d2.StartSlot)
	}
	// Duplicate.
	if _, err := db.Allocate(0x10, 1); err != ErrGTSDuplicate {
		t.Fatalf("duplicate err = %v", err)
	}
}

func TestGTSLimits(t *testing.T) {
	sf, _ := NewSuperframe(6, 6)
	db := NewGTSDB(sf)
	if _, err := db.Allocate(1, 0); err == nil {
		t.Error("zero-length GTS accepted")
	}
	// Seven 1-slot GTS fit; the 8th descriptor must fail.
	for i := 0; i < 7; i++ {
		if _, err := db.Allocate(uint16(i+1), 1); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := db.Allocate(99, 1); err != ErrGTSFull {
		t.Fatalf("8th descriptor err = %v", err)
	}
}

func TestGTSCAPProtection(t *testing.T) {
	// At SO=0 a slot is 60 symbols; aMinCAPLength=440 symbols requires at
	// least 8 CAP slots, so at most 8 slots may be dedicated.
	sf, _ := NewSuperframe(0, 0)
	db := NewGTSDB(sf)
	if _, err := db.Allocate(1, 8); err != nil {
		t.Fatalf("8-slot GTS at SO=0: %v", err)
	}
	if _, err := db.Allocate(2, 1); err != ErrGTSNoRoom {
		t.Fatalf("9th dedicated slot err = %v", err)
	}
}

func TestMaxNodesServed(t *testing.T) {
	// The paper's argument: seven descriptors cannot serve 100 nodes.
	sf, _ := NewSuperframe(6, 6)
	if got := MaxNodesServed(sf, 1); got != 7 {
		t.Fatalf("MaxNodesServed = %d, want 7", got)
	}
	if got := MaxNodesServed(sf, 2); got != 7 {
		t.Fatalf("MaxNodesServed(2) = %d, want 7 (descriptor-bound)", got)
	}
	sf0, _ := NewSuperframe(0, 0)
	if got := MaxNodesServed(sf0, 2); got != 4 {
		t.Fatalf("MaxNodesServed(SO=0, 2 slots) = %d, want 4 (CAP-bound)", got)
	}
}
