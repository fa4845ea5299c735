package frame

import (
	"bytes"
	"testing"
	"testing/quick"
)

// TestSuperframeSpecEncode pins the superframe specification layout on a
// known vector: BO, SO and the final CAP slot in 4-bit fields from bit 0,
// then battery life extension (bit 12), PAN coordinator (bit 14) and
// association permit (bit 15).
func TestSuperframeSpecEncode(t *testing.T) {
	s := SuperframeSpec{
		BeaconOrder:     6,
		SuperframeOrder: 6,
		FinalCAPSlot:    15,
		PANCoordinator:  true,
		AssocPermit:     true,
	}
	if got := s.Encode(); got != 0xCF66 {
		t.Fatalf("%+v encodes to %#04x, want 0xcf66", s, got)
	}
}

// Property: every field combination of the superframe specification lands
// in its own bits, and the reserved bit 13 stays clear.
func TestPropertySuperframeSpec(t *testing.T) {
	f := func(bo, so, cap uint8, ble, pc, ap bool) bool {
		s := SuperframeSpec{
			BeaconOrder:     bo & 0xF,
			SuperframeOrder: so & 0xF,
			FinalCAPSlot:    cap & 0xF,
			BatteryLifeExt:  ble,
			PANCoordinator:  pc,
			AssocPermit:     ap,
		}
		v := s.Encode()
		bit := func(i uint) bool { return v&(1<<i) != 0 }
		return uint8(v&0xF) == s.BeaconOrder && uint8(v>>4&0xF) == s.SuperframeOrder &&
			uint8(v>>8&0xF) == s.FinalCAPSlot && bit(12) == ble && !bit(13) &&
			bit(14) == pc && bit(15) == ap
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBeaconPayloadEncoding checks a beacon payload with every optional
// field byte by byte (§7.2.2.1).
func TestBeaconPayloadEncoding(t *testing.T) {
	b := &BeaconPayload{
		Superframe: SuperframeSpec{BeaconOrder: 6, SuperframeOrder: 6, FinalCAPSlot: 15, PANCoordinator: true},
		GTSPermit:  true,
		GTS: []GTSDescriptor{
			{ShortAddr: 0x0010, StartSlot: 13, Length: 2},
			{ShortAddr: 0x0020, StartSlot: 15, Length: 1},
		},
		GTSDirections: 0b01,
		PendingShort:  []uint16{0x0042, 0x0043},
		PendingExt:    []uint64{0x1122334455667788},
		Extra:         []byte{0xAB},
	}
	enc, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x66, 0x4F, // superframe spec
		0x82,             // GTS spec: permit, 2 descriptors
		0x01,             // GTS directions
		0x10, 0x00, 0x2D, // descriptor: addr 0x0010, start 13, length 2
		0x20, 0x00, 0x1F, // descriptor: addr 0x0020, start 15, length 1
		0x12,       // pending spec: 2 short, 1 extended
		0x42, 0x00, // pending short addresses
		0x43, 0x00,
		0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // pending extended address
		0xAB, // beacon payload
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("beacon payload:\n got % x\nwant % x", enc, want)
	}
}

func TestBeaconPayloadMinimal(t *testing.T) {
	b := &BeaconPayload{Superframe: SuperframeSpec{BeaconOrder: 6, SuperframeOrder: 6}}
	enc, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// superframe(2) + gts spec(1) + pending spec(1) = 4 bytes minimum, with
	// no GTS or pending entries announced.
	if want := []byte{0x66, 0x00, 0x00, 0x00}; !bytes.Equal(enc, want) {
		t.Fatalf("minimal beacon payload = % x, want % x", enc, want)
	}
}

func TestBeaconLimits(t *testing.T) {
	b := &BeaconPayload{GTS: make([]GTSDescriptor, 8)}
	if _, err := b.Encode(); err != ErrTooManyGTS {
		t.Fatalf("err = %v, want ErrTooManyGTS", err)
	}
	b = &BeaconPayload{PendingShort: make([]uint16, 8)}
	if _, err := b.Encode(); err != ErrTooManyPending {
		t.Fatalf("err = %v, want ErrTooManyPending", err)
	}
}

func TestNewBeaconFullFrame(t *testing.T) {
	payload := &BeaconPayload{
		Superframe: SuperframeSpec{BeaconOrder: 6, SuperframeOrder: 6, FinalCAPSlot: 15, PANCoordinator: true},
	}
	f, err := NewBeacon(5, ShortAddress(0x1234, 0x0000), payload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := payload.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Beacon frame control (type 0, source short addressing only), then
	// sequence, source PAN and source address.
	mhr := []byte{0x00, 0x80, 5, 0x34, 0x12, 0x00, 0x00}
	if want := AppendFCS(append(mhr, p...)); !bytes.Equal(f.Encode(), want) {
		t.Fatalf("beacon MPDU:\n got % x\nwant % x", f.Encode(), want)
	}
}

func TestBeaconOnAirBytes(t *testing.T) {
	// Minimal beacon: PHY 6 + MHR 7 (fc2+seq1+srcPAN2+src2) + payload 4 +
	// FCS 2 = 19 bytes.
	if got := BeaconOnAirBytes(0, 0, 0, 0); got != 19 {
		t.Fatalf("minimal beacon = %d bytes, want 19", got)
	}
	// Every GTS and pending-address count the beacon can carry must agree
	// with an actually encoded beacon.
	for g := 0; g <= MaxGTSDescriptors; g++ {
		for ps := 0; ps <= 7; ps++ {
			for pe := 0; pe <= 7; pe++ {
				for _, x := range []int{0, 3} {
					payload := &BeaconPayload{
						GTS:          make([]GTSDescriptor, g),
						PendingShort: make([]uint16, ps),
						PendingExt:   make([]uint64, pe),
						Extra:        make([]byte, x),
					}
					f, err := NewBeacon(0, ShortAddress(1, 0), payload)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := f.OnAirBytes(), BeaconOnAirBytes(g, ps, pe, x); got != want {
						t.Fatalf("g=%d ps=%d pe=%d x=%d: encoded beacon %d bytes, BeaconOnAirBytes %d", g, ps, pe, x, got, want)
					}
				}
			}
		}
	}
}

func TestMaxGTSDescriptorsIsSeven(t *testing.T) {
	// The paper's §2 argument that GTS cannot serve hundreds of nodes.
	if MaxGTSDescriptors != 7 {
		t.Fatal("the standard caps GTS descriptors at 7")
	}
}
