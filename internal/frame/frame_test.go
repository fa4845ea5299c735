package frame

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"dense802154/internal/phy"
)

// TestControlEncode pins the 2003 frame control layout: type in bits 0-2,
// the security/pending/ack/intra-PAN flags in bits 3-6 and the addressing
// modes in bits 10-11 and 14-15.
func TestControlEncode(t *testing.T) {
	cases := []struct {
		c    Control
		want uint16
	}{
		// The common uplink frame: data, ack request, intra-PAN, short/short.
		{Control{Type: TypeData, AckRequest: true, IntraPAN: true, DstMode: AddrShort, SrcMode: AddrShort}, 0x8861},
		{Control{Type: TypeBeacon, SrcMode: AddrShort}, 0x8000},
		{Control{Type: TypeAck, FramePending: true}, 0x0012},
		{Control{Type: TypeCommand, Security: true, DstMode: AddrExtended, SrcMode: AddrExtended}, 0xCC0B},
	}
	for _, c := range cases {
		if got := c.c.Encode(); got != c.want {
			t.Errorf("%+v encodes to %#04x, want %#04x", c.c, got, c.want)
		}
	}
}

// TestDataFrameEncoding checks encoded data frames byte by byte: MHR
// fields little-endian in standard order, the source PAN elided only
// intra-PAN, the payload verbatim and the FCS over everything before it.
func TestDataFrameEncoding(t *testing.T) {
	cases := []struct {
		name     string
		dst, src Address
		payload  []byte
		ack      bool
		mhr      []byte
	}{
		{"intra-PAN short/short", ShortAddress(0x1234, 0x0001), ShortAddress(0x1234, 0x0042), []byte("hello sensor"), true,
			[]byte{0x61, 0x88, 7, 0x34, 0x12, 0x01, 0x00, 0x42, 0x00}},
		{"source only", Address{}, ShortAddress(0x1234, 0x0042), nil, false,
			[]byte{0x01, 0x80, 7, 0x34, 0x12, 0x42, 0x00}},
	}
	for _, c := range cases {
		mpdu := NewData(7, c.dst, c.src, c.payload, c.ack).Encode()
		want := AppendFCS(append(append([]byte(nil), c.mhr...), c.payload...))
		if !bytes.Equal(mpdu, want) {
			t.Errorf("%s:\n got % x\nwant % x", c.name, mpdu, want)
		}
	}
}

// TestExtendedAddressRoundTrip reads both extended addresses and the
// cross-PAN source PAN back out of an encoded frame at their standard
// offsets.
func TestExtendedAddressRoundTrip(t *testing.T) {
	dst := ExtendedAddress(0xBEEF, 0x1122334455667788)
	src := ExtendedAddress(0xCAFE, 0x8877665544332211)
	mpdu := NewData(200, dst, src, []byte{1, 2, 3}, false).Encode()
	want := AppendFCS([]byte{0x01, 0xCC, 200, 0xEF, 0xBE, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
		0xFE, 0xCA, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 1, 2, 3})
	if !bytes.Equal(mpdu, want) {
		t.Fatalf("cross-PAN extended/extended:\n got % x\nwant % x", mpdu, want)
	}
	if got := binary.LittleEndian.Uint16(mpdu[3:]); got != dst.PAN {
		t.Errorf("destination PAN %#04x, want %#04x", got, dst.PAN)
	}
	if got := binary.LittleEndian.Uint64(mpdu[5:]); got != dst.Extended {
		t.Errorf("destination %#016x, want %#016x", got, dst.Extended)
	}
	if got := binary.LittleEndian.Uint16(mpdu[13:]); got != src.PAN {
		t.Errorf("cross-PAN source PAN %#04x not preserved, want %#04x", got, src.PAN)
	}
	if got := binary.LittleEndian.Uint64(mpdu[15:]); got != src.Extended {
		t.Errorf("source %#016x, want %#016x", got, src.Extended)
	}
}

func TestIntraPANSavesTwoBytes(t *testing.T) {
	dst := ShortAddress(0x1234, 1)
	srcSame := ShortAddress(0x1234, 2)
	srcOther := Address{Mode: AddrShort, PAN: 0x9999, Short: 2}
	same := NewData(0, dst, srcSame, nil, false).Encode()
	other := NewData(0, dst, srcOther, nil, false).Encode()
	if len(other)-len(same) != 2 {
		t.Fatalf("intra-PAN elision saves %d bytes, want 2", len(other)-len(same))
	}
}

func TestAckFrame(t *testing.T) {
	mpdu := NewAck(99, true).Encode()
	if len(mpdu) != AckMPDUBytes {
		t.Fatalf("ACK MPDU = %d bytes, want %d", len(mpdu), AckMPDUBytes)
	}
	// Frame control: type ack (2) with the frame-pending bit, no addressing.
	if want := AppendFCS([]byte{0x12, 0x00, 99}); !bytes.Equal(mpdu, want) {
		t.Fatalf("ACK = % x, want % x", mpdu, want)
	}
}

func TestMHRLength(t *testing.T) {
	cases := []struct {
		dst, src AddrMode
		intra    bool
		want     int
	}{
		{AddrNone, AddrNone, false, 3},
		{AddrShort, AddrNone, false, 7},
		{AddrNone, AddrShort, false, 7},
		{AddrShort, AddrShort, false, 11},
		{AddrShort, AddrShort, true, 9},
		{AddrExtended, AddrExtended, true, 21},
		{AddrExtended, AddrExtended, false, 23},
	}
	for _, c := range cases {
		if got := MHRLength(c.dst, c.src, c.intra); got != c.want {
			t.Errorf("MHRLength(%d,%d,%v) = %d, want %d", c.dst, c.src, c.intra, got, c.want)
		}
	}
}

func TestMHRLengthMatchesEncoding(t *testing.T) {
	combos := []struct {
		dst, src Address
		intra    bool
	}{
		{ShortAddress(5, 6), ShortAddress(5, 7), true},
		{ShortAddress(5, 6), ShortAddress(9, 7), false},
		{ExtendedAddress(5, 6), ShortAddress(5, 7), true},
		{Address{}, ShortAddress(5, 7), false},
		{ShortAddress(5, 6), Address{}, false},
	}
	for _, c := range combos {
		h := Header{
			Control: Control{Type: TypeData, IntraPAN: c.intra},
			Dst:     c.dst,
			Src:     c.src,
		}
		got := len(h.EncodeMHR())
		want := MHRLength(c.dst.Mode, c.src.Mode, c.intra)
		if got != want {
			t.Errorf("encoded MHR %d bytes, MHRLength says %d (%+v)", got, want, c)
		}
	}
}

// Property: the sequence number, both short addresses and the payload of
// any short/short data frame read back from their standard offsets, and
// the FCS checks.
func TestPropertyDataFrameRoundTrip(t *testing.T) {
	f := func(seq uint8, dpan, dsh, span, ssh uint16, payload []byte, ack bool) bool {
		if len(payload) > 100 {
			payload = payload[:100]
		}
		mpdu := NewData(seq, ShortAddress(dpan, dsh), ShortAddress(span, ssh), payload, ack).Encode()
		if FCS(mpdu) != 0 || len(mpdu) != MHRLength(AddrShort, AddrShort, dpan == span)+len(payload)+2 {
			return false
		}
		src := 9
		if dpan != span {
			if binary.LittleEndian.Uint16(mpdu[7:]) != span {
				return false
			}
			src = 11
		}
		return mpdu[2] == seq &&
			binary.LittleEndian.Uint16(mpdu[3:]) == dpan &&
			binary.LittleEndian.Uint16(mpdu[5:]) == dsh &&
			binary.LittleEndian.Uint16(mpdu[src-2:]) == ssh &&
			bytes.Equal(mpdu[src:len(mpdu)-2], payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrModeLength(t *testing.T) {
	if AddrNone.Length() != 0 || AddrShort.Length() != 2 || AddrExtended.Length() != 8 {
		t.Fatal("mode lengths")
	}
}

func TestPaperSizes(t *testing.T) {
	// Paper: Lo = 13 bytes, max payload 123 bytes, 120-byte packet on air
	// (13+120)·32µs = 4.256 ms; ACK = 11 bytes on air = 352 µs.
	if PaperPacketBytes(120) != 133 {
		t.Fatal("PaperPacketBytes(120)")
	}
	if got := PaperPacketDuration(120).Microseconds(); got != 4256 {
		t.Fatalf("PaperPacketDuration(120) = %dµs", got)
	}
	if AckOnAirBytes != 11 {
		t.Fatalf("AckOnAirBytes = %d", AckOnAirBytes)
	}
	if AckDuration.Microseconds() != 352 {
		t.Fatalf("AckDuration = %v", AckDuration)
	}
	if ErrorProneBytes(120) != 129 {
		t.Fatalf("ErrorProneBytes(120) = %d", ErrorProneBytes(120))
	}
	if MaxDataPayload != 123 {
		t.Fatal("MaxDataPayload")
	}
}

// TestStandardExactVsPaperAccounting is the length oracle behind the
// model's two accountings. For every payload up to MaxDataPayload and every
// addressing layout, an encoded data frame plus the PHY header is exactly
// DataOnAirBytes long. The paper's Lo = 13 (short addressing, 4 address
// bytes, FCS folded in) is 4 bytes short of a standard-exact intra-PAN
// short/short frame: PHY 6 + MHR 9 + FCS 2 = 17 bytes of overhead.
func TestStandardExactVsPaperAccounting(t *testing.T) {
	modes := []AddrMode{AddrNone, AddrShort, AddrExtended}
	addr := func(m AddrMode, pan uint16) Address {
		switch m {
		case AddrShort:
			return ShortAddress(pan, 0x0042)
		case AddrExtended:
			return ExtendedAddress(pan, 0x1122334455667788)
		}
		return Address{}
	}
	for payload := 0; payload <= MaxDataPayload; payload++ {
		body := make([]byte, payload)
		for _, dm := range modes {
			for _, sm := range modes {
				for _, intra := range []bool{false, true} {
					srcPAN := uint16(0x1234)
					if !intra {
						srcPAN = 0x4321
					}
					f := NewData(0, addr(dm, 0x1234), addr(sm, srcPAN), body, true)
					want := DataOnAirBytes(payload, dm, sm, intra)
					if got := len(f.Encode()) + phy.HeaderBytes; got != want {
						t.Fatalf("payload %d, dst %d, src %d, intra-PAN %v: encoded %d bytes on air, DataOnAirBytes %d",
							payload, dm, sm, intra, got, want)
					}
					if f.OnAirBytes() != want {
						t.Fatalf("payload %d: OnAirBytes %d != DataOnAirBytes %d", payload, f.OnAirBytes(), want)
					}
				}
			}
		}
		if d := DataOnAirBytes(payload, AddrShort, AddrShort, true) - PaperPacketBytes(payload); d != 4 {
			t.Fatalf("payload %d: standard-exact minus paper accounting = %d bytes, want 4", payload, d)
		}
	}
	if exact := DataOnAirBytes(120, AddrShort, AddrShort, true); exact != 137 {
		t.Fatalf("standard-exact on-air bytes = %d, want 137", exact)
	}

	// MaxDataPayload is the paper's payload axis, not a PHY bound: the
	// largest intra-PAN short/short payload within aMaxPHYPacketSize is 116
	// bytes standard-exact and 120 under the paper's accounting.
	largest := func(mpdu func(int) int) int {
		l := 0
		for mpdu(l+1) <= phy.MaxPHYPacketSize {
			l++
		}
		return l
	}
	exact := largest(func(l int) int { return DataOnAirBytes(l, AddrShort, AddrShort, true) - phy.HeaderBytes })
	paper := largest(func(l int) int { return PaperPacketBytes(l) - phy.HeaderBytes })
	if exact != 116 || paper != 120 {
		t.Fatalf("largest payload within aMaxPHYPacketSize: %d standard-exact, %d paper, want 116 and 120", exact, paper)
	}
	if MaxDataPayload <= paper {
		t.Fatalf("MaxDataPayload %d now fits one PHY packet; update its doc comment", MaxDataPayload)
	}
}
