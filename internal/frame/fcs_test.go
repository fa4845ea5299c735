package frame

import (
	"testing"
	"testing/quick"
)

func TestFCSKnownVector(t *testing.T) {
	// The 802.15.4 FCS is the KERMIT CRC-16: check("123456789") = 0x2189.
	if got := FCS([]byte("123456789")); got != 0x2189 {
		t.Fatalf("FCS = %#04x, want 0x2189", got)
	}
}

func TestFCSEmpty(t *testing.T) {
	if got := FCS(nil); got != 0 {
		t.Fatalf("FCS(nil) = %#04x, want 0", got)
	}
}

// A receiver checks an MPDU by running the CRC over the whole of it,
// FCS included: for this reflected CRC with zero init and no final XOR,
// the residue of a valid frame is zero.
func TestAppendCheckRoundTrip(t *testing.T) {
	data := []byte{0x01, 0x88, 0x42, 0xAA, 0x55}
	mpdu := AppendFCS(append([]byte(nil), data...))
	if len(mpdu) != len(data)+2 {
		t.Fatalf("AppendFCS length %d", len(mpdu))
	}
	if crc := FCS(data); mpdu[len(data)] != byte(crc) || mpdu[len(data)+1] != byte(crc>>8) {
		t.Fatalf("AppendFCS appended % x, want FCS %#04x least significant byte first", mpdu[len(data):], crc)
	}
	if FCS(mpdu) != 0 {
		t.Fatal("a freshly appended FCS leaves a non-zero residue")
	}
}

func TestCheckFCSDetectsCorruption(t *testing.T) {
	mpdu := AppendFCS([]byte{0xDE, 0xAD, 0xBE, 0xEF})
	for i := range mpdu {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), mpdu...)
			bad[i] ^= 1 << uint(bit)
			if FCS(bad) == 0 {
				t.Fatalf("single-bit corruption at byte %d bit %d undetected", i, bit)
			}
		}
	}
}

// Property: any payload with its FCS appended has a zero residue.
func TestPropertyFCSRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		return FCS(AppendFCS(append([]byte(nil), data...))) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
