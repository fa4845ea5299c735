package mac

import (
	"testing"
	"time"

	"dense802154/internal/frame"
	"dense802154/internal/phy"
)

func TestAddressPoolAssignsDistinct(t *testing.T) {
	p := NewAddressPool(1)
	seen := map[uint16]bool{}
	for i := 0; i < 1600; i++ {
		a, err := p.Assign()
		if err != nil {
			t.Fatalf("assign %d: %v", i, err)
		}
		if seen[a] {
			t.Fatalf("duplicate address %#04x", a)
		}
		if a == AddrBroadcast || a == AddrNoShortAddr || a == AddrCoordinator {
			t.Fatalf("reserved address %#04x assigned", a)
		}
		seen[a] = true
	}
}

func TestAddressPoolExhaustion(t *testing.T) {
	p := NewAddressPool(0xFFFD)
	if _, err := p.Assign(); err != nil {
		t.Fatal(err)
	}
	// Next would be 0xFFFE (reserved): pool is done.
	if _, err := p.Assign(); err != ErrPoolExhausted {
		t.Fatalf("err = %v, want ErrPoolExhausted", err)
	}
}

func TestAddressPoolZeroStart(t *testing.T) {
	p := NewAddressPool(0)
	a, err := p.Assign()
	if err != nil || a == 0 {
		t.Fatalf("assign from zero start: %v %v", a, err)
	}
}

func TestAssociationStatusStrings(t *testing.T) {
	for _, s := range []AssociationStatus{AssocSuccess, AssocPANAtCapacity, AssocAccessDenied, 0x77} {
		if s.String() == "" {
			t.Fatalf("empty string for %d", s)
		}
	}
}

func TestAssociationExchangeSizes(t *testing.T) {
	ex := NewAssociationExchange()
	// Request: PHY 6 + MHR(short dst, ext src, intra-PAN: 3+4+8=15) +
	// 2 payload + 2 FCS = 25 bytes.
	if ex.RequestBytes != 25 {
		t.Fatalf("request = %d bytes, want 25", ex.RequestBytes)
	}
	// Poll: 15 + 1 + 2 + 6 = 24 bytes.
	if ex.PollBytes != 24 {
		t.Fatalf("poll = %d bytes, want 24", ex.PollBytes)
	}
	// Response: MHR(ext dst 10+... 3+10+2=15) + 4 + 2 + 6 = 27 bytes.
	if ex.ResponseBytes != 27 {
		t.Fatalf("response = %d bytes, want 27", ex.ResponseBytes)
	}
	wantTx := phy.TxDuration(25) + phy.TxDuration(24) + frame.AckDuration
	if ex.TxOnTime != wantTx {
		t.Fatalf("tx time = %v, want %v", ex.TxOnTime, wantTx)
	}
	wantRx := 2*frame.AckDuration + phy.TxDuration(27)
	if ex.RxOnTime != wantRx {
		t.Fatalf("rx time = %v, want %v", ex.RxOnTime, wantRx)
	}
}

func TestResponseWaitTime(t *testing.T) {
	// 32 base superframes halved = 245.76 ms at the 2450 MHz rate.
	if ResponseWaitTime != 245760*time.Microsecond {
		t.Fatalf("response wait = %v", ResponseWaitTime)
	}
}
