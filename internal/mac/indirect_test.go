package mac

import (
	"testing"

	"dense802154/internal/frame"
	"dense802154/internal/phy"
)

func TestIndirectQueueFlow(t *testing.T) {
	q := NewIndirectQueue()
	if err := q.Queue(0x10, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := q.Queue(0x10, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := q.Queue(0x20, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
	pend := q.Pending()
	if len(pend) != 2 || pend[0] != 0x10 || pend[1] != 0x20 {
		t.Fatalf("pending = %v", pend)
	}
}

func TestIndirectQueueCapacity(t *testing.T) {
	q := NewIndirectQueue()
	for i := 0; i < MaxPendingAddresses; i++ {
		if err := q.Queue(uint16(i+1), nil); err != nil {
			t.Fatal(err)
		}
	}
	// An 8th distinct destination cannot be advertised.
	if err := q.Queue(0x99, nil); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	// But another frame for an existing destination is fine.
	if err := q.Queue(1, []byte("more")); err != nil {
		t.Fatal(err)
	}
}

func TestDownlinkExchangeSizes(t *testing.T) {
	ex := NewDownlinkExchange(10)
	// Data request: PHY 6 + MHR 9 (intra-PAN short/short) + 1 cmd +
	// FCS 2 = 18 bytes.
	if ex.RequestBytes != 18 {
		t.Fatalf("request bytes = %d, want 18", ex.RequestBytes)
	}
	// Downlink data: PHY 6 + MHR 9 + 10 + FCS 2 = 27 bytes.
	if ex.DataBytes != 27 {
		t.Fatalf("data bytes = %d, want 27", ex.DataBytes)
	}
	// Node TX = request + its ack of the data frame.
	wantTx := phy.TxDuration(18) + frame.AckDuration
	if ex.TxOnTime != wantTx {
		t.Fatalf("tx on-time = %v, want %v", ex.TxOnTime, wantTx)
	}
	// Node RX = coordinator's ack + the data frame.
	wantRx := frame.AckDuration + phy.TxDuration(27)
	if ex.RxOnTime != wantRx {
		t.Fatalf("rx on-time = %v, want %v", ex.RxOnTime, wantRx)
	}
}

func TestDownlinkScalesWithPayload(t *testing.T) {
	small := NewDownlinkExchange(5)
	large := NewDownlinkExchange(100)
	if large.RxOnTime <= small.RxOnTime {
		t.Fatal("bigger downlink payload must mean more RX time")
	}
	if large.TxOnTime != small.TxOnTime {
		t.Fatal("node TX time is payload-independent (request + ack)")
	}
}
