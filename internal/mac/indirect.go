package mac

import (
	"errors"
	"time"

	"dense802154/internal/frame"
	"dense802154/internal/phy"
)

// Indirect (downlink) transmission, Fig. 1b of the paper: the coordinator
// does not push frames to sleeping nodes. It queues them, advertises the
// destination in the beacon's pending-address list, and the node extracts
// its frame with a data-request command after the beacon. This file
// implements the coordinator-side queue and the per-exchange timing/cost
// used by the downlink experiment.

// ErrQueueFull reports that the beacon cannot advertise another destination.
var ErrQueueFull = errors.New("mac: indirect queue full")

// MaxPendingAddresses is the beacon's pending-address capacity per kind.
const MaxPendingAddresses = 7

// IndirectEntry is one queued downlink frame.
type IndirectEntry struct {
	Dst     uint16
	Payload []byte
}

// IndirectQueue is the coordinator's transaction-pending queue.
type IndirectQueue struct {
	entries []IndirectEntry
}

// NewIndirectQueue builds an empty queue.
func NewIndirectQueue() *IndirectQueue { return &IndirectQueue{} }

// Queue adds a downlink frame for a device. The queue is bounded by the
// beacon's advertising capacity: at most MaxPendingAddresses distinct
// destinations may be pending.
func (q *IndirectQueue) Queue(dst uint16, payload []byte) error {
	distinct := map[uint16]bool{}
	for _, e := range q.entries {
		distinct[e.Dst] = true
	}
	if !distinct[dst] && len(distinct) >= MaxPendingAddresses {
		return ErrQueueFull
	}
	q.entries = append(q.entries, IndirectEntry{
		Dst:     dst,
		Payload: append([]byte(nil), payload...),
	})
	return nil
}

// Pending reports the distinct destinations with queued frames, in queue
// order — the beacon's pending-address list.
func (q *IndirectQueue) Pending() []uint16 {
	var out []uint16
	seen := map[uint16]bool{}
	for _, e := range q.entries {
		if !seen[e.Dst] {
			seen[e.Dst] = true
			out = append(out, e.Dst)
		}
	}
	return out
}

// Len reports the number of queued frames.
func (q *IndirectQueue) Len() int { return len(q.entries) }

// DownlinkExchange is the node-side cost of one indirect delivery: the
// node hears its address in the beacon, sends a data request (a MAC
// command through CSMA), receives the coordinator's ack, stays in receive
// mode for the data frame, and acknowledges it.
type DownlinkExchange struct {
	// RequestBytes is the on-air data-request command size.
	RequestBytes int
	// DataBytes is the on-air downlink frame size.
	DataBytes int
	// RxOnTime is the node's total receiver-on time.
	RxOnTime time.Duration
	// TxOnTime is the node's total transmitter-on time.
	TxOnTime time.Duration
}

// NewDownlinkExchange sizes one indirect delivery of a payload. The data
// request is a MAC command (1-byte command id) with short addressing; per
// §7.5.6.3 the coordinator's data frame follows the request's ack.
func NewDownlinkExchange(payloadBytes int) DownlinkExchange {
	reqMPDU := MHRLengthForCommand() + 1 + frame.FCSLength
	req := phy.HeaderBytes + reqMPDU
	data := frame.DataOnAirBytes(payloadBytes, frame.AddrShort, frame.AddrShort, true)
	ex := DownlinkExchange{
		RequestBytes: req,
		DataBytes:    data,
	}
	// TX: the data request and the final acknowledgment.
	ex.TxOnTime = phy.TxDuration(req) + frame.AckDuration
	// RX: ack of the request, then the data frame itself.
	ex.RxOnTime = frame.AckDuration + phy.TxDuration(data)
	return ex
}

// MHRLengthForCommand is the MHR of an intra-PAN short/short MAC command.
func MHRLengthForCommand() int {
	return frame.MHRLength(frame.AddrShort, frame.AddrShort, true)
}
