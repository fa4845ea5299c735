package mac

import (
	"errors"
	"time"

	"dense802154/internal/frame"
	"dense802154/internal/phy"
)

// Association (§7.5.3.1): before the dense network of the case study can
// run, each of its 1600 devices must join a PAN: it sends an association
// request command (using its 64-bit extended address), the coordinator
// acknowledges, and after macResponseWaitTime the device polls with a data
// request to collect the association response — an indirect transmission
// carrying its newly assigned 16-bit short address.

// AssociationStatus is the §7.3.2.3 response status.
type AssociationStatus byte

// Association response statuses.
const (
	AssocSuccess       AssociationStatus = 0x00
	AssocPANAtCapacity AssociationStatus = 0x01
	AssocAccessDenied  AssociationStatus = 0x02
)

// String implements fmt.Stringer.
func (s AssociationStatus) String() string {
	switch s {
	case AssocSuccess:
		return "success"
	case AssocPANAtCapacity:
		return "pan-at-capacity"
	case AssocAccessDenied:
		return "access-denied"
	default:
		return "reserved"
	}
}

// Reserved short addresses (§7.1.1.4).
const (
	AddrBroadcast   = 0xFFFF // broadcast
	AddrNoShortAddr = 0xFFFE // associated but using extended addressing
	AddrCoordinator = 0x0000 // conventional coordinator address
)

// ErrPoolExhausted is returned when no short addresses remain.
var ErrPoolExhausted = errors.New("mac: short address pool exhausted")

// AddressPool is the coordinator's short-address allocator.
type AddressPool struct {
	next uint16
}

// NewAddressPool allocates addresses starting at `start` (typically 1,
// keeping 0x0000 for the coordinator).
func NewAddressPool(start uint16) *AddressPool {
	if start == 0 {
		start = 1
	}
	return &AddressPool{next: start}
}

// Assign hands out the next short address. The pool is exhausted at the
// first reserved value.
func (p *AddressPool) Assign() (uint16, error) {
	a := p.next
	if a == AddrNoShortAddr || a == AddrBroadcast {
		return 0, ErrPoolExhausted
	}
	p.next++
	return a, nil
}

// ResponseWaitTime is macResponseWaitTime: the delay before the device
// polls for the association response (32 · aBaseSuperframeDuration
// symbols at the 2450 MHz rate ≈ 30.7 ms... the 2003 default is
// aResponseWaitTime = 32·aBaseSuperframeDuration symbols).
const ResponseWaitTime = 32 * BaseSuperframeDuration / 2 // 245.76 ms

// AssociationExchange is the device-side radio cost of one association.
type AssociationExchange struct {
	RequestBytes  int // association request command on air
	ResponseBytes int // association response command on air
	PollBytes     int // data request command on air
	TxOnTime      time.Duration
	RxOnTime      time.Duration
}

// NewAssociationExchange sizes the §7.5.3.1 message sequence. The request
// and response carry 64-bit extended addressing on the device side (no
// short address exists yet).
func NewAssociationExchange() AssociationExchange {
	// Association request: dst = coordinator (short), src = extended,
	// payload = command id + 1 capability byte.
	reqMPDU := frame.MHRLength(frame.AddrShort, frame.AddrExtended, true) + 2 + frame.FCSLength
	// Data request (§7.3.2.4, extended source while unassociated).
	pollMPDU := frame.MHRLength(frame.AddrShort, frame.AddrExtended, true) + 1 + frame.FCSLength
	// Association response: dst = extended, src = coordinator short,
	// payload = command id + 2-byte short address + 1 status byte.
	respMPDU := frame.MHRLength(frame.AddrExtended, frame.AddrShort, true) + 4 + frame.FCSLength

	ex := AssociationExchange{
		RequestBytes:  phy.HeaderBytes + reqMPDU,
		ResponseBytes: phy.HeaderBytes + respMPDU,
		PollBytes:     phy.HeaderBytes + pollMPDU,
	}
	// Device transmits: request, poll, and the final ack of the response.
	ex.TxOnTime = phy.TxDuration(ex.RequestBytes) +
		phy.TxDuration(ex.PollBytes) + frame.AckDuration
	// Device receives: two acks (request, poll) and the response frame.
	ex.RxOnTime = 2*frame.AckDuration + phy.TxDuration(ex.ResponseBytes)
	return ex
}
