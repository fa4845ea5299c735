package frame

import "errors"

// SuperframeSpec is the 16-bit superframe specification field carried in
// every beacon (§7.2.2.1.2).
type SuperframeSpec struct {
	BeaconOrder     uint8 // BO, 0..15; 15 = no beacons
	SuperframeOrder uint8 // SO, 0..15; 15 = superframe inactive
	FinalCAPSlot    uint8 // last slot of the contention access period
	BatteryLifeExt  bool  // BLE mode: backoff exponent limited to 0-2
	PANCoordinator  bool
	AssocPermit     bool
}

// Encode packs the superframe specification.
func (s SuperframeSpec) Encode() uint16 {
	v := uint16(s.BeaconOrder&0xF) |
		uint16(s.SuperframeOrder&0xF)<<4 |
		uint16(s.FinalCAPSlot&0xF)<<8
	if s.BatteryLifeExt {
		v |= 1 << 12
	}
	if s.PANCoordinator {
		v |= 1 << 14
	}
	if s.AssocPermit {
		v |= 1 << 15
	}
	return v
}

// GTSDescriptor allocates guaranteed time slots to one device (§7.2.2.1.3).
type GTSDescriptor struct {
	ShortAddr uint16
	StartSlot uint8 // 0..15
	Length    uint8 // number of superframe slots, 1..15
}

// MaxGTSDescriptors is the standard's cap of seven GTS allocations per
// beacon — the reason GTS cannot serve hundreds of nodes (paper §2).
const MaxGTSDescriptors = 7

// BeaconPayload is the parsed MAC payload of a beacon frame: superframe
// specification, GTS fields and pending-address fields, plus an optional
// application beacon payload.
type BeaconPayload struct {
	Superframe    SuperframeSpec
	GTSPermit     bool
	GTS           []GTSDescriptor
	GTSDirections uint8 // bit i: direction of descriptor i (1 = RX-only)
	PendingShort  []uint16
	PendingExt    []uint64
	Extra         []byte // application payload
}

// Beacon field errors.
var (
	ErrTooManyGTS     = errors.New("frame: more than 7 GTS descriptors")
	ErrTooManyPending = errors.New("frame: more than 7 pending addresses of one kind")
)

// Encode serializes the beacon MAC payload.
func (b *BeaconPayload) Encode() ([]byte, error) {
	if len(b.GTS) > MaxGTSDescriptors {
		return nil, ErrTooManyGTS
	}
	if len(b.PendingShort) > 7 || len(b.PendingExt) > 7 {
		return nil, ErrTooManyPending
	}
	out := make([]byte, 0, 16)
	out = appendUint16(out, b.Superframe.Encode())
	gtsSpec := byte(len(b.GTS) & 0x7)
	if b.GTSPermit {
		gtsSpec |= 1 << 7
	}
	out = append(out, gtsSpec)
	if len(b.GTS) > 0 {
		out = append(out, b.GTSDirections&0x7F)
		for _, d := range b.GTS {
			out = appendUint16(out, d.ShortAddr)
			out = append(out, d.StartSlot&0xF|d.Length<<4)
		}
	}
	out = append(out, byte(len(b.PendingShort)&0x7)|byte(len(b.PendingExt)&0x7)<<4)
	for _, a := range b.PendingShort {
		out = appendUint16(out, a)
	}
	for _, a := range b.PendingExt {
		out = appendUint64(out, a)
	}
	out = append(out, b.Extra...)
	return out, nil
}

// NewBeacon builds a beacon frame from a coordinator source address.
// Beacons carry source addressing only (§7.2.2.1.1).
func NewBeacon(seq uint8, src Address, payload *BeaconPayload) (*Frame, error) {
	p, err := payload.Encode()
	if err != nil {
		return nil, err
	}
	return &Frame{
		Header: Header{
			Control: Control{Type: TypeBeacon},
			Seq:     seq,
			Src:     src,
		},
		Payload: p,
	}, nil
}
