// Package frame encodes IEEE 802.15.4-2003 MAC frames: the frame control
// field, beacon, data and acknowledgment frames, short/extended addressing, the beacon's superframe/GTS/pending-address
// fields, and the CRC-16 frame check sequence.
//
// The model and the simulator account lengths, not bytes: the paper's
// Lo = 13 byte overhead (Fig. 5) alongside the standard-exact lengths
// (sizes.go). The encoder is the byte-exact reference those lengths are
// checked against.
package frame

// Type is the 802.15.4 frame type (frame control bits 0-2).
type Type uint8

// Frame types.
const (
	TypeBeacon  Type = 0
	TypeData    Type = 1
	TypeAck     Type = 2
	TypeCommand Type = 3
)

// AddrMode is an addressing mode (frame control bits 10-11 / 14-15).
type AddrMode uint8

// Addressing modes. The value 1 is reserved by the standard.
const (
	AddrNone     AddrMode = 0
	AddrShort    AddrMode = 2
	AddrExtended AddrMode = 3
)

// Length reports the number of bytes the address itself occupies (without
// the PAN identifier).
func (m AddrMode) Length() int {
	switch m {
	case AddrShort:
		return 2
	case AddrExtended:
		return 8
	default:
		return 0
	}
}

// FCSLength is the size of the frame check sequence.
const FCSLength = 2

// Control is the decoded 16-bit frame control field.
type Control struct {
	Type         Type
	Security     bool
	FramePending bool
	AckRequest   bool
	IntraPAN     bool
	DstMode      AddrMode
	SrcMode      AddrMode
}

// Encode packs the frame control field (2003 layout).
func (c Control) Encode() uint16 {
	v := uint16(c.Type) & 0x7
	if c.Security {
		v |= 1 << 3
	}
	if c.FramePending {
		v |= 1 << 4
	}
	if c.AckRequest {
		v |= 1 << 5
	}
	if c.IntraPAN {
		v |= 1 << 6
	}
	v |= uint16(c.DstMode&0x3) << 10
	v |= uint16(c.SrcMode&0x3) << 14
	return v
}

// Address is one addressing entry (destination or source).
type Address struct {
	Mode     AddrMode
	PAN      uint16
	Short    uint16
	Extended uint64
}

// ShortAddress builds a short address in a PAN.
func ShortAddress(pan, short uint16) Address {
	return Address{Mode: AddrShort, PAN: pan, Short: short}
}

// ExtendedAddress builds a 64-bit extended address in a PAN.
func ExtendedAddress(pan uint16, ext uint64) Address {
	return Address{Mode: AddrExtended, PAN: pan, Extended: ext}
}

// Header is the MAC header (MHR).
type Header struct {
	Control Control
	Seq     uint8
	Dst     Address
	Src     Address
}

// Frame is a complete MAC frame before FCS attachment.
type Frame struct {
	Header  Header
	Payload []byte
}

func appendUint16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendUint64(b []byte, v uint64) []byte {
	for i := 0; i < 8; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

// EncodeMHR serializes the MAC header. The addressing modes in the frame
// control field must agree with the Dst/Src modes; Encode synchronizes them
// from the Address values. With IntraPAN set and both addresses present,
// the source PAN identifier is elided per §7.2.1.1.5.
func (h *Header) EncodeMHR() []byte {
	h.Control.DstMode = h.Dst.Mode
	h.Control.SrcMode = h.Src.Mode
	out := make([]byte, 0, 23)
	out = appendUint16(out, h.Control.Encode())
	out = append(out, h.Seq)
	if h.Dst.Mode != AddrNone {
		out = appendUint16(out, h.Dst.PAN)
		if h.Dst.Mode == AddrShort {
			out = appendUint16(out, h.Dst.Short)
		} else {
			out = appendUint64(out, h.Dst.Extended)
		}
	}
	if h.Src.Mode != AddrNone {
		if !(h.Control.IntraPAN && h.Dst.Mode != AddrNone) {
			out = appendUint16(out, h.Src.PAN)
		}
		if h.Src.Mode == AddrShort {
			out = appendUint16(out, h.Src.Short)
		} else {
			out = appendUint64(out, h.Src.Extended)
		}
	}
	return out
}

// Encode serializes the full MPDU: MHR, payload and FCS.
func (f *Frame) Encode() []byte {
	out := f.Header.EncodeMHR()
	out = append(out, f.Payload...)
	return AppendFCS(out)
}

// MHRLength reports the MAC header size for the given addressing layout.
func MHRLength(dst, src AddrMode, intraPAN bool) int {
	n := 3 // frame control + sequence number
	if dst != AddrNone {
		n += 2 + dst.Length()
	}
	if src != AddrNone {
		if !(intraPAN && dst != AddrNone) {
			n += 2
		}
		n += src.Length()
	}
	return n
}

// NewData builds an uplink data frame.
func NewData(seq uint8, dst, src Address, payload []byte, ackRequest bool) *Frame {
	return &Frame{
		Header: Header{
			Control: Control{
				Type:       TypeData,
				AckRequest: ackRequest,
				IntraPAN:   dst.Mode != AddrNone && src.Mode != AddrNone && dst.PAN == src.PAN,
			},
			Seq: seq,
			Dst: dst,
			Src: src,
		},
		Payload: append([]byte(nil), payload...),
	}
}

// NewAck builds an acknowledgment frame for the given sequence number.
// An ACK carries no addressing: MPDU is 5 bytes (§7.2.2.3).
func NewAck(seq uint8, framePending bool) *Frame {
	return &Frame{
		Header: Header{
			Control: Control{Type: TypeAck, FramePending: framePending},
			Seq:     seq,
		},
	}
}
