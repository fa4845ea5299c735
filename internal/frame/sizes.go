package frame

import (
	"time"

	"dense802154/internal/phy"
)

// This file collects the on-air length accounting used by the analytical
// model. Two views coexist:
//
//   - the standard-exact lengths (EncodeMHR + payload + FCS + PHY header),
//     used by the MAC's downlink and association exchanges;
//   - the paper's accounting of Fig. 5 / eq. (3): a fixed Lo = 13 byte
//     overhead (4 preamble + 1 SFD + 1 PHY header + 2 frame control +
//     1 sequence + 4 short addressing) added to the payload, with the FCS
//     folded into the addressing allowance. The model uses this by default
//     so that T_packet = (Lo + L) · T_B reproduces the paper.

// PaperOverheadBytes is the paper's Lo: the PHY+MAC overhead per data
// packet with short addresses (Fig. 5).
const PaperOverheadBytes = 13

// MaxDataPayload is the largest MAC data payload the model accepts
// (123 bytes, the upper end of the paper's payload axis). It is not bounded
// by aMaxPHYPacketSize (phy.MaxPHYPacketSize = 127 MPDU bytes): an
// intra-PAN short/short data frame fits at most 116 payload bytes
// standard-exact (9 MHR + 2 FCS) and 120 under the paper's Lo = 13
// accounting (7 MPDU overhead bytes), so payloads above those limits
// describe frames no radio can send.
const MaxDataPayload = 123

// PaperPacketBytes reports the total on-air bytes of a data packet with an
// L-byte payload under the paper's accounting: Lpacket = Lo + L.
func PaperPacketBytes(payload int) int { return PaperOverheadBytes + payload }

// PaperPacketDuration reports T_packet = (Lo + L)·T_B (eq. 3).
func PaperPacketDuration(payload int) time.Duration {
	return phy.TxDuration(PaperPacketBytes(payload))
}

// ErrorProneBytes reports the byte count exposed to bit errors in the
// paper's eq. (10): the full packet minus the 4-byte preamble.
func ErrorProneBytes(payload int) int {
	return PaperPacketBytes(payload) - phy.PreambleBytes
}

// AckMPDUBytes is the MPDU size of an acknowledgment (§7.2.2.3):
// frame control + sequence + FCS.
const AckMPDUBytes = 5

// AckOnAirBytes is an acknowledgment's total on-air size.
const AckOnAirBytes = AckMPDUBytes + phy.HeaderBytes

// AckDuration is the on-air time of an acknowledgment frame (352 µs).
var AckDuration = phy.TxDuration(AckOnAirBytes)

// DataOnAirBytes reports the standard-exact on-air size of a data frame.
func DataOnAirBytes(payload int, dst, src AddrMode, intraPAN bool) int {
	return phy.HeaderBytes + MHRLength(dst, src, intraPAN) + payload + FCSLength
}

// OnAirBytes reports the standard-exact on-air size of an encoded frame.
func (f *Frame) OnAirBytes() int {
	return phy.HeaderBytes + len(f.Encode())
}

// BeaconOnAirBytes reports the on-air size of a beacon with src short
// addressing, g GTS descriptors, ps pending short and pe pending extended
// addresses, and an extra application payload of x bytes.
func BeaconOnAirBytes(g, ps, pe, x int) int {
	mhr := MHRLength(AddrNone, AddrShort, false)
	payload := 2 + 1 + 1 + x // superframe spec + GTS spec + pending spec
	if g > 0 {
		payload += 1 + 3*g // directions byte + descriptors
	}
	payload += 2*ps + 8*pe
	return phy.HeaderBytes + mhr + payload + FCSLength
}
