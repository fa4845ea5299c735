package frame

// The 802.15.4 frame check sequence is the 16-bit ITU-T CRC
// (x^16 + x^12 + x^5 + 1) computed LSB-first with initial value 0 and no
// final inversion — the "KERMIT" CRC-16 variant. The FCS is appended least
// significant byte first.

// fcsPoly is the bit-reflected ITU-T polynomial.
const fcsPoly = 0x8408

// fcsTable is the byte-at-a-time lookup table.
var fcsTable = buildFCSTable()

func buildFCSTable() [256]uint16 {
	var t [256]uint16
	for b := 0; b < 256; b++ {
		crc := uint16(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ fcsPoly
			} else {
				crc >>= 1
			}
		}
		t[b] = crc
	}
	return t
}

// FCS computes the 802.15.4 frame check sequence over data (the MHR plus
// MAC payload).
func FCS(data []byte) uint16 {
	var crc uint16
	for _, b := range data {
		crc = crc>>8 ^ fcsTable[byte(crc)^b]
	}
	return crc
}

// AppendFCS appends the FCS of data to data, least significant byte first,
// and returns the extended slice.
func AppendFCS(data []byte) []byte {
	crc := FCS(data)
	return append(data, byte(crc), byte(crc>>8))
}
