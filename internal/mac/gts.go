package mac

import (
	"errors"
	"fmt"

	"dense802154/internal/frame"
)

// GTS management (§7.5.7): the PAN coordinator may dedicate up to seven
// blocks of superframe slots at the tail of the active period. The paper's
// §2 observes this cannot serve dense networks — hundreds of nodes compete
// for at most seven descriptors — which the EXT2 experiment quantifies.

// GTS allocation errors.
var (
	ErrGTSFull      = errors.New("mac: all 7 GTS descriptors in use")
	ErrGTSNoRoom    = errors.New("mac: allocation would shrink CAP below aMinCAPLength")
	ErrGTSDuplicate = errors.New("mac: device already owns a GTS")
)

// GTSDB is the coordinator's guaranteed-time-slot allocation table for one
// superframe configuration.
type GTSDB struct {
	sf     Superframe
	allocs []frame.GTSDescriptor
}

// NewGTSDB creates an empty allocation table over the given superframe.
func NewGTSDB(sf Superframe) *GTSDB {
	return &GTSDB{sf: sf}
}

// usedSlots reports how many superframe slots the CFP currently occupies.
func (g *GTSDB) usedSlots() int {
	n := 0
	for _, d := range g.allocs {
		n += int(d.Length)
	}
	return n
}

// Allocate grants `slots` superframe slots to the device, carving them from
// the end of the active period.
func (g *GTSDB) Allocate(addr uint16, slots uint8) (frame.GTSDescriptor, error) {
	if slots == 0 || slots > 15 {
		return frame.GTSDescriptor{}, fmt.Errorf("mac: invalid GTS length %d", slots)
	}
	if len(g.allocs) >= frame.MaxGTSDescriptors {
		return frame.GTSDescriptor{}, ErrGTSFull
	}
	for _, d := range g.allocs {
		if d.ShortAddr == addr {
			return frame.GTSDescriptor{}, ErrGTSDuplicate
		}
	}
	newUsed := g.usedSlots() + int(slots)
	if newUsed >= NumSuperframeSlots {
		return frame.GTSDescriptor{}, ErrGTSNoRoom
	}
	capSlots := NumSuperframeSlots - newUsed
	capSymbols := capSlots * BaseSlotSymbols << uint(g.sf.SO)
	if capSymbols < MinCAPSymbols {
		return frame.GTSDescriptor{}, ErrGTSNoRoom
	}
	d := frame.GTSDescriptor{
		ShortAddr: addr,
		StartSlot: uint8(NumSuperframeSlots - newUsed),
		Length:    slots,
	}
	g.allocs = append(g.allocs, d)
	return d, nil
}

// MaxNodesServed reports how many devices a single superframe can serve
// with dedicated slots of the given length — the quantitative form of the
// paper's "the number of dedicated slots would not be sufficient to
// accommodate several hundreds of nodes".
func MaxNodesServed(sf Superframe, slotsPerNode uint8) int {
	db := NewGTSDB(sf)
	n := 0
	for {
		if _, err := db.Allocate(uint16(n+1), slotsPerNode); err != nil {
			return n
		}
		n++
	}
}
