// Package radio models the sensor-node transceiver energy behaviour: the
// four-state machine of the paper's Fig. 3 (shutdown, idle, receive,
// transmit), the measured CC2420 steady-state powers and state-transition
// times/energies, the eight programmable transmit power levels, and an
// energy ledger that attributes consumption to radio states and protocol
// phases.
//
// Derived characterizations implement the paper's §5 improvement
// perspectives: uniformly faster state transitions and a scalable receiver
// with a low-power listen mode for CCA and acknowledgment waiting.
package radio

import (
	"fmt"
	"sort"
	"time"

	"dense802154/internal/units"
)

// State is a radio operating state.
type State int

// The CC2420 state machine of Fig. 3.
const (
	Shutdown State = iota // crystal off, waiting for a startup strobe
	Idle                  // clock running, command interface alive
	RX                    // receiver active
	TX                    // transmitter active
	numStates
)

// NumStates is the number of radio states.
const NumStates = int(numStates)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Shutdown:
		return "shutdown"
	case Idle:
		return "idle"
	case RX:
		return "rx"
	case TX:
		return "tx"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// TXLevel is one programmable transmit power step.
type TXLevel struct {
	DBm      float64 // RF output power
	CurrentA float64 // measured supply current at this level
}

// Transition is a state change with its measured duration and the energy it
// costs. Following the paper's worst-case rule the energy is the duration
// multiplied by the power of the arrival state.
type Transition struct {
	Duration time.Duration
	Energy   units.Energy
}

// Characterization is a transceiver energy datasheet.
type Characterization struct {
	Name string
	// VDD is the supply voltage all currents are referred to.
	VDD float64
	// Steady-state powers.
	ShutdownPower units.Power
	IdlePower     units.Power
	RXPower       units.Power
	// ListenPower is the receiver power used while performing clear
	// channel assessments and waiting for acknowledgments. It equals
	// RXPower for the stock radio; the scalable-receiver variant lowers
	// it (§5 improvement perspective).
	ListenPower units.Power
	// TXLevels are the programmable output steps, ascending in dBm.
	TXLevels []TXLevel

	transitions [NumStates][NumStates]Transition
	allowed     [NumStates][NumStates]bool
}

// CC2420 returns the characterization measured in the paper's Fig. 3 on the
// Chipcon CC2420EM/EB evaluation board at VDD = 1.8 V.
//
// Note: Fig. 3 prints the shutdown→idle transition energy as "691 pJ";
// 970 µs at the 712.8 µW idle power is 691 nJ, so the printed unit is taken
// as a typo and the nanojoule value (consistent with the figure's own
// energy rule) is used.
func CC2420() *Characterization {
	const vdd = 1.8
	c := &Characterization{
		Name:          "CC2420",
		VDD:           vdd,
		ShutdownPower: units.FromCurrent(80e-9, vdd),   // 144 nW
		IdlePower:     units.FromCurrent(396e-6, vdd),  // 712.8 µW
		RXPower:       units.FromCurrent(19.6e-3, vdd), // 35.28 mW
		TXLevels: []TXLevel{
			{DBm: -25, CurrentA: 8.42e-3},
			{DBm: -15, CurrentA: 9.71e-3},
			{DBm: -10, CurrentA: 10.9e-3},
			{DBm: -7, CurrentA: 12.17e-3},
			{DBm: -5, CurrentA: 12.27e-3},
			{DBm: -3, CurrentA: 14.63e-3},
			{DBm: -1, CurrentA: 15.785e-3},
			{DBm: 0, CurrentA: 17.04e-3},
		},
	}
	c.ListenPower = c.RXPower
	// Fig. 3 transitions; energies follow the worst-case rule
	// E = T(transition) × P(arrival state).
	c.setTransition(Shutdown, Idle, 970*time.Microsecond)
	c.setTransition(Idle, Shutdown, 0)
	c.setTransition(Idle, RX, 194*time.Microsecond)
	c.setTransition(Idle, TX, 194*time.Microsecond)
	c.setTransition(RX, Idle, 0)
	c.setTransition(TX, Idle, 0)
	// RX⇄TX turnaround: 12 symbols (aTurnaroundTime = 192 µs).
	c.setTransition(RX, TX, 192*time.Microsecond)
	c.setTransition(TX, RX, 192*time.Microsecond)
	return c
}

// baseline is the characterization Baseline shares.
var baseline = CC2420()

// Baseline returns one process-wide CC2420 characterization, built once, so
// a resolver that fills in the default radio allocates nothing. It is
// shared read-only; a caller that modifies its radio takes CC2420(), which
// builds a fresh one on every call.
func Baseline() *Characterization { return baseline }

// ByName resolves a named characterization — the registry shared by every
// serialized surface (the HTTP service and the scenario catalog). The empty
// name selects the baseline CC2420, shared read-only (Baseline);
// "cc2420-fast" halves the transition times, "cc2420-scalable" listens at
// half RX power and "cc2420-improved" combines both §5 improvement
// perspectives.
func ByName(name string) (*Characterization, bool) {
	switch name {
	case "", "cc2420":
		return baseline, true
	case "cc2420-fast":
		return CC2420().WithTransitionScale(0.5), true
	case "cc2420-scalable":
		return CC2420().WithScalableReceiver(0.5), true
	case "cc2420-improved":
		return CC2420().WithTransitionScale(0.5).WithScalableReceiver(0.5), true
	}
	return nil, false
}

// Names lists the characterizations ByName resolves, baseline first.
func Names() []string {
	return []string{"cc2420", "cc2420-fast", "cc2420-scalable", "cc2420-improved"}
}

// setTransition registers a transition using the worst-case energy rule:
// transition duration at the arrival-state power (TX at maximum level).
func (c *Characterization) setTransition(from, to State, d time.Duration) {
	c.allowed[from][to] = true
	c.transitions[from][to] = Transition{
		Duration: d,
		Energy:   c.StatePower(to, len(c.TXLevels)-1).Times(d),
	}
}

// Transition reports the characterization of a state change and whether it
// is direct (allowed by the state machine).
func (c *Characterization) Transition(from, to State) (Transition, bool) {
	if from < 0 || to < 0 || int(from) >= NumStates || int(to) >= NumStates {
		return Transition{}, false
	}
	return c.transitions[from][to], c.allowed[from][to]
}

// StatePower reports the steady power of a state. For TX, levelIndex picks
// the programmed output step.
func (c *Characterization) StatePower(s State, levelIndex int) units.Power {
	switch s {
	case Shutdown:
		return c.ShutdownPower
	case Idle:
		return c.IdlePower
	case RX:
		return c.RXPower
	case TX:
		if levelIndex < 0 {
			levelIndex = 0
		}
		if levelIndex >= len(c.TXLevels) {
			levelIndex = len(c.TXLevels) - 1
		}
		return units.FromCurrent(c.TXLevels[levelIndex].CurrentA, c.VDD)
	default:
		return 0
	}
}

// TXPowerAt reports the supply power drawn at the given TX level index.
func (c *Characterization) TXPowerAt(levelIndex int) units.Power {
	return c.StatePower(TX, levelIndex)
}

// MaxTXLevel reports the index of the strongest output step.
func (c *Characterization) MaxTXLevel() int { return len(c.TXLevels) - 1 }

// LevelIndexFor returns the lowest TX level whose RF output is at least
// dbm. ok is false when even the maximum level falls short, in which case
// the maximum level index is returned.
func (c *Characterization) LevelIndexFor(dbm float64) (int, bool) {
	i := sort.Search(len(c.TXLevels), func(i int) bool {
		return c.TXLevels[i].DBm >= dbm-1e-9
	})
	if i == len(c.TXLevels) {
		return len(c.TXLevels) - 1, false
	}
	return i, true
}

// Clone returns a deep copy (the TXLevels slice is duplicated).
func (c *Characterization) Clone() *Characterization {
	out := *c
	out.TXLevels = append([]TXLevel(nil), c.TXLevels...)
	return &out
}

// WithTransitionScale derives a radio whose every state transition is
// scaled in duration (and hence energy) by factor f — the paper's first
// improvement perspective uses f = 0.5 ("reducing the transition time
// between states by a factor two would decrease the total average power by
// 12%").
func (c *Characterization) WithTransitionScale(f float64) *Characterization {
	out := c.Clone()
	out.Name = fmt.Sprintf("%s(transitions×%g)", c.Name, f)
	for from := 0; from < NumStates; from++ {
		for to := 0; to < NumStates; to++ {
			if !c.allowed[from][to] {
				continue
			}
			tr := c.transitions[from][to]
			out.transitions[from][to] = Transition{
				Duration: time.Duration(float64(tr.Duration) * f),
				Energy:   units.Energy(float64(tr.Energy) * f),
			}
		}
	}
	return out
}

// WithScalableReceiver derives a radio whose receiver offers a low-power
// listen mode used for channel sensing and acknowledgment waiting, at
// factor f of the full receive power — the paper's second improvement
// perspective ("a scalable receiver ... has the potential of reducing the
// total average power by an additional 15%").
func (c *Characterization) WithScalableReceiver(f float64) *Characterization {
	out := c.Clone()
	out.Name = fmt.Sprintf("%s(listen×%g)", c.Name, f)
	out.ListenPower = units.Power(float64(c.RXPower) * f)
	return out
}
