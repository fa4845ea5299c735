package radio

import (
	"fmt"
	"time"

	"dense802154/internal/units"
)

// Phase tags energy with the protocol activity that caused it, matching the
// breakdown categories of the paper's Fig. 9a.
type Phase int

// Protocol phases.
const (
	PhaseSleep      Phase = iota // shutdown between superframes
	PhaseBeacon                  // beacon tracking (wake-up lead + reception)
	PhaseContention              // CSMA backoff and clear channel assessment
	PhaseTransmit                // packet transmission
	PhaseAck                     // acknowledgment wait and reception
	PhaseIFS                     // inter-frame spacing
	PhaseOther
	numPhases
)

// NumPhases is the number of accounting phases.
const NumPhases = int(numPhases)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseSleep:
		return "sleep"
	case PhaseBeacon:
		return "beacon"
	case PhaseContention:
		return "contention"
	case PhaseTransmit:
		return "transmit"
	case PhaseAck:
		return "ack"
	case PhaseIFS:
		return "ifs"
	case PhaseOther:
		return "other"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// Ledger accumulates time and energy by radio state and energy by protocol
// phase.
type Ledger struct {
	TimeIn   [NumStates]time.Duration
	EnergyIn [NumStates]units.Energy
	ByPhase  [NumPhases]units.Energy
	// Transitions counts state changes; TransitionTime and
	// TransitionEnergy accumulate their cost (already included in the
	// per-state and per-phase tallies of the arrival state).
	Transitions      int
	TransitionTime   time.Duration
	TransitionEnergy units.Energy
}

// TotalEnergy reports the ledger's total energy.
func (l *Ledger) TotalEnergy() units.Energy {
	var e units.Energy
	for _, v := range l.EnergyIn {
		e += v
	}
	return e
}

// TotalTime reports the total accounted time.
func (l *Ledger) TotalTime() time.Duration {
	var d time.Duration
	for _, v := range l.TimeIn {
		d += v
	}
	return d
}

// AveragePower reports total energy over total time.
func (l *Ledger) AveragePower() units.Power {
	return l.TotalEnergy().Over(l.TotalTime())
}

// Merge adds another ledger into this one.
func (l *Ledger) Merge(o *Ledger) {
	for i := range l.TimeIn {
		l.TimeIn[i] += o.TimeIn[i]
		l.EnergyIn[i] += o.EnergyIn[i]
	}
	for i := range l.ByPhase {
		l.ByPhase[i] += o.ByPhase[i]
	}
	l.Transitions += o.Transitions
	l.TransitionTime += o.TransitionTime
	l.TransitionEnergy += o.TransitionEnergy
}

// Device is a stateful radio with energy accounting, used by the network
// simulator. It is not safe for concurrent use; the discrete-event kernel
// is single-threaded by design.
type Device struct {
	char       *Characterization
	state      State
	levelIndex int
	phase      Phase
	lowPower   bool // low-power listen engaged (scalable receiver)
	ledger     Ledger
}

// NewDevice builds a device in the given initial state at the maximum TX
// level.
func NewDevice(c *Characterization, initial State) *Device {
	d := &Device{}
	d.Init(c, initial)
	return d
}

// Init (re)initializes the device in place to the state NewDevice would
// build: the given characterization and initial state, maximum TX level, a
// zeroed ledger, sleep-phase accounting and low-power listen off. It lets
// value-embedded devices (the network simulator's pooled run state) be
// recycled across runs without allocating.
func (d *Device) Init(c *Characterization, initial State) {
	*d = Device{char: c, state: initial, levelIndex: c.MaxTXLevel()}
}

// State reports the current radio state.
func (d *Device) State() State { return d.state }

// Ledger exposes the accumulated accounting.
func (d *Device) Ledger() *Ledger { return &d.ledger }

// SetPhase selects the protocol phase subsequent energy is attributed to.
func (d *Device) SetPhase(p Phase) { d.phase = p }

// Phase reports the current accounting phase.
func (d *Device) Phase() Phase { return d.phase }

// SetTXLevelIndex programs the transmit power step.
func (d *Device) SetTXLevelIndex(i int) {
	if i < 0 {
		i = 0
	}
	if i > d.char.MaxTXLevel() {
		i = d.char.MaxTXLevel()
	}
	d.levelIndex = i
}

// SetLowPowerListen engages the scalable receiver's listen mode: while in
// RX the device draws ListenPower instead of RXPower.
func (d *Device) SetLowPowerListen(on bool) { d.lowPower = on }

// currentPower reports the instantaneous power draw.
func (d *Device) currentPower() units.Power {
	if d.state == RX && d.lowPower {
		return d.char.ListenPower
	}
	return d.char.StatePower(d.state, d.levelIndex)
}

// Stay accrues d time in the current state.
func (d *Device) Stay(dt time.Duration) {
	if dt < 0 {
		panic("radio: negative dwell time")
	}
	e := d.currentPower().Times(dt)
	d.ledger.TimeIn[d.state] += dt
	d.ledger.EnergyIn[d.state] += e
	d.ledger.ByPhase[d.phase] += e
}

// TransitionTo changes state, charging the transition's time and energy to
// the arrival state (the paper's worst-case accounting). It returns the
// transition duration so callers can advance simulated time accordingly.
// Transitioning to the current state is a no-op. It panics on transitions
// the state machine does not allow.
func (d *Device) TransitionTo(s State) time.Duration {
	if s == d.state {
		return 0
	}
	tr, ok := d.char.Transition(d.state, s)
	if !ok {
		panic(fmt.Sprintf("radio: illegal transition %v -> %v", d.state, s))
	}
	d.state = s
	d.ledger.Transitions++
	d.ledger.TransitionTime += tr.Duration
	d.ledger.TransitionEnergy += tr.Energy
	d.ledger.TimeIn[s] += tr.Duration
	d.ledger.EnergyIn[s] += tr.Energy
	d.ledger.ByPhase[d.phase] += tr.Energy
	return tr.Duration
}
