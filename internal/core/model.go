// Package core implements the paper's primary contribution: the analytical
// model of an IEEE 802.15.4 node's average power consumption and
// transmission reliability under the energy-aware activation policy of §4,
// together with the link adaptation, packet-size optimization, dense
// case-study and improvement analyses of §5.
//
// # Activation policy (paper §4)
//
// The node sleeps between superframes, wakes preemptively (WakeupLead
// before the beacon, covering the ~1 ms shutdown→idle transition), receives
// the beacon, idles between the clear channel assessments of the slotted
// CSMA/CA contention, transmits, waits t_ack− in idle and then in receive
// mode for the acknowledgment, and shuts down after the transaction.
//
// # Equations
//
// Evaluate computes eqs. (3)-(14): the expected per-superframe dwell times
// T_idle, T_TX, T_RX (with state-transition times folded into the active
// dwell of the arrival state, as the paper does), the average power
// (eq. 11), the transmission failure probability (eq. 13), the delivery
// delay and energy per bit (eqs. 13-14 of §5), the per-phase energy
// breakdown (Fig. 9a) and the per-state time breakdown (Fig. 9b).
//
// The contention-side quantities (T̄cont, N̄CCA, Pr_cf, Pr_col) come from a
// contention.Source — by default the Monte-Carlo characterization that
// reproduces Fig. 6.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"dense802154/internal/channel"
	"dense802154/internal/contention"
	"dense802154/internal/frame"
	"dense802154/internal/mac"
	"dense802154/internal/phy"
	"dense802154/internal/radio"
	"dense802154/internal/units"
)

// Params configures one model evaluation: one node at one path loss in a
// network of a given load.
type Params struct {
	// Radio is the transceiver characterization (default CC2420).
	Radio *radio.Characterization
	// BER maps received power to bit error probability (default the
	// paper's eq. 1 regression).
	BER phy.BERModel
	// Contention supplies the CSMA/CA statistics (default a Monte-Carlo
	// source at the paper's parameters).
	Contention contention.Source

	// Superframe sets BO/SO (default 6/6, the case study).
	Superframe mac.Superframe
	// PayloadBytes is the data payload L per packet (default 120).
	PayloadBytes int
	// Load is the network load λ seen by the contention procedure
	// (default 0.433: 100 nodes × 120 B at BO 6).
	Load float64
	// PathLossDB is the attenuation A to the coordinator (default 75 dB,
	// the middle of the case-study population).
	PathLossDB float64
	// TXLevelIndex programs the transmit step; AutoTXLevel selects the
	// energy-optimal level for the path loss (link adaptation).
	TXLevelIndex int
	// NMax is the maximum number of transmissions of one packet
	// (default 5, the paper's setting).
	NMax int

	// BeaconBytes is the on-air beacon size. The default, 30 bytes,
	// models the case-study coordinator beacon carrying superframe/GTS/
	// pending specifications plus network-maintenance payload (§2 calls
	// the beacon a small packet with service information); it also
	// reproduces the ≈20% beacon share of Fig. 9a.
	BeaconBytes int
	// WakeupLead is the preemptive wake-up before the beacon (1 ms in
	// the paper, covering the 970 µs shutdown→idle transition).
	WakeupLead time.Duration
	// CCAListen is the receiver-on time per CCA beyond the idle→RX
	// turnaround (8 symbols = 128 µs per the standard; the paper's
	// eq. (6) counts only the turnaround — set 0 for the literal form).
	CCAListen time.Duration
	// PaperAckAccounting charges the full acknowledgment window
	// (t_ack+ − t_ack−) in receive mode for every transmission attempt,
	// as the paper's worst-case eq. (6) does. When false, successful
	// attempts charge only the actual ACK reception and failed attempts
	// the full window.
	PaperAckAccounting bool
	// IncludeIFS adds the inter-frame space after each transmission in
	// idle mode (the "ifs" slice of Fig. 9a).
	IncludeIFS bool
	// IncludeShutdownLeakage adds the 144 nW shutdown floor (the paper
	// neglects it; it is ≈0.14 µW here).
	IncludeShutdownLeakage bool

	// Workers bounds the goroutines used by the sweep entry points
	// (RunCaseStudy, EnergyVsPathLossCtx, ThresholdsCtx, EnergyVsPayload,
	// EvaluateBatch): 1 runs serially, 0 (or negative) uses
	// runtime.NumCPU(). Results are deterministic — identical at any
	// worker count — because every task is keyed by its grid index and
	// all randomness sits behind seeded, memoized contention sources.
	Workers int
}

// AutoTXLevel requests link adaptation: the energy-optimal transmit level
// for the configured path loss.
const AutoTXLevel = -1

// DefaultParams returns the paper's §5 case-study configuration for a node
// at the middle of the path-loss population.
func DefaultParams() Params {
	sf, err := mac.NewSuperframe(6, 6)
	if err != nil {
		panic(err)
	}
	return Params{
		Radio:                  radio.CC2420(),
		BER:                    phy.Eq1,
		Contention:             contention.NewMCSource(contention.Config{Superframes: 60, Seed: 2005}),
		Superframe:             sf,
		PayloadBytes:           120,
		Load:                   0.433,
		PathLossDB:             75,
		TXLevelIndex:           AutoTXLevel,
		NMax:                   5,
		BeaconBytes:            30,
		WakeupLead:             time.Millisecond,
		CCAListen:              phy.CCADuration,
		PaperAckAccounting:     true,
		IncludeIFS:             true,
		IncludeShutdownLeakage: true,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.Radio == nil || p.BER == nil || p.Contention == nil {
		return fmt.Errorf("core: nil radio/BER/contention")
	}
	if p.PayloadBytes < 1 || p.PayloadBytes > frame.MaxDataPayload {
		return fmt.Errorf("core: payload %d outside 1..%d", p.PayloadBytes, frame.MaxDataPayload)
	}
	if !(p.Load >= 0 && p.Load <= 1) { // the negated form also rejects NaN
		return fmt.Errorf("core: load %v outside [0,1]", p.Load)
	}
	if math.IsNaN(p.PathLossDB) {
		return fmt.Errorf("core: path loss is NaN")
	}
	if p.NMax < 1 {
		return fmt.Errorf("core: NMax %d < 1", p.NMax)
	}
	if p.TXLevelIndex != AutoTXLevel && (p.TXLevelIndex < 0 || p.TXLevelIndex > p.Radio.MaxTXLevel()) {
		return fmt.Errorf("core: TX level %d out of range", p.TXLevelIndex)
	}
	if err := p.Superframe.Validate(); err != nil {
		return err
	}
	return nil
}

// Breakdown is the per-superframe energy by protocol phase (Fig. 9a).
type Breakdown struct {
	Beacon     units.Energy
	Contention units.Energy
	Transmit   units.Energy
	Ack        units.Energy
	IFS        units.Energy
	Sleep      units.Energy
}

// Total sums all phases.
func (b Breakdown) Total() units.Energy {
	return b.Beacon + b.Contention + b.Transmit + b.Ack + b.IFS + b.Sleep
}

// ActiveTotal sums all phases except sleep.
func (b Breakdown) ActiveTotal() units.Energy { return b.Total() - b.Sleep }

// Share reports each active phase's fraction of the active total, in the
// order beacon, contention, transmit, ack, ifs.
func (b Breakdown) Share() [5]float64 {
	t := float64(b.ActiveTotal())
	if t == 0 {
		return [5]float64{}
	}
	return [5]float64{
		float64(b.Beacon) / t,
		float64(b.Contention) / t,
		float64(b.Transmit) / t,
		float64(b.Ack) / t,
		float64(b.IFS) / t,
	}
}

// StateTimes is the per-superframe dwell time by radio state (Fig. 9b).
type StateTimes struct {
	Shutdown, Idle, RX, TX time.Duration
}

// Fractions reports the four dwell fractions of the beacon interval.
func (s StateTimes) Fractions() [4]float64 {
	total := float64(s.Shutdown + s.Idle + s.RX + s.TX)
	if total == 0 {
		return [4]float64{}
	}
	return [4]float64{
		float64(s.Shutdown) / total,
		float64(s.Idle) / total,
		float64(s.RX) / total,
		float64(s.TX) / total,
	}
}

// Metrics is the model output for one configuration.
type Metrics struct {
	// Inputs echoed for reporting.
	TXLevelIndex int
	TXPowerDBm   float64
	PRxDBm       float64

	// Packet timing (eq. 3).
	Tpacket time.Duration

	// Contention-side statistics used (Fig. 6 quantities).
	Cont contention.Stats

	// Error chain (eqs. 7-10).
	PrBit      float64
	PrE        float64 // packet corruption probability
	PrTF       float64 // per-attempt transmission failure (eq. 9)
	PrCF       float64 // channel access failure
	ExpectedTx float64 // E[# transmissions] truncated at NMax

	// Dwell times (eqs. 4-6) and the derived averages (eqs. 11-14).
	Tidle, TTx, TRx time.Duration
	States          StateTimes
	AvgPower        units.Power
	EnergyPerFrame  units.Energy
	PrFail          float64       // eq. 13
	Delay           time.Duration // §5 eq. (13): Tib / (1 - PrFail)
	EnergyPerBitJ   float64       // §5 eq. (14)
	Breakdown       Breakdown
}

// Evaluate runs the analytical model. With TXLevelIndex = AutoTXLevel it
// first selects the energy-optimal transmit level for the path loss. It
// asks p.Contention for the statistics at (p.PayloadBytes, p.Load) once and
// evaluates with them, as EvaluateWithStats does.
func Evaluate(p Params) (Metrics, error) {
	if err := p.Validate(); err != nil {
		return Metrics{}, err
	}
	cs := p.Contention.Contention(p.PayloadBytes, p.Load)
	return evaluateAtLevel(&p, p.level(&cs), &cs), nil
}

// EvaluateWithStats runs the analytical model with the contention
// statistics cs standing in for p.Contention's answer at (p.PayloadBytes,
// p.Load). Contention depends on packet size and load only, never on the
// transmit level or the path loss, so a caller that evaluates many points
// sharing a configuration looks it up once (query plans resolve each
// configuration of a plan once). Given the source's own answer, the result
// is Evaluate's to the bit.
func EvaluateWithStats(p Params, cs contention.Stats) (Metrics, error) {
	if err := p.Validate(); err != nil {
		return Metrics{}, err
	}
	return evaluateAtLevel(&p, p.level(&cs), &cs), nil
}

// level is validated p's transmit level under the statistics cs: the
// configured one, or the energy-optimal one under AutoTXLevel.
func (p *Params) level(cs *contention.Stats) int {
	if p.TXLevelIndex == AutoTXLevel {
		return optimalLevel(p, cs)
	}
	return p.TXLevelIndex
}

// sharedContention looks up the statistics of a sweep whose points all
// share p's (payload, load): once, with a Monte-Carlo point that is not
// cached yet simulated on p.Workers goroutines until ctx is done.
func sharedContention(ctx context.Context, p *Params) (contention.Stats, error) {
	l := []contention.Lookup{{Source: p.Contention, PayloadBytes: p.PayloadBytes, Load: p.Load}}
	err := contention.Resolve(ctx, p.Workers, l)
	return l[0].Stats, err
}

// evaluateAtLevel computes the model at an explicit TX level with the
// contention statistics cs; p must be validated.
func evaluateAtLevel(p *Params, level int, cs *contention.Stats) Metrics {
	r := p.Radio
	txDBm := r.TXLevels[level].DBm
	prx := channel.ReceivedPowerDBm(txDBm, p.PathLossDB)

	var m Metrics
	m.TXLevelIndex = level
	m.TXPowerDBm = txDBm
	m.PRxDBm = prx

	// Eq. (3): packet duration.
	m.Tpacket = frame.PaperPacketDuration(p.PayloadBytes)

	// Contention statistics at (packet size, load).
	m.Cont = *cs
	prcf := m.Cont.PrCF
	m.PrCF = prcf

	// Eqs. (1), (10), (9): the error chain.
	m.PrBit = p.BER.BitErrorRate(prx)
	m.PrE = phy.PacketErrorRateBytes(m.PrBit, frame.ErrorProneBytes(p.PayloadBytes))
	m.PrTF = 1 - (1-m.Cont.PrCol)*(1-m.PrE)

	// Eqs. (7)-(8): transmission count distribution, truncated at NMax.
	// E[tx] = sum i·Ptr(i) + NMax·Ptr(>NMax).
	prOver := math.Pow(m.PrTF, float64(p.NMax))
	expTx := 0.0
	for i := 1; i <= p.NMax; i++ {
		expTx += float64(i) * math.Pow(m.PrTF, float64(i-1)) * (1 - m.PrTF)
	}
	expTx += float64(p.NMax) * prOver
	m.ExpectedTx = expTx
	psucc := 1 - prOver // eventual success given channel access

	tib := p.Superframe.BeaconInterval()
	tia, _ := r.Transition(radio.Idle, radio.RX)
	tbeacon := phy.TxDuration(p.BeaconBytes)
	tcont := m.Cont.Tcont

	// Expected number of contention procedures: one if access fails,
	// otherwise one per transmission attempt.
	procedures := prcf + (1-prcf)*expTx

	// ---- Eq. (4): idle time ----
	ifs := time.Duration(0)
	if p.IncludeIFS {
		ifs = mac.IFSFor(frame.PaperPacketBytes(p.PayloadBytes) - phy.HeaderBytes)
	}
	contIdle := scale(tcont, procedures)
	ackIdle := scale(mac.AckWaitMin, (1-prcf)*expTx)
	ifsIdle := scale(ifs, (1-prcf)*expTx)
	tidle := p.WakeupLead + contIdle + ackIdle + ifsIdle
	m.Tidle = tidle

	// ---- Eq. (5): transmit time ----
	ttx := scale(m.Tpacket, (1-prcf)*expTx)
	m.TTx = ttx

	// ---- Eq. (6): receive time ----
	// Beacon tracking: turnaround + beacon reception, every superframe.
	beaconRx := tia.Duration + tbeacon
	// CCAs: each needs an idle→RX turnaround plus the assessment itself.
	ccaRx := scale(tia.Duration+p.CCAListen, procedures*m.Cont.NCCA)
	// Acknowledgment windows.
	ackWindow := mac.AckWaitMax - mac.AckWaitMin
	var ackRx time.Duration
	if p.PaperAckAccounting {
		// Worst case: the full window in RX for every attempt.
		ackRx = scale(tia.Duration+ackWindow, (1-prcf)*expTx)
	} else {
		failed := (1 - prcf) * (expTx - psucc)
		ackRx = scale(tia.Duration+ackWindow, failed) +
			scale(tia.Duration+frame.AckDuration, (1-prcf)*psucc)
	}
	trx := beaconRx + ccaRx + ackRx
	m.TRx = trx

	// ---- Eq. (11): average power, with the per-phase attribution ----
	pidle := r.IdlePower
	prxP := r.RXPower
	plisten := r.ListenPower
	ptx := r.TXPowerAt(level)

	var b Breakdown
	b.Beacon = prxP.Times(beaconRx) + pidle.Times(p.WakeupLead)
	b.Contention = pidle.Times(contIdle) + plisten.Times(ccaRx)
	b.Transmit = ptx.Times(ttx)
	b.Ack = pidle.Times(ackIdle) + plisten.Times(ackRx)
	b.IFS = pidle.Times(ifsIdle)

	shutdown := tib - tidle - ttx - trx
	if shutdown < 0 {
		shutdown = 0
	}
	if p.IncludeShutdownLeakage {
		b.Sleep = r.ShutdownPower.Times(shutdown)
	}
	m.Breakdown = b
	m.States = StateTimes{Shutdown: shutdown, Idle: tidle, RX: trx, TX: ttx}

	m.EnergyPerFrame = b.Total()
	m.AvgPower = m.EnergyPerFrame.Over(tib)

	// ---- Eq. (13): failure probability; §5: delay and energy/bit ----
	m.PrFail = 1 - (1-prcf)*psucc
	delaySec := math.Inf(1)
	if den := 1 - m.PrFail; den > 0 {
		delaySec = tib.Seconds() / den
	}
	if delaySec > maxDelaySeconds {
		// The node effectively never delivers (deep in the >88 dB tail).
		m.Delay = time.Duration(math.MaxInt64)
		m.EnergyPerBitJ = math.Inf(1)
	} else {
		m.Delay = time.Duration(delaySec * float64(time.Second))
		m.EnergyPerBitJ = float64(m.AvgPower) * delaySec /
			(8 * float64(p.PayloadBytes))
	}
	return m
}

// maxDelaySeconds caps the modeled delivery delay; beyond it a node is
// treated as out of range (delay = MaxInt64, energy per bit = +Inf).
const maxDelaySeconds = 1e6

// scale multiplies a duration by a non-negative expectation factor.
func scale(d time.Duration, factor float64) time.Duration {
	return time.Duration(float64(d) * factor)
}
