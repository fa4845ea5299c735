// Package netsim is a full discrete-event simulation of the paper's
// beacon-enabled star network: a coordinator emitting beacons, nodes
// executing the §4 activation policy (sleep — preemptive wake — beacon
// reception — slotted CSMA/CA — transmission — acknowledgment — sleep) with
// cycle-accurate CC2420 state and energy tracking, a shared collision
// medium, and per-packet delivery bookkeeping.
//
// It is the ground-truth cross-check for the analytical model of
// internal/core (the VAL experiment): both consume the same radio
// characterization, frame sizes and channel model, but netsim accounts
// energy physically event by event rather than through the paper's
// expected-value expressions.
//
// Simplifications (documented deviations):
//   - packet arrivals near the end of a superframe are shifted so a
//     transaction does not straddle the beacon (a <1% boundary effect at
//     BO = 6);
//   - acknowledgment frames occupy the medium (they defer other nodes'
//     CCAs) but are never corrupted themselves;
//   - nodes mid-transaction do not re-synchronize on the next beacon.
package netsim

import (
	"fmt"
	"time"

	"dense802154/internal/channel"
	"dense802154/internal/contention"
	"dense802154/internal/des"
	"dense802154/internal/engine"
	"dense802154/internal/mac"
	"dense802154/internal/phy"
	"dense802154/internal/radio"
	"dense802154/internal/stats"
	"dense802154/internal/units"
)

// Config parameterizes a simulation run.
type Config struct {
	// Nodes on the channel (the case study has 100).
	Nodes int
	// PayloadBytes per data packet (default 120).
	PayloadBytes int
	// Superframe sets BO/SO (default 6/6).
	Superframe mac.Superframe
	// CSMA parameters (default mac.PaperParams).
	CSMA mac.CSMAParams
	// Radio characterization (default CC2420).
	Radio *radio.Characterization
	// BER model (default the paper's eq. 1).
	BER phy.BERModel
	// Deployment draws each node's path loss (default uniform 55-95 dB).
	Deployment channel.Deployment
	// TargetPRxDBm is the channel-inversion target: each node picks the
	// lowest TX level with PTx - loss ≥ target (default -87 dBm, just
	// inside the "efficient up to 88 dB" region).
	TargetPRxDBm float64
	// NMax is the transmission cap per contention-won packet (default 5).
	NMax int
	// TransmitProb is the probability a node offers a packet in a
	// superframe (default 1: one packet per node per superframe).
	TransmitProb float64
	// Superframes to simulate (default 20).
	Superframes int
	// BeaconBytes is the beacon's on-air size (default 30, as in core).
	BeaconBytes int
	// MaxPacketSuperframes caps application-level retries before a
	// packet is dropped (default 10).
	MaxPacketSuperframes int
	// LowPowerListen engages the radio's scalable-receiver listen mode
	// during clear channel assessments and acknowledgment waits (§5
	// improvement perspective; only meaningful with a radio whose
	// ListenPower is below RXPower).
	LowPowerListen bool
	// TraceNode, when non-zero, records the radio state/phase timeline
	// of the node with that 1-based index (the Fig. 5 uplink transaction
	// picture); the trace lands in Result.Trace. Zero disables tracing.
	TraceNode int
	// Seed drives the deterministic RNG.
	Seed int64
}

// TraceEvent is one radio state change of the traced node.
type TraceEvent struct {
	At    time.Duration
	State radio.State
	Phase radio.Phase
}

// WithDefaults returns the configuration exactly as Run will execute it,
// every zero field replaced by its default. Exported for layers that need
// the effective population size and superframe timing before running
// anything (internal/lifetime sizes its battery state and epoch span off
// it).
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 100
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 120
	}
	if c.Superframe == (mac.Superframe{}) {
		sf, err := mac.NewSuperframe(6, 6)
		if err != nil {
			panic(err)
		}
		c.Superframe = sf
	}
	if c.CSMA == (mac.CSMAParams{}) {
		c.CSMA = mac.PaperParams()
	}
	if c.Radio == nil {
		c.Radio = radio.CC2420()
	}
	if c.BER == nil {
		c.BER = phy.Eq1
	}
	if c.Deployment == nil {
		c.Deployment = channel.UniformLoss{MinDB: 55, MaxDB: 95}
	}
	if c.TargetPRxDBm == 0 {
		c.TargetPRxDBm = -87
	}
	if c.NMax == 0 {
		c.NMax = 5
	}
	if c.TransmitProb == 0 {
		c.TransmitProb = 1
	}
	if c.Superframes == 0 {
		c.Superframes = 20
	}
	if c.BeaconBytes == 0 {
		c.BeaconBytes = 30
	}
	if c.MaxPacketSuperframes == 0 {
		c.MaxPacketSuperframes = 10
	}
	return c
}

// Result aggregates the run.
type Result struct {
	Config Config

	// Per-node averages.
	AvgPowerPerNode units.Power
	Ledger          radio.Ledger // aggregate over all nodes

	// Delivery bookkeeping.
	PacketsOffered   int
	PacketsDelivered int
	PacketsDropped   int // exceeded MaxPacketSuperframes
	PacketsExpired   int // still pending at simulation end
	Transmissions    int
	Collisions       int
	AccessFailures   int
	CorruptedFrames  int

	// Derived metrics.
	DeliveryRatio    float64
	PrFailPerAttempt float64 // per-superframe transaction failures
	MeanDelay        time.Duration
	P95Delay         time.Duration

	// Contention statistics measured in situ (comparable to Fig. 6).
	Contention contention.Stats

	// AttemptsHist[i] counts packets delivered on their (i+1)-th
	// transmission within a superframe — the empirical Ptr(i)
	// distribution of eqs. (7)-(8).
	AttemptsHist []int

	// Trace is the state timeline of Config.TraceNode (empty when
	// tracing is disabled).
	Trace []TraceEvent
}

// AttemptsDistribution normalizes AttemptsHist into probabilities.
func (r Result) AttemptsDistribution() []float64 {
	total := 0
	for _, c := range r.AttemptsHist {
		total += c
	}
	if total == 0 {
		return nil
	}
	out := make([]float64, len(r.AttemptsHist))
	for i, c := range r.AttemptsHist {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("netsim: %d nodes, %d superframes: P=%.1fµW delivered=%d/%d (%.1f%%) delay=%v",
		r.Config.Nodes, r.Config.Superframes, r.AvgPowerPerNode.MicroWatts(),
		r.PacketsDelivered, r.PacketsOffered, 100*r.DeliveryRatio, r.MeanDelay.Round(time.Millisecond))
}

// transmission is an interval of medium occupancy, stored by value in the
// medium's active set. Collisions are recorded on the owning node's
// txCollided flag (nil node: beacon or acknowledgment frames, which occupy
// the medium but track no collision state of their own).
type transmission struct {
	start time.Duration
	end   time.Duration
	node  *node // nil for beacon/ack
}

// txInterval is a node-free copy of a transmission in the medium's
// start-ordered index — keeping *node out of the index means lazily retired
// entries never pin a pooled run's nodes across recycles.
type txInterval struct {
	start time.Duration
	end   time.Duration
}

// medium is the single shared broadcast domain (every node hears every
// other: the star topology of Fig. 1a with no hidden terminals).
//
// The active set is indexed two ways so the per-CCA operations stay
// sublinear in dense networks:
//
//   - byEnd is the authoritative set, a min-heap on end time. prune is a
//     prefix pop instead of an O(active) filter, because the simulation only
//     ever prunes at monotonically sufficient thresholds (see below).
//   - byStart is a min-heap on start time holding node-free copies.
//     busyWindow reduces to one earliest-start comparison against its root;
//     entries whose transmission already left byEnd are retired lazily when
//     they surface.
//
// Index invariants (why the lazy byStart root is trustworthy):
//
//   - Every prune threshold is a protocol instant on the global CSMA slot
//     grid — a beacon start, a CCA slot boundary or a transmission start —
//     and busyWindow(a, b) prunes to a itself before consulting the index.
//   - Event firing times lag their protocol instants by at most one radio
//     turnaround, and all turnarounds are shorter than phy.UnitBackoffPeriod,
//     so successive thresholds can only regress by less than one slot —
//     which on the shared slot grid means they never regress at all.
//   - Therefore at query time a ≥ maxPrune: anything popped from byEnd has
//     end ≤ maxPrune ≤ a, and its byStart copy fails the end > a liveness
//     test the moment it surfaces. The root comparison then exactly matches
//     a full scan. Should a model change ever violate the monotone-threshold
//     invariant, busyWindow detects a < maxPrune and falls back to the
//     O(active) scan of byEnd, which is correct unconditionally.
type medium struct {
	byEnd    []transmission // min-heap on end: the active set
	byStart  []txInterval   // min-heap on start: lazy query index
	maxPrune time.Duration  // highest prune threshold seen this run

	fallbacks int // out-of-order busyWindow queries that forced a full scan
}

// reset clears the medium for a recycled run, zeroing the vacated storage so
// no *node pointer from a previous run survives in slice tails.
func (m *medium) reset() {
	for i := range m.byEnd {
		m.byEnd[i] = transmission{}
	}
	m.byEnd = m.byEnd[:0]
	m.byStart = m.byStart[:0]
	m.maxPrune = 0
	m.fallbacks = 0
}

// prune drops transmissions that ended at or before t — a prefix pop off the
// end-ordered heap. Vacated tail slots are zeroed so the heap never retains
// stale *node pointers (the pooled-run recycling bug class).
func (m *medium) prune(t time.Duration) {
	if t > m.maxPrune {
		m.maxPrune = t
	}
	for len(m.byEnd) > 0 && m.byEnd[0].end <= t {
		m.popEnd()
	}
}

// busyWindow reports whether any transmission overlaps [a, b). It prunes to
// a first (the same threshold its callers prune at), so the check is a
// single comparison against the earliest-start root of the index.
func (m *medium) busyWindow(a, b time.Duration) bool {
	m.prune(a)
	if a < m.maxPrune {
		m.fallbacks++
		// Out-of-order query: the index may have lazily retired entries
		// still relevant at this earlier instant. Unreachable on the slot
		// grid (see the invariants above), but the full scan keeps the
		// medium correct for any scheduling pattern.
		for i := range m.byEnd {
			if m.byEnd[i].start < b && m.byEnd[i].end > a {
				return true
			}
		}
		return false
	}
	for len(m.byStart) > 0 {
		if m.byStart[0].end <= a {
			m.popStart() // retired: its transmission left byEnd already
			continue
		}
		return m.byStart[0].start < b
	}
	return false
}

// add inserts a transmission, marking collisions among overlaps on the
// participating nodes. The overlap scan walks the active set (heap order is
// irrelevant for flag setting); adds are rare next to CCA busy checks, so
// this is the one remaining O(active) medium operation.
func (m *medium) add(tx transmission) {
	for i := range m.byEnd {
		other := &m.byEnd[i]
		if other.start < tx.end && other.end > tx.start {
			if tx.node != nil {
				tx.node.txCollided = true
			}
			if other.node != nil {
				other.node.txCollided = true
			}
		}
	}
	m.pushEnd(tx)
	m.pushStart(txInterval{start: tx.start, end: tx.end})
}

// ---- value-typed binary min-heaps of the medium index ----

func (m *medium) pushEnd(tx transmission) {
	h := append(m.byEnd, tx)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].end <= tx.end {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = tx
	m.byEnd = h
}

func (m *medium) popEnd() {
	h := m.byEnd
	n := len(h) - 1
	root := h[n]
	h[n] = transmission{} // clear the vacated tail (drops *node references)
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].end < h[c].end {
			c++
		}
		if h[c].end >= root.end {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = root
	}
	m.byEnd = h
}

func (m *medium) pushStart(iv txInterval) {
	h := append(m.byStart, iv)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].start <= iv.start {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = iv
	m.byStart = h
}

func (m *medium) popStart() {
	h := m.byStart
	n := len(h) - 1
	root := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].start < h[c].start {
			c++
		}
		if h[c].start >= root.start {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = root
	}
	m.byStart = h
}

// packet is one application payload with delivery bookkeeping.
type packet struct {
	readyAt     time.Duration
	superframes int // application-level attempts
	delivered   bool
}

// node is one sensor node. Nodes live by value in env.nodes (stable
// addresses: the slice is sized once per capacity growth), with their radio
// device, CSMA transaction, packet and random stream embedded — a
// superframe's worth of MAC activity allocates nothing per node, and a
// recycled run rebuilds the whole population without allocating at all.
type node struct {
	id    int
	env   *env
	dev   radio.Device
	rng   engine.RNG
	loss  float64
	level int
	per   float64 // packet corruption probability at the chosen level

	last       time.Duration // accounting watermark
	txn        mac.Attempt   // restarted in place per attempt
	attempts   int
	pkt        packet
	hasPkt     bool
	txCollided bool // current transmission overlapped another
	busy       bool // a MAC exchange (contention/TX/ACK) is in flight
	traced     bool

	// in-situ contention statistics
	contStart time.Duration
}

// env holds the per-run simulation state. It is the arena a Runner recycles
// between runs: the simulator's event storage, the medium's index heaps and
// the node, delay and histogram slices all keep their capacity across
// reset, so replica sweeps pay the setup allocations once per worker
// instead of once per replication.
type env struct {
	cfg      Config
	sim      des.Simulator
	med      medium
	nodes    []node
	dispatch des.Dispatcher // cached e.dispatchEvent method value
	tia      time.Duration  // idle->RX transition
	tiaTx    time.Duration  // idle->TX transition
	tsi      time.Duration  // shutdown->idle transition
	tpacket  time.Duration
	tbeacon  time.Duration
	tack     time.Duration // ack frame duration

	offered, delivered, dropped int
	transmissions, collisions   int
	accessFailures, corrupted   int
	txnFailures, txnTotal       int
	ccaAttempts, backoffs       int
	delays                      []float64
	attemptsHist                []int
	trace                       []TraceEvent
	contDur, contCCA            stats.Accumulator
	contCF, contCol             stats.Proportion

	// Lifetime-epoch state (nil on plain runs — see Epochs). alive and
	// budgetJ alias the caller's EpochSpec slices; deaths is arena storage
	// that Epochs.Run hands out as a view.
	alive   []bool
	budgetJ []float64
	deaths  []NodeDeath
}

// reset rewinds the arena for a fresh run under cfg, reusing every piece of
// backing storage whose capacity suffices. All behavioral state is restored
// exactly to what a newly built env would hold — recycled and fresh runs are
// bit-identical (asserted by TestRunnerRecycleBitIdentity).
func (e *env) reset(cfg Config) {
	e.cfg = cfg
	e.sim.Reset(cfg.Seed)
	if e.dispatch == nil {
		e.dispatch = e.dispatchEvent // one closure per env lifetime
	}
	e.sim.SetDispatcher(e.dispatch)
	e.med.reset()
	e.nodes = resize(e.nodes, cfg.Nodes)
	e.attemptsHist = resize(e.attemptsHist, cfg.NMax)
	clear(e.attemptsHist)
	e.offered, e.delivered, e.dropped = 0, 0, 0
	e.transmissions, e.collisions = 0, 0
	e.accessFailures, e.corrupted = 0, 0
	e.txnFailures, e.txnTotal = 0, 0
	e.ccaAttempts, e.backoffs = 0, 0
	e.delays = e.delays[:0]
	e.trace = e.trace[:0]
	e.contDur, e.contCCA = stats.Accumulator{}, stats.Accumulator{}
	e.contCF, e.contCol = stats.Proportion{}, stats.Proportion{}
	e.alive, e.budgetJ = nil, nil
	e.deaths = e.deaths[:0]
}

// resize returns s with length n, reusing its storage when the capacity
// suffices. Reused elements keep their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// advance accrues dwell time in the node's current radio state up to t.
func (n *node) advance(t time.Duration) {
	if t > n.last {
		n.dev.Stay(t - n.last)
		n.last = t
	}
}

// transition changes radio state, advancing the watermark by the
// transition time and recording the trace when enabled.
func (n *node) transition(s radio.State) {
	n.last += n.dev.TransitionTo(s)
	if n.traced {
		n.env.trace = append(n.env.trace, TraceEvent{
			At:    n.last,
			State: s,
			Phase: n.dev.Phase(),
		})
	}
}

// slotAfter returns the first CSMA slot boundary at or after t. The grid
// is global: beacon intervals are exact multiples of the backoff period.
func (e *env) slotAfter(t time.Duration) time.Duration {
	slots := (t + phy.UnitBackoffPeriod - 1) / phy.UnitBackoffPeriod
	return slots * phy.UnitBackoffPeriod
}
