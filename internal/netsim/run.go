package netsim

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"dense802154/internal/channel"
	"dense802154/internal/engine"
	"dense802154/internal/frame"
	"dense802154/internal/mac"
	"dense802154/internal/phy"
	"dense802154/internal/radio"
	"dense802154/internal/stats"
	"dense802154/internal/units"
)

// Event kinds of the typed dispatch scheme: every scheduled event is a
// (kind, node, instant) triple, so the des kernel never stores a per-event
// closure. The instant payload is the event's protocol time (a slot
// boundary, a transmission end), which often differs from the firing time —
// CCA events, for instance, fire one idle→RX turnaround before the boundary
// they assess.
const (
	evBeacon int32 = iota // actor -1, arg = beacon instant
	evBeginContention
	evDoCCA
	evTransmit
	evFinishTx
	evAckReceived
	evAckTimeout
)

// dispatchEvent routes typed events to the model handlers (des.Dispatcher).
func (e *env) dispatchEvent(kind, actor int32, arg time.Duration) {
	if kind == evBeacon {
		e.beacon(arg)
		return
	}
	n := &e.nodes[actor]
	switch kind {
	case evBeginContention:
		n.beginContention(arg)
	case evDoCCA:
		n.doCCA(arg)
	case evTransmit:
		n.transmit(arg)
	case evFinishTx:
		n.finishTransmit(arg)
	case evAckReceived:
		n.ackReceived(arg)
	case evAckTimeout:
		n.ackTimeout(arg)
	}
}

// Runner is a reusable simulation arena: the des event storage, the
// medium's active set, the node population (radio devices included) and
// the bookkeeping slices all persist across runs, so a recycled Run
// performs only a handful of allocations instead of the ~1.5 per node a
// cold start pays. A Runner is not safe for concurrent use; give each
// worker goroutine its own (or go through Run, which recycles Runners from
// an internal sync.Pool).
//
// Recycling is behavior-free by construction: every random stream is a pure
// function of (Config.Seed, node index), and reset restores all mutable
// state, so NewRunner().Run(cfg) and an arbitrarily reused runner.Run(cfg)
// return bit-identical Results.
type Runner struct {
	e env
	// setupRNG re-seeds per run for deployment sampling — the one cold
	// path needing the full math/rand API (see Run's population comment).
	setupRNG *rand.Rand
	// ep is the lifetime binding NewEpochs hands out, with the per-node
	// state of that run: arena storage like everything else here.
	ep Epochs
}

// NewRunner returns an empty arena. Storage grows to the largest Config the
// Runner has executed and is reused from there on.
func NewRunner() *Runner {
	return &Runner{setupRNG: rand.New(rand.NewSource(1))}
}

// runnerPool recycles arenas across Run calls. Pooled state is fully reset
// per run, so pooling is invisible in results; it only removes the per-run
// setup allocations under replica-style workloads.
var runnerPool = sync.Pool{New: func() any { return NewRunner() }}

// Run executes the simulation and aggregates the results. It draws a
// recycled arena from an internal pool; the returned Result shares no
// memory with it.
//
// Each zero field of cfg is resolved to its default on every call, and the
// default radio, BER model and deployment are built anew each time. A
// caller running many configurations off one base resolves it once with
// WithDefaults, so its runs share those read-only values instead.
func Run(cfg Config) Result {
	r := runnerPool.Get().(*Runner)
	res := r.Run(cfg)
	runnerPool.Put(r)
	return res
}

// RunHeadline is Run for callers that keep only the Result's scalars (the
// query wire form, say): AttemptsHist and Trace stay nil, so the run makes
// no copy of them out of the arena. Every other field equals Run's.
func RunHeadline(cfg Config) Result {
	r := runnerPool.Get().(*Runner)
	r.simulate(cfg, nil, false)
	res := r.e.headline()
	runnerPool.Put(r)
	return res
}

// Run executes one simulation on the recycled arena.
func (r *Runner) Run(cfg Config) Result {
	r.simulate(cfg, nil, false)
	return r.e.collect()
}

// simulate runs one simulation on the arena and leaves its outcome there,
// for collect to aggregate into a Result or an Epochs to read per node. A
// nil spec is a plain run; a non-nil spec installs the epoch's alive mask
// and per-node energy budgets and (for Epoch > 0) re-roots the traffic
// streams so successive epochs draw fresh randomness while the deployment —
// and so node identity — stays fixed by cfg.Seed. keepDeployment reuses the
// per-node loss, TX level and PER the nodes hold from the arena's previous
// run, which must have been under the same cfg; otherwise they are sampled.
func (r *Runner) simulate(cfg Config, spec *EpochSpec, keepDeployment bool) {
	cfg = cfg.withDefaults()
	// The CSMA parameters are checked once per run; every transaction the
	// nodes start reads them from e.cfg.
	if err := cfg.CSMA.Validate(); err != nil {
		panic(err)
	}
	e := &r.e
	e.reset(cfg)
	if spec != nil {
		e.alive = spec.Alive
		e.budgetJ = spec.BudgetJ
	}
	tr, _ := cfg.Radio.Transition(radio.Idle, radio.RX)
	e.tia = tr.Duration
	tr, _ = cfg.Radio.Transition(radio.Idle, radio.TX)
	e.tiaTx = tr.Duration
	tr, _ = cfg.Radio.Transition(radio.Shutdown, radio.Idle)
	e.tsi = tr.Duration
	e.tpacket = frame.PaperPacketDuration(cfg.PayloadBytes)
	e.tbeacon = phy.TxDuration(cfg.BeaconBytes)
	e.tack = frame.AckDuration

	// Build the population. Deployment sampling is the one cold path that
	// needs the full math/rand API, so the run seed's stream is upgraded
	// through a re-seeded rand.Rand here; the per-node hot-path streams are
	// value-embedded engine.RNGs. Node streams derive from a
	// domain-separated root (DeriveSeed(seed, -1)) rather than cfg.Seed
	// directly, so they can never collide with the contention package's
	// shard streams DeriveSeed(seed, shard) when both models run a
	// cross-validation study off one seed.
	if !keepDeployment {
		r.setupRNG.Seed(cfg.Seed + 1)
	}
	nodeRoot := engine.DeriveSeed(cfg.Seed, -1)
	if spec != nil && spec.Epoch > 0 {
		// Later epochs re-root the per-node traffic streams under a second
		// domain (-2) so no epoch root can collide with a node stream of the
		// -1 domain; epoch 0 keeps the plain root, so epoch 0 with everyone
		// alive is bit-identical to Run.
		nodeRoot = engine.DeriveSeed(engine.DeriveSeed(cfg.Seed, -2), int64(spec.Epoch))
	}
	for i := range e.nodes {
		n := &e.nodes[i]
		loss, level, per := n.loss, n.level, n.per
		if !keepDeployment {
			loss = cfg.Deployment.Sample(r.setupRNG)
			level, _ = cfg.Radio.LevelIndexFor(cfg.TargetPRxDBm + loss)
			prx := channel.ReceivedPowerDBm(cfg.Radio.TXLevels[level].DBm, loss)
			per = phy.PacketErrorRateBytes(cfg.BER.BitErrorRate(prx), frame.ErrorProneBytes(cfg.PayloadBytes))
		}
		*n = node{
			id:   i,
			env:  e,
			rng:  engine.NewRNG(engine.DeriveSeed(nodeRoot, int64(i))),
			loss: loss, level: level, per: per,
			traced: cfg.TraceNode == i+1,
		}
		n.dev.Init(cfg.Radio, radio.Shutdown)
		n.dev.SetTXLevelIndex(level)
		n.dev.SetPhase(radio.PhaseSleep)
	}

	// Start the superframes: each beacon schedules the next (env.beacon).
	e.sim.AtEvent(0, evBeacon, -1, 0)
	horizon := time.Duration(cfg.Superframes) * cfg.Superframe.BeaconInterval()
	e.sim.RunUntil(horizon)

	// Close the books: every living node sleeps out the horizon. Dead
	// nodes are frozen where they died — an exhausted battery pays no
	// further leakage.
	for i := range e.nodes {
		if e.alive != nil && !e.alive[i] {
			continue
		}
		e.nodes[i].advance(horizon)
	}
	foldRunMetrics(e)
}

// beacon is the coordinator's superframe start: it occupies the medium and
// triggers every node's per-superframe procedure. Under a lifetime epoch it
// is also the death check: a non-busy node whose accrued radio energy —
// ledger plus the shutdown dwell pending since its watermark — has reached
// its budget shuts down for good, leaving the contention population before
// this superframe's draws. Busy nodes finish their straddling exchange
// first and are checked at the next beacon.
//
// The next beacon is scheduled first, so it fires before every event queued
// during this superframe for the same instant. No node event is ever
// pending a whole beacon interval ahead, so a beacon always fires first at
// its instant.
func (e *env) beacon(at time.Duration) {
	tib := e.cfg.Superframe.BeaconInterval()
	if next := at + tib; next < time.Duration(e.cfg.Superframes)*tib {
		e.sim.AtEvent(next, evBeacon, -1, next)
	}
	e.med.prune(at)
	e.med.add(transmission{start: at, end: at + e.tbeacon})
	for i := range e.nodes {
		if e.alive != nil {
			if !e.alive[i] {
				continue
			}
			n := &e.nodes[i]
			if e.budgetJ != nil && !n.busy {
				spent := float64(n.dev.Ledger().TotalEnergy())
				if pend := at - n.last; pend > 0 {
					spent += float64(e.cfg.Radio.StatePower(radio.Shutdown, n.level)) * pend.Seconds()
				}
				if spent >= e.budgetJ[i] {
					e.alive[i] = false
					e.deaths = append(e.deaths, NodeDeath{Node: i, At: at})
					continue
				}
			}
		}
		e.nodes[i].startSuperframe(at)
	}
}

// startSuperframe runs one node's activation policy for the superframe
// beginning with the beacon at tb.
func (n *node) startSuperframe(tb time.Duration) {
	e := n.env
	if n.busy {
		// A MAC exchange is straddling the beacon (a retry chain ran past
		// the superframe edge); let it finish and skip this beacon.
		if n.hasPkt && !n.pkt.delivered {
			n.pkt.superframes++
		}
		return
	}
	// Refresh the application packet.
	if n.hasPkt && !n.pkt.delivered {
		n.pkt.superframes++
		if n.pkt.superframes > e.cfg.MaxPacketSuperframes {
			e.dropped++
			n.hasPkt = false
		}
	}
	if !n.hasPkt || n.pkt.delivered {
		if n.rng.Float64() < e.cfg.TransmitProb {
			n.pkt = packet{readyAt: tb, superframes: 1}
			n.hasPkt = true
			e.offered++
		} else {
			n.hasPkt = false
		}
	}
	if !n.hasPkt {
		return
	}

	// The node wakes preemptively so the receiver is live at the beacon:
	// shutdown→idle→RX completes exactly at tb. The beacon event fires at
	// tb, so the wake lead is accounted retroactively: the watermark
	// stands at some earlier sleep instant.
	wakeAt := tb - e.tsi - e.tia
	if wakeAt < n.last {
		wakeAt = n.last // first superframe: no pre-history
	}
	n.advance(wakeAt)
	n.dev.SetPhase(radio.PhaseBeacon)
	n.transition(radio.Idle)
	n.advance(tb) // residual idle until beacon start
	n.transition(radio.RX)
	n.advance(tb + e.tbeacon) // beacon reception
	n.dev.SetPhase(radio.PhaseSleep)
	n.transition(radio.Idle)
	n.transition(radio.Shutdown)

	// Draw the arrival instant (statistical multiplexing) and begin the
	// contention procedure at the following slot boundary.
	tibEnd := tb + e.cfg.Superframe.BeaconInterval()
	margin := e.tpacket + 32*phy.UnitBackoffPeriod + e.tsi
	earliest := tb + e.tbeacon + e.tsi
	latest := tibEnd - margin
	if latest <= earliest {
		latest = earliest + phy.UnitBackoffPeriod
	}
	arrival := earliest + time.Duration(n.rng.Int63n(int64(latest-earliest)))
	e.sim.AtEvent(arrival-e.tsi, evBeginContention, int32(n.id), arrival)
}

// beginContention wakes the node and starts the CSMA/CA transaction.
func (n *node) beginContention(arrival time.Duration) {
	e := n.env
	n.busy = true
	n.advance(e.sim.Now())
	n.dev.SetPhase(radio.PhaseContention)
	n.transition(radio.Idle)
	n.txn.Start(&e.cfg.CSMA, &n.rng)
	n.attempts = 0
	n.contStart = arrival
	// The first assessable boundary must leave room for the idle→RX
	// turnaround preceding the CCA.
	first := e.slotAfter(arrival+e.tia) + time.Duration(n.txn.SkipBackoff())*phy.UnitBackoffPeriod
	e.sim.AtEvent(first-e.tia, evDoCCA, int32(n.id), first)
}

// doCCA performs one clear channel assessment at slot boundary b.
func (n *node) doCCA(b time.Duration) {
	e := n.env
	n.advance(e.sim.Now()) // idle until RX turnaround begins
	n.dev.SetPhase(radio.PhaseContention)
	if e.cfg.LowPowerListen {
		n.dev.SetLowPowerListen(true)
	}
	n.transition(radio.RX)
	n.advance(b + phy.CCADuration)
	e.ccaAttempts++
	busy := e.med.busyWindow(b, b+phy.CCADuration)
	n.transition(radio.Idle)
	n.dev.SetLowPowerListen(false)

	switch n.txn.CCAResult(&e.cfg.CSMA, &n.rng, busy) {
	case mac.OutcomeNextCCA:
		next := b + phy.UnitBackoffPeriod
		e.sim.AtEvent(next-e.tia, evDoCCA, int32(n.id), next)
	case mac.OutcomeTransmit:
		start := b + phy.UnitBackoffPeriod
		e.sim.AtEvent(start-e.tiaTx, evTransmit, int32(n.id), start)
	case mac.OutcomeBackoff:
		e.backoffs++
		next := b + time.Duration(1+n.txn.SkipBackoff())*phy.UnitBackoffPeriod
		e.sim.AtEvent(next-e.tia, evDoCCA, int32(n.id), next)
	case mac.OutcomeFailure:
		// Channel access failure: report to the application, sleep.
		e.txnFailures++
		e.txnTotal++
		e.cont.Procedure((b - n.contStart).Seconds(), n.txn.CCAs(), false)
		n.sleep()
	}
}

// transmit sends the packet at the slot boundary.
func (n *node) transmit(start time.Duration) {
	e := n.env
	n.advance(e.sim.Now())
	n.dev.SetPhase(radio.PhaseTransmit)
	n.transition(radio.TX)
	end := start + e.tpacket
	n.txCollided = false
	e.med.prune(start)
	e.med.add(transmission{start: start, end: end, node: n})
	e.transmissions++
	n.attempts++
	e.cont.Procedure((start - n.contStart).Seconds(), n.txn.CCAs(), true)
	e.sim.AtEvent(end, evFinishTx, int32(n.id), end)
}

// finishTransmit evaluates reception and handles the acknowledgment.
func (n *node) finishTransmit(end time.Duration) {
	e := n.env
	n.advance(end)
	collided := n.txCollided
	corrupted := n.rng.Float64() < n.per
	ok := !collided && !corrupted
	e.cont.Transmission(collided)
	if corrupted && !collided {
		e.corrupted++
	}

	// TX→RX turnaround covers exactly t_ack−. The scalable receiver
	// listens for the acknowledgment in its low-power mode.
	n.dev.SetPhase(radio.PhaseAck)
	if e.cfg.LowPowerListen {
		n.dev.SetLowPowerListen(true)
	}
	n.transition(radio.RX)
	ackStart := end + mac.AckWaitMin
	if ok {
		ackEnd := ackStart + e.tack
		e.med.add(transmission{start: ackStart, end: ackEnd})
		e.sim.AtEvent(ackEnd, evAckReceived, int32(n.id), ackEnd)
	} else {
		deadline := end + mac.AckWaitMax
		e.sim.AtEvent(deadline, evAckTimeout, int32(n.id), deadline)
	}
}

// ackReceived completes a successful delivery.
func (n *node) ackReceived(at time.Duration) {
	e := n.env
	n.advance(at)
	e.txnTotal++
	e.delivered++
	n.pkt.delivered = true
	e.delays = append(e.delays, (at - n.pkt.readyAt).Seconds())
	if n.attempts >= 1 && n.attempts <= len(e.attemptsHist) {
		e.attemptsHist[n.attempts-1]++
	}
	// Inter-frame spacing in idle, then sleep.
	n.dev.SetPhase(radio.PhaseIFS)
	n.transition(radio.Idle)
	n.dev.SetLowPowerListen(false)
	ifs := mac.IFSFor(frame.PaperPacketBytes(e.cfg.PayloadBytes) - phy.HeaderBytes)
	n.advance(at + ifs)
	n.sleep()
}

// ackTimeout handles a failed attempt: retry through a fresh contention or
// give up for this superframe.
func (n *node) ackTimeout(at time.Duration) {
	e := n.env
	n.advance(at)
	n.transition(radio.Idle)
	n.dev.SetLowPowerListen(false)
	if n.attempts >= e.cfg.NMax {
		e.txnFailures++
		e.txnTotal++
		n.sleep()
		return
	}
	// Immediate retransmission attempt: new contention procedure.
	n.dev.SetPhase(radio.PhaseContention)
	n.txn.Start(&e.cfg.CSMA, &n.rng)
	n.contStart = at
	first := e.slotAfter(at+e.tia) + time.Duration(n.txn.SkipBackoff())*phy.UnitBackoffPeriod
	e.sim.AtEvent(first-e.tia, evDoCCA, int32(n.id), first)
}

// sleep returns the node to shutdown and closes the MAC exchange.
func (n *node) sleep() {
	n.busy = false
	n.advance(n.env.sim.Now())
	n.dev.SetPhase(radio.PhaseSleep)
	if n.dev.State() != radio.Idle {
		n.transition(radio.Idle)
	}
	n.transition(radio.Shutdown)
}

// collect aggregates the arena's last run into a Result.
func (e *env) collect() Result {
	r := e.headline()
	r.AttemptsHist = append([]int(nil), e.attemptsHist...)
	// Copy the trace out of the arena: Result must not alias recycled
	// storage (append of an empty trace stays nil and allocates nothing).
	r.Trace = append([]TraceEvent(nil), e.trace...)
	return r
}

// headline aggregates the arena's last run into a Result without the two
// fields copied out of arena storage, AttemptsHist and Trace.
func (e *env) headline() Result {
	horizon := time.Duration(e.cfg.Superframes) * e.cfg.Superframe.BeaconInterval()
	var ledger radio.Ledger
	for i := range e.nodes {
		ledger.Merge(e.nodes[i].dev.Ledger())
	}
	r := Result{
		Config:           e.cfg,
		Ledger:           ledger,
		PacketsOffered:   e.offered,
		PacketsDelivered: e.delivered,
		PacketsDropped:   e.dropped,
		Transmissions:    e.transmissions,
		Collisions:       e.cont.Collisions(),
		AccessFailures:   e.cont.Failures(),
		CorruptedFrames:  e.corrupted,
		Contention:       e.cont.Stats(),
	}
	r.PacketsExpired = e.offered - e.delivered - e.dropped
	if e.offered > 0 {
		r.DeliveryRatio = float64(e.delivered) / float64(e.offered)
	}
	if e.txnTotal > 0 {
		r.PrFailPerAttempt = float64(e.txnFailures) / float64(e.txnTotal)
	}
	if len(e.delays) > 0 {
		var acc float64
		for _, d := range e.delays {
			acc += d
		}
		r.MeanDelay = time.Duration(acc / float64(len(e.delays)) * float64(time.Second))
		// The mean is summed in arrival order above; only then may the
		// arena's delays be sorted in place for the percentile.
		sort.Float64s(e.delays)
		p95 := stats.PercentileSorted(e.delays, 0.95)
		r.P95Delay = time.Duration(p95 * float64(time.Second))
	}
	energyPerNode := float64(ledger.TotalEnergy()) / float64(e.cfg.Nodes)
	r.AvgPowerPerNode = units.Power(energyPerNode / horizon.Seconds())
	return r
}
