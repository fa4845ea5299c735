// Package contention characterizes the slotted CSMA/CA algorithm by
// Monte-Carlo simulation, reproducing the methodology behind the paper's
// Fig. 6: for a given network load λ (aggregate on-air time relative to the
// beacon interval) and packet size, it measures
//
//   - T̄cont: the mean duration of the contention procedure,
//   - N̄CCA:  the mean number of clear channel assessments per procedure,
//   - Pr_cf: the channel access failure probability,
//   - Pr_col: the residual collision probability of granted transmissions.
//
// The simulator works on the backoff-slot grid of one channel: packets
// arrive (by default) uniformly over the inter-beacon period, every node is
// in range of every other (star topology, no hidden terminals), a CCA at a
// slot boundary senses any transmission overlapping that boundary
// (including one starting at it, since its energy fills the CCA window),
// and collisions therefore occur exactly when several granted nodes start
// on the same boundary.
package contention

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dense802154/internal/engine"
	"dense802154/internal/frame"
	"dense802154/internal/mac"
	"dense802154/internal/phy"
	"dense802154/internal/stats"
)

// ArrivalModel selects when packets become ready inside a superframe.
type ArrivalModel int

// Arrival models.
const (
	// ArrivalUniform spreads packet arrivals uniformly over the
	// inter-beacon period — the statistical multiplexing of sparse sensor
	// data the paper's §2 describes. This is the default.
	ArrivalUniform ArrivalModel = iota
	// ArrivalAtBeacon makes every packet contend right after the beacon,
	// the worst-case burst used as an ablation.
	ArrivalAtBeacon
)

// String implements fmt.Stringer.
func (a ArrivalModel) String() string {
	switch a {
	case ArrivalUniform:
		return "uniform"
	case ArrivalAtBeacon:
		return "at-beacon"
	default:
		return fmt.Sprintf("arrival(%d)", int(a))
	}
}

// Config parameterizes one Monte-Carlo run.
type Config struct {
	// PayloadBytes is the data payload L; the on-air packet is
	// Lo + L bytes (paper accounting).
	PayloadBytes int
	// Superframe fixes the slot grid (the paper uses BO = SO = 6).
	Superframe mac.Superframe
	// CSMA are the algorithm parameters (defaults to mac.PaperParams).
	CSMA mac.CSMAParams
	// Arrival selects the arrival model.
	Arrival ArrivalModel
	// TargetLoad is the offered load λ; the simulator offers
	// λ·Tib/Tpacket packets per superframe.
	TargetLoad float64
	// Superframes is the number of beacon intervals to simulate (0 ⇒ 50;
	// a negative count panics).
	Superframes int
	// BeaconBytes is the beacon's on-air size; the channel is busy for
	// that long after each beacon boundary. Defaults to a minimal beacon.
	BeaconBytes int
	// Seed drives the deterministic RNG.
	Seed int64
	// Workers bounds the goroutines simulating superframe shards: 1 runs
	// serially, 0 (or negative) uses runtime.NumCPU(). The simulation is
	// sharded into fixed blocks of superframes with per-shard seeds derived
	// from Seed, so the result is bit-identical at any worker count —
	// Workers only changes wall-clock time, never statistics.
	Workers int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.CSMA == (mac.CSMAParams{}) {
		c.CSMA = mac.PaperParams()
	}
	if c.Superframe == (mac.Superframe{}) {
		sf, err := mac.NewSuperframe(6, 6)
		if err != nil {
			panic(err)
		}
		c.Superframe = sf
	}
	if c.Superframes == 0 {
		c.Superframes = 50
	}
	if c.BeaconBytes == 0 {
		c.BeaconBytes = frame.BeaconOnAirBytes(0, 0, 0, 0)
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 120
	}
	return c
}

// PacketDuration reports the on-air time of one packet.
func (c Config) PacketDuration() time.Duration {
	return frame.PaperPacketDuration(c.PayloadBytes)
}

// PacketsPerSuperframe reports the offered packets per beacon interval that
// realize TargetLoad.
func (c Config) PacketsPerSuperframe() float64 {
	cc := c.withDefaults()
	return cc.TargetLoad * float64(cc.Superframe.BeaconInterval()) / float64(cc.PacketDuration())
}

// Result is the aggregate outcome of a run.
type Result struct {
	Config       Config
	OfferedLoad  float64 // realized offered load
	Transactions int
	Granted      int
	Failed       int
	Collided     int

	MeanContention time.Duration // T̄cont
	ContentionCI95 time.Duration
	MeanCCAs       float64 // N̄CCA
	CCAsCI95       float64
	PrCF           float64 // channel access failure probability
	PrCFCI95       float64
	PrCol          float64 // collision probability among granted
	PrColCI95      float64
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("λ=%.3f L=%dB: Tcont=%v NCCA=%.2f Prcf=%.3f Prcol=%.3f (n=%d)",
		r.OfferedLoad, r.Config.PayloadBytes, r.MeanContention.Round(time.Microsecond),
		r.MeanCCAs, r.PrCF, r.PrCol, r.Transactions)
}

// event kinds: within a slot, transmission starts are processed before
// CCAs (a transmission beginning at a boundary is detected by a CCA at that
// boundary).
const (
	evTxStart = iota
	evCCA
)

// txn is one packet's channel-access attempt. The mac.Attempt is
// embedded by value and restarted in place, so a shard's whole
// population lives in one flat slice with no per-packet allocation. A
// transaction has at most one pending event, so next links it into its
// calendar bucket's FIFO without any per-bucket storage.
type txn struct {
	t           mac.Attempt
	arrivalSlot int64
	endSlot     int64
	next        int32
	granted     bool
	failed      bool
	collided    bool
}

// ringBits caps the calendar ring at 1<<ringBits slots. Every
// configuration within the standard's aMaxBE ≤ 8 fits its whole push
// horizon in the ring; pushes beyond a capped ring's horizon (MaxBE ≥ 9)
// wait in the exact overflow band.
const ringBits = 9

// fifo is an intrusive queue of transactions linked through txn.next;
// -1 marks an empty queue and the end of the chain.
type fifo struct{ head, tail int32 }

func (f *fifo) push(txns []txn, ti int32) {
	txns[ti].next = -1
	if f.tail < 0 {
		f.head = ti
	} else {
		txns[f.tail].next = ti
	}
	f.tail = ti
}

func (f *fifo) pop(txns []txn) int32 {
	ti := f.head
	f.head = txns[ti].next
	if f.head < 0 {
		f.tail = -1
	}
	return ti
}

// bucket is one calendar slot: the transmissions starting and the CCAs
// falling on that boundary, each in push order.
type bucket struct{ tx, cca fifo }

// arrival is one transaction's first CCA in the arrival band.
type arrival struct {
	slot int64
	txn  int32
}

// parked is an event beyond the ring's horizon, waiting in the overflow
// band until its slot comes within reach.
type parked struct {
	slot int64
	txn  int32
	kind uint8
}

// shard is the reusable state of one Monte-Carlo shard: the flat
// transaction population, its event calendar, the same-slot starter
// scratch list and the shard's own single-word RNG. Shards are recycled
// through shardPool, so a steady stream of Simulate calls reuses the same
// backing arrays instead of re-growing them.
//
// The calendar has three bands on the backoff-slot grid. The arrival band
// holds every transaction's first CCA, drawn up front and sorted once by
// (slot, txn). The ring holds every later event within horizon slots of
// the current slot cur, one bucket per slot. The overflow band holds,
// sorted by slot, the rare pushes farther out than the ring reaches. Events
// pop in the order of one (slot, kind, seq) priority queue, where seq is
// push order: arrivals are pushed before any other event, and bucket FIFOs
// and the overflow band keep push order, so within a slot the order is
// ring transmissions, then arrival CCAs, then ring CCAs.
type shard struct {
	rng      engine.RNG
	txns     []txn
	starters []int32

	arrivals []arrival // sorted by (slot, txn)
	sortBuf  []arrival // radix sort scratch
	ring     []bucket  // slot s lives in ring[s&mask]
	occ      []uint64  // one bit per bucket, set while it holds events
	mask     int64
	horizon  int64 // farthest push, in slots past cur, the ring takes
	over     []parked
	overHead int
}

var shardPool = sync.Pool{New: func() any { return new(shard) }}

// reset prepares the shard for a run of at most maxTxns transactions whose
// pushes reach at most reach slots past the slot being processed. The
// population and arrival arrays are sized once to maxTxns, so a fresh
// shard does not grow them append by append.
func (s *shard) reset(seed int64, maxTxns int, reach int64) {
	s.rng = engine.NewRNG(seed)
	if cap(s.txns) < maxTxns {
		s.txns = make([]txn, 0, maxTxns)
	}
	if cap(s.arrivals) < maxTxns {
		s.arrivals = make([]arrival, 0, maxTxns)
	}
	if cap(s.sortBuf) < maxTxns {
		s.sortBuf = make([]arrival, 0, maxTxns)
	}
	s.txns = s.txns[:0]
	s.starters = s.starters[:0]
	s.arrivals = s.arrivals[:0]
	s.over = s.over[:0]
	s.overHead = 0

	// At least one 64-slot occupancy word, at most 1<<ringBits slots.
	size := int64(64)
	for size <= reach && size < 1<<ringBits {
		size <<= 1
	}
	s.horizon = min(reach, size-1)
	s.mask = size - 1
	if int64(cap(s.ring)) < size {
		s.ring = make([]bucket, size)
	}
	s.ring = s.ring[:size]
	for i := range s.ring {
		s.ring[i] = bucket{tx: fifo{-1, -1}, cca: fifo{-1, -1}}
	}
	if int64(cap(s.occ)) < size/64 {
		s.occ = make([]uint64, size/64)
	}
	s.occ = s.occ[:size/64]
	clear(s.occ)
}

// push schedules transaction ti's next event at slot ≥ cur, the slot
// being processed.
func (s *shard) push(cur, slot int64, kind uint8, ti int32) {
	if slot-cur > s.horizon {
		s.park(slot, kind, ti)
		return
	}
	s.enqueue(slot, kind, ti)
}

func (s *shard) enqueue(slot int64, kind uint8, ti int32) {
	i := slot & s.mask
	b := &s.ring[i]
	if kind == evTxStart {
		b.tx.push(s.txns, ti)
	} else {
		b.cca.push(s.txns, ti)
	}
	s.occ[i>>6] |= 1 << (i & 63)
}

// nextBusy reports the first slot at or after from whose bucket holds
// events. Every ring event lies within horizon < len(ring) slots of cur,
// so the first set bit on the circular scan from from is the earliest.
func (s *shard) nextBusy(from int64) (int64, bool) {
	i := from & s.mask
	w := i >> 6
	if word := s.occ[w] >> (i & 63); word != 0 {
		return from + int64(bits.TrailingZeros64(word)), true
	}
	base := from - i&63 // the slot of word w's bit 0
	n := int64(len(s.occ))
	for k := int64(1); k <= n; k++ {
		if word := s.occ[(w+k)&(n-1)]; word != 0 {
			return base + 64*k + int64(bits.TrailingZeros64(word)), true
		}
	}
	return 0, false
}

// park inserts an event into the overflow band after every parked event
// at or before its slot, so equal slots keep push order.
func (s *shard) park(slot int64, kind uint8, ti int32) {
	lo, hi := s.overHead, len(s.over)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.over[m].slot <= slot {
			lo = m + 1
		} else {
			hi = m
		}
	}
	s.over = append(s.over, parked{})
	copy(s.over[lo+1:], s.over[lo:])
	s.over[lo] = parked{slot: slot, txn: ti, kind: kind}
}

// unpark moves every parked event within the horizon of cur into the ring.
// It runs whenever the loop moves to a new cur, before any push there, so
// a parked event enters its bucket ahead of every later push to that slot.
func (s *shard) unpark(cur int64) {
	for s.overHead < len(s.over) && s.over[s.overHead].slot-cur <= s.horizon {
		p := s.over[s.overHead]
		s.overHead++
		s.enqueue(p.slot, p.kind, p.txn)
	}
	if s.overHead == len(s.over) {
		s.over = s.over[:0]
		s.overHead = 0
	}
}

// spawn adds a transaction arriving at arrivalSlot and files its first
// CCA, after the initial random backoff, in the arrival band. It returns
// that CCA's slot. The arrays have room: reset sized them.
func (s *shard) spawn(p *mac.CSMAParams, arrivalSlot int64) int64 {
	ti := int32(len(s.txns))
	s.txns = s.txns[:ti+1]
	x := &s.txns[ti]
	x.t.Start(p, &s.rng)
	x.arrivalSlot, x.endSlot = arrivalSlot, 0
	x.granted, x.failed, x.collided = false, false, false
	first := arrivalSlot + int64(x.t.SkipBackoff())
	s.arrivals = append(s.arrivals, arrival{slot: first, txn: ti})
	return first
}

// sortArrivals orders the arrival band by (slot, txn) with a stable LSD
// radix sort on the slot bytes: the band was filled in txn order, so
// stability keeps equal slots in txn (= push) order.
func (s *shard) sortArrivals(maxSlot int64) {
	a := s.arrivals
	tmp := s.sortBuf[:len(a)]
	for shift := uint(0); maxSlot>>shift > 0; shift += 8 {
		var offs [256]int32
		for i := range a {
			offs[byte(a[i].slot>>shift)]++
		}
		sum := int32(0)
		for d, c := range offs {
			offs[d] = sum
			sum += c
		}
		for _, e := range a {
			d := byte(e.slot >> shift)
			tmp[offs[d]] = e
			offs[d]++
		}
		a, tmp = tmp, a
	}
	s.arrivals, s.sortBuf = a, tmp
}

// shardSuperframes is the fixed shard width of the parallel Monte-Carlo
// mode: Simulate cuts the run into independent blocks of this many
// superframes, each seeded from Config.Seed and its shard index. The
// decomposition depends only on Config.Superframes — never on Workers — so
// shard results merge to the same statistics at any worker count.
//
// Shards are statistically independent replicas: each starts with an idle
// channel and drains its deferred transactions against arrival-free
// superframes past its last beacon, so contention backlog does not carry
// across shard boundaries. At high load this biases Pr_cf/T̄cont slightly
// low versus one continuous run; the bias shrinks with the shard width and
// sits well inside the reproduction tolerances (the Monte-Carlo run is
// itself an approximation of the paper's unspecified simulator).
const shardSuperframes = 8

// Simulate runs the Monte-Carlo characterization as a fill of one point.
// The run is sharded into independent superframe blocks executed on
// Config.Workers goroutines; results are bit-identical for every worker
// count (see Config.Workers). Shard state and the fill are pooled, and the
// shards are folded in index order with no merged transaction slice, so a
// steady stream of Simulate calls allocates nothing per call.
func Simulate(cfg Config) Result {
	cfg = cfg.prepared()
	f := fillPool.Get().(*fill)
	f.add(cfg, 0, flight{})
	_ = f.run(context.Background(), cfg.Workers) // cannot fail uncanceled
	r := f.points[0].res
	f.release()
	return r
}

// fill is the one Monte-Carlo runner: Simulate, BuildCurve and Resolve
// queue their prepared runs with add, and run runs every shard of every
// queued point in one engine.Map. Each point keeps its own shard seeds and
// fold order, so its statistics depend neither on the worker count nor on
// the other points. A point is folded, and published when it holds a cache
// flight, as soon as its last shard ends. Fills are pooled, so a run
// allocates no point table, no shard table and no closure.
type fill struct {
	points []owned
	shards []*shard // by unit: point p's are shards[p.first:p.first+p.n]
	unit   func(u int) error
}

// owned is one point of a fill: its prepared run, the lookup it answers,
// its cache flight (zero outside the cache), its span of shard units and,
// once its last shard is folded, its result.
type owned struct {
	cfg         Config
	at          int
	flight      flight
	first, n    int
	outstanding atomic.Int32
	res         Result
}

var fillPool = sync.Pool{New: func() any {
	f := new(fill)
	f.unit = f.runUnit
	return f
}}

// maxPooledFill bounds the points and shards a pooled fill keeps: a
// larger one, from a grid over many loads, is left to the collector.
const maxPooledFill = 1024

// add queues prepared run cfg as a point answering lookup at and settling
// fl, which is zero for a point run outside the cache.
func (f *fill) add(cfg Config, at int, fl flight) {
	first, n := len(f.shards), cfg.shardCount()
	f.shards = slices.Grow(f.shards, n)[:first+n]
	f.points = append(f.points, owned{cfg: cfg, at: at, flight: fl, first: first, n: n})
	f.points[len(f.points)-1].outstanding.Store(int32(n))
}

// run simulates every queued shard on at most workers goroutines. Once ctx
// is done no further shard starts: run returns ctx.Err() after the shards
// in flight end and abandons the flight of every unfinished point, so its
// waiters claim it afresh.
func (f *fill) run(ctx context.Context, workers int) error {
	err := engine.Map(ctx, workers, len(f.shards), f.unit)
	if err != nil {
		for k := range f.points {
			if p := &f.points[k]; p.outstanding.Load() != 0 && p.flight != (flight{}) {
				p.flight.Abandon()
			}
		}
	}
	return err
}

// runUnit simulates shard unit u. The last shard of a point to end
// finishes the point.
func (f *fill) runUnit(u int) error {
	// The point whose span holds unit u.
	k := sort.Search(len(f.points), func(k int) bool { return f.points[k].first > u }) - 1
	p := &f.points[k]
	f.shards[u] = p.cfg.runShard(u - p.first)
	if p.outstanding.Add(-1) == 0 {
		p.finish(f.shards[p.first : p.first+p.n])
	}
	return nil
}

// finish folds point p's shards in index order into its result, returns
// them to the pool and publishes the point to its flight.
func (p *owned) finish(shards []*shard) {
	p.res = aggregate(p.cfg, shards)
	for _, st := range shards {
		shardPool.Put(st)
	}
	if p.flight != (flight{}) {
		p.flight.Publish(p.res.stats())
	}
}

// release empties f, so it holds no flight and no shard, and returns it to
// the pool.
func (f *fill) release() {
	if cap(f.points) > maxPooledFill || cap(f.shards) > maxPooledFill {
		return
	}
	clear(f.points)
	clear(f.shards)
	f.points, f.shards = f.points[:0], f.shards[:0]
	fillPool.Put(f)
}

// prepared fills c's defaults and checks what the event loop assumes: a
// non-negative load, a positive run length, so the run has at least one
// shard, and valid CSMA parameters, checked here once per run rather than
// per transaction. It panics on any of them.
func (c Config) prepared() Config {
	c = c.withDefaults()
	if c.TargetLoad < 0 {
		panic("contention: negative target load")
	}
	if c.Superframes < 0 {
		panic("contention: negative superframes")
	}
	if err := c.CSMA.Validate(); err != nil {
		panic(err)
	}
	return c
}

// shardCount is the number of shardSuperframes blocks a prepared run is cut
// into; it depends on Superframes alone, never on Workers.
func (c Config) shardCount() int {
	return (c.Superframes + shardSuperframes - 1) / shardSuperframes
}

// runShard simulates block i of a prepared run on a pooled shard under the
// block's derived seed, and returns the shard for its point's finish.
func (c Config) runShard(i int) *shard {
	sf := shardSuperframes
	if i == c.shardCount()-1 {
		sf = c.Superframes - i*shardSuperframes
	}
	st := shardPool.Get().(*shard)
	simulateShard(c, sf, engine.DeriveSeed(c.Seed, int64(i)), st)
	return st
}

// simulateShard runs the event loop over one independent block of
// superframes with its own RNG; it is the unit of parallelism. The shard's
// backing arrays are reused from call to call; the loop itself performs no
// steady-state allocation (see TestSimulateShardAllocFree).
func simulateShard(cfg Config, superframes int, seed int64, st *shard) {
	sfSlots := int64(cfg.Superframe.BeaconInterval() / phy.UnitBackoffPeriod)
	packetSlots := float64(cfg.PacketDuration()) / float64(phy.UnitBackoffPeriod)
	beaconSlots := float64(phy.TxDuration(cfg.BeaconBytes)) / float64(phy.UnitBackoffPeriod)
	perSF := cfg.PacketsPerSuperframe()

	// Integer slot bounds: for an integer slot s and a real bound x,
	// s < x ⇔ s < ⌈x⌉, so every busy-window comparison below runs on
	// precomputed integers while deciding exactly like the real-valued
	// original.
	packetCeil := int64(math.Ceil(packetSlots))
	beaconCeil := int64(math.Ceil(beaconSlots))

	// The farthest push: the CCA after a busy one, at most 2^BE slots on,
	// or a deferral to just past the next beacon, less than
	// packetCeil + beaconCeil slots on. Beyond 1<<ringBits the ring is
	// capped anyway.
	maxBE := cfg.CSMA.MaxBE
	if cfg.CSMA.BatteryLifeExt && maxBE > 2 {
		maxBE = 2
	}
	// Each superframe offers ⌊perSF⌋ or ⌊perSF⌋+1 packets.
	maxTxns := (int(perSF) + 1) * superframes
	st.reset(seed, maxTxns, max(packetCeil+beaconCeil, 1<<min(max(maxBE, 0), ringBits)))
	rng := &st.rng

	// Generate arrivals for every superframe of the shard up front.
	maxSlot := int64(0)
	for k := 0; k < superframes; k++ {
		base := int64(k) * sfSlots
		n := int(perSF)
		if rng.Float64() < perSF-float64(n) {
			n++
		}
		for i := 0; i < n; i++ {
			at := base
			if cfg.Arrival != ArrivalAtBeacon {
				at += rng.Int63n(sfSlots)
			}
			maxSlot = max(maxSlot, st.spawn(&cfg.CSMA, at))
		}
	}
	st.sortArrivals(maxSlot)

	txns := st.txns
	arrivals := st.arrivals
	next := 0 // arrival band head

	// Channel occupancy: transmissions never overlap except when they
	// start on the same boundary, so one (start, until) pair suffices.
	busyStart := int64(-1)
	busyUntil := int64(math.MinInt64)

	// cur's superframe start and phase within it, kept in step with cur.
	sfStart, phase := int64(0), int64(0)
	ring, mask := st.ring, st.mask
	cur := int64(0)
	for {
		b := &ring[cur&mask]
		var ti int32
		var kind uint8
		switch {
		case b.tx.head >= 0:
			ti, kind = b.tx.pop(txns), evTxStart
		case next < len(arrivals) && arrivals[next].slot == cur:
			ti, kind = arrivals[next].txn, evCCA
			next++
		case b.cca.head >= 0:
			ti, kind = b.cca.pop(txns), evCCA
		default:
			// The slot is drained: settle its collisions and jump to the
			// next slot holding a ring event, an arrival or a parked event.
			if len(st.starters) > 1 {
				for _, si := range st.starters {
					txns[si].collided = true
				}
			}
			st.starters = st.starters[:0]
			i := cur & mask
			st.occ[i>>6] &^= 1 << (i & 63)
			to := int64(math.MaxInt64)
			if next < len(arrivals) {
				to = arrivals[next].slot
			}
			if slot, ok := st.nextBusy(cur + 1); ok {
				to = min(to, slot)
			}
			if st.overHead < len(st.over) {
				to = min(to, st.over[st.overHead].slot)
			}
			if to == math.MaxInt64 {
				return
			}
			if phase += to - cur; phase >= sfSlots {
				phase = to % sfSlots
				sfStart = to - phase
			}
			cur = to
			if st.overHead < len(st.over) {
				st.unpark(cur)
			}
			continue
		}

		t := &txns[ti]
		if kind == evTxStart {
			// Defer if the packet cannot finish before the next beacon:
			// re-queue it for the first slot after that beacon, where the
			// t.t.Done() branch below grants it at once with no fresh
			// CCA, so deferred transactions that meet there collide.
			// netsim defers differently (ROADMAP item 1).
			if phase+packetCeil > sfSlots {
				st.push(cur, sfStart+sfSlots+beaconCeil, evCCA, ti)
				// Re-arm the contention window: the transaction object
				// cannot be rewound, so count the grant only when the
				// transmission really starts.
				t.granted = false
				continue
			}
			t.granted = true
			t.endSlot = cur + packetCeil
			busyStart = cur
			busyUntil = max(busyUntil, cur+packetCeil)
			st.starters = append(st.starters, ti)
			continue
		}
		if t.t.Done() {
			// A deferred transaction resuming after a beacon: grant
			// immediately at this boundary (its CCAs already succeeded);
			// re-check fit via the transmission-start path.
			st.push(cur, cur, evTxStart, ti)
			continue
		}
		busy := (cur < busyUntil && cur >= busyStart) || phase < beaconCeil
		switch t.t.CCAResult(&cfg.CSMA, rng, busy) {
		case mac.OutcomeNextCCA:
			st.push(cur, cur+1, evCCA, ti)
		case mac.OutcomeTransmit:
			st.push(cur, cur+1, evTxStart, ti)
		case mac.OutcomeBackoff:
			st.push(cur, cur+1+int64(t.t.SkipBackoff()), evCCA, ti)
		case mac.OutcomeFailure:
			t.failed = true
			t.endSlot = cur
		}
	}
}

// aggregate folds the per-shard transaction populations into a Result; the
// serial in-order fold (shard order, then arrival order within each shard)
// visits transactions exactly as the old merged slice did, keeping
// floating-point sums worker-count independent.
func aggregate(cfg Config, shards []*shard) Result {
	sfSlots := int64(cfg.Superframe.BeaconInterval() / phy.UnitBackoffPeriod)
	packetSlots := float64(cfg.PacketDuration()) / float64(phy.UnitBackoffPeriod)
	packetCeil := math.Ceil(packetSlots)

	var cont stats.Accumulator
	var ccas stats.Accumulator
	var cf, col stats.Proportion
	total, granted, failed, collided := 0, 0, 0, 0
	for _, st := range shards {
		total += len(st.txns)
		for i := range st.txns {
			t := &st.txns[i]
			ccas.Add(float64(t.t.CCAs()))
			cf.Observe(t.failed)
			if t.failed {
				failed++
				cont.Add(float64(t.endSlot-t.arrivalSlot) * phy.UnitBackoffPeriod.Seconds())
			}
			if t.granted {
				granted++
				col.Observe(t.collided)
				if t.collided {
					collided++
				}
				txStart := float64(t.endSlot) - packetCeil
				cont.Add((txStart - float64(t.arrivalSlot)) * phy.UnitBackoffPeriod.Seconds())
			}
		}
	}
	offered := float64(total) * packetSlots / float64(int64(cfg.Superframes)*sfSlots)
	return Result{
		Config:         cfg,
		OfferedLoad:    offered,
		Transactions:   total,
		Granted:        granted,
		Failed:         failed,
		Collided:       collided,
		MeanContention: time.Duration(cont.Mean() * float64(time.Second)),
		ContentionCI95: time.Duration(cont.CI95() * float64(time.Second)),
		MeanCCAs:       ccas.Mean(),
		CCAsCI95:       ccas.CI95(),
		PrCF:           cf.Value(),
		PrCFCI95:       cf.CI95(),
		PrCol:          col.Value(),
		PrColCI95:      col.CI95(),
	}
}
