package contention

import (
	"fmt"
	"math"
	"testing"

	"dense802154/internal/engine"
	"dense802154/internal/mac"
	"dense802154/internal/phy"
)

// refEvent is one entry of the reference queue.
type refEvent struct {
	slot int64
	seq  int32
	kind uint8
	txn  int32
}

// refQueue is the oracle's event queue: an unordered slice whose pop scans
// for the (slot, kind, seq) minimum. It shares nothing with the calendar.
type refQueue struct{ evs []refEvent }

func (q *refQueue) push(ev refEvent) { q.evs = append(q.evs, ev) }

func (q *refQueue) pop() refEvent {
	best := 0
	for i := 1; i < len(q.evs); i++ {
		a, b := &q.evs[i], &q.evs[best]
		if a.slot != b.slot {
			if a.slot < b.slot {
				best = i
			}
			continue
		}
		if a.kind != b.kind {
			if a.kind < b.kind {
				best = i
			}
			continue
		}
		if a.seq < b.seq {
			best = i
		}
	}
	ev := q.evs[best]
	last := len(q.evs) - 1
	q.evs[best] = q.evs[last]
	q.evs = q.evs[:last]
	return ev
}

// refTxn is one transaction's final state in the oracle run.
type refTxn struct {
	t           mac.Attempt
	arrivalSlot int64
	endSlot     int64
	granted     bool
	failed      bool
	collided    bool
}

// refShard is the event loop of one shard over refQueue, stepping every
// backoff slot by slot. It returns the final transactions, the final RNG
// state and how many pushes landed at least 1<<ringBits slots past the
// event that scheduled them.
func refShard(cfg Config, superframes int, seed int64) ([]refTxn, engine.RNG, int) {
	rng := engine.NewRNG(seed)
	csma := cfg.CSMA
	var q refQueue
	var txns []refTxn
	var starters []int32
	far := 0

	sfSlots := int64(cfg.Superframe.BeaconInterval() / phy.UnitBackoffPeriod)
	packetSlots := float64(cfg.PacketDuration()) / float64(phy.UnitBackoffPeriod)
	beaconSlots := float64(phy.TxDuration(cfg.BeaconBytes)) / float64(phy.UnitBackoffPeriod)
	perSF := cfg.PacketsPerSuperframe()
	packetCeil := int64(math.Ceil(packetSlots))
	beaconCeil := int64(math.Ceil(beaconSlots))

	seq := int32(0)
	push := func(from, slot int64, kind uint8, ti int32) {
		if slot-from >= 1<<ringBits {
			far++
		}
		q.push(refEvent{slot: slot, seq: seq, kind: kind, txn: ti})
		seq++
	}
	spawn := func(arrival int64) {
		txns = append(txns, refTxn{arrivalSlot: arrival})
		ti := int32(len(txns) - 1)
		t := &txns[ti]
		t.t.Start(&csma, &rng)
		first := arrival
		for !t.t.CCADue() {
			t.t.AdvanceSlot()
			first++
		}
		push(arrival, first, evCCA, ti)
	}
	for k := 0; k < superframes; k++ {
		base := int64(k) * sfSlots
		n := int(perSF)
		if rng.Float64() < perSF-float64(n) {
			n++
		}
		for i := 0; i < n; i++ {
			switch cfg.Arrival {
			case ArrivalAtBeacon:
				spawn(base)
			default:
				spawn(base + rng.Int63n(sfSlots))
			}
		}
	}

	busyStart := int64(-1)
	busyUntil := int64(math.MinInt64)
	lastStartSlot := int64(-1)
	flush := func() {
		if len(starters) > 1 {
			for _, ti := range starters {
				txns[ti].collided = true
			}
		}
		starters = starters[:0]
	}
	for len(q.evs) > 0 {
		ev := q.pop()
		if ev.slot != lastStartSlot {
			flush()
		}
		t := &txns[ev.txn]
		switch ev.kind {
		case evTxStart:
			if ev.slot%sfSlots+packetCeil > sfSlots {
				push(ev.slot, (ev.slot/sfSlots+1)*sfSlots+beaconCeil, evCCA, ev.txn)
				t.granted = false
				continue
			}
			t.granted = true
			t.endSlot = ev.slot + packetCeil
			busyStart = ev.slot
			if until := ev.slot + packetCeil; until > busyUntil {
				busyUntil = until
			}
			lastStartSlot = ev.slot
			starters = append(starters, ev.txn)
		case evCCA:
			if t.t.Done() {
				push(ev.slot, ev.slot, evTxStart, ev.txn)
				continue
			}
			busy := (ev.slot < busyUntil && ev.slot >= busyStart) || ev.slot%sfSlots < beaconCeil
			switch t.t.CCAResult(&csma, &rng, busy) {
			case mac.OutcomeNextCCA:
				push(ev.slot, ev.slot+1, evCCA, ev.txn)
			case mac.OutcomeTransmit:
				push(ev.slot, ev.slot+1, evTxStart, ev.txn)
			case mac.OutcomeBackoff:
				next := ev.slot + 1
				for !t.t.CCADue() {
					t.t.AdvanceSlot()
					next++
				}
				push(ev.slot, next, evCCA, ev.txn)
			case mac.OutcomeFailure:
				t.failed = true
				t.endSlot = ev.slot
			}
		}
	}
	flush()
	return txns, rng, far
}

// TestCalendarMatchesReference pins every transaction's final state, and
// the shard's final RNG state, against the reference queue over a table
// of beacon orders, loads, payloads, CSMA variants and both arrival
// models. The {MaxBE 12} variant climbs past the ring's reach, so its
// rows exercise the overflow band.
func TestCalendarMatchesReference(t *testing.T) {
	csmas := []struct {
		name string
		p    mac.CSMAParams
	}{
		{"paper", mac.PaperParams()},
		{"standard", mac.StandardParams()},
		{"ble", mac.CSMAParams{MinBE: 3, MaxBE: 5, MaxBackoffs: 4, CW: 2, BatteryLifeExt: true}},
		{"be2-8", mac.CSMAParams{MinBE: 2, MaxBE: 8, MaxBackoffs: 4, CW: 2}},
		{"be12", mac.CSMAParams{MinBE: 3, MaxBE: 12, MaxBackoffs: 10, CW: 2}},
	}
	// The oracle's pop is linear in the pending events, so rows are sized
	// by oracleTxnBudget and oracleSFCap.
	st := new(shard)
	rows, txnsChecked, far := 0, 0, 0
	for _, bo := range []uint8{6, 8, 10} {
		sf, err := mac.NewSuperframe(bo, bo)
		if err != nil {
			t.Fatal(err)
		}
		for _, load := range []float64{0.01, 0.1, 0.433, 1.0, 2.0} {
			for _, payload := range []int{5, 33, 80, 123} {
				for _, cs := range csmas {
					for _, arr := range []ArrivalModel{ArrivalUniform, ArrivalAtBeacon} {
						cfg := Config{
							PayloadBytes: payload, Superframe: sf, CSMA: cs.p,
							Arrival: arr, TargetLoad: load,
						}.withDefaults()
						perSF := cfg.PacketsPerSuperframe()
						if perSF > oracleSFCap {
							continue
						}
						superframes := min(shardSuperframes, max(1, int(oracleTxnBudget/perSF)))
						seed := int64(rows)*7919 + 1
						name := fmt.Sprintf("BO%d/λ%g/L%d/%s/%v", bo, load, payload, cs.name, arr)
						rows++

						want, wantRNG, f := refShard(cfg, superframes, seed)
						far += f
						simulateShard(cfg, superframes, seed, st)
						if st.rng != wantRNG {
							t.Fatalf("%s: final RNG state differs", name)
						}
						if len(st.txns) != len(want) {
							t.Fatalf("%s: %d transactions, reference %d", name, len(st.txns), len(want))
						}
						for i := range want {
							if d := diffTxn(&st.txns[i], &want[i]); d != "" {
								t.Fatalf("%s: transaction %d: %s", name, i, d)
							}
						}
						txnsChecked += len(want)
					}
				}
			}
		}
	}
	if far == 0 {
		t.Error("no push reached past the ring: the overflow band went unexercised")
	}
	t.Logf("%d rows, %d transactions, %d pushes past the ring", rows, txnsChecked, far)
}

// diffTxn describes the first difference between a calendar transaction
// and its reference, or returns "".
func diffTxn(got *txn, want *refTxn) string {
	g, w := &got.t, &want.t
	switch {
	case got.arrivalSlot != want.arrivalSlot:
		return fmt.Sprintf("arrival slot %d, want %d", got.arrivalSlot, want.arrivalSlot)
	case got.endSlot != want.endSlot:
		return fmt.Sprintf("end slot %d, want %d", got.endSlot, want.endSlot)
	case got.granted != want.granted || got.failed != want.failed || got.collided != want.collided:
		return fmt.Sprintf("granted/failed/collided %v/%v/%v, want %v/%v/%v",
			got.granted, got.failed, got.collided, want.granted, want.failed, want.collided)
	case g.CCAs() != w.CCAs() || g.BusyCCAs() != w.BusyCCAs() || g.WaitSlots() != w.WaitSlots():
		return fmt.Sprintf("CCAs/busy/wait %d/%d/%d, want %d/%d/%d",
			g.CCAs(), g.BusyCCAs(), g.WaitSlots(), w.CCAs(), w.BusyCCAs(), w.WaitSlots())
	case g.Backoffs() != w.Backoffs() || g.BackoffExponent() != w.BackoffExponent():
		return fmt.Sprintf("NB/BE %d/%d, want %d/%d", g.Backoffs(), g.BackoffExponent(), w.Backoffs(), w.BackoffExponent())
	case g.Done() != w.Done() || g.Granted() != w.Granted() || g.Failed() != w.Failed():
		return "MAC outcome differs"
	}
	return ""
}
