package core

import (
	"context"

	"dense802154/internal/contention"
	"dense802154/internal/engine"
	"dense802154/internal/frame"
	"dense802154/internal/stats"
)

// Packet size optimization (§5, Fig. 8): small packets amortize the fixed
// MAC overhead poorly; large packets suffer more corruption and, at high
// load, more channel access failures. The paper finds the energy per bit
// nonetheless decreases monotonically up to the 123-byte maximum.

// EnergyVsPayload evaluates the link-adapted energy per bit across payload
// sizes at p's load and path loss — one Fig. 8 curve. The sizes are
// evaluated concurrently on p.Workers goroutines with worker-count-
// independent results.
func EnergyVsPayload(p Params, sizes []int) (stats.Series, error) {
	return EnergyVsPayloadCtx(context.Background(), p, sizes)
}

// EnergyVsPayloadCtx is EnergyVsPayload with cancellation: a canceled ctx
// stops the size sweep promptly and returns ctx.Err(). Each size's
// contention statistics are resolved up front, in one contention.Resolve
// batch on p.Workers goroutines that stops between Monte-Carlo shards once
// ctx is done, and every size is then evaluated with them.
func EnergyVsPayloadCtx(ctx context.Context, p Params, sizes []int) (stats.Series, error) {
	if err := p.Validate(); err != nil {
		return stats.Series{}, err
	}
	ls := make([]contention.Lookup, len(sizes))
	for i, L := range sizes {
		q := p
		q.PayloadBytes = L
		if err := q.Validate(); err != nil {
			return stats.Series{}, err
		}
		ls[i] = contention.Lookup{Source: p.Contention, PayloadBytes: L, Load: p.Load}
	}
	if err := contention.Resolve(ctx, p.Workers, ls); err != nil {
		return stats.Series{}, err
	}
	ms, err := engine.MapSlice(ctx, p.Workers, sizes,
		func(i, L int) (Metrics, error) {
			q := p
			q.PayloadBytes = L
			q.TXLevelIndex = AutoTXLevel
			return EvaluateWithStats(q, ls[i].Stats)
		})
	if err != nil {
		return stats.Series{}, err
	}
	s := stats.Series{}
	for i, L := range sizes {
		s.Append(float64(L), ms[i].EnergyPerBitJ)
	}
	return s, nil
}

// OptimalPayload reports the payload size minimizing energy per bit over
// the 1..frame.MaxDataPayload range, scanning the given step (≥1).
func OptimalPayload(p Params, step int) (int, float64, error) {
	if step < 1 {
		step = 1
	}
	var sizes []int
	for L := step; L <= frame.MaxDataPayload; L += step {
		sizes = append(sizes, L)
	}
	if sizes[len(sizes)-1] != frame.MaxDataPayload {
		sizes = append(sizes, frame.MaxDataPayload)
	}
	s, err := EnergyVsPayload(p, sizes)
	if err != nil {
		return 0, 0, err
	}
	x, y, _ := s.MinY()
	return int(x), y, nil
}
