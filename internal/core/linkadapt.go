package core

import (
	"context"
	"fmt"
	"math"

	"dense802154/internal/contention"
	"dense802154/internal/engine"
	"dense802154/internal/fit"
	"dense802154/internal/stats"
)

// Link adaptation (§4-§5): with a fixed data rate, the energy-optimal
// policy is channel inversion — pick the lowest transmit level whose energy
// per bit at the measured path loss beats all others. The switching
// thresholds are the crossings of the per-level energy-vs-path-loss curves
// (the circles of Fig. 7); the paper observes they are independent of the
// network load.

// OptimalTXLevel returns the energy-per-bit-minimizing transmit level for
// p's path loss. It looks p's contention statistics up once for all levels.
func OptimalTXLevel(p Params) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	cs := p.Contention.Contention(p.PayloadBytes, p.Load)
	return optimalLevel(&p, &cs), nil
}

// optimalLevel picks the level on validated p under the statistics cs:
// the finite minimum, or full power when no level closes the link (deep in
// the out-of-range tail).
func optimalLevel(p *Params, cs *contention.Stats) int {
	best, bestE := -1, math.Inf(1)
	for i := 0; i <= p.Radio.MaxTXLevel(); i++ {
		e := evaluateAtLevel(p, i, cs).EnergyPerBitJ
		if !math.IsInf(e, 0) && !math.IsNaN(e) && e < bestE {
			best, bestE = i, e
		}
	}
	if best < 0 {
		best = p.Radio.MaxTXLevel()
	}
	return best
}

// EnergyCurve is energy per bit versus path loss for one transmit level.
type EnergyCurve struct {
	LevelIndex int
	LevelDBm   float64
	LossDB     []float64
	EnergyJ    []float64 // J/bit
}

// EnergyVsPathLossCtx evaluates the model across a path-loss grid for
// every transmit level of the radio (one Fig. 7 family at p.Load). The
// (level, loss) cells are evaluated concurrently on p.Workers goroutines;
// every cell writes its own grid slot, so the curve family is identical at
// any worker count. A canceled ctx stops the grid promptly and returns
// ctx.Err().
func EnergyVsPathLossCtx(ctx context.Context, p Params, losses []float64) ([]EnergyCurve, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	levels := p.Radio.MaxTXLevel() + 1
	curves := make([]EnergyCurve, levels)
	for i := range curves {
		curves[i] = EnergyCurve{
			LevelIndex: i,
			LevelDBm:   p.Radio.TXLevels[i].DBm,
			LossDB:     append([]float64(nil), losses...),
			EnergyJ:    make([]float64, len(losses)),
		}
	}
	// Every cell shares p's (payload, load), so contention is looked up
	// once. The evaluation closure cannot fail, so Map's error is the ctx's.
	cs, err := sharedContention(ctx, &p)
	if err != nil {
		return nil, err
	}
	err = engine.Map(ctx, p.Workers, levels*len(losses), func(k int) error {
		i, j := k/len(losses), k%len(losses)
		q := p
		q.PathLossDB = losses[j]
		curves[i].EnergyJ[j] = evaluateAtLevel(&q, i, &cs).EnergyPerBitJ
		return nil
	})
	if err != nil {
		return nil, err
	}
	return curves, nil
}

// Threshold is one link-adaptation switching point: above LossDB the node
// should move from FromDBm to ToDBm.
type Threshold struct {
	FromLevel, ToLevel int
	FromDBm, ToDBm     float64
	LossDB             float64
}

// String implements fmt.Stringer.
func (t Threshold) String() string {
	return fmt.Sprintf("switch %g→%g dBm at %.1f dB path loss", t.FromDBm, t.ToDBm, t.LossDB)
}

// ThresholdsCtx locates the switching path losses between consecutive
// transmit levels by finding the crossings of their energy curves (the
// circles of Fig. 7). Levels whose curves never cross inside the grid are
// skipped.
func ThresholdsCtx(ctx context.Context, p Params, losses []float64) ([]Threshold, error) {
	curves, err := EnergyVsPathLossCtx(ctx, p, losses)
	if err != nil {
		return nil, err
	}
	var out []Threshold
	for i := 0; i+1 < len(curves); i++ {
		xc, ok := fit.Crossing(losses, curves[i].EnergyJ, curves[i+1].EnergyJ)
		if !ok {
			continue
		}
		out = append(out, Threshold{
			FromLevel: curves[i].LevelIndex,
			ToLevel:   curves[i+1].LevelIndex,
			FromDBm:   curves[i].LevelDBm,
			ToDBm:     curves[i+1].LevelDBm,
			LossDB:    xc,
		})
	}
	return out, nil
}

// AdaptationSavings quantifies the paper's "adaptation of the transmit
// power can save up to 40% of the total energy": the relative energy-per-
// bit reduction of the adapted policy versus always transmitting at full
// power, at the given path loss.
func AdaptationSavings(p Params, lossDB float64) (float64, error) {
	p.PathLossDB = lossDB
	p.TXLevelIndex = AutoTXLevel
	adapted, err := Evaluate(p)
	if err != nil {
		return 0, err
	}
	p.TXLevelIndex = p.Radio.MaxTXLevel()
	full, err := Evaluate(p)
	if err != nil {
		return 0, err
	}
	if full.EnergyPerBitJ == 0 {
		return 0, nil
	}
	return 1 - adapted.EnergyPerBitJ/full.EnergyPerBitJ, nil
}

// AdaptedEnergySeriesCtx evaluates the link-adapted (lower envelope)
// energy per bit across a path-loss grid — the solid curve of Fig. 7.
func AdaptedEnergySeriesCtx(ctx context.Context, p Params, losses []float64) (stats.Series, error) {
	if err := p.Validate(); err != nil {
		return stats.Series{}, err
	}
	s := stats.Series{Label: fmt.Sprintf("load %.2f", p.Load)}
	cs, err := sharedContention(ctx, &p)
	if err != nil {
		return stats.Series{}, err
	}
	ms, err := engine.MapSlice(ctx, p.Workers, losses,
		func(i int, a float64) (Metrics, error) {
			q := p
			q.PathLossDB = a
			q.TXLevelIndex = AutoTXLevel
			return evaluateAtLevel(&q, q.level(&cs), &cs), nil
		})
	if err != nil {
		return stats.Series{}, err
	}
	for i, a := range losses {
		s.Append(a, ms[i].EnergyPerBitJ)
	}
	return s, nil
}
