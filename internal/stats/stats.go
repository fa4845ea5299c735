// Package stats provides the statistical accumulators and tabular result
// types used by the Monte-Carlo characterizer, the network simulator and the
// experiment harness that regenerates the paper's figures.
package stats

import (
	"math"
	"sort"
)

// Accumulator computes running mean and variance with Welford's algorithm.
// The zero value is an empty accumulator ready for use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N reports the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean reports the sample mean (0 when empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Sum reports the total of all observations.
func (a *Accumulator) Sum() float64 { return a.mean * float64(a.n) }

// Min reports the smallest observation (0 when empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max reports the largest observation (0 when empty).
func (a *Accumulator) Max() float64 { return a.max }

// Variance reports the unbiased sample variance (0 for fewer than two
// observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev reports the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr reports the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 reports the half-width of the normal-approximation 95% confidence
// interval of the mean.
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// Proportion is a Bernoulli success-rate accumulator.
type Proportion struct {
	trials    int
	successes int
}

// Observe records one trial.
func (p *Proportion) Observe(success bool) {
	p.trials++
	if success {
		p.successes++
	}
}

// Trials reports the number of recorded trials.
func (p *Proportion) Trials() int { return p.trials }

// Successes reports the number of recorded successes.
func (p *Proportion) Successes() int { return p.successes }

// Value reports the success rate (0 when empty).
func (p *Proportion) Value() float64 {
	if p.trials == 0 {
		return 0
	}
	return float64(p.successes) / float64(p.trials)
}

// CI95 reports the half-width of the normal-approximation 95% confidence
// interval of the proportion.
func (p *Proportion) CI95() float64 {
	if p.trials == 0 {
		return 0
	}
	v := p.Value()
	return 1.96 * math.Sqrt(v*(1-v)/float64(p.trials))
}

// Percentile returns the q-th percentile (0..1) of xs using linear
// interpolation between closest ranks. It returns NaN for empty input.
func Percentile(xs []float64, q float64) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, q)
}

// PercentileSorted is Percentile over a slice already sorted ascending,
// without the copy. It returns NaN for empty input.
func PercentileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	return acc.Mean()
}
