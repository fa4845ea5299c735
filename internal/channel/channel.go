// Package channel models the radio propagation environment of the paper:
// the received power of eq. (2), the uniform path-loss population of the
// 1600-node case study (55–95 dB), and the path-loss grids of the
// link-adaptation sweeps.
package channel

import (
	"fmt"
	"math/rand"
)

// ReceivedPowerDBm reports P_Rx = P_Tx - A (the paper's eq. 2).
func ReceivedPowerDBm(txDBm, lossDB float64) float64 { return txDBm - lossDB }

// Deployment generates per-node path losses for a population of nodes
// around the coordinator.
type Deployment interface {
	// Sample draws the path loss of one node.
	Sample(rng *rand.Rand) float64
}

// UniformLoss is the case-study population: path losses uniformly
// distributed over [MinDB, MaxDB] (the paper uses 55–95 dB).
type UniformLoss struct {
	MinDB, MaxDB float64
}

// Sample implements Deployment.
func (u UniformLoss) Sample(rng *rand.Rand) float64 {
	return u.MinDB + rng.Float64()*(u.MaxDB-u.MinDB)
}

// String implements fmt.Stringer.
func (u UniformLoss) String() string {
	return fmt.Sprintf("uniform path loss %g-%g dB", u.MinDB, u.MaxDB)
}

// LossGrid returns an evenly spaced grid of path losses [from, to] with the
// given number of points (≥2), used by the link-adaptation sweeps.
func LossGrid(from, to float64, points int) []float64 {
	if points < 2 {
		return []float64{from}
	}
	out := make([]float64, points)
	step := (to - from) / float64(points-1)
	for i := range out {
		out[i] = from + float64(i)*step
	}
	return out
}
