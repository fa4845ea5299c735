// Package battery models the energy supply side of the paper's
// motivation: microsensor nodes are too small and too numerous for
// battery replacement, so the target average power is the ≈100 µW an
// energy-scavenging source can sustain indefinitely. This package
// quantifies what a given node power means in battery lifetime and
// against a harvesting budget.
package battery

import (
	"fmt"
	"math"
	"time"

	"dense802154/internal/units"
)

// Supply is an energy source: a finite battery, optionally recharged by a
// continuous harvester.
type Supply struct {
	// CapacityJ is the usable battery energy in joules.
	CapacityJ float64
	// SelfDischargePerYear is the fraction of remaining charge lost per
	// year (typical lithium coin cells: 1-2%).
	SelfDischargePerYear float64
	// Harvest is the continuous scavenged power (0 for pure battery).
	Harvest units.Power
}

// CoinCellCR2032 returns a 225 mAh, 3 V lithium coin cell, a common
// microsensor supply (≈2430 J usable).
func CoinCellCR2032() Supply {
	return Supply{CapacityJ: 0.225 * 3600 * 3, SelfDischargePerYear: 0.01}
}

// AACell returns a 2500 mAh, 1.5 V alkaline cell (≈13.5 kJ).
func AACell() Supply {
	return Supply{CapacityJ: 2.5 * 3600 * 1.5, SelfDischargePerYear: 0.03}
}

// VibrationHarvester returns the paper's reference scavenging budget: a
// vibration-driven source sustaining ≈100 µW ([4] S. Roundy et al.).
func VibrationHarvester() Supply {
	return Supply{Harvest: 100 * units.MicroWatt}
}

// ByName resolves a named supply preset — the table every serialized
// surface shares (the query wire and the scenario catalog): "cr2032"
// (CoinCellCR2032), "aa" (AACell) or "harvester" (VibrationHarvester).
func ByName(name string) (Supply, bool) {
	switch name {
	case "cr2032":
		return CoinCellCR2032(), true
	case "aa":
		return AACell(), true
	case "harvester":
		return VibrationHarvester(), true
	}
	return Supply{}, false
}

// Names lists the presets ByName resolves, the coin cell first.
func Names() []string { return []string{"cr2032", "aa", "harvester"} }

// WithHarvest attaches a harvester to a battery supply.
func (s Supply) WithHarvest(p units.Power) Supply {
	s.Harvest = p
	return s
}

// Sustainable reports whether the load can run forever on harvest alone.
func (s Supply) Sustainable(load units.Power) bool {
	return s.Harvest >= load
}

// Margin reports harvest minus load (negative when the battery drains).
func (s Supply) Margin(load units.Power) units.Power {
	return s.Harvest - load
}

// Lifetime reports how long the supply sustains a constant load. It
// returns (0, false) for a non-positive or non-finite load with no
// meaning, and (∞-like, true)=(math.MaxInt64, true) when the supply is
// unconstrained: the harvester alone covers the load, the capacity is
// unbounded, or no finite battery is modeled at all (CapacityJ <= 0, the
// zero-value Supply — absent a declared capacity there is nothing to
// exhaust).
func (s Supply) Lifetime(load units.Power) (time.Duration, bool) {
	if load <= 0 || math.IsNaN(float64(load)) || math.IsInf(float64(load), 1) {
		return 0, false
	}
	net := float64(load - s.Harvest)
	if net <= 0 {
		return time.Duration(math.MaxInt64), true
	}
	if s.CapacityJ <= 0 || math.IsInf(s.CapacityJ, 1) {
		return time.Duration(math.MaxInt64), true
	}
	// Self-discharge as an equivalent constant drain of the mean charge
	// (a first-order approximation; exact treatment is exponential).
	selfDrain := s.CapacityJ / 2 * s.SelfDischargePerYear / (365.25 * 24 * 3600)
	seconds := s.CapacityJ / (net + selfDrain)
	if !(seconds <= 1e12) { // catches NaN from hostile field values too
		return time.Duration(math.MaxInt64), true
	}
	return time.Duration(seconds * float64(time.Second)), true
}

// SelfDischargeDrain reports the supply's self-discharge as an equivalent
// constant power drain of the mean charge — the same first-order
// approximation Lifetime folds into its denominator, exported so per-node
// battery integrations (internal/lifetime) deplete consistently with the
// closed-form answer. It is zero when no finite capacity is modeled.
func (s Supply) SelfDischargeDrain() units.Power {
	if s.CapacityJ <= 0 || math.IsInf(s.CapacityJ, 1) || math.IsNaN(s.CapacityJ) {
		return 0
	}
	return units.Power(s.CapacityJ / 2 * s.SelfDischargePerYear / (365.25 * 24 * 3600))
}

// LifetimeString renders a lifetime in calendar units.
func LifetimeString(d time.Duration) string {
	if d == time.Duration(math.MaxInt64) {
		return "indefinite"
	}
	days := d.Hours() / 24
	switch {
	case days >= 365.25:
		return fmt.Sprintf("%.1f years", days/365.25)
	case days >= 1:
		return fmt.Sprintf("%.1f days", days)
	default:
		return d.Round(time.Minute).String()
	}
}
