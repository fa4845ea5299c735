// Package scenario pins the repository's behavior across the whole
// operating space of the Bougard et al. model — not just at the paper's
// reproduced figures. A Scenario is a declarative operating point (density,
// traffic, duty cycle, payload, path-loss population, replication plan);
// the committed Catalog spans sparse→dense networks, light→saturated
// traffic and short→long beacon intervals. Run pushes one scenario through
// BOTH implementations of the protocol stack:
//
//   - the analytical expected-value model (internal/core, eqs. 3-14),
//     integrated over the scenario's path-loss population, and
//   - the cycle-accurate discrete-event simulator (internal/netsim) under
//     RunReplicas with across-replica 95% confidence intervals,
//
// and scores their agreement metric by metric against the scenario's
// declared tolerances. The committed golden files
// (testdata/<name>.golden.json, regenerated with `go test -update`) freeze
// every output byte: because each run is deterministic at any worker count,
// a golden mismatch is a behavior change, not noise — which turns every
// future performance or refactoring PR into one that is regression-checked
// across the scenario space.
package scenario

import (
	"fmt"
	"math"

	"dense802154/internal/battery"
	"dense802154/internal/frame"
	"dense802154/internal/mac"
	"dense802154/internal/radio"
)

// Tolerance bounds the allowed disagreement on one metric between the
// analytic model and the simulator. A comparison passes when
//
//	|analytic − sim| ≤ Abs + Rel·max(|analytic|, |sim|) + CIMult·CI95
//
// where CI95 is the simulator's across-replica 95% confidence half-width.
// Abs keeps near-zero probabilities from failing on relative terms, Rel
// scales with the metric's magnitude, and CIMult grants the statistical
// slack a finite replication plan needs.
type Tolerance struct {
	Abs    float64 `json:"abs"`
	Rel    float64 `json:"rel"`
	CIMult float64 `json:"ci_mult"`
}

// Allowed computes the tolerance envelope for an (analytic, sim, CI) triple.
func (t Tolerance) Allowed(analytic, sim, ci95 float64) float64 {
	m := math.Abs(analytic)
	if s := math.Abs(sim); s > m {
		m = s
	}
	return t.Abs + t.Rel*m + t.CIMult*ci95
}

// Tolerances names the per-metric agreement bounds of one scenario.
type Tolerances struct {
	PowerUW Tolerance `json:"power_uw"`
	PrFail  Tolerance `json:"pr_fail"`
	PrCF    Tolerance `json:"pr_cf"`
	NCCA    Tolerance `json:"ncca"`
	TcontMS Tolerance `json:"tcont_ms"`
}

// DefaultTolerances returns the catalog-wide starting bounds. The two
// protocol implementations share the mac.Attempt state machine but
// differ in everything else (time representation, medium model, arrival
// generation, retry handling), so contention-side quantities carry the
// loose factor-two envelopes the cross-validation suite established, while
// energy — the paper's validation target — is held to ±20% plus CI slack.
func DefaultTolerances() Tolerances {
	return Tolerances{
		PowerUW: Tolerance{Rel: 0.20, CIMult: 3},
		PrFail:  Tolerance{Abs: 0.06, Rel: 0.60, CIMult: 3},
		PrCF:    Tolerance{Abs: 0.03, Rel: 1.0, CIMult: 3},
		NCCA:    Tolerance{Rel: 0.50, CIMult: 3},
		TcontMS: Tolerance{Abs: 0.5, Rel: 0.65, CIMult: 3},
	}
}

// Scenario declares one operating point of the model/simulator space.
// The zero values of the run-plan fields (Superframes, Replicas,
// MCSuperframes, LossGridPoints, NMax, TargetPRxDBm, Radio, Tol) are filled
// by WithDefaults; the physical fields (Nodes, PayloadBytes, BO/SO,
// TransmitProb, loss range) must be set explicitly.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description"`

	// Topology and traffic.
	Nodes        int     `json:"nodes"`
	PayloadBytes int     `json:"payload_bytes"`
	BO           uint8   `json:"bo"`
	SO           uint8   `json:"so"`
	TransmitProb float64 `json:"transmit_prob"`

	// Deployment: path losses are uniform over [MinLossDB, MaxLossDB] and
	// each node channel-inverts to the lowest TX level reaching
	// TargetPRxDBm.
	MinLossDB    float64 `json:"min_loss_db"`
	MaxLossDB    float64 `json:"max_loss_db"`
	TargetPRxDBm float64 `json:"target_prx_dbm"`

	// Protocol knobs.
	NMax           int    `json:"n_max"`
	Radio          string `json:"radio"`
	LowPowerListen bool   `json:"low_power_listen"`

	// Run plan.
	Superframes    int   `json:"superframes"`      // simulated beacon intervals per replica
	Replicas       int   `json:"replicas"`         // independent netsim replications
	MCSuperframes  int   `json:"mc_superframes"`   // Monte-Carlo contention run length
	LossGridPoints int   `json:"loss_grid_points"` // analytic population integration grid
	Seed           int64 `json:"seed"`

	// Lifetime, when set, additionally pushes the operating point through
	// the network-lifetime integrator (internal/lifetime): every node gets
	// the named battery, the DES runs in epochs with idle fast-forward, and
	// the golden pins first-death/partition/last-death statistics. Nil (the
	// catalog's historical entries) keeps the result bytes unchanged.
	Lifetime *LifetimeSpec `json:"lifetime,omitempty"`

	Tol Tolerances `json:"tolerances"`
}

// LifetimeSpec declares the battery-lifetime leg of a scenario. Zero fields
// are filled by WithDefaults, mirroring the lifetime query's wire defaults.
type LifetimeSpec struct {
	// Supply names the battery preset: "cr2032", "aa" or "harvester".
	Supply string `json:"supply"`
	// CapacityJ, when positive, overrides the preset's usable capacity.
	CapacityJ float64 `json:"capacity_j,omitempty"`
	// PartitionFrac is the alive fraction below which the network counts as
	// partitioned.
	PartitionFrac float64 `json:"partition_frac"`
	// EpochSuperframes is the DES epoch length in beacon intervals.
	EpochSuperframes int `json:"epoch_superframes"`
	// MaxEpochs bounds the live-simulated epochs per replica.
	MaxEpochs int `json:"max_epochs"`
	// Replicas is the lifetime replication plan (independent of the
	// scenario's cross-model Replicas).
	Replicas int `json:"replicas"`
}

// WithDefaults fills the zero run-plan fields of a lifetime leg.
func (l LifetimeSpec) WithDefaults() LifetimeSpec {
	if l.Supply == "" {
		l.Supply = "cr2032"
	}
	if l.PartitionFrac == 0 {
		l.PartitionFrac = 0.5
	}
	if l.EpochSuperframes == 0 {
		l.EpochSuperframes = 16
	}
	if l.MaxEpochs == 0 {
		l.MaxEpochs = 512
	}
	if l.Replicas == 0 {
		l.Replicas = 3
	}
	return l
}

// supply resolves the named preset with its capacity override applied.
func (l LifetimeSpec) supply() (battery.Supply, error) {
	s, ok := battery.ByName(l.Supply)
	if !ok {
		return s, fmt.Errorf("unknown supply %q (want cr2032, aa or harvester)", l.Supply)
	}
	if l.CapacityJ > 0 {
		s.CapacityJ = l.CapacityJ
	}
	return s, nil
}

// WithDefaults fills the zero run-plan fields. Catalog entries are stored
// fully defaulted so the golden files spell out every knob.
func (s Scenario) WithDefaults() Scenario {
	if s.TransmitProb == 0 {
		s.TransmitProb = 1
	}
	if s.TargetPRxDBm == 0 {
		s.TargetPRxDBm = -87
	}
	if s.NMax == 0 {
		s.NMax = 5
	}
	if s.Radio == "" {
		s.Radio = "cc2420"
	}
	if s.Superframes == 0 {
		s.Superframes = 20
	}
	if s.Replicas == 0 {
		s.Replicas = 5
	}
	if s.MCSuperframes == 0 {
		s.MCSuperframes = 40
	}
	if s.LossGridPoints == 0 {
		s.LossGridPoints = 41
	}
	// Replace the lifetime pointer only when defaulting changes it, so a
	// fully-defaulted scenario compares equal to its WithDefaults (the
	// catalog-hygiene test relies on that).
	if s.Lifetime != nil {
		if l := s.Lifetime.WithDefaults(); l != *s.Lifetime {
			s.Lifetime = &l
		}
	}
	if s.Tol == (Tolerances{}) {
		s.Tol = DefaultTolerances()
	}
	return s
}

// Superframe builds the scenario's beacon structure.
func (s Scenario) Superframe() (mac.Superframe, error) {
	return mac.NewSuperframe(s.BO, s.SO)
}

// Load reports the paper's network load λ the scenario offers: the
// aggregate expected on-air time of the population relative to the beacon
// interval (Superframe.ChannelLoad scaled by the transmit probability).
func (s Scenario) Load() (float64, error) {
	sf, err := s.Superframe()
	if err != nil {
		return 0, err
	}
	return s.TransmitProb * sf.ChannelLoad(s.Nodes, frame.PaperPacketDuration(s.PayloadBytes)), nil
}

// Validate reports configuration errors, including an offered load beyond
// saturation (λ > 1), which neither model is defined for.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if s.Nodes < 1 || s.Nodes > 10000 {
		return fmt.Errorf("scenario %s: nodes %d outside 1..10000", s.Name, s.Nodes)
	}
	if s.PayloadBytes < 1 || s.PayloadBytes > frame.MaxDataPayload {
		return fmt.Errorf("scenario %s: payload %d outside 1..%d", s.Name, s.PayloadBytes, frame.MaxDataPayload)
	}
	if _, err := s.Superframe(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	// The negated comparison forms below also reject NaN, which would
	// otherwise sail through and feed garbage to both models.
	if !(s.TransmitProb > 0 && s.TransmitProb <= 1) {
		return fmt.Errorf("scenario %s: transmit probability %g outside (0,1]", s.Name, s.TransmitProb)
	}
	if !(s.MinLossDB < s.MaxLossDB) || math.IsInf(s.MinLossDB, 0) || math.IsInf(s.MaxLossDB, 0) {
		return fmt.Errorf("scenario %s: loss range %g..%g not a finite ascending interval", s.Name, s.MinLossDB, s.MaxLossDB)
	}
	if math.IsNaN(s.TargetPRxDBm) || math.IsInf(s.TargetPRxDBm, 0) {
		return fmt.Errorf("scenario %s: target received power must be finite", s.Name)
	}
	if s.NMax < 1 || s.NMax > 100 {
		return fmt.Errorf("scenario %s: NMax %d outside 1..100", s.Name, s.NMax)
	}
	if _, ok := radio.ByName(s.Radio); !ok {
		return fmt.Errorf("scenario %s: unknown radio %q", s.Name, s.Radio)
	}
	if s.Superframes < 1 || s.Replicas < 1 || s.MCSuperframes < 1 {
		return fmt.Errorf("scenario %s: run plan must be ≥ 1 (superframes %d, replicas %d, mc %d)",
			s.Name, s.Superframes, s.Replicas, s.MCSuperframes)
	}
	if s.LossGridPoints < 2 {
		return fmt.Errorf("scenario %s: loss grid needs ≥ 2 points", s.Name)
	}
	if l := s.Lifetime; l != nil {
		if _, err := l.supply(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		if math.IsNaN(l.CapacityJ) || math.IsInf(l.CapacityJ, 0) || l.CapacityJ < 0 {
			return fmt.Errorf("scenario %s: lifetime capacity %g not finite and non-negative", s.Name, l.CapacityJ)
		}
		if !(l.PartitionFrac > 0 && l.PartitionFrac <= 1) {
			return fmt.Errorf("scenario %s: partition fraction %g outside (0,1]", s.Name, l.PartitionFrac)
		}
		if l.EpochSuperframes < 1 || l.MaxEpochs < 1 || l.Replicas < 1 {
			return fmt.Errorf("scenario %s: lifetime run plan must be ≥ 1 (epoch superframes %d, max epochs %d, replicas %d)",
				s.Name, l.EpochSuperframes, l.MaxEpochs, l.Replicas)
		}
	}
	load, err := s.Load()
	if err != nil {
		return err
	}
	if !(load > 0 && load <= 1) {
		return fmt.Errorf("scenario %s: offered load λ = %.3f outside (0,1]", s.Name, load)
	}
	return nil
}
