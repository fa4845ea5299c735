package query

import (
	"encoding/json"

	"dense802154/internal/wire"
)

// This file is the result reader, the read-side twin of append.go: one
// reflection-free reader per result wire type over a wire.Scanner. Each
// reads exactly the bytes its appender writes — keys in the appender's
// order, omitempty fields optional — and decodes them to the values
// encoding/json would. Any other input (differently-cased, unknown,
// repeated or reordered keys, values of another type, invalid JSON) falls
// back to json.Unmarshal on the method-less plainTaskResult, so the inputs
// accepted and the values decoded stay exactly encoding/json's. Every
// TaskResult read back goes through them: DecodeTaskResult for store hits,
// TaskResult.UnmarshalJSON wherever encoding/json meets one (stored
// ResultSet bodies), and the /v2/tasks line reader of internal/dist.
// encoding/json is their test oracle (TestDecodeMatchesEncodingJSON,
// FuzzTaskResultDecode).
// The scenario and experiment payloads embed foreign report types, so their
// value span alone still goes through encoding/json, as appendStd writes it.
//
// Adding a field to a result wire type means adding it to that type's keys
// and readJSON too; the oracle test fails on appender output the fast path
// does not take.

// plainTaskResult is TaskResult without methods: encoding/json decodes it by
// reflection, which is the reader's fallback and its oracle.
type plainTaskResult TaskResult

var (
	contStatsKeys  = wire.Keys{"tcont_ns", "ncca", "pr_cf", "pr_col"}
	breakdownKeys  = wire.Keys{"beacon_j", "contention_j", "transmit_j", "ack_j", "ifs_j", "sleep_j"}
	stateTimesKeys = wire.Keys{"shutdown_ns", "idle_ns", "rx_ns", "tx_ns"}
	metricsKeys    = wire.Keys{"tx_level_index", "tx_power_dbm", "prx_dbm", "tpacket_ns", "contention",
		"pr_bit", "pr_e", "pr_tf", "pr_cf", "expected_tx", "tidle_ns", "ttx_ns", "trx_ns", "states",
		"avg_power_w", "energy_per_frame_j", "pr_fail", "delay_ns", "energy_per_bit_j", "breakdown"}
	caseStudyKeys = wire.Keys{"load", "avg_power_w", "mean_pr_fail", "coverage", "mean_delay_ns",
		"median_delay_ns", "nominal_delay_ns", "mean_energy_j_per_bit", "breakdown", "states",
		"loss_grid_db", "power_uw", "pr_fail", "level_used"}
	simResultKeys = wire.Keys{"seed", "avg_power_w", "delivery_ratio", "pr_fail_per_attempt",
		"packets_offered", "packets_delivered", "packets_dropped", "packets_expired", "transmissions",
		"collisions", "access_failures", "corrupted_frames", "mean_delay_ns", "p95_delay_ns", "contention"}
	energyCurveKeys   = wire.Keys{"level_index", "level_dbm", "loss_db", "energy_j_per_bit"}
	thresholdKeys     = wire.Keys{"from_level", "to_level", "from_dbm", "to_dbm", "loss_db"}
	payloadSeriesKeys = wire.Keys{"sizes_bytes", "energy_j_per_bit"}
	curvePointKeys    = wire.Keys{"time_s", "alive"}
	lifetimeKeys      = wire.Keys{"seed", "nodes", "first_death_s", "partition_s", "last_death_s",
		"alive_at_end", "alive_frac_at_end", "deaths", "simulated_s", "fast_forward_s", "epochs",
		"sustainable", "curve"}
	taskResultKeys = wire.Keys{"index", "label", "metrics", "casestudy", "curves", "thresholds",
		"payload", "sim", "lifetime", "scenario", "experiment"}
)

func (w *ContStatsWire) readJSON(s *wire.Scanner) {
	for m := s.Object(contStatsKeys); m.Next(); {
		switch m.Key() {
		case "tcont_ns":
			w.TcontNS = s.Int64()
		case "ncca":
			w.NCCA = s.Float()
		case "pr_cf":
			w.PrCF = s.Float()
		case "pr_col":
			w.PrCol = s.Float()
		}
	}
}

func (w *BreakdownWire) readJSON(s *wire.Scanner) {
	for m := s.Object(breakdownKeys); m.Next(); {
		switch m.Key() {
		case "beacon_j":
			w.BeaconJ = s.Float()
		case "contention_j":
			w.ContentionJ = s.Float()
		case "transmit_j":
			w.TransmitJ = s.Float()
		case "ack_j":
			w.AckJ = s.Float()
		case "ifs_j":
			w.IFSJ = s.Float()
		case "sleep_j":
			w.SleepJ = s.Float()
		}
	}
}

func (w *StateTimesWire) readJSON(s *wire.Scanner) {
	for m := s.Object(stateTimesKeys); m.Next(); {
		switch m.Key() {
		case "shutdown_ns":
			w.ShutdownNS = s.Int64()
		case "idle_ns":
			w.IdleNS = s.Int64()
		case "rx_ns":
			w.RXNS = s.Int64()
		case "tx_ns":
			w.TXNS = s.Int64()
		}
	}
}

func (w *MetricsWire) readJSON(s *wire.Scanner) {
	for m := s.Object(metricsKeys); m.Next(); {
		switch m.Key() {
		case "tx_level_index":
			w.TXLevelIndex = s.Int()
		case "tx_power_dbm":
			w.TXPowerDBm = s.Float()
		case "prx_dbm":
			w.PRxDBm = s.Float()
		case "tpacket_ns":
			w.TpacketNS = s.Int64()
		case "contention":
			w.Cont.readJSON(s)
		case "pr_bit":
			w.PrBit = s.Float()
		case "pr_e":
			w.PrE = s.Float()
		case "pr_tf":
			w.PrTF = s.Float()
		case "pr_cf":
			w.PrCF = s.Float()
		case "expected_tx":
			w.ExpectedTx = s.Float()
		case "tidle_ns":
			w.TidleNS = s.Int64()
		case "ttx_ns":
			w.TTxNS = s.Int64()
		case "trx_ns":
			w.TRxNS = s.Int64()
		case "states":
			w.States.readJSON(s)
		case "avg_power_w":
			w.AvgPowerW = s.Float()
		case "energy_per_frame_j":
			w.EnergyPerFrameJ = s.Float()
		case "pr_fail":
			w.PrFail = s.Float()
		case "delay_ns":
			w.DelayNS = s.Int64()
		case "energy_per_bit_j":
			w.EnergyPerBitJ = s.Float()
		case "breakdown":
			w.Breakdown.readJSON(s)
		}
	}
}

func (w *CaseStudyResultWire) readJSON(s *wire.Scanner) {
	for m := s.Object(caseStudyKeys); m.Next(); {
		switch m.Key() {
		case "load":
			w.Load = s.Float()
		case "avg_power_w":
			w.AvgPowerW = s.Float()
		case "mean_pr_fail":
			w.MeanPrFail = s.Float()
		case "coverage":
			w.Coverage = s.Float()
		case "mean_delay_ns":
			w.MeanDelayNS = s.Int64()
		case "median_delay_ns":
			w.MedianDelay = s.Int64()
		case "nominal_delay_ns":
			w.NominalDelay = s.Int64()
		case "mean_energy_j_per_bit":
			w.MeanEnergyJ = s.Float()
		case "breakdown":
			w.Breakdown.readJSON(s)
		case "states":
			w.States.readJSON(s)
		case "loss_grid_db":
			w.LossGrid = readFloats(s)
		case "power_uw":
			w.PowerUW = readFloats(s)
		case "pr_fail":
			w.PrFail = readFloats(s)
		case "level_used":
			w.LevelUsed = readInts(s)
		}
	}
}

func (w *SimResultWire) readJSON(s *wire.Scanner) {
	for m := s.Object(simResultKeys); m.Next(); {
		switch m.Key() {
		case "seed":
			w.Seed = s.Int64()
		case "avg_power_w":
			w.AvgPowerW = s.Float()
		case "delivery_ratio":
			w.DeliveryRatio = s.Float()
		case "pr_fail_per_attempt":
			w.PrFailPerAttempt = s.Float()
		case "packets_offered":
			w.PacketsOffered = s.Int()
		case "packets_delivered":
			w.PacketsDelivered = s.Int()
		case "packets_dropped":
			w.PacketsDropped = s.Int()
		case "packets_expired":
			w.PacketsExpired = s.Int()
		case "transmissions":
			w.Transmissions = s.Int()
		case "collisions":
			w.Collisions = s.Int()
		case "access_failures":
			w.AccessFailures = s.Int()
		case "corrupted_frames":
			w.CorruptedFrames = s.Int()
		case "mean_delay_ns":
			w.MeanDelayNS = s.Int64()
		case "p95_delay_ns":
			w.P95DelayNS = s.Int64()
		case "contention":
			w.Contention.readJSON(s)
		}
	}
}

func (w *EnergyCurveWire) readJSON(s *wire.Scanner) {
	for m := s.Object(energyCurveKeys); m.Next(); {
		switch m.Key() {
		case "level_index":
			w.LevelIndex = s.Int()
		case "level_dbm":
			w.LevelDBm = s.Float()
		case "loss_db":
			w.LossDB = readFloats(s)
		case "energy_j_per_bit":
			w.EnergyJ = readFloats(s)
		}
	}
}

func (w *ThresholdWire) readJSON(s *wire.Scanner) {
	for m := s.Object(thresholdKeys); m.Next(); {
		switch m.Key() {
		case "from_level":
			w.FromLevel = s.Int()
		case "to_level":
			w.ToLevel = s.Int()
		case "from_dbm":
			w.FromDBm = s.Float()
		case "to_dbm":
			w.ToDBm = s.Float()
		case "loss_db":
			w.LossDB = s.Float()
		}
	}
}

func (w *PayloadSeriesWire) readJSON(s *wire.Scanner) {
	for m := s.Object(payloadSeriesKeys); m.Next(); {
		switch m.Key() {
		case "sizes_bytes":
			w.SizesBytes = readInts(s)
		case "energy_j_per_bit":
			w.EnergyJ = readFloats(s)
		}
	}
}

func (w *LifetimeCurvePointWire) readJSON(s *wire.Scanner) {
	for m := s.Object(curvePointKeys); m.Next(); {
		switch m.Key() {
		case "time_s":
			w.TimeS = s.Float()
		case "alive":
			w.Alive = s.Int()
		}
	}
}

func (w *LifetimeResultWire) readJSON(s *wire.Scanner) {
	for m := s.Object(lifetimeKeys); m.Next(); {
		switch m.Key() {
		case "seed":
			w.Seed = s.Int64()
		case "nodes":
			w.Nodes = s.Int()
		case "first_death_s":
			w.FirstDeathS = s.Float()
		case "partition_s":
			w.PartitionS = s.Float()
		case "last_death_s":
			w.LastDeathS = s.Float()
		case "alive_at_end":
			w.AliveAtEnd = s.Int()
		case "alive_frac_at_end":
			w.AliveFracAtEnd = s.Float()
		case "deaths":
			w.Deaths = s.Int()
		case "simulated_s":
			w.SimulatedS = s.Float()
		case "fast_forward_s":
			w.FastForwardS = s.Float()
		case "epochs":
			w.Epochs = s.Int()
		case "sustainable":
			w.Sustainable = s.Bool()
		case "curve":
			if s.Null() {
				break
			}
			w.Curve = []LifetimeCurvePointWire{}
			for e := s.Array(); e.Next(); {
				w.Curve = append(w.Curve, LifetimeCurvePointWire{})
				w.Curve[len(w.Curve)-1].readJSON(s)
			}
		}
	}
}

// The slice readers return nil for null, a non-nil slice for [] (as
// encoding/json decodes them), and one exactly sized allocation otherwise,
// the elements gathered on the stack first. The result and request readers
// share them. They are written out per element type: a generic reader would
// call readJSON indirectly, which makes the scanner escape to the heap on
// every decode.

func readFloats(s *wire.Scanner) []Float {
	if s.Null() {
		return nil
	}
	var buf [64]Float
	xs := buf[:0]
	for e := s.Array(); e.Next(); {
		xs = append(xs, s.Float())
	}
	return append([]Float{}, xs...)
}

func readInts(s *wire.Scanner) []int {
	if s.Null() {
		return nil
	}
	var buf [64]int
	xs := buf[:0]
	for e := s.Array(); e.Next(); {
		xs = append(xs, s.Int())
	}
	return append([]int{}, xs...)
}

// TaskDecoder reads TaskResult wire bytes without reflection into storage
// its owner controls. The zero value decodes like DecodeTaskResult; a reader
// of many tasks (the distributed coordinator's line stream) sets Labels and
// Slab so that a conforming task allocates nothing of its own. A
// TaskDecoder is not safe for concurrent use.
type TaskDecoder struct {
	// Labels, when set, holds the expected label of each plan task: a
	// decoded label equal to Labels[Index] shares that string instead of
	// allocating a copy. It never changes the decoded value.
	Labels []string
	// Slab is how many MetricsWire payloads one allocation holds (0 or 1 ⇒
	// one allocation per payload). Payloads carved from a slab keep the
	// whole slab alive.
	Slab int

	metrics []MetricsWire
}

func (d *TaskDecoder) newMetrics() *MetricsWire {
	if len(d.metrics) == 0 {
		d.metrics = make([]MetricsWire, max(d.Slab, 1))
	}
	m := &d.metrics[0]
	d.metrics = d.metrics[1:]
	return m
}

// label reads the label of task i, sharing the expected string when equal.
func (d *TaskDecoder) label(s *wire.Scanner, i int) string {
	b := s.StringBytes()
	if i >= 0 && i < len(d.Labels) && string(b) == d.Labels[i] {
		return d.Labels[i]
	}
	return string(b)
}

// Read reads one TaskResult value from s into t, which must be the zero
// value. Input outside the writer's shape fails s with wire.ErrShape; the
// caller then decodes the enclosing bytes with encoding/json instead.
func (d *TaskDecoder) Read(s *wire.Scanner, t *TaskResult) {
	for m := s.Object(taskResultKeys); m.Next(); {
		switch m.Key() {
		case "index":
			t.Index = s.Int()
		case "label":
			t.Label = d.label(s, t.Index)
		case "metrics":
			if !s.Null() {
				t.Metrics = d.newMetrics()
				t.Metrics.readJSON(s)
			}
		case "casestudy":
			if !s.Null() {
				t.CaseStudy = new(CaseStudyResultWire)
				t.CaseStudy.readJSON(s)
			}
		case "curves":
			if s.Null() {
				break
			}
			t.Curves = []EnergyCurveWire{}
			for e := s.Array(); e.Next(); {
				t.Curves = append(t.Curves, EnergyCurveWire{})
				t.Curves[len(t.Curves)-1].readJSON(s)
			}
		case "thresholds":
			if s.Null() {
				break
			}
			t.Thresholds = []ThresholdWire{}
			for e := s.Array(); e.Next(); {
				t.Thresholds = append(t.Thresholds, ThresholdWire{})
				t.Thresholds[len(t.Thresholds)-1].readJSON(s)
			}
		case "payload":
			if !s.Null() {
				t.Payload = new(PayloadSeriesWire)
				t.Payload.readJSON(s)
			}
		case "sim":
			if !s.Null() {
				t.Sim = new(SimResultWire)
				t.Sim.readJSON(s)
			}
		case "lifetime":
			if !s.Null() {
				t.Lifetime = new(LifetimeResultWire)
				t.Lifetime.readJSON(s)
			}
		case "scenario":
			var v *ScenarioReportWire
			if err := json.Unmarshal(s.Skip(), &v); err != nil {
				s.Fail()
			}
			t.Scenario = v
		case "experiment":
			var v *ExperimentReportWire
			if err := json.Unmarshal(s.Skip(), &v); err != nil {
				s.Fail()
			}
			t.Experiment = v
		}
	}
}

// Decode decodes one TaskResult document into t, replacing its contents.
// Bytes in the writer's shape take the reflection-free path; anything else
// decodes with encoding/json, whose error it returns (leaving t zero).
func (d *TaskDecoder) Decode(b []byte, t *TaskResult) error {
	*t = TaskResult{}
	var s wire.Scanner
	s.Reset(b)
	d.Read(&s, t)
	if s.Finish() == nil {
		return nil
	}
	var plain plainTaskResult
	if err := json.Unmarshal(b, &plain); err != nil {
		*t = TaskResult{}
		return err
	}
	*t = TaskResult(plain)
	return nil
}

// UnmarshalJSON implements json.Unmarshaler through the reflection-free
// reader, so every json.Decoder reading TaskResults (ResultSet bodies,
// stream lines) takes it. Decoding into a TaskResult that already holds
// values merges into them as encoding/json does.
func (t *TaskResult) UnmarshalJSON(b []byte) error {
	if !t.isZero() {
		return json.Unmarshal(b, (*plainTaskResult)(t))
	}
	var d TaskDecoder
	return d.Decode(b, t)
}

// isZero reports whether t is the zero TaskResult.
func (t *TaskResult) isZero() bool {
	return t.Index == 0 && t.Label == "" && t.Metrics == nil && t.CaseStudy == nil &&
		t.Curves == nil && t.Thresholds == nil && t.Payload == nil && t.Sim == nil &&
		t.Lifetime == nil && t.Scenario == nil && t.Experiment == nil
}
