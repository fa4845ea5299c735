package query

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"

	"dense802154/internal/wire"
)

// This file is the result writer: one reflection-free appender per result
// wire type, each reproducing exactly the bytes a json.Encoder with HTML
// escaping off writes for the struct — field order, omitempty, and null for
// a nil slice versus [] for an empty one. The appenders are the only code
// that writes result bytes (ResultSet.Encode, EncodeTaskResult, the stream
// and task lines of internal/service, the store back-fill of internal/dist);
// encoding/json is their test oracle (TestAppendJSONMatchesEncodingJSON).
// The scenario and experiment payloads embed foreign report types, so they
// alone still go through encoding/json, appended in place.
//
// Adding a field to a result wire type means adding it to that type's
// appendJSON too; the oracle test fills every field by reflection and fails
// until the two agree.
//
// The read side has one reader too: decode.go's readJSON per wire type,
// which takes exactly these bytes without reflection and falls back to
// encoding/json for any other input. Its oracle is the same:
// TestDecodeMatchesEncodingJSON and FuzzTaskResultDecode. A new field goes
// into its struct, its appendJSON and its readJSON in the same change.

// encodeBufs recycles the scratch buffers results are encoded into before
// being copied out (Encode, EncodeTaskResult) or handed to a store that
// copies what it keeps (Plan.StoreTask).
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// keepLine adds the trailing newline to b — appended into the pooled
// buffer *bp — and keeps the grown buffer for the pool's next user.
func keepLine(bp *[]byte, b []byte) []byte {
	b = append(b, '\n')
	*bp = b
	return b
}

// appendStd appends v as encoding/json writes it with HTML escaping off,
// without the trailing newline json.Encoder adds. Only the foreign-typed
// scenario and experiment payloads use it.
func appendStd(dst []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return dst, err
	}
	b := buf.Bytes()
	return b[:len(b)-1], nil
}

// field helpers: key is the literal `"name":` prefix including the leading
// comma where one is due.

func fieldFloat(dst []byte, key string, f Float) []byte {
	return wire.AppendFloat(append(dst, key...), f)
}

func fieldInt(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(dst, key...), v, 10)
}

func fieldBool(dst []byte, key string, v bool) []byte {
	return strconv.AppendBool(append(dst, key...), v)
}

func fieldString(dst []byte, key, s string) []byte {
	return wire.AppendString(append(dst, key...), s)
}

// fieldSlice appends a non-omitempty slice field: null when nil, [] when
// empty, elements through elem otherwise.
func fieldSlice[T any](dst []byte, key string, xs []T, elem func(*T, []byte) []byte) []byte {
	dst = append(dst, key...)
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(&xs[i], dst)
	}
	return append(dst, ']')
}

func elemFloat(f *Float, dst []byte) []byte { return wire.AppendFloat(dst, *f) }
func elemInt(v *int, dst []byte) []byte     { return strconv.AppendInt(dst, int64(*v), 10) }
func elemInt64(v *int64, dst []byte) []byte { return strconv.AppendInt(dst, *v, 10) }

func (w *ContStatsWire) appendJSON(dst []byte) []byte {
	dst = fieldInt(dst, `{"tcont_ns":`, w.TcontNS)
	dst = fieldFloat(dst, `,"ncca":`, w.NCCA)
	dst = fieldFloat(dst, `,"pr_cf":`, w.PrCF)
	dst = fieldFloat(dst, `,"pr_col":`, w.PrCol)
	return append(dst, '}')
}

func (w *BreakdownWire) appendJSON(dst []byte) []byte {
	dst = fieldFloat(dst, `{"beacon_j":`, w.BeaconJ)
	dst = fieldFloat(dst, `,"contention_j":`, w.ContentionJ)
	dst = fieldFloat(dst, `,"transmit_j":`, w.TransmitJ)
	dst = fieldFloat(dst, `,"ack_j":`, w.AckJ)
	dst = fieldFloat(dst, `,"ifs_j":`, w.IFSJ)
	dst = fieldFloat(dst, `,"sleep_j":`, w.SleepJ)
	return append(dst, '}')
}

func (w *StateTimesWire) appendJSON(dst []byte) []byte {
	dst = fieldInt(dst, `{"shutdown_ns":`, w.ShutdownNS)
	dst = fieldInt(dst, `,"idle_ns":`, w.IdleNS)
	dst = fieldInt(dst, `,"rx_ns":`, w.RXNS)
	dst = fieldInt(dst, `,"tx_ns":`, w.TXNS)
	return append(dst, '}')
}

func (w *MetricsWire) appendJSON(dst []byte) []byte {
	dst = fieldInt(dst, `{"tx_level_index":`, int64(w.TXLevelIndex))
	dst = fieldFloat(dst, `,"tx_power_dbm":`, w.TXPowerDBm)
	dst = fieldFloat(dst, `,"prx_dbm":`, w.PRxDBm)
	dst = fieldInt(dst, `,"tpacket_ns":`, w.TpacketNS)
	dst = w.Cont.appendJSON(append(dst, `,"contention":`...))
	dst = fieldFloat(dst, `,"pr_bit":`, w.PrBit)
	dst = fieldFloat(dst, `,"pr_e":`, w.PrE)
	dst = fieldFloat(dst, `,"pr_tf":`, w.PrTF)
	dst = fieldFloat(dst, `,"pr_cf":`, w.PrCF)
	dst = fieldFloat(dst, `,"expected_tx":`, w.ExpectedTx)
	dst = fieldInt(dst, `,"tidle_ns":`, w.TidleNS)
	dst = fieldInt(dst, `,"ttx_ns":`, w.TTxNS)
	dst = fieldInt(dst, `,"trx_ns":`, w.TRxNS)
	dst = w.States.appendJSON(append(dst, `,"states":`...))
	dst = fieldFloat(dst, `,"avg_power_w":`, w.AvgPowerW)
	dst = fieldFloat(dst, `,"energy_per_frame_j":`, w.EnergyPerFrameJ)
	dst = fieldFloat(dst, `,"pr_fail":`, w.PrFail)
	dst = fieldInt(dst, `,"delay_ns":`, w.DelayNS)
	dst = fieldFloat(dst, `,"energy_per_bit_j":`, w.EnergyPerBitJ)
	dst = w.Breakdown.appendJSON(append(dst, `,"breakdown":`...))
	return append(dst, '}')
}

func (w *CaseStudyResultWire) appendJSON(dst []byte) []byte {
	dst = fieldFloat(dst, `{"load":`, w.Load)
	dst = fieldFloat(dst, `,"avg_power_w":`, w.AvgPowerW)
	dst = fieldFloat(dst, `,"mean_pr_fail":`, w.MeanPrFail)
	dst = fieldFloat(dst, `,"coverage":`, w.Coverage)
	dst = fieldInt(dst, `,"mean_delay_ns":`, w.MeanDelayNS)
	dst = fieldInt(dst, `,"median_delay_ns":`, w.MedianDelay)
	dst = fieldInt(dst, `,"nominal_delay_ns":`, w.NominalDelay)
	dst = fieldFloat(dst, `,"mean_energy_j_per_bit":`, w.MeanEnergyJ)
	dst = w.Breakdown.appendJSON(append(dst, `,"breakdown":`...))
	dst = w.States.appendJSON(append(dst, `,"states":`...))
	dst = fieldSlice(dst, `,"loss_grid_db":`, w.LossGrid, elemFloat)
	dst = fieldSlice(dst, `,"power_uw":`, w.PowerUW, elemFloat)
	dst = fieldSlice(dst, `,"pr_fail":`, w.PrFail, elemFloat)
	dst = fieldSlice(dst, `,"level_used":`, w.LevelUsed, elemInt)
	return append(dst, '}')
}

func (w *SimResultWire) appendJSON(dst []byte) []byte {
	dst = fieldInt(dst, `{"seed":`, w.Seed)
	dst = fieldFloat(dst, `,"avg_power_w":`, w.AvgPowerW)
	dst = fieldFloat(dst, `,"delivery_ratio":`, w.DeliveryRatio)
	dst = fieldFloat(dst, `,"pr_fail_per_attempt":`, w.PrFailPerAttempt)
	dst = fieldInt(dst, `,"packets_offered":`, int64(w.PacketsOffered))
	dst = fieldInt(dst, `,"packets_delivered":`, int64(w.PacketsDelivered))
	dst = fieldInt(dst, `,"packets_dropped":`, int64(w.PacketsDropped))
	dst = fieldInt(dst, `,"packets_expired":`, int64(w.PacketsExpired))
	dst = fieldInt(dst, `,"transmissions":`, int64(w.Transmissions))
	dst = fieldInt(dst, `,"collisions":`, int64(w.Collisions))
	dst = fieldInt(dst, `,"access_failures":`, int64(w.AccessFailures))
	dst = fieldInt(dst, `,"corrupted_frames":`, int64(w.CorruptedFrames))
	dst = fieldInt(dst, `,"mean_delay_ns":`, w.MeanDelayNS)
	dst = fieldInt(dst, `,"p95_delay_ns":`, w.P95DelayNS)
	dst = w.Contention.appendJSON(append(dst, `,"contention":`...))
	return append(dst, '}')
}

func (w *ReplicaStatWire) appendJSON(dst []byte) []byte {
	dst = fieldFloat(dst, `{"mean":`, w.Mean)
	dst = fieldFloat(dst, `,"ci95":`, w.CI95)
	dst = fieldFloat(dst, `,"min":`, w.Min)
	dst = fieldFloat(dst, `,"max":`, w.Max)
	return append(dst, '}')
}

func (w *EnergyCurveWire) appendJSON(dst []byte) []byte {
	dst = fieldInt(dst, `{"level_index":`, int64(w.LevelIndex))
	dst = fieldFloat(dst, `,"level_dbm":`, w.LevelDBm)
	dst = fieldSlice(dst, `,"loss_db":`, w.LossDB, elemFloat)
	dst = fieldSlice(dst, `,"energy_j_per_bit":`, w.EnergyJ, elemFloat)
	return append(dst, '}')
}

func (w *ThresholdWire) appendJSON(dst []byte) []byte {
	dst = fieldInt(dst, `{"from_level":`, int64(w.FromLevel))
	dst = fieldInt(dst, `,"to_level":`, int64(w.ToLevel))
	dst = fieldFloat(dst, `,"from_dbm":`, w.FromDBm)
	dst = fieldFloat(dst, `,"to_dbm":`, w.ToDBm)
	dst = fieldFloat(dst, `,"loss_db":`, w.LossDB)
	return append(dst, '}')
}

func (w *PayloadSeriesWire) appendJSON(dst []byte) []byte {
	dst = fieldSlice(dst, `{"sizes_bytes":`, w.SizesBytes, elemInt)
	dst = fieldSlice(dst, `,"energy_j_per_bit":`, w.EnergyJ, elemFloat)
	return append(dst, '}')
}

func (w *LifetimeCurvePointWire) appendJSON(dst []byte) []byte {
	dst = fieldFloat(dst, `{"time_s":`, w.TimeS)
	dst = fieldInt(dst, `,"alive":`, int64(w.Alive))
	return append(dst, '}')
}

func (w *LifetimeResultWire) appendJSON(dst []byte) []byte {
	dst = fieldInt(dst, `{"seed":`, w.Seed)
	dst = fieldInt(dst, `,"nodes":`, int64(w.Nodes))
	dst = fieldFloat(dst, `,"first_death_s":`, w.FirstDeathS)
	dst = fieldFloat(dst, `,"partition_s":`, w.PartitionS)
	dst = fieldFloat(dst, `,"last_death_s":`, w.LastDeathS)
	dst = fieldInt(dst, `,"alive_at_end":`, int64(w.AliveAtEnd))
	dst = fieldFloat(dst, `,"alive_frac_at_end":`, w.AliveFracAtEnd)
	dst = fieldInt(dst, `,"deaths":`, int64(w.Deaths))
	dst = fieldFloat(dst, `,"simulated_s":`, w.SimulatedS)
	dst = fieldFloat(dst, `,"fast_forward_s":`, w.FastForwardS)
	dst = fieldInt(dst, `,"epochs":`, int64(w.Epochs))
	dst = fieldBool(dst, `,"sustainable":`, w.Sustainable)
	dst = fieldSlice(dst, `,"curve":`, w.Curve, (*LifetimeCurvePointWire).appendJSON)
	return append(dst, '}')
}

func (w *ReplicaSummaryWire) appendJSON(dst []byte) []byte {
	dst = fieldInt(dst, `{"replicas":`, int64(w.Replicas))
	dst = fieldSlice(dst, `,"seeds":`, w.Seeds, elemInt64)
	dst = w.AvgPowerUW.appendJSON(append(dst, `,"avg_power_uw":`...))
	dst = w.DeliveryRatio.appendJSON(append(dst, `,"delivery_ratio":`...))
	dst = w.PrFail.appendJSON(append(dst, `,"pr_fail":`...))
	dst = w.PrCF.appendJSON(append(dst, `,"pr_cf":`...))
	dst = w.PrCol.appendJSON(append(dst, `,"pr_col":`...))
	dst = w.NCCA.appendJSON(append(dst, `,"ncca":`...))
	dst = w.TcontMS.appendJSON(append(dst, `,"tcont_ms":`...))
	dst = w.MeanDelayMS.appendJSON(append(dst, `,"mean_delay_ms":`...))
	return append(dst, '}')
}

func (w *LifetimeSummaryWire) appendJSON(dst []byte) []byte {
	dst = fieldInt(dst, `{"replicas":`, int64(w.Replicas))
	dst = fieldSlice(dst, `,"seeds":`, w.Seeds, elemInt64)
	dst = w.FirstDeathHours.appendJSON(append(dst, `,"first_death_hours":`...))
	dst = w.PartitionHours.appendJSON(append(dst, `,"partition_hours":`...))
	dst = w.LastDeathHours.appendJSON(append(dst, `,"last_death_hours":`...))
	dst = w.AliveFracAtEnd.appendJSON(append(dst, `,"alive_frac_at_end":`...))
	return append(dst, '}')
}

func (w *TaskSpanWire) appendJSON(dst []byte) []byte {
	dst = fieldInt(dst, `{"index":`, int64(w.Index))
	dst = fieldString(dst, `,"label":`, w.Label)
	if w.Seed != nil {
		dst = fieldInt(dst, `,"seed":`, *w.Seed)
	}
	dst = fieldFloat(dst, `,"wall_ms":`, w.WallMS)
	return append(dst, '}')
}

func (w *PlanTraceWire) appendJSON(dst []byte) []byte {
	dst = fieldString(dst, `{"kind":`, string(w.Kind))
	dst = fieldInt(dst, `,"workers":`, int64(w.Workers))
	dst = fieldInt(dst, `,"tasks":`, int64(w.Tasks))
	dst = fieldFloat(dst, `,"wall_ms":`, w.WallMS)
	dst = fieldSlice(dst, `,"spans":`, w.Spans, (*TaskSpanWire).appendJSON)
	return append(dst, '}')
}

// appendOptional appends the omitempty summary and trace blocks shared by
// ResultSet and StreamDone.
func appendOptional(dst []byte, s *ReplicaSummaryWire, ls *LifetimeSummaryWire, tr *PlanTraceWire) []byte {
	if s != nil {
		dst = s.appendJSON(append(dst, `,"summary":`...))
	}
	if ls != nil {
		dst = ls.appendJSON(append(dst, `,"lifetime_summary":`...))
	}
	if tr != nil {
		dst = tr.appendJSON(append(dst, `,"trace":`...))
	}
	return dst
}

// AppendJSON appends the compact JSON form of t (no trailing newline) to
// dst — the bytes a json.Encoder with HTML escaping off writes for it. A
// result a plan execution stored or read from its store carries those
// bytes already, and they are copied, not formatted again. It fails only
// when a scenario or experiment payload does not encode.
func (t *TaskResult) AppendJSON(dst []byte) ([]byte, error) {
	if t.enc != nil {
		return append(dst, t.enc[:len(t.enc)-1]...), nil
	}
	dst = fieldInt(dst, `{"index":`, int64(t.Index))
	if t.Label != "" {
		dst = fieldString(dst, `,"label":`, t.Label)
	}
	if t.Metrics != nil {
		dst = t.Metrics.appendJSON(append(dst, `,"metrics":`...))
	}
	if t.CaseStudy != nil {
		dst = t.CaseStudy.appendJSON(append(dst, `,"casestudy":`...))
	}
	if len(t.Curves) > 0 {
		dst = fieldSlice(dst, `,"curves":`, t.Curves, (*EnergyCurveWire).appendJSON)
	}
	if len(t.Thresholds) > 0 {
		dst = fieldSlice(dst, `,"thresholds":`, t.Thresholds, (*ThresholdWire).appendJSON)
	}
	if t.Payload != nil {
		dst = t.Payload.appendJSON(append(dst, `,"payload":`...))
	}
	if t.Sim != nil {
		dst = t.Sim.appendJSON(append(dst, `,"sim":`...))
	}
	if t.Lifetime != nil {
		dst = t.Lifetime.appendJSON(append(dst, `,"lifetime":`...))
	}
	var err error
	if t.Scenario != nil {
		if dst, err = appendStd(append(dst, `,"scenario":`...), t.Scenario); err != nil {
			return dst, err
		}
	}
	if t.Experiment != nil {
		if dst, err = appendStd(append(dst, `,"experiment":`...), t.Experiment); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler through AppendJSON, so any
// json.Encoder writing a TaskResult produces the appender's bytes.
func (t TaskResult) MarshalJSON() ([]byte, error) { return t.AppendJSON(nil) }

// AppendJSON appends the compact JSON form of rs (no trailing newline) to
// dst; see TaskResult.AppendJSON.
func (rs *ResultSet) AppendJSON(dst []byte) ([]byte, error) {
	dst, err := appendResults(rs.appendHead(dst), rs.Results)
	if err != nil {
		return dst, err
	}
	dst = appendOptional(dst, rs.Summary, rs.LifetimeSummary, rs.Trace)
	return append(dst, '}'), nil
}

// appendHead appends the fields of rs before its results array.
func (rs *ResultSet) appendHead(dst []byte) []byte {
	dst = fieldInt(dst, `{"version":`, int64(rs.Version))
	dst = fieldString(dst, `,"kind":`, string(rs.Kind))
	return append(dst, `,"results":`...)
}

// appendResults appends the results array: null when nil, the results'
// AppendJSON bytes otherwise.
func appendResults(dst []byte, results []TaskResult) ([]byte, error) {
	if results == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = results[i].AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// MarshalJSON implements json.Marshaler through AppendJSON.
func (rs ResultSet) MarshalJSON() ([]byte, error) { return rs.AppendJSON(nil) }

// StreamDone is the terminal NDJSON record of a streamed query
// (/v2/query/stream): done=true, the task count, the replicas or lifetime
// summary when the plan has one, and the execution trace when the query
// opted in. The preceding lines are TaskResult encodings — exactly the
// elements of the non-streaming ResultSet.Results, byte for byte.
type StreamDone struct {
	Done            bool                 `json:"done"`
	Count           int                  `json:"count"`
	Summary         *ReplicaSummaryWire  `json:"summary,omitempty"`
	LifetimeSummary *LifetimeSummaryWire `json:"lifetime_summary,omitempty"`
	Trace           *PlanTraceWire       `json:"trace,omitempty"`
}

// StreamDone returns the terminal stream record of rs: done=true, the
// result count, and rs's summaries and trace.
func (rs *ResultSet) StreamDone() StreamDone {
	return StreamDone{Done: true, Count: len(rs.Results), Summary: rs.Summary, LifetimeSummary: rs.LifetimeSummary, Trace: rs.Trace}
}

// AppendJSON appends the compact JSON form of d (no trailing newline).
func (d *StreamDone) AppendJSON(dst []byte) []byte {
	dst = fieldBool(dst, `{"done":`, d.Done)
	dst = fieldInt(dst, `,"count":`, int64(d.Count))
	dst = appendOptional(dst, d.Summary, d.LifetimeSummary, d.Trace)
	return append(dst, '}')
}
