package query

import (
	"strconv"

	"dense802154/internal/battery"
	"dense802154/internal/radio"
	"dense802154/internal/wire"
)

// This file is the request side of the byte contract, the twin of the result
// writer (append.go) and reader (decode.go) for the request wire types:
// Query and everything it nests (ParamsWire, ContentionWire, SuperframeWire,
// CaseStudyConfigWire, SimConfigWire, LifetimeWire, Axis, IntAxis).
//
// The writer, appendJSON per type, reproduces exactly the bytes a
// json.Encoder with HTML escaping off writes: field order, omitempty, no
// trailing newline. Query.Canonical (the store key's bytes), AppendQuery (the
// coordinator's /v2/tasks bodies) and the worker's store key all go through
// it. Its oracle is encoding/json (TestQueryAppendMatchesEncodingJSON).
//
// The reader, queryReader (one method per type) over a wire.Scanner, takes
// the writer's shape — keys in the writer's order, each at most once, omitempty fields
// optional — and decodes it to the values encoding/json would. Any other
// input (reordered, unknown, repeated or differently-cased keys, values of
// another type, invalid JSON) stops the scan with wire.ErrShape, and
// DecodeQuery then replays the strict decoder (wire.DecodeStrict) over the
// same bytes, so the documents accepted, the values decoded and the errors
// returned stay the strict decoder's. Its oracle is the same strict decoder
// (TestQueryDecodeMatchesEncodingJSON, FuzzQueryDecode).
//
// Decoded strings never alias the input: the known values of the enumerated
// fields (kind, contention source and arrival, radio, ber, supply) are
// shared constants, and any other string is copied. Every pointer a decode
// sets points into one arena allocated on the decode's first pointer.
//
// Adding a field to a request wire type means adding it to that type's keys,
// appendJSON and queryReader method in the same change; the oracle tests
// fill every field by reflection and fail until the three agree.

// member appends the key k (`"name":`) of one member of the object whose
// members start at open, preceded by a comma unless it is the first.
func member(dst []byte, open int, k string) []byte {
	if len(dst) > open {
		dst = append(dst, ',')
	}
	return append(dst, k...)
}

func optString(dst []byte, open int, k, v string) []byte {
	if v == "" {
		return dst
	}
	return wire.AppendString(member(dst, open, k), v)
}

func optInt(dst []byte, open int, k string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(member(dst, open, k), v, 10)
}

func optBool(dst []byte, open int, k string, v bool) []byte {
	if !v {
		return dst
	}
	return append(member(dst, open, k), "true"...)
}

func optIntPtr(dst []byte, open int, k string, p *int) []byte {
	if p == nil {
		return dst
	}
	return strconv.AppendInt(member(dst, open, k), int64(*p), 10)
}

func optInt64Ptr(dst []byte, open int, k string, p *int64) []byte {
	if p == nil {
		return dst
	}
	return strconv.AppendInt(member(dst, open, k), *p, 10)
}

func optFloatPtr(dst []byte, open int, k string, p *Float) []byte {
	if p == nil {
		return dst
	}
	return wire.AppendFloat(member(dst, open, k), *p)
}

func optBoolPtr(dst []byte, open int, k string, p *bool) []byte {
	if p == nil {
		return dst
	}
	return strconv.AppendBool(member(dst, open, k), *p)
}

func (w *SuperframeWire) appendJSON(dst []byte) []byte {
	dst = strconv.AppendUint(append(dst, `{"bo":`...), uint64(w.BO), 10)
	dst = strconv.AppendUint(append(dst, `,"so":`...), uint64(w.SO), 10)
	return append(dst, '}')
}

func (w *ContentionWire) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	open := len(dst)
	dst = optString(dst, open, `"source":`, w.Source)
	dst = optInt(dst, open, `"superframes":`, int64(w.Superframes))
	dst = optInt64Ptr(dst, open, `"seed":`, w.Seed)
	dst = optString(dst, open, `"arrival":`, w.Arrival)
	return append(dst, '}')
}

func (w *ParamsWire) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	open := len(dst)
	dst = optString(dst, open, `"radio":`, w.Radio)
	dst = optString(dst, open, `"ber":`, w.BER)
	if w.Contention != nil {
		dst = w.Contention.appendJSON(member(dst, open, `"contention":`))
	}
	if w.Superframe != nil {
		dst = w.Superframe.appendJSON(member(dst, open, `"superframe":`))
	}
	dst = optIntPtr(dst, open, `"payload_bytes":`, w.PayloadBytes)
	dst = optFloatPtr(dst, open, `"load":`, w.Load)
	dst = optFloatPtr(dst, open, `"path_loss_db":`, w.PathLossDB)
	dst = optIntPtr(dst, open, `"tx_level":`, w.TXLevel)
	dst = optIntPtr(dst, open, `"n_max":`, w.NMax)
	dst = optIntPtr(dst, open, `"beacon_bytes":`, w.BeaconBytes)
	dst = optInt64Ptr(dst, open, `"wakeup_lead_ns":`, w.WakeupLead)
	dst = optInt64Ptr(dst, open, `"cca_listen_ns":`, w.CCAListen)
	dst = optBoolPtr(dst, open, `"paper_ack_accounting":`, w.PaperAckAccounting)
	dst = optBoolPtr(dst, open, `"include_ifs":`, w.IncludeIFS)
	dst = optBoolPtr(dst, open, `"include_shutdown_leakage":`, w.IncludeShutdownLeakage)
	dst = optInt(dst, open, `"workers":`, int64(w.Workers))
	return append(dst, '}')
}

func (w *CaseStudyConfigWire) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	open := len(dst)
	dst = optIntPtr(dst, open, `"nodes":`, w.Nodes)
	dst = optIntPtr(dst, open, `"channels":`, w.Channels)
	dst = optFloatPtr(dst, open, `"data_bytes_per_second":`, w.DataBytesPerSecond)
	dst = optFloatPtr(dst, open, `"min_loss_db":`, w.MinLossDB)
	dst = optFloatPtr(dst, open, `"max_loss_db":`, w.MaxLossDB)
	dst = optIntPtr(dst, open, `"loss_grid_points":`, w.LossGridPoints)
	return append(dst, '}')
}

func (w *SimConfigWire) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	open := len(dst)
	dst = optIntPtr(dst, open, `"nodes":`, w.Nodes)
	dst = optIntPtr(dst, open, `"payload_bytes":`, w.PayloadBytes)
	if w.Superframe != nil {
		dst = w.Superframe.appendJSON(member(dst, open, `"superframe":`))
	}
	dst = optString(dst, open, `"radio":`, w.Radio)
	dst = optFloatPtr(dst, open, `"min_loss_db":`, w.MinLossDB)
	dst = optFloatPtr(dst, open, `"max_loss_db":`, w.MaxLossDB)
	dst = optFloatPtr(dst, open, `"target_prx_dbm":`, w.TargetPRxDBm)
	dst = optIntPtr(dst, open, `"n_max":`, w.NMax)
	dst = optFloatPtr(dst, open, `"transmit_prob":`, w.TransmitProb)
	dst = optIntPtr(dst, open, `"superframes":`, w.Superframes)
	dst = optIntPtr(dst, open, `"beacon_bytes":`, w.BeaconBytes)
	dst = optIntPtr(dst, open, `"max_packet_superframes":`, w.MaxPacketSuperframes)
	dst = optBoolPtr(dst, open, `"low_power_listen":`, w.LowPowerListen)
	dst = optInt64Ptr(dst, open, `"seed":`, w.Seed)
	return append(dst, '}')
}

func (w *LifetimeWire) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	open := len(dst)
	dst = optString(dst, open, `"supply":`, w.Supply)
	dst = optFloatPtr(dst, open, `"capacity_j":`, w.CapacityJ)
	dst = optFloatPtr(dst, open, `"self_discharge_per_year":`, w.SelfDischargePerYear)
	dst = optFloatPtr(dst, open, `"harvest_uw":`, w.HarvestUW)
	dst = optFloatPtr(dst, open, `"threshold_j":`, w.ThresholdJ)
	dst = optFloatPtr(dst, open, `"partition_frac":`, w.PartitionFrac)
	dst = optIntPtr(dst, open, `"epoch_superframes":`, w.EpochSuperframes)
	dst = optIntPtr(dst, open, `"max_epochs":`, w.MaxEpochs)
	dst = optFloatPtr(dst, open, `"horizon_hours":`, w.HorizonHours)
	return append(dst, '}')
}

func (a *Axis) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	open := len(dst)
	if len(a.Values) > 0 {
		dst = append(member(dst, open, `"values":`), '[')
		for i, v := range a.Values {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = wire.AppendFloat(dst, v)
		}
		dst = append(dst, ']')
	}
	dst = optFloatPtr(dst, open, `"from":`, a.From)
	dst = optFloatPtr(dst, open, `"to":`, a.To)
	dst = optIntPtr(dst, open, `"points":`, a.Points)
	dst = optFloatPtr(dst, open, `"step":`, a.Step)
	return append(dst, '}')
}

func (a *IntAxis) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	open := len(dst)
	if len(a.Values) > 0 {
		dst = append(member(dst, open, `"values":`), '[')
		for i, v := range a.Values {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, ']')
	}
	dst = optIntPtr(dst, open, `"from":`, a.From)
	dst = optIntPtr(dst, open, `"to":`, a.To)
	dst = optIntPtr(dst, open, `"step":`, a.Step)
	return append(dst, '}')
}

// appendJSON appends q's wire form. canonical writes the form Canonical
// hashes instead: version normalized to Version, and workers, trace and
// timeout_ms dropped.
func (q *Query) appendJSON(dst []byte, canonical bool) []byte {
	version, workers, trace, timeout := q.Version, q.Workers, q.Trace, q.TimeoutMS
	if canonical {
		version, workers, trace, timeout = Version, 0, false, 0
	}
	dst = append(dst, '{')
	open := len(dst)
	dst = optInt(dst, open, `"version":`, int64(version))
	dst = wire.AppendString(member(dst, open, `"kind":`), string(q.Kind))
	if q.Params != nil {
		dst = q.Params.appendJSON(append(dst, `,"params":`...))
	}
	if len(q.Batch) > 0 {
		dst = append(dst, `,"batch":[`...)
		for i := range q.Batch {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = q.Batch[i].appendJSON(dst)
		}
		dst = append(dst, ']')
	}
	if q.Config != nil {
		dst = q.Config.appendJSON(append(dst, `,"config":`...))
	}
	if q.Sim != nil {
		dst = q.Sim.appendJSON(append(dst, `,"sim":`...))
	}
	if q.Lifetime != nil {
		dst = q.Lifetime.appendJSON(append(dst, `,"lifetime":`...))
	}
	if q.Losses != nil {
		dst = q.Losses.appendJSON(append(dst, `,"losses":`...))
	}
	if q.Payloads != nil {
		dst = q.Payloads.appendJSON(append(dst, `,"payloads":`...))
	}
	if q.BOs != nil {
		dst = q.BOs.appendJSON(append(dst, `,"bos":`...))
	}
	if q.Nodes != nil {
		dst = q.Nodes.appendJSON(append(dst, `,"nodes":`...))
	}
	dst = optInt(dst, open, `"replicas":`, int64(q.Replicas))
	dst = optString(dst, open, `"scenario":`, q.Scenario)
	dst = optBool(dst, open, `"diff":`, q.Diff)
	dst = optString(dst, open, `"experiment":`, q.Experiment)
	dst = optBool(dst, open, `"quick":`, q.Quick)
	dst = optInt64Ptr(dst, open, `"seed":`, q.Seed)
	dst = optInt(dst, open, `"workers":`, int64(workers))
	dst = optBool(dst, open, `"trace":`, trace)
	dst = optInt(dst, open, `"timeout_ms":`, timeout)
	return append(dst, '}')
}

// AppendQuery appends the wire form of q to dst: the bytes a json.Encoder
// with HTML escaping off writes for it, without the trailing newline.
// Direct is not part of the wire form and is not written.
func AppendQuery(dst []byte, q *Query) []byte { return q.appendJSON(dst, false) }

// AppendCanonical appends the canonical bytes of q (see Query.Canonical) to
// dst without allocating beyond dst's growth. ok is false, and dst is
// returned unchanged, when q has no canonical form.
func AppendCanonical(dst []byte, q *Query) ([]byte, bool) {
	if q.Direct != nil {
		return dst, false
	}
	return append(q.appendJSON(dst, true), '\n'), true
}

// ---- reader ----

var (
	queryKeys = wire.Keys{"version", "kind", "params", "batch", "config", "sim", "lifetime",
		"losses", "payloads", "bos", "nodes", "replicas", "scenario", "diff", "experiment",
		"quick", "seed", "workers", "trace", "timeout_ms"}
	paramsWireKeys = wire.Keys{"radio", "ber", "contention", "superframe", "payload_bytes",
		"load", "path_loss_db", "tx_level", "n_max", "beacon_bytes", "wakeup_lead_ns",
		"cca_listen_ns", "paper_ack_accounting", "include_ifs", "include_shutdown_leakage", "workers"}
	contentionWireKeys  = wire.Keys{"source", "superframes", "seed", "arrival"}
	superframeWireKeys  = wire.Keys{"bo", "so"}
	caseStudyConfigKeys = wire.Keys{"nodes", "channels", "data_bytes_per_second", "min_loss_db",
		"max_loss_db", "loss_grid_points"}
	simConfigKeys = wire.Keys{"nodes", "payload_bytes", "superframe", "radio", "min_loss_db",
		"max_loss_db", "target_prx_dbm", "n_max", "transmit_prob", "superframes", "beacon_bytes",
		"max_packet_superframes", "low_power_listen", "seed"}
	lifetimeWireKeys = wire.Keys{"supply", "capacity_j", "self_discharge_per_year", "harvest_uw",
		"threshold_j", "partition_frac", "epoch_superframes", "max_epochs", "horizon_hours"}
	axisKeys    = wire.Keys{"values", "from", "to", "points", "step"}
	intAxisKeys = wire.Keys{"values", "from", "to", "step"}
)

// The known values of the enumerated request strings. A decoded string equal
// to one of them shares the constant instead of allocating a copy.
var (
	kindNames = func() []string {
		var out []string
		for _, k := range Kinds() {
			out = append(out, string(k))
		}
		return out
	}()
	sourceNames  = []string{"montecarlo", "approx"}
	arrivalNames = []string{"uniform", "at-beacon"}
	berNames     = []string{"eq1", "awgn"}
	supplyNames  = battery.Names()
	radioNames   = radio.Names()
)

// intern reads a string, sharing the known value it equals.
func intern(s *wire.Scanner, known []string) string {
	b := s.StringBytes()
	for _, k := range known {
		if string(b) == k {
			return k
		}
	}
	return string(b)
}

// slots hands out pointers into a backing array, allocating a further chunk
// when it runs out (only a batch's elements outgrow the arena).
type slots[T any] []T

func (p *slots[T]) next() *T {
	if len(*p) == 0 {
		*p = make([]T, 16)
	}
	v := &(*p)[0]
	*p = (*p)[1:]
	return v
}

// requestArena is the pointee storage of one decoded Query, sized for every
// pointer one query outside a batch can set; batch elements overflow into
// further chunks.
type requestArena struct {
	params   [1]ParamsWire
	cont     [1]ContentionWire
	sf       [2]SuperframeWire
	config   [1]CaseStudyConfigWire
	sim      [1]SimConfigWire
	lifetime [1]LifetimeWire
	axis     [1]Axis
	intAxis  [3]IntAxis
	ints     [25]int
	int64s   [5]int64
	floats   [18]Float
	bools    [4]bool
}

// queryReader reads one Query. Its slots point into one requestArena,
// allocated on the first pointer the document sets.
type queryReader struct {
	arena    bool
	params   slots[ParamsWire]
	cont     slots[ContentionWire]
	sf       slots[SuperframeWire]
	config   slots[CaseStudyConfigWire]
	sim      slots[SimConfigWire]
	lifetime slots[LifetimeWire]
	axis     slots[Axis]
	intAxis  slots[IntAxis]
	ints     slots[int]
	int64s   slots[int64]
	floats   slots[Float]
	bools    slots[bool]
}

func (r *queryReader) init() {
	if r.arena {
		return
	}
	a := new(requestArena)
	r.arena = true
	r.params, r.cont, r.sf = a.params[:], a.cont[:], a.sf[:]
	r.config, r.sim, r.lifetime = a.config[:], a.sim[:], a.lifetime[:]
	r.axis, r.intAxis = a.axis[:], a.intAxis[:]
	r.ints, r.int64s, r.floats, r.bools = a.ints[:], a.int64s[:], a.floats[:], a.bools[:]
}

// The optional scalars: null leaves the pointer nil (the reader sees each
// key at most once, so that is encoding/json's nil too).

func (r *queryReader) intPtr(s *wire.Scanner) *int {
	if s.Null() {
		return nil
	}
	r.init()
	p := r.ints.next()
	*p = s.Int()
	return p
}

func (r *queryReader) int64Ptr(s *wire.Scanner) *int64 {
	if s.Null() {
		return nil
	}
	r.init()
	p := r.int64s.next()
	*p = s.Int64()
	return p
}

func (r *queryReader) floatPtr(s *wire.Scanner) *Float {
	if s.Null() {
		return nil
	}
	r.init()
	p := r.floats.next()
	*p = s.Float()
	return p
}

func (r *queryReader) boolPtr(s *wire.Scanner) *bool {
	if s.Null() {
		return nil
	}
	r.init()
	p := r.bools.next()
	*p = s.Bool()
	return p
}

func (r *queryReader) superframePtr(s *wire.Scanner) *SuperframeWire {
	if s.Null() {
		return nil
	}
	r.init()
	w := r.sf.next()
	for m := s.Object(superframeWireKeys); m.Next(); {
		switch m.Key() {
		case "bo":
			w.BO = s.Uint8()
		case "so":
			w.SO = s.Uint8()
		}
	}
	return w
}

func (r *queryReader) contentionPtr(s *wire.Scanner) *ContentionWire {
	if s.Null() {
		return nil
	}
	r.init()
	w := r.cont.next()
	for m := s.Object(contentionWireKeys); m.Next(); {
		switch m.Key() {
		case "source":
			w.Source = intern(s, sourceNames)
		case "superframes":
			w.Superframes = s.Int()
		case "seed":
			w.Seed = r.int64Ptr(s)
		case "arrival":
			w.Arrival = intern(s, arrivalNames)
		}
	}
	return w
}

// readParams reads a ParamsWire into w, which must be the zero value.
func (r *queryReader) readParams(s *wire.Scanner, w *ParamsWire) {
	for m := s.Object(paramsWireKeys); m.Next(); {
		switch m.Key() {
		case "radio":
			w.Radio = intern(s, radioNames)
		case "ber":
			w.BER = intern(s, berNames)
		case "contention":
			w.Contention = r.contentionPtr(s)
		case "superframe":
			w.Superframe = r.superframePtr(s)
		case "payload_bytes":
			w.PayloadBytes = r.intPtr(s)
		case "load":
			w.Load = r.floatPtr(s)
		case "path_loss_db":
			w.PathLossDB = r.floatPtr(s)
		case "tx_level":
			w.TXLevel = r.intPtr(s)
		case "n_max":
			w.NMax = r.intPtr(s)
		case "beacon_bytes":
			w.BeaconBytes = r.intPtr(s)
		case "wakeup_lead_ns":
			w.WakeupLead = r.int64Ptr(s)
		case "cca_listen_ns":
			w.CCAListen = r.int64Ptr(s)
		case "paper_ack_accounting":
			w.PaperAckAccounting = r.boolPtr(s)
		case "include_ifs":
			w.IncludeIFS = r.boolPtr(s)
		case "include_shutdown_leakage":
			w.IncludeShutdownLeakage = r.boolPtr(s)
		case "workers":
			w.Workers = s.Int()
		}
	}
}

func (r *queryReader) paramsPtr(s *wire.Scanner) *ParamsWire {
	if s.Null() {
		return nil
	}
	r.init()
	w := r.params.next()
	r.readParams(s, w)
	return w
}

func (r *queryReader) configPtr(s *wire.Scanner) *CaseStudyConfigWire {
	if s.Null() {
		return nil
	}
	r.init()
	w := r.config.next()
	for m := s.Object(caseStudyConfigKeys); m.Next(); {
		switch m.Key() {
		case "nodes":
			w.Nodes = r.intPtr(s)
		case "channels":
			w.Channels = r.intPtr(s)
		case "data_bytes_per_second":
			w.DataBytesPerSecond = r.floatPtr(s)
		case "min_loss_db":
			w.MinLossDB = r.floatPtr(s)
		case "max_loss_db":
			w.MaxLossDB = r.floatPtr(s)
		case "loss_grid_points":
			w.LossGridPoints = r.intPtr(s)
		}
	}
	return w
}

func (r *queryReader) simPtr(s *wire.Scanner) *SimConfigWire {
	if s.Null() {
		return nil
	}
	r.init()
	w := r.sim.next()
	for m := s.Object(simConfigKeys); m.Next(); {
		switch m.Key() {
		case "nodes":
			w.Nodes = r.intPtr(s)
		case "payload_bytes":
			w.PayloadBytes = r.intPtr(s)
		case "superframe":
			w.Superframe = r.superframePtr(s)
		case "radio":
			w.Radio = intern(s, radioNames)
		case "min_loss_db":
			w.MinLossDB = r.floatPtr(s)
		case "max_loss_db":
			w.MaxLossDB = r.floatPtr(s)
		case "target_prx_dbm":
			w.TargetPRxDBm = r.floatPtr(s)
		case "n_max":
			w.NMax = r.intPtr(s)
		case "transmit_prob":
			w.TransmitProb = r.floatPtr(s)
		case "superframes":
			w.Superframes = r.intPtr(s)
		case "beacon_bytes":
			w.BeaconBytes = r.intPtr(s)
		case "max_packet_superframes":
			w.MaxPacketSuperframes = r.intPtr(s)
		case "low_power_listen":
			w.LowPowerListen = r.boolPtr(s)
		case "seed":
			w.Seed = r.int64Ptr(s)
		}
	}
	return w
}

func (r *queryReader) lifetimePtr(s *wire.Scanner) *LifetimeWire {
	if s.Null() {
		return nil
	}
	r.init()
	w := r.lifetime.next()
	for m := s.Object(lifetimeWireKeys); m.Next(); {
		switch m.Key() {
		case "supply":
			w.Supply = intern(s, supplyNames)
		case "capacity_j":
			w.CapacityJ = r.floatPtr(s)
		case "self_discharge_per_year":
			w.SelfDischargePerYear = r.floatPtr(s)
		case "harvest_uw":
			w.HarvestUW = r.floatPtr(s)
		case "threshold_j":
			w.ThresholdJ = r.floatPtr(s)
		case "partition_frac":
			w.PartitionFrac = r.floatPtr(s)
		case "epoch_superframes":
			w.EpochSuperframes = r.intPtr(s)
		case "max_epochs":
			w.MaxEpochs = r.intPtr(s)
		case "horizon_hours":
			w.HorizonHours = r.floatPtr(s)
		}
	}
	return w
}

func (r *queryReader) axisPtr(s *wire.Scanner) *Axis {
	if s.Null() {
		return nil
	}
	r.init()
	a := r.axis.next()
	for m := s.Object(axisKeys); m.Next(); {
		switch m.Key() {
		case "values":
			a.Values = readFloats(s)
		case "from":
			a.From = r.floatPtr(s)
		case "to":
			a.To = r.floatPtr(s)
		case "points":
			a.Points = r.intPtr(s)
		case "step":
			a.Step = r.floatPtr(s)
		}
	}
	return a
}

func (r *queryReader) intAxisPtr(s *wire.Scanner) *IntAxis {
	if s.Null() {
		return nil
	}
	r.init()
	a := r.intAxis.next()
	for m := s.Object(intAxisKeys); m.Next(); {
		switch m.Key() {
		case "values":
			a.Values = readInts(s)
		case "from":
			a.From = r.intPtr(s)
		case "to":
			a.To = r.intPtr(s)
		case "step":
			a.Step = r.intPtr(s)
		}
	}
	return a
}

// read reads one Query into q, which must be the zero value.
func (r *queryReader) read(s *wire.Scanner, q *Query) {
	for m := s.Object(queryKeys); m.Next(); {
		switch m.Key() {
		case "version":
			q.Version = s.Int()
		case "kind":
			q.Kind = Kind(intern(s, kindNames))
		case "params":
			q.Params = r.paramsPtr(s)
		case "batch":
			if s.Null() {
				break
			}
			q.Batch = []ParamsWire{}
			for e := s.Array(); e.Next(); {
				q.Batch = append(q.Batch, ParamsWire{})
				r.readParams(s, &q.Batch[len(q.Batch)-1])
			}
		case "config":
			q.Config = r.configPtr(s)
		case "sim":
			q.Sim = r.simPtr(s)
		case "lifetime":
			q.Lifetime = r.lifetimePtr(s)
		case "losses":
			q.Losses = r.axisPtr(s)
		case "payloads":
			q.Payloads = r.intAxisPtr(s)
		case "bos":
			q.BOs = r.intAxisPtr(s)
		case "nodes":
			q.Nodes = r.intAxisPtr(s)
		case "replicas":
			q.Replicas = s.Int()
		case "scenario":
			q.Scenario = s.Text()
		case "diff":
			q.Diff = s.Bool()
		case "experiment":
			q.Experiment = s.Text()
		case "quick":
			q.Quick = s.Bool()
		case "seed":
			q.Seed = r.int64Ptr(s)
		case "workers":
			q.Workers = s.Int()
		case "trace":
			q.Trace = s.Bool()
		case "timeout_ms":
			q.TimeoutMS = s.Int64()
		}
	}
}

// ReadQuery reads one Query value from s into q, which must be the zero
// value, for a reader of a document that nests a query (dist.TaskRequest).
// Input outside the writer's shape fails s with wire.ErrShape; the caller
// then decodes the enclosing bytes with wire.DecodeStrict instead.
func ReadQuery(s *wire.Scanner, q *Query) {
	var r queryReader
	r.read(s, q)
}

// DecodeQuery decodes the query document b — a request body or a query file,
// read whole — into q, replacing its contents. readErr is the error that
// ended reading b, nil when b is the whole document. Bytes in the writer's
// shape take the reflection-free reader. Anything else, and any readErr,
// replays wire.DecodeStrict over b followed by readErr, so the documents
// accepted, the values decoded and the errors returned are the strict
// decoder's: io.EOF for an empty document, wire.ErrTrailing for data after
// it, readErr or encoding/json's error otherwise.
//
// q does not escape: the strict decoder fills a Query of its own, which is
// copied into q, so a caller's q can live in its stack frame.
func DecodeQuery(b []byte, readErr error, q *Query) error {
	*q = Query{}
	if readErr == nil {
		var s wire.Scanner
		s.Reset(b)
		ReadQuery(&s, q)
		if s.Finish() == nil {
			return nil
		}
		*q = Query{}
	}
	strict := new(Query)
	err := wire.DecodeStrict(wire.Replay(b, readErr), strict)
	*q = *strict
	return err
}
