package query

import (
	"fmt"
	"math"
	"strings"
	"time"

	"dense802154/internal/channel"
	"dense802154/internal/contention"
	"dense802154/internal/core"
	"dense802154/internal/frame"
	"dense802154/internal/mac"
	"dense802154/internal/netsim"
	"dense802154/internal/phy"
	"dense802154/internal/radio"
	"dense802154/internal/scenario"
	"dense802154/internal/stats"
	"dense802154/internal/units"
	"dense802154/internal/wire"
)

// Error is a structured request-validation failure; the HTTP handlers
// render it as a 400 body {"error": {...}}.
type Error struct {
	Message string `json:"message"`
	// Field names the offending request field (JSON path), when known.
	Field string `json:"field,omitempty"`
}

// Error implements error.
func (e *Error) Error() string {
	if e.Field != "" {
		return e.Field + ": " + e.Message
	}
	return e.Message
}

// errf builds a field-scoped validation Error.
func errf(field, format string, args ...any) *Error {
	return &Error{Field: field, Message: fmt.Sprintf(format, args...)}
}

// Float is the exact-round-trip JSON float shared with the scenario golden
// files; see internal/wire for the encoding contract (shortest finite form,
// "+Inf"/"-Inf"/"NaN" strings for non-finite values).
type Float = wire.Float

// SuperframeWire selects the beacon structure.
type SuperframeWire struct {
	BO uint8 `json:"bo"`
	SO uint8 `json:"so"`
}

// ContentionWire selects and parameterizes the contention source.
type ContentionWire struct {
	// Source is "montecarlo" (default) or "approx" (the closed-form
	// baseline).
	Source string `json:"source,omitempty"`
	// Superframes is the Monte-Carlo run length (default 60, as in
	// DefaultParams).
	Superframes int `json:"superframes,omitempty"`
	// Seed drives the Monte-Carlo RNG (default 2005).
	Seed *int64 `json:"seed,omitempty"`
	// Arrival is "uniform" (default) or "at-beacon".
	Arrival string `json:"arrival,omitempty"`
}

// ParamsWire is the JSON form of core.Params: every field is optional and
// defaults to the paper's §5 case-study configuration (core.DefaultParams).
// Interface-typed model inputs (radio, BER model, contention source) are
// selected by name.
type ParamsWire struct {
	// Radio is "cc2420" (default), "cc2420-fast" (transitions halved),
	// "cc2420-scalable" (low-power listen at half RX power) or
	// "cc2420-improved" (both §5 improvement perspectives).
	Radio string `json:"radio,omitempty"`
	// BER is "eq1" (default, the paper's measured regression) or "awgn"
	// (the analytic O-QPSK bound).
	BER string `json:"ber,omitempty"`
	// Contention selects the contention source.
	Contention *ContentionWire `json:"contention,omitempty"`
	// Superframe sets BO/SO (default 6/6).
	Superframe *SuperframeWire `json:"superframe,omitempty"`

	PayloadBytes *int   `json:"payload_bytes,omitempty"`
	Load         *Float `json:"load,omitempty"`
	PathLossDB   *Float `json:"path_loss_db,omitempty"`
	// TXLevel is the transmit step index; -1 (the default) requests link
	// adaptation.
	TXLevel     *int   `json:"tx_level,omitempty"`
	NMax        *int   `json:"n_max,omitempty"`
	BeaconBytes *int   `json:"beacon_bytes,omitempty"`
	WakeupLead  *int64 `json:"wakeup_lead_ns,omitempty"`
	CCAListen   *int64 `json:"cca_listen_ns,omitempty"`

	PaperAckAccounting     *bool `json:"paper_ack_accounting,omitempty"`
	IncludeIFS             *bool `json:"include_ifs,omitempty"`
	IncludeShutdownLeakage *bool `json:"include_shutdown_leakage,omitempty"`

	// Workers is the parallelism the request asks for; the server clamps
	// it to its worker-token budget. Results never depend on it.
	Workers int `json:"workers,omitempty"`
}

// RadioByName resolves the named characterization through the shared
// radio.ByName registry into a field-scoped validation error.
func RadioByName(name string) (*radio.Characterization, *Error) {
	r, ok := radio.ByName(name)
	if !ok {
		return nil, errf("radio", "unknown radio %q (want %s)", name, strings.Join(radio.Names(), ", "))
	}
	return r, nil
}

// eq1 is phy.Eq1 converted to a BERModel once, not on every lookup.
var eq1 phy.BERModel = phy.Eq1

// berByName resolves the named bit-error model.
func berByName(name string) (phy.BERModel, *Error) {
	switch name {
	case "", "eq1":
		return eq1, nil
	case "awgn":
		return phy.AWGNBER{NoiseFigureDB: phy.DefaultNoiseFigureDB}, nil
	}
	return nil, errf("ber", "unknown BER model %q (want eq1 or awgn)", name)
}

// MaxMCSuperframes caps one Monte-Carlo characterization requested over
// the wire. Every kind whose contention the wire configures resolves it
// through contention.Resolve, which stops between a characterization's
// shards once the request is canceled. The exception is a model task whose
// stored line does not decode: it asks MCSource.Contention, which goes
// through Resolve too but under context.Background(), so it runs to its
// end, uncancelled; this bound also caps how long a canceled request can
// pin its worker tokens.
const MaxMCSuperframes = 20000

// source resolves the contention wire config. A Monte-Carlo source is
// serial (Workers 1): plans resolve its characterizations under their
// worker grant (contention.Resolve), which does not read it.
func (w *ContentionWire) source() (contention.Source, *Error) {
	if w == nil {
		w = &ContentionWire{}
	}
	switch w.Source {
	case "", "montecarlo":
		cfg := contention.Config{Superframes: 60, Seed: 2005, Workers: 1}
		if w.Superframes != 0 {
			if w.Superframes < 1 || w.Superframes > MaxMCSuperframes {
				return nil, errf("contention.superframes", "%d outside 1..%d", w.Superframes, MaxMCSuperframes)
			}
			cfg.Superframes = w.Superframes
		}
		if w.Seed != nil {
			cfg.Seed = *w.Seed
		}
		switch w.Arrival {
		case "", "uniform":
			cfg.Arrival = contention.ArrivalUniform
		case "at-beacon":
			cfg.Arrival = contention.ArrivalAtBeacon
		default:
			return nil, errf("contention.arrival", "unknown arrival model %q (want uniform or at-beacon)", w.Arrival)
		}
		return contention.NewMCSource(cfg), nil
	case "approx":
		return contention.Approx{}, nil
	}
	return nil, errf("contention.source", "unknown source %q (want montecarlo or approx)", w.Source)
}

// Params materializes the wire form onto core.DefaultParams and validates
// the result; the radio, BER model and contention source are resolved
// first and the defaults built around them, so none is built twice.
// The point is serial: its model sweep (Workers) and its Monte-Carlo
// source run on one goroutine each. A plan applies an execution's worker
// grant to the sweep level (granted) and resolves its characterizations up
// front under the whole grant (contention.Resolve), so one compiled point
// serves every execution and concurrency stays within the grant. Worker
// counts never change the computed bytes.
func (w ParamsWire) Params() (core.Params, *Error) {
	r, aerr := RadioByName(w.Radio)
	if aerr != nil {
		return core.Params{}, aerr
	}
	ber, aerr := berByName(w.BER)
	if aerr != nil {
		return core.Params{}, aerr
	}
	src, aerr := w.Contention.source()
	if aerr != nil {
		return core.Params{}, aerr
	}
	p := core.PaperParams(r, ber, src)
	p.Workers = 1

	if w.Superframe != nil {
		sf, err := mac.NewSuperframe(w.Superframe.BO, w.Superframe.SO)
		if err != nil {
			return core.Params{}, errf("superframe", "%v", err)
		}
		p.Superframe = sf
	}
	if w.PayloadBytes != nil {
		p.PayloadBytes = *w.PayloadBytes
	}
	if w.Load != nil {
		p.Load = float64(*w.Load)
	}
	if w.PathLossDB != nil {
		p.PathLossDB = float64(*w.PathLossDB)
	}
	if w.TXLevel != nil {
		p.TXLevelIndex = *w.TXLevel
	}
	if w.NMax != nil {
		p.NMax = *w.NMax
	}
	if w.BeaconBytes != nil {
		if *w.BeaconBytes < 1 || *w.BeaconBytes > 127 {
			return core.Params{}, errf("beacon_bytes", "%d outside 1..127", *w.BeaconBytes)
		}
		p.BeaconBytes = *w.BeaconBytes
	}
	if w.WakeupLead != nil {
		if *w.WakeupLead < 0 {
			return core.Params{}, errf("wakeup_lead_ns", "negative wake-up lead")
		}
		p.WakeupLead = time.Duration(*w.WakeupLead)
	}
	if w.CCAListen != nil {
		if *w.CCAListen < 0 {
			return core.Params{}, errf("cca_listen_ns", "negative CCA listen time")
		}
		p.CCAListen = time.Duration(*w.CCAListen)
	}
	if w.PaperAckAccounting != nil {
		p.PaperAckAccounting = *w.PaperAckAccounting
	}
	if w.IncludeIFS != nil {
		p.IncludeIFS = *w.IncludeIFS
	}
	if w.IncludeShutdownLeakage != nil {
		p.IncludeShutdownLeakage = *w.IncludeShutdownLeakage
	}

	if err := p.Validate(); err != nil {
		return core.Params{}, &Error{Message: err.Error(), Field: "params"}
	}
	return p, nil
}

// ContStatsWire is the JSON form of contention.Stats.
type ContStatsWire struct {
	TcontNS int64 `json:"tcont_ns"`
	NCCA    Float `json:"ncca"`
	PrCF    Float `json:"pr_cf"`
	PrCol   Float `json:"pr_col"`
}

// WireContStats converts to the wire form.
func WireContStats(s contention.Stats) ContStatsWire {
	return ContStatsWire{
		TcontNS: int64(s.Tcont),
		NCCA:    Float(s.NCCA),
		PrCF:    Float(s.PrCF),
		PrCol:   Float(s.PrCol),
	}
}

// Stats converts back to the model type.
func (w ContStatsWire) Stats() contention.Stats {
	return contention.Stats{
		Tcont: time.Duration(w.TcontNS),
		NCCA:  float64(w.NCCA),
		PrCF:  float64(w.PrCF),
		PrCol: float64(w.PrCol),
	}
}

// BreakdownWire is the JSON form of core.Breakdown (joules per phase).
type BreakdownWire struct {
	BeaconJ     Float `json:"beacon_j"`
	ContentionJ Float `json:"contention_j"`
	TransmitJ   Float `json:"transmit_j"`
	AckJ        Float `json:"ack_j"`
	IFSJ        Float `json:"ifs_j"`
	SleepJ      Float `json:"sleep_j"`
}

// WireBreakdown converts to the wire form.
func WireBreakdown(b core.Breakdown) BreakdownWire {
	return BreakdownWire{
		BeaconJ:     Float(b.Beacon),
		ContentionJ: Float(b.Contention),
		TransmitJ:   Float(b.Transmit),
		AckJ:        Float(b.Ack),
		IFSJ:        Float(b.IFS),
		SleepJ:      Float(b.Sleep),
	}
}

// Breakdown converts back to the model type.
func (w BreakdownWire) Breakdown() core.Breakdown {
	return core.Breakdown{
		Beacon:     units.Energy(w.BeaconJ),
		Contention: units.Energy(w.ContentionJ),
		Transmit:   units.Energy(w.TransmitJ),
		Ack:        units.Energy(w.AckJ),
		IFS:        units.Energy(w.IFSJ),
		Sleep:      units.Energy(w.SleepJ),
	}
}

// StateTimesWire is the JSON form of core.StateTimes (ns per state).
type StateTimesWire struct {
	ShutdownNS int64 `json:"shutdown_ns"`
	IdleNS     int64 `json:"idle_ns"`
	RXNS       int64 `json:"rx_ns"`
	TXNS       int64 `json:"tx_ns"`
}

// WireStateTimes converts to the wire form.
func WireStateTimes(s core.StateTimes) StateTimesWire {
	return StateTimesWire{
		ShutdownNS: int64(s.Shutdown),
		IdleNS:     int64(s.Idle),
		RXNS:       int64(s.RX),
		TXNS:       int64(s.TX),
	}
}

// StateTimes converts back to the model type.
func (w StateTimesWire) StateTimes() core.StateTimes {
	return core.StateTimes{
		Shutdown: time.Duration(w.ShutdownNS),
		Idle:     time.Duration(w.IdleNS),
		RX:       time.Duration(w.RXNS),
		TX:       time.Duration(w.TXNS),
	}
}

// MetricsWire is the JSON form of core.Metrics. Durations travel as exact
// nanosecond integers and floats as exact shortest-round-trip values, so a
// decoded MetricsWire reproduces the in-process Metrics bit for bit.
type MetricsWire struct {
	TXLevelIndex int   `json:"tx_level_index"`
	TXPowerDBm   Float `json:"tx_power_dbm"`
	PRxDBm       Float `json:"prx_dbm"`

	TpacketNS int64         `json:"tpacket_ns"`
	Cont      ContStatsWire `json:"contention"`

	PrBit      Float `json:"pr_bit"`
	PrE        Float `json:"pr_e"`
	PrTF       Float `json:"pr_tf"`
	PrCF       Float `json:"pr_cf"`
	ExpectedTx Float `json:"expected_tx"`

	TidleNS int64 `json:"tidle_ns"`
	TTxNS   int64 `json:"ttx_ns"`
	TRxNS   int64 `json:"trx_ns"`

	States          StateTimesWire `json:"states"`
	AvgPowerW       Float          `json:"avg_power_w"`
	EnergyPerFrameJ Float          `json:"energy_per_frame_j"`
	PrFail          Float          `json:"pr_fail"`
	DelayNS         int64          `json:"delay_ns"`
	EnergyPerBitJ   Float          `json:"energy_per_bit_j"`
	Breakdown       BreakdownWire  `json:"breakdown"`
}

// WireMetrics converts to the wire form.
func WireMetrics(m core.Metrics) MetricsWire {
	return MetricsWire{
		TXLevelIndex:    m.TXLevelIndex,
		TXPowerDBm:      Float(m.TXPowerDBm),
		PRxDBm:          Float(m.PRxDBm),
		TpacketNS:       int64(m.Tpacket),
		Cont:            WireContStats(m.Cont),
		PrBit:           Float(m.PrBit),
		PrE:             Float(m.PrE),
		PrTF:            Float(m.PrTF),
		PrCF:            Float(m.PrCF),
		ExpectedTx:      Float(m.ExpectedTx),
		TidleNS:         int64(m.Tidle),
		TTxNS:           int64(m.TTx),
		TRxNS:           int64(m.TRx),
		States:          WireStateTimes(m.States),
		AvgPowerW:       Float(m.AvgPower),
		EnergyPerFrameJ: Float(m.EnergyPerFrame),
		PrFail:          Float(m.PrFail),
		DelayNS:         int64(m.Delay),
		EnergyPerBitJ:   Float(m.EnergyPerBitJ),
		Breakdown:       WireBreakdown(m.Breakdown),
	}
}

// Metrics converts back to the model type.
func (w MetricsWire) Metrics() core.Metrics {
	return core.Metrics{
		TXLevelIndex:   w.TXLevelIndex,
		TXPowerDBm:     float64(w.TXPowerDBm),
		PRxDBm:         float64(w.PRxDBm),
		Tpacket:        time.Duration(w.TpacketNS),
		Cont:           w.Cont.Stats(),
		PrBit:          float64(w.PrBit),
		PrE:            float64(w.PrE),
		PrTF:           float64(w.PrTF),
		PrCF:           float64(w.PrCF),
		ExpectedTx:     float64(w.ExpectedTx),
		Tidle:          time.Duration(w.TidleNS),
		TTx:            time.Duration(w.TTxNS),
		TRx:            time.Duration(w.TRxNS),
		States:         w.States.StateTimes(),
		AvgPower:       units.Power(w.AvgPowerW),
		EnergyPerFrame: units.Energy(w.EnergyPerFrameJ),
		PrFail:         float64(w.PrFail),
		Delay:          time.Duration(w.DelayNS),
		EnergyPerBitJ:  float64(w.EnergyPerBitJ),
		Breakdown:      w.Breakdown.Breakdown(),
	}
}

// CaseStudyConfigWire is the JSON form of core.CaseStudyConfig; omitted
// fields default to the paper's 1600-node scenario.
type CaseStudyConfigWire struct {
	Nodes              *int   `json:"nodes,omitempty"`
	Channels           *int   `json:"channels,omitempty"`
	DataBytesPerSecond *Float `json:"data_bytes_per_second,omitempty"`
	MinLossDB          *Float `json:"min_loss_db,omitempty"`
	MaxLossDB          *Float `json:"max_loss_db,omitempty"`
	LossGridPoints     *int   `json:"loss_grid_points,omitempty"`
}

// Config materializes the wire form onto core.DefaultCaseStudy.
func (w *CaseStudyConfigWire) Config() (core.CaseStudyConfig, *Error) {
	cfg := core.DefaultCaseStudy()
	if w == nil {
		return cfg, nil
	}
	if w.Nodes != nil {
		cfg.Nodes = *w.Nodes
	}
	if w.Channels != nil {
		cfg.Channels = *w.Channels
	}
	if w.DataBytesPerSecond != nil {
		cfg.DataBytesPerSecond = float64(*w.DataBytesPerSecond)
	}
	if w.MinLossDB != nil {
		cfg.MinLossDB = float64(*w.MinLossDB)
	}
	if w.MaxLossDB != nil {
		cfg.MaxLossDB = float64(*w.MaxLossDB)
	}
	if w.LossGridPoints != nil {
		cfg.LossGridPoints = *w.LossGridPoints
	}
	if cfg.Nodes < 1 {
		return cfg, errf("config.nodes", "%d < 1", cfg.Nodes)
	}
	if cfg.Channels < 1 {
		return cfg, errf("config.channels", "%d < 1", cfg.Channels)
	}
	if cfg.MinLossDB >= cfg.MaxLossDB {
		return cfg, errf("config.min_loss_db", "min %g ≥ max %g", cfg.MinLossDB, cfg.MaxLossDB)
	}
	if cfg.LossGridPoints < 2 || cfg.LossGridPoints > 100000 {
		return cfg, errf("config.loss_grid_points", "%d outside 2..100000", cfg.LossGridPoints)
	}
	return cfg, nil
}

// CaseStudyResultWire is the JSON form of core.CaseStudyResult.
type CaseStudyResultWire struct {
	Load Float `json:"load"`

	AvgPowerW    Float `json:"avg_power_w"`
	MeanPrFail   Float `json:"mean_pr_fail"`
	Coverage     Float `json:"coverage"`
	MeanDelayNS  int64 `json:"mean_delay_ns"`
	MedianDelay  int64 `json:"median_delay_ns"`
	NominalDelay int64 `json:"nominal_delay_ns"`
	MeanEnergyJ  Float `json:"mean_energy_j_per_bit"`

	Breakdown BreakdownWire  `json:"breakdown"`
	States    StateTimesWire `json:"states"`

	LossGrid  []Float `json:"loss_grid_db"`
	PowerUW   []Float `json:"power_uw"`
	PrFail    []Float `json:"pr_fail"`
	LevelUsed []int   `json:"level_used"`
}

// WireCaseStudyResult converts to the wire form.
func WireCaseStudyResult(r core.CaseStudyResult) CaseStudyResultWire {
	return CaseStudyResultWire{
		Load:         Float(r.Load),
		AvgPowerW:    Float(r.AvgPower),
		MeanPrFail:   Float(r.MeanPrFail),
		Coverage:     Float(r.Coverage),
		MeanDelayNS:  int64(r.MeanDelay),
		MedianDelay:  int64(r.MedianDelay),
		NominalDelay: int64(r.NominalDelay),
		MeanEnergyJ:  Float(r.MeanEnergyJ),
		Breakdown:    WireBreakdown(r.Breakdown),
		States:       WireStateTimes(r.States),
		LossGrid:     wire.Floats(r.LossGrid),
		PowerUW:      wire.Floats(r.PowerUW),
		PrFail:       wire.Floats(r.PrFail),
		LevelUsed:    append([]int(nil), r.LevelUsed...),
	}
}

// SimConfigWire is the JSON form of netsim.Config; omitted fields use the
// simulator's 100-node channel defaults.
type SimConfigWire struct {
	Nodes                *int            `json:"nodes,omitempty"`
	PayloadBytes         *int            `json:"payload_bytes,omitempty"`
	Superframe           *SuperframeWire `json:"superframe,omitempty"`
	Radio                string          `json:"radio,omitempty"`
	MinLossDB            *Float          `json:"min_loss_db,omitempty"`
	MaxLossDB            *Float          `json:"max_loss_db,omitempty"`
	TargetPRxDBm         *Float          `json:"target_prx_dbm,omitempty"`
	NMax                 *int            `json:"n_max,omitempty"`
	TransmitProb         *Float          `json:"transmit_prob,omitempty"`
	Superframes          *int            `json:"superframes,omitempty"`
	BeaconBytes          *int            `json:"beacon_bytes,omitempty"`
	MaxPacketSuperframes *int            `json:"max_packet_superframes,omitempty"`
	LowPowerListen       *bool           `json:"low_power_listen,omitempty"`
	Seed                 *int64          `json:"seed,omitempty"`
}

// Config materializes the wire form into a netsim.Config (zero fields keep
// the simulator defaults).
func (w *SimConfigWire) Config() (netsim.Config, *Error) {
	var cfg netsim.Config
	if w == nil {
		w = &SimConfigWire{}
	}
	if w.Nodes != nil {
		if *w.Nodes < 1 || *w.Nodes > 10000 {
			return cfg, errf("config.nodes", "%d outside 1..10000", *w.Nodes)
		}
		cfg.Nodes = *w.Nodes
	}
	if w.PayloadBytes != nil {
		if *w.PayloadBytes < 1 || *w.PayloadBytes > frame.MaxDataPayload {
			return cfg, errf("config.payload_bytes", "%d outside 1..%d", *w.PayloadBytes, frame.MaxDataPayload)
		}
		cfg.PayloadBytes = *w.PayloadBytes
	}
	if w.Superframe != nil {
		sf, err := mac.NewSuperframe(w.Superframe.BO, w.Superframe.SO)
		if err != nil {
			return cfg, errf("config.superframe", "%v", err)
		}
		cfg.Superframe = sf
	}
	if w.Radio != "" {
		r, aerr := RadioByName(w.Radio)
		if aerr != nil {
			aerr.Field = "config.radio"
			return cfg, aerr
		}
		cfg.Radio = r
	}
	if w.MinLossDB != nil || w.MaxLossDB != nil {
		lo, hi := 55.0, 95.0
		if w.MinLossDB != nil {
			lo = float64(*w.MinLossDB)
		}
		if w.MaxLossDB != nil {
			hi = float64(*w.MaxLossDB)
		}
		// The comparison form rejects NaN and reversed/infinite ranges in
		// one go — a non-finite bound would feed garbage losses to every
		// node.
		if !(lo < hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return cfg, errf("config.min_loss_db", "loss range %g..%g not a finite ascending interval", lo, hi)
		}
		cfg.Deployment = channel.UniformLoss{MinDB: lo, MaxDB: hi}
	}
	if w.TargetPRxDBm != nil {
		if v := float64(*w.TargetPRxDBm); math.IsNaN(v) || math.IsInf(v, 0) {
			return cfg, errf("config.target_prx_dbm", "must be finite")
		}
		cfg.TargetPRxDBm = float64(*w.TargetPRxDBm)
	}
	if w.NMax != nil {
		if *w.NMax < 1 || *w.NMax > 100 {
			return cfg, errf("config.n_max", "%d outside 1..100", *w.NMax)
		}
		cfg.NMax = *w.NMax
	}
	if w.TransmitProb != nil {
		if v := float64(*w.TransmitProb); !(v >= 0 && v <= 1) { // also rejects NaN
			return cfg, errf("config.transmit_prob", "%g outside [0,1]", v)
		}
		cfg.TransmitProb = float64(*w.TransmitProb)
	}
	if w.Superframes != nil {
		if *w.Superframes < 1 || *w.Superframes > 100000 {
			return cfg, errf("config.superframes", "%d outside 1..100000", *w.Superframes)
		}
		cfg.Superframes = *w.Superframes
	}
	if w.BeaconBytes != nil {
		if *w.BeaconBytes < 1 || *w.BeaconBytes > 127 {
			return cfg, errf("config.beacon_bytes", "%d outside 1..127", *w.BeaconBytes)
		}
		cfg.BeaconBytes = *w.BeaconBytes
	}
	if w.MaxPacketSuperframes != nil {
		if *w.MaxPacketSuperframes < 1 || *w.MaxPacketSuperframes > 100000 {
			return cfg, errf("config.max_packet_superframes", "%d outside 1..100000", *w.MaxPacketSuperframes)
		}
		cfg.MaxPacketSuperframes = *w.MaxPacketSuperframes
	}
	if w.LowPowerListen != nil {
		cfg.LowPowerListen = *w.LowPowerListen
	}
	if w.Seed != nil {
		cfg.Seed = *w.Seed
	}
	return cfg, nil
}

// SimResultWire is the JSON headline of one netsim.Result replica.
type SimResultWire struct {
	Seed             int64         `json:"seed"`
	AvgPowerW        Float         `json:"avg_power_w"`
	DeliveryRatio    Float         `json:"delivery_ratio"`
	PrFailPerAttempt Float         `json:"pr_fail_per_attempt"`
	PacketsOffered   int           `json:"packets_offered"`
	PacketsDelivered int           `json:"packets_delivered"`
	PacketsDropped   int           `json:"packets_dropped"`
	PacketsExpired   int           `json:"packets_expired"`
	Transmissions    int           `json:"transmissions"`
	Collisions       int           `json:"collisions"`
	AccessFailures   int           `json:"access_failures"`
	CorruptedFrames  int           `json:"corrupted_frames"`
	MeanDelayNS      int64         `json:"mean_delay_ns"`
	P95DelayNS       int64         `json:"p95_delay_ns"`
	Contention       ContStatsWire `json:"contention"`
}

// WireSimResult converts to the wire form.
func WireSimResult(seed int64, r netsim.Result) SimResultWire {
	return SimResultWire{
		Seed:             seed,
		AvgPowerW:        Float(r.AvgPowerPerNode),
		DeliveryRatio:    Float(r.DeliveryRatio),
		PrFailPerAttempt: Float(r.PrFailPerAttempt),
		PacketsOffered:   r.PacketsOffered,
		PacketsDelivered: r.PacketsDelivered,
		PacketsDropped:   r.PacketsDropped,
		PacketsExpired:   r.PacketsExpired,
		Transmissions:    r.Transmissions,
		Collisions:       r.Collisions,
		AccessFailures:   r.AccessFailures,
		CorruptedFrames:  r.CorruptedFrames,
		MeanDelayNS:      int64(r.MeanDelay),
		P95DelayNS:       int64(r.P95Delay),
		Contention:       WireContStats(r.Contention),
	}
}

// Result reconstructs the netsim.Result fields the wire form carries —
// exactly the observables netsim.Merge folds into the across-replica
// summary. Floats and durations round-trip exactly (wire.Float, integer
// nanoseconds), so a summary assembled from computed, stored or decoded
// payloads is the one netsim.RunReplicas reports; fields the wire omits
// (the ledger, the attempts histogram, traces) stay zero.
func (w SimResultWire) Result() netsim.Result {
	return netsim.Result{
		AvgPowerPerNode:  units.Power(w.AvgPowerW),
		DeliveryRatio:    float64(w.DeliveryRatio),
		PrFailPerAttempt: float64(w.PrFailPerAttempt),
		PacketsOffered:   w.PacketsOffered,
		PacketsDelivered: w.PacketsDelivered,
		PacketsDropped:   w.PacketsDropped,
		PacketsExpired:   w.PacketsExpired,
		Transmissions:    w.Transmissions,
		Collisions:       w.Collisions,
		AccessFailures:   w.AccessFailures,
		CorruptedFrames:  w.CorruptedFrames,
		MeanDelay:        time.Duration(w.MeanDelayNS),
		P95Delay:         time.Duration(w.P95DelayNS),
		Contention:       w.Contention.Stats(),
	}
}

// ReplicaStatWire is the JSON form of netsim.ReplicaStat.
type ReplicaStatWire struct {
	Mean Float `json:"mean"`
	CI95 Float `json:"ci95"`
	Min  Float `json:"min"`
	Max  Float `json:"max"`
}

// WireReplicaStat converts to the wire form.
func WireReplicaStat(s netsim.ReplicaStat) ReplicaStatWire {
	return ReplicaStatWire{Mean: Float(s.Mean), CI95: Float(s.CI95), Min: Float(s.Min), Max: Float(s.Max)}
}

// EnergyCurveWire is the JSON form of one core.EnergyCurve (a Fig. 7
// fixed-level energy-vs-path-loss curve).
type EnergyCurveWire struct {
	LevelIndex int     `json:"level_index"`
	LevelDBm   Float   `json:"level_dbm"`
	LossDB     []Float `json:"loss_db"`
	EnergyJ    []Float `json:"energy_j_per_bit"`
}

// WireEnergyCurve converts to the wire form.
func WireEnergyCurve(c core.EnergyCurve) EnergyCurveWire {
	return EnergyCurveWire{
		LevelIndex: c.LevelIndex,
		LevelDBm:   Float(c.LevelDBm),
		LossDB:     wire.Floats(c.LossDB),
		EnergyJ:    wire.Floats(c.EnergyJ),
	}
}

// ThresholdWire is the JSON form of one core.Threshold (a Fig. 7
// link-adaptation switching point).
type ThresholdWire struct {
	FromLevel int   `json:"from_level"`
	ToLevel   int   `json:"to_level"`
	FromDBm   Float `json:"from_dbm"`
	ToDBm     Float `json:"to_dbm"`
	LossDB    Float `json:"loss_db"`
}

// WireThreshold converts to the wire form.
func WireThreshold(t core.Threshold) ThresholdWire {
	return ThresholdWire{
		FromLevel: t.FromLevel,
		ToLevel:   t.ToLevel,
		FromDBm:   Float(t.FromDBm),
		ToDBm:     Float(t.ToDBm),
		LossDB:    Float(t.LossDB),
	}
}

// PayloadSeriesWire is the JSON form of the Fig. 8 energy-vs-payload series.
type PayloadSeriesWire struct {
	SizesBytes []int   `json:"sizes_bytes"`
	EnergyJ    []Float `json:"energy_j_per_bit"`
}

// WirePayloadSeries converts a payload grid and its stats.Series to the
// wire form.
func WirePayloadSeries(sizes []int, s stats.Series) PayloadSeriesWire {
	return PayloadSeriesWire{
		SizesBytes: append([]int(nil), sizes...),
		EnergyJ:    wire.Floats(s.Y),
	}
}

// ScenarioReportWire is the JSON form of one cross-model scenario run with
// its optional golden diff (the same shape POST /v1/scenarios/{name}
// returns).
type ScenarioReportWire struct {
	Result *scenario.Result     `json:"result"`
	Diff   *scenario.DiffReport `json:"diff,omitempty"`
}

// ExperimentReportWire is the JSON form of one experiment driver's output.
type ExperimentReportWire struct {
	Name   string         `json:"name"`
	Tables []*stats.Table `json:"tables"`
}
