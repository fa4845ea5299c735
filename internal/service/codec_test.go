package service

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"dense802154/internal/contention"
	"dense802154/internal/core"
	"dense802154/internal/query"
)

func TestFloatRoundTripsBitExactly(t *testing.T) {
	values := []float64{
		0, 1, -1, 0.1, 1.0 / 3.0, math.Pi, 2.35e-30,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.MaxFloat64, 1e-323, // subnormal
		math.Inf(1), math.Inf(-1),
	}
	for _, v := range values {
		b, err := json.Marshal(Float(v))
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got Float
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if math.Float64bits(float64(got)) != math.Float64bits(v) {
			t.Errorf("round trip %v via %s gave %v", v, b, float64(got))
		}
	}

	b, err := json.Marshal(Float(math.NaN()))
	if err != nil {
		t.Fatal(err)
	}
	var nan Float
	if err := json.Unmarshal(b, &nan); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(nan)) {
		t.Errorf("NaN round trip gave %v", float64(nan))
	}

	// Plain JSON numbers from hand-written clients must also parse.
	var f Float
	if err := json.Unmarshal([]byte("0.433"), &f); err != nil || f != 0.433 {
		t.Errorf("numeric literal: %v %v", f, err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &f); err == nil {
		t.Error("bogus string accepted")
	}
}

func TestParamsWireDefaultsMatchDefaultParams(t *testing.T) {
	p, aerr := ParamsWire{}.Params(3, 3)
	if aerr != nil {
		t.Fatal(aerr)
	}
	want := core.DefaultParams()
	if p.PayloadBytes != want.PayloadBytes || p.Load != want.Load ||
		p.PathLossDB != want.PathLossDB || p.TXLevelIndex != want.TXLevelIndex ||
		p.NMax != want.NMax || p.BeaconBytes != want.BeaconBytes ||
		p.WakeupLead != want.WakeupLead || p.CCAListen != want.CCAListen ||
		p.PaperAckAccounting != want.PaperAckAccounting ||
		p.IncludeIFS != want.IncludeIFS ||
		p.IncludeShutdownLeakage != want.IncludeShutdownLeakage ||
		p.Superframe != want.Superframe {
		t.Fatalf("wire defaults diverge from DefaultParams:\n%+v\n%+v", p, want)
	}
	if p.Workers != 3 {
		t.Fatalf("Workers = %d, want the granted 3", p.Workers)
	}
	mc, ok := p.Contention.(*contention.MCSource)
	if !ok {
		t.Fatalf("contention source is %T, want *MCSource", p.Contention)
	}
	if mc.Base.Superframes != 60 || mc.Base.Seed != 2005 || mc.Base.Workers != 3 {
		t.Fatalf("MC base = %+v, want 60 superframes / seed 2005 / workers 3", mc.Base)
	}
	if p.Radio.Name != "CC2420" {
		t.Fatalf("radio = %q", p.Radio.Name)
	}
}

func TestParamsWireOverridesAndErrors(t *testing.T) {
	payload := 40
	load := Float(0.25)
	tx := 2
	w := ParamsWire{
		Radio:        "cc2420-fast",
		BER:          "awgn",
		Contention:   &query.ContentionWire{Source: "approx"},
		PayloadBytes: &payload,
		Load:         &load,
		TXLevel:      &tx,
	}
	p, aerr := w.Params(1, 1)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if p.PayloadBytes != 40 || p.Load != 0.25 || p.TXLevelIndex != 2 {
		t.Fatalf("overrides not applied: %+v", p)
	}
	if _, ok := p.Contention.(contention.Approx); !ok {
		t.Fatalf("contention source is %T, want Approx", p.Contention)
	}
	if p.Radio.Name == "CC2420" {
		t.Fatal("fast radio not selected")
	}

	bad := []struct {
		w     ParamsWire
		field string
	}{
		{ParamsWire{Radio: "nrf24"}, "radio"},
		{ParamsWire{BER: "rayleigh"}, "ber"},
		{ParamsWire{Contention: &query.ContentionWire{Source: "oracle"}}, "contention.source"},
		{ParamsWire{Contention: &query.ContentionWire{Arrival: "bursty"}}, "contention.arrival"},
		{ParamsWire{Contention: &query.ContentionWire{Superframes: -4}}, "contention.superframes"},
		{ParamsWire{Superframe: &query.SuperframeWire{BO: 3, SO: 9}}, "superframe"},
		{ParamsWire{PayloadBytes: intp(0)}, "params"},
		{ParamsWire{PayloadBytes: intp(5000)}, "params"},
		{ParamsWire{Load: floatp(1.5)}, "params"},
		{ParamsWire{TXLevel: intp(99)}, "params"},
		{ParamsWire{NMax: intp(0)}, "params"},
		{ParamsWire{BeaconBytes: intp(-1)}, "beacon_bytes"},
		{ParamsWire{WakeupLead: int64p(-5)}, "wakeup_lead_ns"},
	}
	for _, tc := range bad {
		_, aerr := tc.w.Params(1, 1)
		if aerr == nil {
			t.Errorf("%+v accepted, want error on %s", tc.w, tc.field)
			continue
		}
		if aerr.Field != tc.field {
			t.Errorf("%+v: error field %q, want %q", tc.w, aerr.Field, tc.field)
		}
	}
}

func TestMetricsWireRoundTrip(t *testing.T) {
	p := core.DefaultParams()
	p.Workers = 1
	p.Contention = contention.Approx{}
	m, err := core.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(query.WireMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	var w MetricsWire
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	if got := w.Metrics(); !reflect.DeepEqual(got, m) {
		t.Fatalf("metrics changed across the wire:\n got %+v\nwant %+v", got, m)
	}
}

func TestMetricsWireCarriesInfiniteEnergy(t *testing.T) {
	p := core.DefaultParams()
	p.Workers = 1
	p.Contention = contention.Approx{}
	p.PathLossDB = 130 // far out of range: delay and energy diverge
	m, err := core.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(m.EnergyPerBitJ, 1) {
		t.Skipf("expected +Inf energy at 130 dB, got %v", m.EnergyPerBitJ)
	}
	b, err := json.Marshal(query.WireMetrics(m))
	if err != nil {
		t.Fatalf("marshal with +Inf: %v", err)
	}
	var w MetricsWire
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(w.EnergyPerBitJ), 1) {
		t.Fatalf("energy lost its infinity: %v", float64(w.EnergyPerBitJ))
	}
	if !reflect.DeepEqual(w.Metrics(), m) {
		t.Fatal("out-of-range metrics changed across the wire")
	}
}

func TestSimConfigWireValidation(t *testing.T) {
	if _, aerr := (&SimConfigWire{MinLossDB: floatp(90), MaxLossDB: floatp(60)}).Config(); aerr == nil {
		t.Error("inverted loss bounds accepted")
	}
	if _, aerr := (&SimConfigWire{Radio: "bogus"}).Config(); aerr == nil || aerr.Field != "config.radio" {
		t.Errorf("bogus radio: %v", aerr)
	}
	if _, aerr := (&SimConfigWire{Nodes: intp(-2)}).Config(); aerr == nil {
		t.Error("negative nodes accepted")
	}
	cfg, aerr := (&SimConfigWire{Nodes: intp(30), Seed: int64p(9)}).Config()
	if aerr != nil {
		t.Fatal(aerr)
	}
	if cfg.Nodes != 30 || cfg.Seed != 9 {
		t.Fatalf("config = %+v", cfg)
	}
	// nil wire = all simulator defaults.
	if _, aerr := (*SimConfigWire)(nil).Config(); aerr != nil {
		t.Fatal(aerr)
	}
}

func TestCaseStudyConfigWireValidation(t *testing.T) {
	cfg, aerr := (*CaseStudyConfigWire)(nil).Config()
	if aerr != nil {
		t.Fatal(aerr)
	}
	if cfg != core.DefaultCaseStudy() {
		t.Fatalf("nil wire = %+v, want paper defaults", cfg)
	}
	if _, aerr := (&CaseStudyConfigWire{LossGridPoints: intp(1)}).Config(); aerr == nil {
		t.Error("degenerate grid accepted")
	}
	if _, aerr := (&CaseStudyConfigWire{MinLossDB: floatp(95), MaxLossDB: floatp(55)}).Config(); aerr == nil {
		t.Error("inverted loss bounds accepted")
	}
}

func intp(v int) *int         { return &v }
func int64p(v int64) *int64   { return &v }
func floatp(v float64) *Float { f := Float(v); return &f }
