package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"dense802154/internal/query"
	"dense802154/internal/store"
	"dense802154/internal/wire"
)

// The service decodes attacker-controlled JSON. These fuzz targets pin the
// decoder's crash-safety contract: malformed bodies, hostile numbers and
// absent fields must produce a structured error or a defaulted value —
// never a panic. Seed corpora live in testdata/fuzz/<Target>/; run the
// fuzzers locally with
//
//	go test ./internal/service -fuzz FuzzParamsWireDecode -fuzztime 30s

// strictDecode is decodeJSON's strict decoder (unknown-field rejection,
// trailing-garbage detection) without the HTTP plumbing.
func strictDecode(data []byte, dst any) error {
	return wire.DecodeStrict(bytes.NewReader(data), dst)
}

// FuzzFloatRoundTrip: any byte string the Float decoder accepts must
// re-encode and decode back to the identical bits — including ±Inf and NaN.
func FuzzFloatRoundTrip(f *testing.F) {
	for _, seed := range []string{
		`1.5`, `-0`, `1e308`, `-1e-308`, `"+Inf"`, `"-Inf"`, `"NaN"`, `"Inf"`,
		`"1.25"`, `3.141592653589793`, `""`, `"x"`, `[1]`, `{`, `5e-324`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v Float
		if err := json.Unmarshal(data, &v); err != nil {
			return // rejection is fine; panics are not
		}
		enc, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-encode: %v", data, err)
		}
		var back Float
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-encoded %q → %q does not decode: %v", data, enc, err)
		}
		if math.Float64bits(float64(back)) != math.Float64bits(float64(v)) {
			t.Fatalf("round-trip %q → %v → %q → %v changed bits", data, float64(v), enc, float64(back))
		}
	})
}

// FuzzParamsWireDecode: the evaluate/batch request codec must never panic,
// and any body it accepts must materialize into validated core.Params (or a
// structured *Error) — defaulting included.
func FuzzParamsWireDecode(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"payload_bytes":60,"load":0.25}`,
		`{"load":"+Inf"}`,
		`{"path_loss_db":"NaN","tx_level":-1}`,
		`{"superframe":{"bo":6,"so":6},"contention":{"source":"approx"}}`,
		`{"contention":{"source":"montecarlo","superframes":12,"seed":7,"arrival":"at-beacon"}}`,
		`{"radio":"cc2420-improved","ber":"awgn","n_max":100}`,
		`{"wakeup_lead_ns":-1}`,
		`{"beacon_bytes":0}`,
		`{"payload_bytes":null}`,
		`{"unknown_field":1}`,
		`{"workers":9999999}`,
		`{"load":1e999}`,
		`{} trailing`,
		`[{"payload_bytes":1}]`,
		`{"superframe":{"bo":255,"so":255}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var pw ParamsWire
		if err := strictDecode(data, &pw); err != nil {
			return
		}
		p, aerr := pw.Params()
		if aerr != nil {
			if aerr.Message == "" {
				t.Fatalf("empty validation error for %q", data)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted body %q produced invalid params: %v", data, err)
		}
	})
}

// FuzzSimConfigWireDecode: the /v1/simulate codec must never panic and must
// bound-check every accepted field.
func FuzzSimConfigWireDecode(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"nodes":100,"superframes":20,"seed":1}`,
		`{"nodes":0}`,
		`{"nodes":10001}`,
		`{"min_loss_db":"+Inf","max_loss_db":"-Inf"}`,
		`{"min_loss_db":95,"max_loss_db":55}`,
		`{"transmit_prob":"NaN"}`,
		`{"superframe":{"bo":3,"so":9}}`,
		`{"radio":"bogus"}`,
		`{"payload_bytes":124}`,
		`{"max_packet_superframes":0,"low_power_listen":true}`,
		`{"target_prx_dbm":-87,"n_max":5,"beacon_bytes":30}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sw SimConfigWire
		if err := strictDecode(data, &sw); err != nil {
			return
		}
		cfg, aerr := (&sw).Config()
		if aerr != nil {
			if aerr.Message == "" {
				t.Fatalf("empty validation error for %q", data)
			}
			return
		}
		// Accepted configs must stay inside the wire bounds after
		// defaulting (a panic or a bound escape here would let a client
		// pin a worker forever).
		if cfg.Nodes < 0 || cfg.Nodes > 10000 {
			t.Fatalf("accepted body %q produced %d nodes", data, cfg.Nodes)
		}
		if cfg.Superframes < 0 || cfg.Superframes > 100000 {
			t.Fatalf("accepted body %q produced %d superframes", data, cfg.Superframes)
		}
		if sw.TransmitProb != nil && !(cfg.TransmitProb >= 0 && cfg.TransmitProb <= 1) {
			t.Fatalf("accepted body %q produced transmit prob %v", data, cfg.TransmitProb)
		}
	})
}

// FuzzQueryDecode: the v2 unified-query decoder must never panic, must
// reject NaN/Inf grid inputs and unknown kinds with structured errors, and
// any body it compiles must have materialized every spec into validated
// model inputs (Compile runs the full builder chain).
func FuzzQueryDecode(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"kind":"evaluate"}`,
		`{"kind":"evaluate","params":{"payload_bytes":60,"load":0.25}}`,
		`{"version":2,"kind":"batch","batch":[{},{"payload_bytes":20}]}`,
		`{"version":1,"kind":"evaluate"}`,
		`{"kind":"bogus"}`,
		`{"kind":"casestudy","config":{"nodes":1600,"loss_grid_points":11}}`,
		`{"kind":"pathloss-sweep","losses":{"from":55,"to":95,"points":81}}`,
		`{"kind":"pathloss-sweep","losses":{"values":["NaN"]}}`,
		`{"kind":"pathloss-sweep","losses":{"from":"-Inf","to":"+Inf","points":5}}`,
		`{"kind":"thresholds","losses":{"from":60,"to":80,"step":0.5}}`,
		`{"kind":"payload-sweep","payloads":{"from":5,"to":123,"step":2}}`,
		`{"kind":"payload-sweep","payloads":{"values":[20,60,120]}}`,
		`{"kind":"payload-sweep","payloads":{"from":0,"to":9223372036854775807}}`,
		`{"kind":"payload-sweep","payloads":{"from":9223372036854775806,"to":9223372036854775807,"step":5}}`,
		`{"kind":"simulate","sim":{"nodes":100,"superframes":20,"seed":1}}`,
		`{"kind":"simulate","sim":{"min_loss_db":"NaN"}}`,
		`{"kind":"replicas","sim":{"nodes":10},"replicas":4096}`,
		`{"kind":"replicas","replicas":4097}`,
		`{"kind":"lifetime","sim":{"nodes":8,"superframes":2},"lifetime":{"capacity_j":0.3,"epoch_superframes":4},"replicas":2}`,
		`{"kind":"lifetime","lifetime":{"capacity_j":"NaN"}}`,
		`{"kind":"lifetime","lifetime":{"threshold_j":-0.5}}`,
		`{"kind":"lifetime","lifetime":{"supply":"harvester","harvest_uw":100,"partition_frac":0.25}}`,
		`{"kind":"lifetime","lifetime":{"supply":"fusion"}}`,
		`{"kind":"simulate","lifetime":{"capacity_j":1}}`,
		`{"kind":"lifetime","params":{"payload_bytes":60}}`,
		`{"kind":"scenario","scenario":"baseline-case-study","diff":true}`,
		`{"kind":"scenario","scenario":"nope"}`,
		`{"kind":"experiment","experiment":"fig8","quick":true,"seed":7}`,
		`{"kind":"evaluate","replicas":1}`,
		`{"kind":"evaluate","params":{"load":"+Inf"}}`,
		`{"kind":"batch","batch":[]}`,
		`{"kind":"grid","params":{"contention":{"superframes":8,"seed":3}},"losses":{"values":[55,70]},"payloads":{"values":[20,100]}}`,
		`{"kind":"grid","losses":{"from":55,"to":95,"points":5},"bos":{"values":[6,9]},"nodes":{"values":[10,50]}}`,
		`{"kind":"grid","losses":{"from":40,"to":240,"points":201},"payloads":{"from":5,"to":123,"step":1}}`,
		`{"kind":"grid","losses":{"values":["NaN"]}}`,
		`{"kind":"grid","bos":{"values":[0]},"replicas":2}`,
		`{"kind":"evaluate","timeout_ms":1000}`,
		`{"kind":"evaluate","timeout_ms":-5}`,
		`{"kind":"replicas","sim":{"nodes":10},"replicas":4,"timeout_ms":9223372036854775807}`,
		`{"unknown":1}`,
		`{"kind":"evaluate"} trailing`,
		`{"kind":"evaluate","workers":8}`,
		`{"kind":"evaluate","trace":true}`,
		`{"kind":"evaluate","workers":4,"trace":true,"timeout_ms":60000}`,
		`{"version":2,"kind":"grid","losses":{"values":[55,70]},"workers":16,"trace":true}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var q query.Query
		if err := query.DecodeQuery(data, nil, &q); err != nil {
			return // rejection is fine; panics are not
		}
		// Content-key stability (internal/store leans on this): the
		// canonical form is deterministic, and the key-neutral fields —
		// workers, trace, timeout_ms — never change it or the derived key.
		can1, ok1 := q.Canonical()
		can2, ok2 := q.Canonical()
		if ok1 != ok2 || !bytes.Equal(can1, can2) {
			t.Fatalf("canonical form of %q not deterministic", data)
		}
		if ok1 {
			neutral := q
			neutral.Workers = q.Workers + 3
			neutral.Trace = !q.Trace
			neutral.TimeoutMS = q.TimeoutMS + 1000
			can3, ok3 := neutral.Canonical()
			if !ok3 || !bytes.Equal(can1, can3) {
				t.Fatalf("key-neutral fields changed the canonical form of %q", data)
			}
			k1, kok1 := store.KeyFor(q)
			k3, kok3 := store.KeyFor(neutral)
			if !kok1 || !kok3 || k1 != k3 {
				t.Fatalf("key-neutral fields changed the content key of %q", data)
			}
		}
		plan, err := query.Compile(q)
		if err != nil {
			var aerr *Error
			if errors.As(err, &aerr) && aerr.Message == "" {
				t.Fatalf("empty validation error for %q", data)
			}
			return
		}
		// A compiled plan must have a known kind and at least one task,
		// and unknown/empty kinds must never compile.
		if plan.NumTasks() < 1 {
			t.Fatalf("accepted body %q produced %d tasks", data, plan.NumTasks())
		}
		known := false
		for _, k := range query.Kinds() {
			if q.Kind == k {
				known = true
				break
			}
		}
		if !known {
			t.Fatalf("accepted body %q with unknown kind %q", data, q.Kind)
		}
		if q.Version != 0 && q.Version != query.Version {
			t.Fatalf("accepted body %q with version %d", data, q.Version)
		}
		// Grid axes must have expanded to finite points within bounds.
		if q.Losses != nil {
			grid, aerr := q.Losses.Grid("losses", query.DefaultLossGrid)
			if aerr != nil {
				t.Fatalf("compiled body %q but its axis fails to expand: %v", data, aerr)
			}
			if len(grid) > query.MaxGridPoints {
				t.Fatalf("accepted body %q with %d grid points", data, len(grid))
			}
			for _, x := range grid {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("accepted body %q with non-finite grid point %v", data, x)
				}
			}
		}
	})
}

// FuzzCaseStudyConfigWireDecode: the /v1/casestudy codec must never panic.
func FuzzCaseStudyConfigWireDecode(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"nodes":1600,"channels":16}`,
		`{"nodes":-1}`,
		`{"min_loss_db":60,"max_loss_db":60}`,
		`{"loss_grid_points":1}`,
		`{"data_bytes_per_second":"+Inf"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cw CaseStudyConfigWire
		if err := strictDecode(data, &cw); err != nil {
			return
		}
		if _, aerr := (&cw).Config(); aerr != nil && aerr.Message == "" {
			t.Fatalf("empty validation error for %q", data)
		}
	})
}
