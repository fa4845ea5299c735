package query

import (
	"bytes"
	"testing"
)

// FuzzTaskResultEncode pins the result writer against its oracle on
// arbitrary wire input: any bytes DecodeTaskResult accepts must re-encode
// through EncodeTaskResult to exactly encoding/json's bytes for the
// method-less copy, and decode → encode must be a fixed point (the property
// the store and the distributed merge lean on when they stand a decoded
// result in for a computed one). The committed corpus in
// testdata/fuzz/FuzzTaskResultEncode holds real grid, replicas, lifetime and
// casestudy lines; run the fuzzer locally with
//
//	go test ./internal/query -run NONE -fuzz FuzzTaskResultEncode -fuzztime 30s
func FuzzTaskResultEncode(f *testing.F) {
	for _, seed := range taskResultSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTaskResult(data)
		if err != nil {
			return // rejection is fine
		}
		got, gerr := EncodeTaskResult(tr)
		want, werr := OracleJSON((*plainTaskResult)(&tr))
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("decoded %q: appender error %v, oracle error %v", data, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("decoded %q: appender bytes differ from encoding/json\n got: %s\nwant: %s", data, got, want)
		}
		back, err := DecodeTaskResult(got)
		if err != nil {
			t.Fatalf("encoded %q does not decode: %v", got, err)
		}
		again, err := EncodeTaskResult(back)
		if err != nil || !bytes.Equal(again, got) {
			t.Fatalf("decode → encode is not a fixed point:\n first: %s\nsecond: %s (err %v)", got, again, err)
		}
	})
}

// taskResultSeeds are the hand-written edge inputs both result fuzzers start
// from, next to the committed corpus of FuzzTaskResultEncode.
var taskResultSeeds = []string{
	`{"index":0,"metrics":{"tx_power_dbm":"-Inf","prx_dbm":"NaN","pr_bit":-0,"pr_e":5e-324,"pr_tf":1e21,"pr_cf":9.999999999999999e20,"expected_tx":"+Inf","contention":{"ncca":1e-7}}}`,
	`{"index":3,"label":"<b>&amp;</b>` + "\u2028\u2029\ufffd" + `\u0000\t","sim":{"seed":-9223372036854775808,"avg_power_w":"Inf"}}`,
	`{"index":1,"curves":[],"thresholds":null,"payload":{"sizes_bytes":[],"energy_j_per_bit":null}}`,
	`{"index":2,"casestudy":{"loss_grid_db":[],"power_uw":null,"level_used":[1,-2]}}`,
	`{"index":4,"lifetime":{"first_death_s":"+Inf","curve":[]}}`,
	`{"index":5,"scenario":{"result":null},"experiment":{"name":"x<y","tables":[{"Title":"t","Rows":[["a"]]}]}}`,
	`{"index":6,"label":"bad` + "\xff\xfe" + `utf8"}`,
	`{"index":7,"metrics":{"tx_power_dbm":"1.5"}}`,
}
