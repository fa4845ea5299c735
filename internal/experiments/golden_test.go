package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dense802154/internal/stats"
)

// update regenerates the committed golden files from the current code:
//
//	go test ./internal/experiments -run TestExperimentGoldens -update
//
// Review the diff before committing — a golden change IS a behavior change.
var update = flag.Bool("update", false, "rewrite the golden files from this run")

// report mirrors the experiment query kind's payload (query.ExperimentReportWire),
// which this package cannot import.
type report struct {
	Name   string         `json:"name"`
	Tables []*stats.Table `json:"tables"`
}

// TestExperimentGoldens runs every registered driver at quickOpts() and
// compares its tables, encoded as the experiment query kind encodes them
// (encoding/json with HTML escaping off), byte for byte against
// testdata/<name>.golden.json.
func TestExperimentGoldens(t *testing.T) {
	for _, e := range All() {
		t.Run(e.Name, func(t *testing.T) {
			tables, err := e.Run(quickOpts())
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			enc.SetIndent("", "  ")
			if err := enc.Encode(report{Name: e.Name, Tables: tables}); err != nil {
				t.Fatalf("encode: %v", err)
			}
			got := buf.Bytes()
			path := filepath.Join("testdata", e.Name+".golden.json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("golden mismatch for %s:\n%s", e.Name, firstDiff(want, got))
			}
		})
	}
}

// firstDiff renders the first line where two golden encodings differ.
func firstDiff(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			return fmt.Sprintf("line %d:\n- %s\n+ %s", i+1, wl, gl)
		}
	}
	return "(lengths differ)"
}
