package lifetime_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"dense802154/internal/query"
)

// update regenerates the committed lifetime goldens from the current code:
//
//	go test ./internal/lifetime -run TestLifetimeGoldens -update
//
// Review the diff before committing — a golden change IS a behavior change.
var update = flag.Bool("update", false, "rewrite the golden files from this run")

func ptr[T any](v T) *T { return &v }

// goldenQueries are the lifetime shapes whose encoded ResultSets are pinned
// byte for byte: each exercises a different exit of the integrator.
var goldenQueries = []struct {
	name string
	q    query.Query
}{
	// The benchmark's shape: a CR2032 network of 24 nodes, integrated by
	// epoch sampling and fast-forward until the population is gone.
	{"cr2032-24", query.Query{
		Kind:     query.KindLifetime,
		Sim:      &query.SimConfigWire{Nodes: ptr(24), Seed: ptr(int64(1))},
		Replicas: 2,
	}},
	// A tiny battery: every node dies within a few live epochs.
	{"small-capacity-all-die", query.Query{
		Kind: query.KindLifetime,
		Sim:  &query.SimConfigWire{Nodes: ptr(8), Seed: ptr(int64(42))},
		Lifetime: &query.LifetimeWire{
			CapacityJ:        ptr(query.Float(0.5)),
			EpochSuperframes: ptr(4),
		},
		Replicas: 3,
	}},
	// No finite cell: one epoch characterizes a network that runs forever.
	{"harvester", query.Query{
		Kind:     query.KindLifetime,
		Sim:      &query.SimConfigWire{Nodes: ptr(12), Seed: ptr(int64(5))},
		Lifetime: &query.LifetimeWire{Supply: "harvester"},
	}},
	// The threshold eats the whole battery: dead on arrival, no epoch runs.
	{"threshold-at-capacity", query.Query{
		Kind: query.KindLifetime,
		Sim:  &query.SimConfigWire{Nodes: ptr(6), Seed: ptr(int64(3))},
		Lifetime: &query.LifetimeWire{
			CapacityJ:  ptr(query.Float(0.5)),
			ThresholdJ: ptr(query.Float(0.5)),
		},
	}},
	// A months-long battery watched for one hour only.
	{"horizon-capped", query.Query{
		Kind:     query.KindLifetime,
		Sim:      &query.SimConfigWire{Nodes: ptr(10), Seed: ptr(int64(8))},
		Lifetime: &query.LifetimeWire{HorizonHours: ptr(query.Float(1))},
		Replicas: 2,
	}},
}

// TestLifetimeGoldens runs each golden query through the unified query path
// and compares the encoded ResultSet byte for byte against testdata.
func TestLifetimeGoldens(t *testing.T) {
	for _, g := range goldenQueries {
		t.Run(g.name, func(t *testing.T) {
			q := g.q
			q.Workers = 2
			rs, err := query.Run(context.Background(), q)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got, err := rs.Encode()
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			path := filepath.Join("testdata", g.name+".golden.json")
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
				t.Errorf("golden mismatch for %s:\ngolden: %s\ngot:    %s", g.name, want, got)
			}
		})
	}
}
