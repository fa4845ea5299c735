package contention

import (
	"reflect"
	"runtime"
	"testing"
)

// statFields strips the Config echo (whose Workers field legitimately
// differs between runs) so results can be compared bit-for-bit.
func statFields(r Result) Result {
	r.Config = Config{}
	return r
}

func TestSimulateWorkerCountInvariance(t *testing.T) {
	base := Config{PayloadBytes: 120, TargetLoad: 0.42, Superframes: 24, Seed: 42}
	want := Simulate(withWorkers(base, 1))
	for _, w := range []int{2, 4, runtime.NumCPU(), 0} {
		got := Simulate(withWorkers(base, w))
		if !reflect.DeepEqual(statFields(got), statFields(want)) {
			t.Fatalf("workers=%d diverged:\n got %+v\nwant %+v", w, got, want)
		}
	}
}

func withWorkers(c Config, w int) Config {
	c.Workers = w
	return c
}

func TestBuildCurveWorkerCountInvariance(t *testing.T) {
	// The Fig. 6 construction: same seed must give byte-identical curves at
	// Workers = 1, 4 and NumCPU.
	loads := []float64{0.1, 0.3, 0.5, 0.7}
	base := Config{Superframes: 16, Seed: 2005}
	want := BuildCurve(50, loads, withWorkers(base, 1))
	for _, w := range []int{4, runtime.NumCPU()} {
		got := BuildCurve(50, loads, withWorkers(base, w))
		if !reflect.DeepEqual(got.TcontSec, want.TcontSec) ||
			!reflect.DeepEqual(got.NCCA, want.NCCA) ||
			!reflect.DeepEqual(got.PrCF, want.PrCF) ||
			!reflect.DeepEqual(got.PrCol, want.PrCol) {
			t.Fatalf("workers=%d produced a different Fig. 6 curve", w)
		}
	}
}

func TestSharedCacheServesIdenticalPointsOnce(t *testing.T) {
	ResetCache()
	defer ResetCache()
	base := Config{Superframes: 8, Seed: 7}
	s1 := NewMCSource(base)
	a := s1.Contention(120, 0.4)
	if CacheStats().Entries != 1 {
		t.Fatalf("cache len = %d after first point, want 1", CacheStats().Entries)
	}
	// A second source with the same base config — and any worker count —
	// must hit the shared entry rather than re-simulating.
	s2 := NewMCSource(withWorkers(base, 4))
	b := s2.Contention(120, 0.4)
	if CacheStats().Entries != 1 {
		t.Fatalf("cache len = %d after identical point, want 1 (re-simulated)", CacheStats().Entries)
	}
	if a != b {
		t.Fatalf("shared cache returned different stats: %+v vs %+v", a, b)
	}
	// A different load is a different point.
	s1.Contention(120, 0.6)
	if CacheStats().Entries != 2 {
		t.Fatalf("cache len = %d after second point, want 2", CacheStats().Entries)
	}
	// A different base config must not alias.
	s3 := NewMCSource(Config{Superframes: 8, Seed: 8})
	s3.Contention(120, 0.4)
	if CacheStats().Entries != 3 {
		t.Fatalf("cache len = %d after third point, want 3", CacheStats().Entries)
	}
}
