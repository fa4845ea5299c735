package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// writeBaseline stores rep as a baseline report file and returns its path.
func writeBaseline(t *testing.T, rep report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCompare diffs cur against base and returns the gating count and the
// printed report.
func runCompare(t *testing.T, base, cur report, filter *regexp.Regexp) (int, string) {
	t.Helper()
	var out bytes.Buffer
	n := compare(&out, writeBaseline(t, base), cur, 1.5, filter)
	return n, out.String()
}

func kernels(rs ...benchResult) report { return report{Benchmarks: rs} }

func TestCompareAllocSlackBoundary(t *testing.T) {
	// The slack is max(2, base/10): at the boundary passes, one over fails.
	for _, tc := range []struct {
		base, now int64
		want      int
	}{
		{0, 2, 0}, {0, 3, 1},
		{5, 7, 0}, {5, 8, 1},
		{19, 21, 0}, {19, 22, 1},
		{100, 110, 0}, {100, 111, 1},
		{1058, 1163, 0}, {1058, 1164, 1},
	} {
		base := kernels(benchResult{Name: "K", NsPerOp: 100, AllocsPerOp: tc.base})
		cur := kernels(benchResult{Name: "K", NsPerOp: 100, AllocsPerOp: tc.now})
		got, out := runCompare(t, base, cur, nil)
		if got != tc.want {
			t.Errorf("allocs %d→%d: compare = %d, want %d\n%s", tc.base, tc.now, got, tc.want, out)
		}
		if flagged := strings.Contains(out, "REGRESSION: more allocs"); flagged != (tc.want > 0) {
			t.Errorf("allocs %d→%d: REGRESSION mark = %v, want %v", tc.base, tc.now, flagged, tc.want > 0)
		}
	}
}

func TestCompareNewKernel(t *testing.T) {
	base := kernels(benchResult{Name: "Old", NsPerOp: 100, AllocsPerOp: 1})
	cur := kernels(
		benchResult{Name: "Old", NsPerOp: 100, AllocsPerOp: 1},
		benchResult{Name: "Fresh", NsPerOp: 100, AllocsPerOp: 500},
	)
	got, out := runCompare(t, base, cur, nil)
	if got != 0 {
		t.Fatalf("a new kernel gated: compare = %d\n%s", got, out)
	}
	if !strings.Contains(out, "Fresh") || !strings.Contains(out, "(new)") {
		t.Fatalf("no (new) row for Fresh:\n%s", out)
	}
	if !strings.Contains(out, "no regressions") {
		t.Fatalf("summary reports findings:\n%s", out)
	}
}

func TestCompareMissingKernel(t *testing.T) {
	base := kernels(
		benchResult{Name: "Kept", NsPerOp: 100, AllocsPerOp: 1},
		benchResult{Name: "Gone", NsPerOp: 100, AllocsPerOp: 1},
	)
	cur := kernels(benchResult{Name: "Kept", NsPerOp: 100, AllocsPerOp: 1})

	got, out := runCompare(t, base, cur, nil)
	if got != 1 {
		t.Fatalf("without -run: compare = %d, want 1\n%s", got, out)
	}
	if !strings.Contains(out, "Gone") || !strings.Contains(out, "(missing)") {
		t.Fatalf("without -run: no (missing) row for Gone:\n%s", out)
	}

	// A -run filter that excludes the kernel skipped it on purpose.
	got, out = runCompare(t, base, cur, regexp.MustCompile("^Kept$"))
	if got != 0 || strings.Contains(out, "(missing)") {
		t.Fatalf("-run ^Kept$: compare = %d, want 0 and no (missing) row\n%s", got, out)
	}

	// One that selects it should have produced it.
	got, out = runCompare(t, base, cur, regexp.MustCompile("Kept|Gone"))
	if got != 1 || !strings.Contains(out, "(missing)") {
		t.Fatalf("-run Kept|Gone: compare = %d, want 1 and a (missing) row\n%s", got, out)
	}
}

func TestCompareNsWarningsNeverGate(t *testing.T) {
	base := kernels(benchResult{Name: "K", NsPerOp: 100, AllocsPerOp: 4})
	cur := kernels(benchResult{Name: "K", NsPerOp: 10_000, AllocsPerOp: 4})
	got, out := runCompare(t, base, cur, nil)
	if got != 0 {
		t.Fatalf("a 100x ns/op slowdown gated: compare = %d\n%s", got, out)
	}
	if !strings.Contains(out, "WARN: slower") {
		t.Fatalf("no ns/op warning:\n%s", out)
	}
}

func TestCompareQuickMismatch(t *testing.T) {
	base := kernels(benchResult{Name: "K", NsPerOp: 100, AllocsPerOp: 4})
	cur := kernels(benchResult{Name: "K", NsPerOp: 10_000, AllocsPerOp: 4})
	cur.Quick = true
	got, out := runCompare(t, base, cur, nil)
	if got != 0 {
		t.Fatalf("compare = %d, want 0\n%s", got, out)
	}
	if !strings.Contains(out, "note: baseline quick=false vs run quick=true") {
		t.Fatalf("no quick/full note:\n%s", out)
	}
	if strings.Contains(out, "WARN") {
		t.Fatalf("ns/op warning across quick/full workloads:\n%s", out)
	}
}

// TestSummarizeMedianOfRuns: -count folds its runs into the median ns/op
// (the mean of the middle two for an even count), the min and max, and the
// median run's allocation figures; one run reports no spread.
func TestSummarizeMedianOfRuns(t *testing.T) {
	run := func(nsPerOp, allocs int64) testing.BenchmarkResult {
		return testing.BenchmarkResult{N: 10, T: time.Duration(10 * nsPerOp), MemAllocs: uint64(10 * allocs), MemBytes: uint64(10 * 8 * allocs)}
	}
	got := summarize("K", []testing.BenchmarkResult{run(400, 4), run(100, 1), run(300, 3), run(200, 2)})
	want := benchResult{Name: "K", Iterations: 10, NsPerOp: 250, AllocsPerOp: 2, BytesPerOp: 16, Runs: 4, NsPerOpMin: 100, NsPerOpMax: 400}
	if got != want {
		t.Fatalf("summarize = %+v, want %+v", got, want)
	}
	got = summarize("K", []testing.BenchmarkResult{run(300, 3), run(100, 1), run(200, 2)})
	if got.NsPerOp != 200 || got.AllocsPerOp != 2 || got.NsPerOpMin != 100 || got.NsPerOpMax != 300 {
		t.Fatalf("odd count: %+v", got)
	}
	if one := summarize("K", []testing.BenchmarkResult{run(100, 1)}); one.Runs != 0 || one.NsPerOpMin != 0 || one.NsPerOpMax != 0 || one.NsPerOp != 100 {
		t.Fatalf("single run reports a spread: %+v", one)
	}
}
