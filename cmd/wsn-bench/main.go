// Command wsn-bench runs the repository's tracked benchmark suite — the
// kernel table of internal/benchsuite: serial/parallel engine pairs and
// the hot-path micro-benchmarks of the zero-allocation simulation cores —
// and emits a machine-readable JSON report (ns/op, allocs/op, B/op per
// benchmark). `go test -bench 'Kernels/<name>'` at the repository root runs
// the same bodies.
//
// The committed BENCH_*.json files are the performance trajectory of the
// repository: each perf-focused PR regenerates the report and the next one
// diffs against it, so regressions surface as numbers rather than
// anecdotes.
//
// Usage:
//
//	wsn-bench                          # full suite to stdout
//	wsn-bench -out BENCH_PR6.json      # refresh the tracked baseline
//	wsn-bench -benchtime 100ms -quick  # CI smoke pass
//	wsn-bench -diff BENCH_PR6.json     # compare this run to the baseline
//	wsn-bench -count 6 -out BENCH_PR32.json  # median of six runs per kernel
//
// With -count N each kernel runs N times; the report records the median
// ns/op with the min and max, and the allocation figures of the median
// run, so one noisy run cannot move a recorded baseline.
//
// -diff is warn-only for wall-clock by design: it prints per-benchmark
// ratios and flags ns/op slowdowns beyond -warn (default 1.5x), but ns/op
// warnings never change the exit code, so noisy CI hosts cannot block
// merges on hardware-dependent numbers. Allocations are the stable
// cross-machine signal: with -failallocs, an allocs/op increase beyond the
// per-benchmark noise slack exits non-zero (the CI bench-smoke gate), and
// so does a baseline kernel the run should have produced but did not.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"testing"
	"time"

	"dense802154/internal/benchsuite"
	"dense802154/internal/buildinfo"
	"dense802154/internal/contention"
)

// benchResult is one benchmark's measurement in the JSON report. With
// -count N > 1, NsPerOp is the median of the N runs, NsPerOpMin and
// NsPerOpMax bound them, and the other figures are the median run's.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Runs        int     `json:"runs,omitempty"`
	NsPerOpMin  float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64 `json:"ns_per_op_max,omitempty"`
}

// summarize folds the runs of one kernel into its report entry.
func summarize(name string, runs []testing.BenchmarkResult) benchResult {
	ns := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	slices.SortFunc(runs, func(a, b testing.BenchmarkResult) int { return cmp.Compare(ns(a), ns(b)) })
	mid := runs[(len(runs)-1)/2]
	res := benchResult{
		Name:        name,
		Iterations:  mid.N,
		NsPerOp:     (ns(mid) + ns(runs[len(runs)/2])) / 2,
		AllocsPerOp: mid.AllocsPerOp(),
		BytesPerOp:  mid.AllocedBytesPerOp(),
	}
	if len(runs) > 1 {
		res.Runs = len(runs)
		res.NsPerOpMin, res.NsPerOpMax = ns(runs[0]), ns(runs[len(runs)-1])
	}
	return res
}

// report is the wsn-bench/v1 JSON document.
type report struct {
	Schema      string        `json:"schema"`
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	NumCPU      int           `json:"num_cpu"`
	Benchtime   string        `json:"benchtime"`
	Quick       bool          `json:"quick"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	benchtime := flag.Duration("benchtime", time.Second, "target run time per benchmark")
	quick := flag.Bool("quick", false, "shrink Monte-Carlo workloads for a smoke pass")
	runFilter := flag.String("run", "", "regexp selecting benchmarks by name")
	diff := flag.String("diff", "", "baseline JSON report to compare against")
	warn := flag.Float64("warn", 1.5, "ns/op slowdown ratio that triggers a warning with -diff")
	failAllocs := flag.Bool("failallocs", false, "exit non-zero when -diff finds an allocs/op regression or a missing kernel (ns/op stays warn-only)")
	count := flag.Int("count", 1, "run each kernel this many times and record the median ns/op with the min and max")
	testing.Init()
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("wsn-bench"))
		return
	}
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		fmt.Fprintf(os.Stderr, "wsn-bench: set benchtime: %v\n", err)
		os.Exit(1)
	}

	var filter *regexp.Regexp
	if *runFilter != "" {
		var err error
		if filter, err = regexp.Compile(*runFilter); err != nil {
			fmt.Fprintf(os.Stderr, "wsn-bench: bad -run: %v\n", err)
			os.Exit(1)
		}
	}

	rep := report{
		Schema:      "wsn-bench/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Benchtime:   benchtime.String(),
		Quick:       *quick,
	}
	for _, k := range benchsuite.Kernels(*quick) {
		if filter != nil && !filter.MatchString(k.Name) {
			continue
		}
		runs := make([]testing.BenchmarkResult, max(*count, 1))
		for i := range runs {
			contention.ResetCache() // fresh cache per run
			runs[i] = testing.Benchmark(k.F)
		}
		res := summarize(k.Name, runs)
		rep.Benchmarks = append(rep.Benchmarks, res)
		fmt.Fprintf(os.Stderr, "%-24s %12d it %14.0f ns/op %10d B/op %8d allocs/op",
			k.Name, res.Iterations, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		if res.Runs > 1 {
			fmt.Fprintf(os.Stderr, "  (median of %d, %.0f–%.0f)", res.Runs, res.NsPerOpMin, res.NsPerOpMax)
		}
		fmt.Fprintln(os.Stderr)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsn-bench: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "wsn-bench: write %s: %v\n", *out, err)
		os.Exit(1)
	}

	if *diff != "" {
		allocRegressions := compare(os.Stderr, *diff, rep, *warn, filter)
		if *failAllocs && allocRegressions > 0 {
			fmt.Fprintf(os.Stderr, "wsn-bench: failing: %d allocs/op regression(s) or missing kernel(s) vs %s\n", allocRegressions, *diff)
			os.Exit(1)
		}
	}
}

// compare prints this run against a baseline report to w and returns the
// number of allocs/op regressions beyond the per-benchmark noise slack,
// missing kernels included.
// ns/op warnings never affect the return value: wall-clock numbers are
// machine-dependent, so they inform reviewers rather than gate them;
// allocs/op increases are the strong signal (they are
// hardware-independent), and the caller may turn them into a failing exit.
//
// A baseline kernel the run did not produce — renamed or dropped from the
// table — would otherwise leave the gate unseen, so it prints as a
// "(missing)" row and counts as a regression, unless filter (the -run
// selection, nil when unset) excluded it on purpose.
func compare(w io.Writer, path string, cur report, warnRatio float64, filter *regexp.Regexp) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(w, "wsn-bench: read baseline: %v\n", err)
		return 0
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(w, "wsn-bench: parse baseline: %v\n", err)
		return 0
	}
	if base.Quick != cur.Quick {
		fmt.Fprintf(w, "wsn-bench: note: baseline quick=%v vs run quick=%v — ns/op ratios reflect workload size, not regressions\n",
			base.Quick, cur.Quick)
	}
	byName := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	fmt.Fprintf(w, "\n%-24s %14s %14s %8s %18s\n", "benchmark", "base ns/op", "now ns/op", "ratio", "allocs base→now")
	warned, allocRegressions := 0, 0
	for _, c := range cur.Benchmarks {
		b, ok := byName[c.Name]
		if !ok {
			fmt.Fprintf(w, "%-24s %14s %14.0f %8s %18s (new)\n", c.Name, "-", c.NsPerOp, "-", fmt.Sprintf("-→%d", c.AllocsPerOp))
			continue
		}
		delete(byName, c.Name)
		ratio := c.NsPerOp / b.NsPerOp
		mark := ""
		if base.Quick == cur.Quick && ratio > warnRatio {
			mark = "  WARN: slower"
			warned++
		}
		// Parallel benchmarks jitter by a couple of allocations with
		// goroutine scheduling; flag only beyond that noise floor.
		allocSlack := b.AllocsPerOp / 10
		if allocSlack < 2 {
			allocSlack = 2
		}
		if c.AllocsPerOp > b.AllocsPerOp+allocSlack {
			mark += "  REGRESSION: more allocs"
			warned++
			allocRegressions++
		}
		fmt.Fprintf(w, "%-24s %14.0f %14.0f %7.2fx %18s%s\n",
			c.Name, b.NsPerOp, c.NsPerOp, ratio, fmt.Sprintf("%d→%d", b.AllocsPerOp, c.AllocsPerOp), mark)
	}
	for _, b := range base.Benchmarks {
		if _, left := byName[b.Name]; !left || (filter != nil && !filter.MatchString(b.Name)) {
			continue
		}
		fmt.Fprintf(w, "%-24s %14.0f %14s %8s %18s (missing)\n", b.Name, b.NsPerOp, "-", "-", fmt.Sprintf("%d→-", b.AllocsPerOp))
		warned++
		allocRegressions++
	}
	if warned > 0 {
		fmt.Fprintf(w, "\nwsn-bench: %d finding(s) vs %s (%d allocs/op regression(s) or missing kernel(s))\n", warned, path, allocRegressions)
	} else {
		fmt.Fprintf(w, "\nwsn-bench: no regressions vs %s\n", path)
	}
	return allocRegressions
}
