// Command e2e is the repository's end-to-end benchmark: it builds the real
// cmd/wsn-serve, launches fresh server processes for each workload, drives
// them over loopback HTTP from this one closed-loop load generator (at most
// two callers on two keep-alive connections), checks sampled responses
// byte for byte against in-process runs, and prints every metric by name
// with its unit. With -trace 1 it also replays the same request stream
// in-process through the handlers' public calls, timing each layer.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload grid-cold -seed 1 -seconds 10 -trace 0
//	cd bench && go run ./e2e -seed 1 -trace 1 -out /tmp/all.json
//	cd bench && go run ./e2e -compare results/seed1.json results/seed2.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics BENCHMARK.json declares (end-to-end ones, or the
// per-layer ones with -trace 1). -quick is the smoke test: every workload
// with 1 s windows and the traced replay, failing unless every declared
// metric of both lists is measured and no request failed. See
// bench/README.md for the metric dictionary and the workloads.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// setupRounds is how many times each workload's fleet is started and warmed
// up; setup_s is their median and the last fleet serves the window.
const setupRounds = 15

// declaredMetric is one metric of BENCHMARK.json (per-layer ones carry no
// bound).
type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declaration is the part of BENCHMARK.json the benchmark reads.
type declaration struct {
	RunSeconds int              `json:"run_seconds"`
	EndToEnd   []declaredMetric `json:"end_to_end"`
	PerLayer   []declaredMetric `json:"per_layer"`
}

func readDeclaration(root string) (declaration, error) {
	var d declaration
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return d, nil
}

// report is the full result of one invocation (-out).
type report struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Cores     int                        `json:"cores"`
	CPU       string                     `json:"cpu"`
	GoVersion string                     `json:"go_version"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "wsn-serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (cmd/wsn-serve) above the working directory")
		}
		dir = parent
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated requests")
		seconds  = flag.Float64("seconds", 0, "timed window per workload (0 = run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 adds the traced in-process replay and reports the per-layer metrics")
		quick    = flag.Bool("quick", false, "smoke test: 1 s traced windows, every declared metric required")
		out      = flag.String("out", "", "write the full JSON report to this file")
		traceDir = flag.String("tracedir", "", "directory for trace-<workload>.json (default .bench_build/traces under the root)")
		compare  = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *quick, *out, *traceDir, *compare); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced, quick bool, out, traceDir string, compare bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	decl, err := readDeclaration(root)
	if err != nil {
		return err
	}
	if compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two report files")
		}
		return compareReports(decl, flag.Arg(0), flag.Arg(1))
	}
	selected := workloads
	if name != "all" {
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	declared := decl.EndToEnd
	switch {
	case quick:
		seconds, traced = 1, true
		declared = slices.Concat(decl.EndToEnd, decl.PerLayer)
	case traced:
		declared = decl.PerLayer
	}
	if seconds <= 0 {
		seconds = float64(decl.RunSeconds)
	}
	if traceDir == "" {
		traceDir = filepath.Join(root, ".bench_build", "traces")
	}
	if traced {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
	}
	bin, err := buildServer(root, filepath.Join(root, ".bench_build"))
	if err != nil {
		return err
	}

	rep := report{
		Seed: seed, Seconds: seconds, Trace: traced,
		Cores: runtime.NumCPU(), CPU: cpuModel(), GoVersion: runtime.Version(),
		Workloads: map[string]*workloadReport{},
	}
	window := time.Duration(seconds * float64(time.Second))
	for _, w := range selected {
		r, err := runWorkload(bin, w, seed, window, traced, traceDir)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		rep.Workloads[w.name] = r
		printWorkload(w.name, r)
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return printResult(declared, selected, rep)
}

// runWorkload sets a workload up setupRounds times, runs its timed window on
// the last fleet and checks the sampled bytes. When traced, it also replays
// the same requests in process, whose bytes must match the sampled ones.
func runWorkload(bin string, w workload, seed int64, d time.Duration, traced bool, traceDir string) (*workloadReport, error) {
	var f fleet
	defer func() { f.stop() }()
	var setups []float64
	for k := 0; k < setupRounds; k++ {
		f.stop()
		start := time.Now()
		var err error
		if f, err = startFleet(bin, w.dist); err != nil {
			return nil, err
		}
		if err := warm(f, w, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "%s: set up %d times, window %v\n", w.name, setupRounds, d)
	win, err := runWindow(f, w, w.requests(seed), d)
	if err != nil {
		return nil, err
	}
	f.stop()
	verify(win.checks)
	var tr *traceResult
	if traced {
		if tr, err = tracedReplay(bin, w, seed, win, d/2); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: traced replay of %d requests\n", w.name, tr.requests)
	}
	checkFailed, firstCheck := failures(win.checks)
	r := &workloadReport{Metrics: map[string]value{}, SetupsS: setups}
	endToEnd(r, win, setups, checkFailed, firstCheck)
	fmt.Fprintf(os.Stderr, "%s: %d requests, %d byte checks, %d failed\n", w.name, r.Attempted, len(win.checks), r.Failed)
	if !traced {
		return r, nil
	}
	perLayer(r, win, tr)
	return r, writeTrace(filepath.Join(traceDir, "trace-"+w.name+".json"), w.name, seed, tr)
}

// tracedReplay replays the window's requests in process for up to budget,
// against two fresh dist workers for a dist workload.
func tracedReplay(bin string, w workload, seed int64, win *window, budget time.Duration) (*traceResult, error) {
	workers, peers := 2, []string(nil)
	if w.dist {
		wf, err := startWorkers(bin)
		if err != nil {
			return nil, err
		}
		defer wf.stop()
		workers, peers = 1, []string{wf[0].url, wf[1].url}
	}
	p, err := newPipeline(workers, peers)
	if err != nil {
		return nil, err
	}
	return replay(p, w, seed, len(win.obs), budget, win.checks)
}

// warm sends the workload's fixed warm-up requests; any failure aborts the
// set-up.
func warm(f fleet, w workload, seed int64) error {
	url := f[0].url + "/v2/query"
	if w.stream {
		url += "/stream"
	}
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	c := newClient(hc)
	for _, req := range w.warmup(seed) {
		if o := c.do(url, req, w.stream, nil); o.err != "" {
			return fmt.Errorf("warm-up: %s", o.err)
		}
	}
	return nil
}

func printWorkload(name string, r *workloadReport) {
	names := slices.Sorted(maps.Keys(r.Metrics))
	fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
	if r.FirstFailure != "" {
		fmt.Printf("  first failure: %s\n", r.FirstFailure)
	}
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Printf("  %-30s %14.6g %-9s", n, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Printf(" n=%d", v.Samples)
		}
		if v.Spread != nil {
			fmt.Printf(" spread=%.3f", *v.Spread)
		}
		fmt.Println()
	}
}

// printResult prints the closing JSON line with the declared metrics of
// every workload that ran. Metric names carry a "<workload>/" prefix when
// several workloads ran. It fails when a declared metric is missing (a
// non-finite value is never stored) or a workload was not correct.
func printResult(declared []declaredMetric, ran []workload, rep report) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	var problems []string
	for _, w := range ran {
		r := rep.Workloads[w.name]
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if !r.Correct {
			problems = append(problems, fmt.Sprintf("%s: %d of %d requests failed: %s", w.name, r.Failed, r.Attempted, r.FirstFailure))
		}
		for _, d := range declared {
			v, ok := r.Metrics[d.Name]
			if !ok || v.Unit != d.Unit {
				problems = append(problems, fmt.Sprintf("%s: declared metric %s (%s) not measured", w.name, d.Name, d.Unit))
				continue
			}
			key := d.Name
			if len(ran) > 1 {
				key = w.name + "/" + d.Name
			}
			res.Metrics[key] = metric{v.Value, v.Unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return nil
}
