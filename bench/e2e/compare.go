package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

func readReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// side is one set of runs of the same code: a comma-separated list of
// report files.
type side []report

func readSide(list string) (side, error) {
	var s side
	for _, path := range strings.Split(list, ",") {
		r, err := readReport(path)
		if err != nil {
			return nil, err
		}
		s = append(s, r)
	}
	return s, nil
}

// metric returns the median of a metric over the side's runs and its
// spread: the quartile spread across runs when there are several, the
// run's own sub-window spread when there is one.
func (s side) metric(workload, name string) (value, float64, bool) {
	var vals []float64
	var v value
	for _, r := range s {
		w, ok := r.Workloads[workload]
		if !ok {
			return value{}, 0, false
		}
		if v, ok = w.Metrics[name]; !ok {
			return value{}, 0, false
		}
		vals = append(vals, v.Value)
	}
	if len(vals) == 1 {
		return v, spreadOf(v), true
	}
	v.Value = median(vals)
	return v, spread(vals), true
}

// spreadOf is a value's own repeatability estimate (0 when unknown).
func spreadOf(v value) float64 {
	if v.Spread == nil {
		return 0
	}
	return *v.Spread
}

// verdict classifies a relative change of b against a for one metric:
// unresolved when either side's spread exceeds the bound, regressed or
// improved when b moved by more than the bound in the worse or better
// direction, ok otherwise. fail_ratio has bound 0: any failure in b is a
// regression.
func verdict(name, better string, bound, change, spread, b float64) string {
	if name == "fail_ratio" {
		if b > 0 {
			return "regressed"
		}
		return "ok"
	}
	worse := change
	if better == "higher" {
		worse = -change
	}
	switch {
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	case worse < -bound:
		return "improved"
	}
	return "ok"
}

// compareReports prints one row per workload × end-to-end metric, applying
// the bounds of BENCHMARK.json to two sets of runs, and fails if any row
// regressed or is unresolved.
func compareReports(decl declaration, listA, listB string) error {
	a, err := readSide(listA)
	if err != nil {
		return err
	}
	b, err := readSide(listB)
	if err != nil {
		return err
	}
	// Bounded rows are the declared end-to-end metrics plus fail_ratio. The
	// client-side metrics declared per-layer (the names without a layer
	// prefix) follow as unbounded info rows.
	type row struct {
		name, better string
		bound        float64
		info         bool
	}
	rows := []row{{"fail_ratio", "lower", 0, false}}
	for _, m := range decl.EndToEnd {
		rows = append(rows, row{m.Name, m.Better, m.Bound, false})
	}
	for _, m := range decl.PerLayer {
		if !strings.Contains(m.Name, ".") {
			rows = append(rows, row{m.Name, m.Better, 0, true})
		}
	}
	fmt.Printf("%-12s %-18s %14s %14s %8s %6s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "spread", "verdict")
	bad, rowsSeen := 0, 0
	for _, w := range workloads {
		for _, m := range rows {
			va, sa, okA := a.metric(w.name, m.name)
			vb, sb, okB := b.metric(w.name, m.name)
			if !okA && !okB {
				continue
			}
			rowsSeen++
			if !okA || !okB {
				fmt.Printf("%-12s %-18s missing on one side\n", w.name, m.name)
				bad++
				continue
			}
			change := ratio(vb.Value-va.Value, va.Value)
			s := max(sa, sb)
			if m.info {
				fmt.Printf("%-12s %-18s %14.6g %14.6g %+7.1f%% %6s %7.3f  info\n", w.name, m.name, va.Value, vb.Value, 100*change, "-", s)
				continue
			}
			v := verdict(m.name, m.better, m.bound, change, s, vb.Value)
			fmt.Printf("%-12s %-18s %14.6g %14.6g %+7.1f%% %6.2f %7.3f  %s\n", w.name, m.name, va.Value, vb.Value, 100*change, m.bound, s, v)
			if v == "regressed" || v == "unresolved" {
				bad++
			}
		}
	}
	switch {
	case rowsSeen == 0:
		return fmt.Errorf("no workload in common")
	case bad > 0:
		return fmt.Errorf("%d rows regressed, unresolved or missing", bad)
	}
	return nil
}
