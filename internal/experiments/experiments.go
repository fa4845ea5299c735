// Package experiments contains one driver per table and figure of the
// paper, each regenerating the corresponding rows/series from this
// repository's implementations, plus the validation and extension
// experiments listed in DESIGN.md §4.
//
// Every driver returns stats.Tables; the experiment query kind carries them
// as JSON, and the repository's top-level benchmarks invoke the same
// drivers.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"dense802154/internal/contention"
	"dense802154/internal/stats"
)

// Options tune an experiment run.
type Options struct {
	// Quick shrinks Monte-Carlo runs and sweep grids so the full suite
	// finishes in seconds (used by tests); the defaults reproduce the
	// paper-scale figures.
	Quick bool
	// Seed drives all randomized components.
	Seed int64
	// Workers bounds the goroutines of every concurrent stage (model
	// sweeps, Monte-Carlo shards, curve points): 1 runs serially, 0 uses
	// runtime.NumCPU(). Results are identical at any worker count.
	Workers int
	// Context, when non-nil, cancels the driver's sweeps: paper-scale
	// runs started on behalf of a remote client (the HTTP service) stop
	// promptly with Context.Err() when the client disconnects. A nil
	// Context means context.Background().
	Context context.Context
}

// ctx returns the run context, defaulting to context.Background().
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// DefaultOptions returns the paper-scale settings.
func DefaultOptions() Options { return Options{Seed: 2005} }

// Experiment is one registered driver.
type Experiment struct {
	// Name is the CLI identifier (e.g. "fig6").
	Name string
	// Title is the paper artifact it reproduces.
	Title string
	// Description summarizes what is computed.
	Description string
	// Run executes the driver.
	Run func(Options) ([]*stats.Table, error)
}

var registry = map[string]Experiment{}

// register adds an experiment at init time.
func register(e Experiment) {
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("experiments: duplicate %q", e.Name))
	}
	registry[e.Name] = e
}

// All returns the registered experiments sorted by name.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names lists the registered experiment names sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ByName looks up one experiment.
func ByName(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// mcSuperframes returns the Monte-Carlo run length for the options.
func mcSuperframes(opt Options) int {
	if opt.Quick {
		return 12
	}
	return 80
}

// mcConfig returns the base Monte-Carlo contention configuration for the
// options: run length, seed and worker count.
func mcConfig(opt Options) contention.Config {
	return contention.Config{
		Superframes: mcSuperframes(opt),
		Seed:        opt.Seed,
		Workers:     opt.Workers,
	}
}
