package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentIncrementScrape hammers every metric kind from many
// goroutines while scraping concurrently; under -race this proves the
// registry and all hot paths are race-free, and afterwards the totals must
// be exact (no lost updates).
func TestConcurrentIncrementScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_level", "level")
	h := r.Histogram("test_latency_seconds", "latency", 0.001, 0.01, 0.1, 1)
	vec := r.CounterVec("test_routed_total", "routed", "route")
	var mg MaxGauge
	r.RegisterMaxGauge("test_depth_max", "depth", &mg)

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			route := vec.With("r" + string(rune('a'+w%2)))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%100) / 100)
				route.Inc()
				mg.Observe(int64(i))
			}
		}(w)
	}
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if _, err := ParseText(&buf); err != nil {
				t.Errorf("mid-flight scrape does not parse: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	const total = workers * perWorker
	if got := c.Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != total {
		t.Errorf("histogram count = %d, want %d", got, total)
	}
	if got := mg.Value(); got != perWorker-1 {
		t.Errorf("max gauge = %d, want %d", got, perWorker-1)
	}
	sum := vec.With("ra").Value() + vec.With("rb").Value()
	if sum != total {
		t.Errorf("vec sum = %d, want %d", sum, total)
	}
}

// TestEncoderGolden pins the full exposition format byte-for-byte,
// including label escaping (backslash, quote, newline), family sorting,
// series sorting within a vec, histogram suffix layout and float
// rendering. Any byte-level drift in the encoder breaks scrape diffing and
// must show up here.
func TestEncoderGolden(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("zz_requests_total", "Requests by route.", "route", "code")
	vec.With(`POST /v2/query`, "200").Add(7)
	vec.With("esc\\ape\"q\nuote", "500").Inc()
	h := r.Histogram("aa_seconds", "A histogram with \\ and\nnewline help.", 0.25, 0.5)
	h.Observe(0.1)
	h.Observe(0.25) // boundary: le buckets are inclusive
	h.Observe(9)
	r.ConstGauge("mm_build_info", "Build info.", 1, Label{"version", "(devel)"})
	r.GaugeFunc("mm_uptime_seconds", "Uptime.", func() float64 { return 1.5 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# HELP aa_seconds A histogram with \\ and\nnewline help.`,
		`# TYPE aa_seconds histogram`,
		`aa_seconds_bucket{le="0.25"} 2`,
		`aa_seconds_bucket{le="0.5"} 2`,
		`aa_seconds_bucket{le="+Inf"} 3`,
		`aa_seconds_sum 9.35`,
		`aa_seconds_count 3`,
		`# HELP mm_build_info Build info.`,
		`# TYPE mm_build_info gauge`,
		`mm_build_info{version="(devel)"} 1`,
		`# HELP mm_uptime_seconds Uptime.`,
		`# TYPE mm_uptime_seconds gauge`,
		`mm_uptime_seconds 1.5`,
		`# HELP zz_requests_total Requests by route.`,
		`# TYPE zz_requests_total counter`,
		`zz_requests_total{route="POST /v2/query",code="200"} 7`,
		`zz_requests_total{route="esc\\ape\"q\nuote",code="500"} 1`,
		``,
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("encoding mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Byte stability: a second scrape of unchanged state is identical.
	var again bytes.Buffer
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two scrapes of unchanged state differ")
	}
}

// TestHistogramBucketProperty is a randomized property test of bucket
// placement: for random bound layouts and random observations, every
// cumulative bucket must equal the count of observations ≤ its bound,
// _count must match the total, and _sum the float sum.
func TestHistogramBucketProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nb := 1 + rng.Intn(6)
		bounds := make([]float64, nb)
		x := rng.Float64() * 2
		for i := range bounds {
			bounds[i] = x
			x += 0.01 + rng.Float64()
		}
		h := NewHistogram(bounds...)
		n := 1 + rng.Intn(200)
		obs := make([]float64, n)
		for i := range obs {
			switch rng.Intn(4) {
			case 0: // exactly on a bound: must land in that bucket (≤)
				obs[i] = bounds[rng.Intn(nb)]
			case 1: // beyond the last bound: +Inf bucket only
				obs[i] = bounds[nb-1] + 1 + rng.Float64()
			default:
				obs[i] = rng.Float64() * (bounds[nb-1] + 1)
			}
			h.Observe(obs[i])
		}
		samples := h.snapshot(nil)
		if len(samples) != nb+3 {
			t.Fatalf("trial %d: %d samples, want %d", trial, len(samples), nb+3)
		}
		wantSum := 0.0
		for _, v := range obs {
			wantSum += v
		}
		for i, b := range bounds {
			want := 0
			for _, v := range obs {
				if v <= b {
					want++
				}
			}
			if got := samples[i].Value; got != float64(want) {
				t.Errorf("trial %d: bucket le=%v = %v, want %d", trial, b, got, want)
			}
		}
		if inf := samples[nb].Value; inf != float64(n) {
			t.Errorf("trial %d: +Inf bucket = %v, want %d", trial, inf, n)
		}
		if sum := samples[nb+1].Value; math.Abs(sum-wantSum) > 1e-9*math.Max(1, math.Abs(wantSum)) {
			t.Errorf("trial %d: sum = %v, want %v", trial, sum, wantSum)
		}
		if cnt := samples[nb+2].Value; cnt != float64(n) {
			t.Errorf("trial %d: count = %v, want %d", trial, cnt, n)
		}
	}
}

// TestNewHistogramRejectsBadBounds covers the panic contract.
func TestNewHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{
		{1, 1},
		{2, 1},
		{math.NaN()},
		{math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

// TestParseRoundTrip: encode → parse → encode must be byte identity, and
// the parser must reject structural violations.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("rt_requests_total", "Requests.", "route")
	vec.With("GET /metrics").Add(3)
	vec.With(`q"uo\te` + "\n").Inc()
	h := r.Histogram("rt_wait_seconds", "Wait.", 0.001, 0.1)
	h.Observe(0.0005)
	h.Observe(5)
	r.Gauge("rt_in_flight", "In flight.").Set(2)

	var first bytes.Buffer
	if err := r.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, first.String())
	}
	var second bytes.Buffer
	if err := EncodeFamilies(&second, fams); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("round trip not byte-identical:\n--- first ---\n%s\n--- second ---\n%s", first.String(), second.String())
	}

	bad := []struct{ name, text string }{
		{"sample without family", "foo 1\n"},
		{"type before help", "# TYPE foo counter\n"},
		{"duplicate series", "# HELP foo f\n# TYPE foo counter\nfoo 1\nfoo 2\n"},
		{"unknown type", "# HELP foo f\n# TYPE foo summary\n"},
		{"histogram without +Inf", "# HELP foo f\n# TYPE foo histogram\nfoo_bucket{le=\"1\"} 1\nfoo_count 1\n"},
		{"non-cumulative buckets", "# HELP foo f\n# TYPE foo histogram\nfoo_bucket{le=\"1\"} 5\nfoo_bucket{le=\"+Inf\"} 3\nfoo_count 3\n"},
		{"count disagrees with +Inf", "# HELP foo f\n# TYPE foo histogram\nfoo_bucket{le=\"+Inf\"} 3\nfoo_count 4\n"},
		{"suffix on counter", "# HELP foo f\n# TYPE foo counter\nfoo_bucket{le=\"1\"} 1\n"},
	}
	for _, tc := range bad {
		if _, err := ParseText(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s: parse accepted invalid input", tc.name)
		}
	}
}

// TestRegistryConflicts pins the duplicate-registration contract: matching
// metadata appends a collector, conflicting metadata panics.
func TestRegistryConflicts(t *testing.T) {
	r := NewRegistry()
	var a, b Counter
	a.Add(2)
	b.Add(3)
	r.RegisterCounter("dup_total", "d", &a)
	r.RegisterCounter("dup_total", "d", &b) // same metadata: allowed, two samples
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\ndup_total "); got != 2 {
		t.Errorf("want 2 dup_total samples, got %d in:\n%s", got, buf.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting registration did not panic")
		}
	}()
	r.CounterFunc("dup_total", "different help", func() float64 { return 0 })
}

// TestVecWithExistingSeriesAllocFree: With on a series that exists builds
// its key on the stack and allocates nothing, for counter and histogram
// vecs of one and two labels alike, and it returns the series the first
// With created, also for a key longer than the stack buffer.
func TestVecWithExistingSeriesAllocFree(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_requests_total", "requests", "route", "code")
	hv := r.HistogramVec("test_duration_seconds", "duration", []float64{0.1, 1}, "route")
	route := "POST /v2/query"
	cv.With(route, "200")
	hv.With(route)
	if allocs := testing.AllocsPerRun(100, func() {
		cv.With(route, "200").Inc()
		hv.With(route).Observe(0.5)
	}); allocs != 0 {
		t.Errorf("With on existing series allocated %v per call pair, want 0", allocs)
	}
	for _, r := range []string{route, strings.Repeat("r", 2*keyBuf)} {
		if c, h := cv.With(r, "200"), hv.With(r); cv.With(r, "200") != c || hv.With(r) != h {
			t.Fatalf("With(%q) resolved to a new series", r)
		}
	}
	if n := len(cv.collect()); n != 2 {
		t.Fatalf("counter vec holds %d series, want 2", n)
	}
}
