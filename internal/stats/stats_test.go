package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d, want 8", a.N())
	}
	if a.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if got, want := a.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", a.Min(), a.Max())
	}
	if got := a.Sum(); math.Abs(got-40) > 1e-12 {
		t.Fatalf("Sum = %v, want 40", got)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Fatal("empty accumulator must report zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(42)
	if a.Variance() != 0 {
		t.Fatal("single observation must have zero variance")
	}
	if a.Mean() != 42 {
		t.Fatal("mean of single observation")
	}
}

// Property: mean is within [min, max] and variance is non-negative.
func TestPropertyAccumulatorInvariants(t *testing.T) {
	f := func(xs []float64) bool {
		var a Accumulator
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
				a.Add(x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		return a.Mean() >= a.Min()-1e-9 && a.Mean() <= a.Max()+1e-9 && a.Variance() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProportion(t *testing.T) {
	var p Proportion
	for i := 0; i < 100; i++ {
		p.Observe(i < 16)
	}
	if p.Value() != 0.16 {
		t.Fatalf("Value = %v, want 0.16", p.Value())
	}
	if p.Trials() != 100 || p.Successes() != 16 {
		t.Fatal("counts")
	}
	if p.CI95() <= 0 || p.CI95() > 0.1 {
		t.Fatalf("CI95 = %v out of plausible range", p.CI95())
	}
}

func TestProportionEmpty(t *testing.T) {
	var p Proportion
	if p.Value() != 0 || p.CI95() != 0 {
		t.Fatal("empty proportion must report zeros")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile(nil) must be NaN")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Percentile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMeanHelper(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v, want 2", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) must be NaN")
	}
}

func TestPercentileDegenerate(t *testing.T) {
	// A single observation is every percentile of itself.
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
		if got := Percentile([]float64{7.5}, q); got != 7.5 {
			t.Errorf("Percentile([7.5], %v) = %v", q, got)
		}
	}
	// Out-of-range q clamps to the extremes instead of indexing out of
	// bounds.
	xs := []float64{1, 2, 3}
	if got := Percentile(xs, -0.5); got != 1 {
		t.Errorf("Percentile(q<0) = %v, want 1", got)
	}
	if got := Percentile(xs, 1.5); got != 3 {
		t.Errorf("Percentile(q>1) = %v, want 3", got)
	}
	// Empty input is NaN for every q, not a panic.
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if !math.IsNaN(Percentile(nil, q)) {
			t.Errorf("Percentile(nil, %v) not NaN", q)
		}
		if !math.IsNaN(Percentile([]float64{}, q)) {
			t.Errorf("Percentile([], %v) not NaN", q)
		}
	}
}

func TestAccumulatorSingleCIZero(t *testing.T) {
	// One observation: variance, standard error and CI95 are exactly zero
	// — never NaN — so a 1-replica simulation reports a zero-width
	// confidence interval.
	var a Accumulator
	a.Add(3.25)
	if v := a.Variance(); v != 0 || math.IsNaN(v) {
		t.Errorf("Variance after one Add = %v", v)
	}
	if ci := a.CI95(); ci != 0 || math.IsNaN(ci) {
		t.Errorf("CI95 after one Add = %v", ci)
	}
}
