package fit

import (
	"math"
	"math/rand"
	"testing"
)

func TestLinearExact(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 3*v - 2
	}
	line, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(line.Slope-3) > 1e-12 || math.Abs(line.Intercept+2) > 1e-12 {
		t.Fatalf("fit = %+v, want slope 3 intercept -2", line)
	}
	if math.Abs(line.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v, want 1", line.R2)
	}
}

func TestLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x, y []float64
	for i := 0; i < 500; i++ {
		xi := float64(i) / 10
		x = append(x, xi)
		y = append(y, -0.659*xi+4+rng.NormFloat64()*0.01)
	}
	line, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(line.Slope+0.659) > 0.01 {
		t.Fatalf("slope = %v, want ≈ -0.659", line.Slope)
	}
	if line.R2 < 0.99 {
		t.Fatalf("R2 = %v, want > 0.99", line.R2)
	}
}

func TestLinearDegenerate(t *testing.T) {
	if _, err := Linear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point must fail")
	}
	if _, err := Linear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("zero x-variance must fail")
	}
	if _, err := Linear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch must fail")
	}
}

func TestLinearConstantY(t *testing.T) {
	line, err := Linear([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if line.Slope != 0 || line.Intercept != 5 || line.R2 != 1 {
		t.Fatalf("constant fit = %+v", line)
	}
}

func TestFitExponentialRecoversPaperStyleModel(t *testing.T) {
	// Synthesize data from an eq.(1)-style model:
	// BER = A*exp(B*PRx) with B = -0.659 (PRx in dBm, so BER falls as the
	// received power rises: PRx more negative => larger BER).
	a, b := 2.35e-30, -0.659
	var x, y []float64
	for p := -94.0; p <= -85.0; p += 0.5 {
		x = append(x, p)
		y = append(y, a*math.Exp(b*p))
	}
	e, err := FitExponential(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.B-b) > 1e-9 {
		t.Fatalf("B = %v, want %v", e.B, b)
	}
	if math.Abs(math.Log(e.A)-math.Log(a)) > 1e-6 {
		t.Fatalf("A = %v, want %v", e.A, a)
	}
	// Eval round-trip.
	if got, want := e.Eval(-90), a*math.Exp(b*-90); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
}

func TestFitExponentialSkipsNonPositive(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{math.Exp(1), 0, math.Exp(3), -5}
	e, err := FitExponential(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.B-1) > 1e-9 {
		t.Fatalf("B = %v, want 1", e.B)
	}
}

func TestFitExponentialAllNonPositive(t *testing.T) {
	if _, err := FitExponential([]float64{1, 2}, []float64{0, -1}); err == nil {
		t.Fatal("expected error for all-non-positive y")
	}
}

func TestCrossingSimple(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y1 := []float64{0, 1, 2, 3}   // y = x
	y2 := []float64{3, 2, 1, 0}   // y = 3 - x
	xc, ok := Crossing(x, y1, y2) // cross at 1.5
	if !ok || math.Abs(xc-1.5) > 1e-12 {
		t.Fatalf("crossing = (%v,%v), want 1.5", xc, ok)
	}
}

func TestCrossingNone(t *testing.T) {
	x := []float64{0, 1, 2}
	y1 := []float64{0, 1, 2}
	y2 := []float64{5, 6, 7}
	if _, ok := Crossing(x, y1, y2); ok {
		t.Fatal("no crossing expected")
	}
}

func TestCrossingAtSample(t *testing.T) {
	x := []float64{0, 1, 2}
	y1 := []float64{1, 1, 3}
	y2 := []float64{1, 2, 2} // equal at x=0
	xc, ok := Crossing(x, y1, y2)
	if !ok || xc != 0 {
		t.Fatalf("crossing = (%v, %v), want (0, true)", xc, ok)
	}
}

func TestCrossingBadInput(t *testing.T) {
	if _, ok := Crossing([]float64{1}, []float64{1}, []float64{1}); ok {
		t.Fatal("single sample cannot cross")
	}
	if _, ok := Crossing([]float64{1, 2}, []float64{1}, []float64{1, 2}); ok {
		t.Fatal("length mismatch must report !ok")
	}
}
