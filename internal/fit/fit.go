// Package fit implements the small regression toolbox the reproduction
// needs: ordinary least-squares lines, the exponential regression used to
// derive the paper's bit-error model (eq. 1) from test-bench data, and a
// curve-crossing finder used to locate the transmit-power switching
// thresholds of Fig. 7.
package fit

import (
	"errors"
	"math"
)

// ErrDegenerate is returned when a fit is requested on data that does not
// determine a unique solution (too few points or zero variance in x).
var ErrDegenerate = errors.New("fit: degenerate input")

// Line is a least-squares line y = Slope*x + Intercept with coefficient of
// determination R2.
type Line struct {
	Slope, Intercept float64
	R2               float64
}

// Linear fits y = a*x + b by ordinary least squares.
func Linear(x, y []float64) (Line, error) {
	if len(x) != len(y) {
		return Line{}, errors.New("fit: length mismatch")
	}
	n := float64(len(x))
	if len(x) < 2 {
		return Line{}, ErrDegenerate
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Line{}, ErrDegenerate
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 1.0
	if syy > 0 {
		ssRes := syy - slope*sxy
		r2 = 1 - ssRes/syy
	}
	return Line{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// Exponential is a fit y = A * exp(B*x) obtained by log-linear regression.
type Exponential struct {
	A, B float64
	R2   float64 // in log space
}

// Eval evaluates the fitted model at x.
func (e Exponential) Eval(x float64) float64 { return e.A * math.Exp(e.B*x) }

// FitExponential fits y = A*exp(B*x) to strictly positive y values by linear
// regression on (x, ln y). This mirrors the exponential regression of the
// paper's Fig. 4, where the measured bit error rate is fitted against the
// received power in dBm.
func FitExponential(x, y []float64) (Exponential, error) {
	if len(x) != len(y) {
		return Exponential{}, errors.New("fit: length mismatch")
	}
	logy := make([]float64, 0, len(y))
	xs := make([]float64, 0, len(x))
	for i := range y {
		if y[i] > 0 {
			xs = append(xs, x[i])
			logy = append(logy, math.Log(y[i]))
		}
	}
	line, err := Linear(xs, logy)
	if err != nil {
		return Exponential{}, err
	}
	return Exponential{A: math.Exp(line.Intercept), B: line.Slope, R2: line.R2}, nil
}

// Crossing locates the first x at which curve y1 crosses curve y2, assuming
// both are sampled at the same strictly increasing x grid. The crossing
// point is linearly interpolated. ok is false when the curves never cross
// inside the grid.
func Crossing(x, y1, y2 []float64) (xc float64, ok bool) {
	if len(x) < 2 || len(x) != len(y1) || len(x) != len(y2) {
		return 0, false
	}
	d0 := y1[0] - y2[0]
	for i := 1; i < len(x); i++ {
		d1 := y1[i] - y2[i]
		if d0 == 0 {
			return x[i-1], true
		}
		if (d0 < 0 && d1 >= 0) || (d0 > 0 && d1 <= 0) {
			// Linear interpolation between samples i-1 and i.
			t := d0 / (d0 - d1)
			return x[i-1] + t*(x[i]-x[i-1]), true
		}
		d0 = d1
	}
	return 0, false
}
