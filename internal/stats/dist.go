// Package stats implements the statistical primitives the linkage
// disequilibrium pipeline is built on: the chi-square distribution,
// a streaming accumulator and the contingency table CLUMP scores.
// Everything is implemented from standard numerical algorithms
// (Lanczos log-gamma, series/continued-fraction incomplete gamma)
// using only the standard library.
package stats

import (
	"errors"
	"math"
)

// ErrNotConverged is returned when an iterative numerical routine fails
// to reach its tolerance within the iteration budget.
var ErrNotConverged = errors.New("stats: iteration did not converge")

// lgamma returns log |Gamma(x)| for x > 0 via the standard library.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

const (
	gammaEps    = 1e-14
	gammaMaxIts = 500
)

// lowerGammaSeries computes the regularized lower incomplete gamma
// P(a,x) by its power series, valid and fast for x < a+1.
func lowerGammaSeries(a, x float64) (float64, error) {
	if x <= 0 {
		return 0, nil
	}
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < gammaMaxIts; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			return sum * math.Exp(-x+a*math.Log(x)-lgamma(a)), nil
		}
	}
	return 0, ErrNotConverged
}

// upperGammaCF computes the regularized upper incomplete gamma Q(a,x)
// by Lentz's continued fraction, valid and fast for x >= a+1.
func upperGammaCF(a, x float64) (float64, error) {
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIts; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			return math.Exp(-x+a*math.Log(x)-lgamma(a)) * h, nil
		}
	}
	return 0, ErrNotConverged
}

// RegularizedGammaP returns P(a,x), the regularized lower incomplete
// gamma function, for a > 0, x >= 0.
func RegularizedGammaP(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return 0, errors.New("stats: RegularizedGammaP requires a > 0, x >= 0")
	}
	if x == 0 {
		return 0, nil
	}
	if x < a+1 {
		return lowerGammaSeries(a, x)
	}
	q, err := upperGammaCF(a, x)
	return 1 - q, err
}

// ChiSquareCDF returns P(X <= x) for X ~ chi-square with df degrees of
// freedom. df must be positive; x < 0 yields 0.
func ChiSquareCDF(x float64, df int) float64 {
	if df <= 0 {
		panic("stats: ChiSquareCDF requires df > 0")
	}
	if x <= 0 {
		return 0
	}
	p, err := RegularizedGammaP(float64(df)/2, x/2)
	if err != nil {
		// x deep in a tail; saturate rather than fail.
		if x > float64(df) {
			return 1
		}
		return 0
	}
	return p
}

// ChiSquareSurvival returns the upper-tail probability P(X > x), i.e.
// the p-value of an observed chi-square statistic x with df degrees of
// freedom.
func ChiSquareSurvival(x float64, df int) float64 {
	if df <= 0 {
		panic("stats: ChiSquareSurvival requires df > 0")
	}
	if x <= 0 {
		return 1
	}
	if x < float64(df)+1 {
		return 1 - ChiSquareCDF(x, df)
	}
	q, err := upperGammaCF(float64(df)/2, x/2)
	if err != nil {
		return 0
	}
	return q
}
