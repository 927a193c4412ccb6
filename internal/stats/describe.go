package stats

import "math"

// Accumulator is a streaming mean/variance accumulator using Welford's
// algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of samples added so far.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean, or 0 before any samples.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the running unbiased sample variance.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the running sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest sample seen, or 0 before any samples.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample seen, or 0 before any samples.
func (a *Accumulator) Max() float64 { return a.max }

// Merge folds another accumulator into a (parallel reduction), using
// Chan et al.'s pairwise update so merged results equal a serial pass.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	delta := b.mean - a.mean
	a.m2 += b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(n)
	a.mean += delta * float64(b.n) / float64(n)
	a.n = n
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}
