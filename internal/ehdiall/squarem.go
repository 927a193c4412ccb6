package ehdiall

import "math"

// squaremAfter is the number of plain EM steps a call takes before,
// still short of Tol, it switches to SQUAREM cycles. Calls that
// converge within it are bit-identical to the plain EM. On the
// paper-shaped corpus of corpus_test.go, 50 takes 0.53x the plain EM's
// E-steps with 40% of calls bit-identical; 20 and 1 end some calls on
// lower maxima than the plain EM, and 100 saves too few steps (0.65x).
const squaremAfter = 50

// squaremBufs holds the vectors of one SQUAREM cycle: the two plain
// steps, the step after the second, the first and second differences,
// the extrapolated proposal and the step after it.
type squaremBufs struct {
	t1, t2, t3, r, v, prop, next []float64
}

func (b *squaremBufs) grow(size int) {
	b.t1 = growFloats(b.t1, size)
	b.t2 = growFloats(b.t2, size)
	b.t3 = growFloats(b.t3, size)
	b.r = growFloats(b.r, size)
	b.v = growFloats(b.v, size)
	b.prop = growFloats(b.prop, size)
	b.next = growFloats(b.next, size)
}

// squarem continues an unconverged EM from freqs, steps E-steps in,
// with SQUAREM S3 cycles (Varadhan & Roland, Scand. J. Stat. 35,
// 2008). A cycle takes the plain steps t1 = F(t0), t2 = F(t1) and
// t3 = F(t2), the last also giving the log-likelihood at t2. With
// r = t1-t0, v = t2-t1-r and the step length a = -|r|/|v| (at most
// -1) it proposes t0 - 2a r + a^2 v and takes one stabilising EM step
// from it. A proposal with a negative entry, or with a log-likelihood
// below t2's, is backtracked with a = (a-1)/2 toward -1, where the
// proposal is t2 itself and its stabilising step is t3. Negative
// entries are never clamped to 0: a plain EM step cannot revive a
// zero frequency.
//
// Convergence is the plain EM's rule, a plain step that changes the
// frequencies by less than Tol in L1, and every E-step counts toward
// MaxIter. squarem writes the final point into freqs and returns the
// E-step count and convergence.
func squarem(plan *estepPlan, n int, freqs, counts []float64, cfg Config, steps int, b *squaremBufs) (int, bool) {
	b.grow(len(freqs))
	t0 := freqs
	// step runs one counted EM step; done reports convergence or an
	// exhausted budget, with the step's output as the final point.
	converged := false
	step := func(from, to []float64, withLL bool) (ll float64, done bool) {
		delta, ll := emStep(plan, n, from, to, counts, withLL)
		steps++
		converged = delta < cfg.Tol
		return ll, converged || steps >= cfg.MaxIter
	}
	finish := func(final []float64) (int, bool) {
		copy(freqs, final)
		return steps, converged
	}
	for {
		if _, done := step(t0, b.t1, false); done {
			return finish(b.t1)
		}
		if _, done := step(b.t1, b.t2, false); done {
			return finish(b.t2)
		}
		ll2, done := step(b.t2, b.t3, true)
		if done {
			return finish(b.t3)
		}
		// The accepted proposal's stabilising step, or else t3,
		// starts the next cycle.
		next := b.t3
		for a := stepLength(t0, b.t1, b.t2, b.r, b.v); a < -1; a = backtrack(a) {
			if !propose(t0, b.r, b.v, a, b.prop) {
				continue
			}
			llp, done := step(b.prop, b.next, true)
			if llp >= ll2 {
				if done {
					return finish(b.next)
				}
				next = b.next
				break
			}
			// A rejected proposal's step is not where the cycle goes
			// on from, so its change does not count as convergence.
			converged = false
			if steps >= cfg.MaxIter {
				return finish(b.t3)
			}
		}
		copy(t0, next)
	}
}

// stepLength fills r = t1-t0 and v = t2-t1-r and returns the S3 step
// length -|r|/|v|, capped at -1. A v of zero or a non-finite length
// also gives -1, the plain-EM fallback.
func stepLength(t0, t1, t2, r, v []float64) float64 {
	var rr, vv float64
	for i := range t0 {
		r[i] = t1[i] - t0[i]
		v[i] = t2[i] - t1[i] - r[i]
		rr += r[i] * r[i]
		vv += v[i] * v[i]
	}
	a := -math.Sqrt(rr / vv)
	if !(a < -1) || math.IsInf(a, 0) {
		return -1
	}
	return a
}

// propose writes t0 - 2a r + a^2 v, rescaled to sum to 1, into prop
// and reports whether every entry is non-negative. In exact arithmetic
// the sum is already 1, but the rounding in r and v grows with a^2, and
// a proposal summing above 1 would inflate its likelihood past the
// guard. The rescaling does not change the stabilising step from the
// proposal, in exact arithmetic: an EM step does not depend on the
// scale of its input.
func propose(t0, r, v []float64, a float64, prop []float64) bool {
	sum := 0.0
	for i := range t0 {
		p := t0[i] - 2*a*r[i] + a*a*v[i]
		if p < 0 {
			return false
		}
		prop[i] = p
		sum += p
	}
	if !(sum > 0) || math.IsInf(sum, 0) {
		return false
	}
	for i := range prop {
		prop[i] /= sum
	}
	return true
}

// backtrack moves a step length halfway toward -1, snapping to -1 once
// it is within 0.01 of it: a proposal that close is t2 for practical
// purposes, and t3 is already its stabilising step.
func backtrack(a float64) float64 {
	a = (a - 1) / 2
	if a > -1.01 {
		return -1
	}
	return a
}
