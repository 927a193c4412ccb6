package ehdiall

// The two-locus estimator. With two SNPs the double heterozygote is
// the only genotype of ambiguous phase, so the haplotype frequencies
// have one free parameter once the allele frequencies are fixed, and
// the likelihood maximum is a root of a cubic (Hill 1974; Gaunt et al.,
// BMC Bioinformatics 8, 2007) or an end of the admissible interval.
// Both front-ends reduce a k = 2 call to the integer 3×3 genotype table
// and hand it to the one solver here, so their Results are
// bit-identical by construction, as for estimateCore.

import (
	"math"
	"math/bits"

	"repro/internal/genotype"
)

// genoTable is the 3×3 genotype table of two SNPs: t[a][b] counts the
// complete-case individuals with a copies of allele 2 at the first SNP
// (haplotype bit 0) and b at the second (bit 1).
type genoTable [3][3]int

// tableFromGroups tallies two-site pattern groups into their table.
func tableFromGroups(groups []patternGroup) genoTable {
	var t genoTable
	for _, g := range groups {
		t[siteCode(g, 0)][siteCode(g, 1)] += int(g.count)
	}
	return t
}

// siteCode is the allele-2 copy count of pattern g at site j.
func siteCode(g patternGroup, j uint) int {
	return int(g.base>>j&1)*2 + int(g.hets>>j&1)
}

// countTable builds the genotype table of columns a and b over the
// complete-case rows of mask, and returns it with their count, from
// nine popcounts per word: the complete cases, the two columns' het and
// hom2 planes, and the four cross intersections of those planes. Every
// plane is ANDed with the complete-case word, as the planes cover rows
// outside the mask too. The 0-copy cells have no plane (tail slots pack
// as code 00) and follow by subtraction from the complete-case count.
func countTable(a, b genotype.PackedColumn, mask genotype.PlaneMask) (genoTable, int) {
	var n, het0, hom0, het1, hom1, hh, hH, Hh, HH int
	for w := 0; w < a.NumWords(); w++ {
		cm := mask.Word(w)
		if cm == 0 {
			continue
		}
		ahet, ahom, amiss := a.Planes(w)
		bhet, bhom, bmiss := b.Planes(w)
		cm &^= amiss | bmiss
		ahet, ahom, bhet, bhom = ahet&cm, ahom&cm, bhet&cm, bhom&cm
		n += bits.OnesCount64(cm)
		het0 += bits.OnesCount64(ahet)
		hom0 += bits.OnesCount64(ahom)
		het1 += bits.OnesCount64(bhet)
		hom1 += bits.OnesCount64(bhom)
		hh += bits.OnesCount64(ahet & bhet)
		hH += bits.OnesCount64(ahet & bhom)
		Hh += bits.OnesCount64(ahom & bhet)
		HH += bits.OnesCount64(ahom & bhom)
	}
	var t genoTable
	t[1][1], t[1][2], t[2][1], t[2][2] = hh, hH, Hh, HH
	t[1][0] = het0 - hh - hH
	t[2][0] = hom0 - Hh - HH
	t[0][1] = het1 - hh - Hh
	t[0][2] = hom1 - hH - HH
	t[0][0] = n - het0 - hom0 - t[0][1] - t[0][2]
	return t, n
}

// estimateTwoLocus is the k = 2 counterpart of estimateCore: the H0
// frequencies from the table's allele tallies and the exact maximum.
// The Result keeps the table's cells for its log-likelihood methods.
// scr works as there.
func estimateTwoLocus(t *genoTable, scr *Scratch) *Result {
	var s twoLocus
	s.init(t)
	res := newResult(2, s.n, scr)
	p2 := [2]float64{s.pA, s.pB}
	h0Freqs(p2[:], res.NullFreqs)
	s.freqsAt(s.maximum(), res.Freqs)
	res.cells = s.cells
	res.Converged = true
	return res
}

// TwoLocusFreqs returns the maximum-likelihood haplotype frequencies of
// two SNPs from their genotype table: table[a][b] counts the
// individuals with a copies of allele 2 at the first SNP and b at the
// second. Frequency h has bit 0 set when the haplotype carries allele 2
// at the first SNP and bit 1 at the second, as in Result.Freqs. The
// table must count at least one individual.
func TwoLocusFreqs(table *[3][3]int) [4]float64 {
	var s twoLocus
	s.init((*genoTable)(table))
	var f [4]float64
	s.freqsAt(s.maximum(), f[:])
	return f
}

// twoLocus is one two-locus estimation. With x = f(2,2), the
// frequencies are f3 = x, f1 = pA − x, f2 = pB − x and f0 = e + x
// (e = 1 − pA − pB), admissible on [lo, hi] = [max(0, −e), min(pA, pB)].
// Every individual but a double heterozygote contributes two
// phase-known haplotypes; h3 counts the phase-known copies of
// haplotype 3 (allele 2 at both SNPs), dh the double heterozygotes.
type twoLocus struct {
	cells  tableCells
	n      int
	n2     float64 // 2n
	pA, pB float64
	e      float64
	lo, hi float64
	h3, dh float64
	// loZero and hiZero report that every haplotype whose frequency
	// vanishes at lo (hi) has no phase-known copy, so the likelihood
	// there is finite and g is exactly 0; otherwise g(lo) < 0 < g(hi).
	loZero, hiZero bool
}

// init takes the integer tallies of t. The allele frequencies are the
// integer tally divided by 2n, the expression the EM's marginals use,
// so NullFreqs equal theirs bit for bit. e is formed from integers
// too, so it is exactly −lo whenever lo > 0 and f0 is exactly 0 there.
func (s *twoLocus) init(t *genoTable) {
	n := 0
	for a := range 3 {
		for b := range 3 {
			s.cells[3*a+b] = float64(t[a][b])
			n += t[a][b]
		}
	}
	cA := t[1][0] + t[1][1] + t[1][2] + 2*(t[2][0]+t[2][1]+t[2][2])
	cB := t[0][1] + t[1][1] + t[2][1] + 2*(t[0][2]+t[1][2]+t[2][2])
	h0 := 2*t[0][0] + t[0][1] + t[1][0]
	h1 := 2*t[2][0] + t[1][0] + t[2][1]
	h2 := 2*t[0][2] + t[0][1] + t[1][2]
	h3 := 2*t[2][2] + t[1][2] + t[2][1]

	n2 := 2 * n
	s.n, s.n2 = n, float64(n2)
	s.pA = float64(cA) / s.n2
	s.pB = float64(cB) / s.n2
	s.e = float64(n2-cA-cB) / s.n2
	s.lo, s.hi = 0, s.pA
	if s.e < 0 {
		s.lo = -s.e
	}
	if s.pB < s.hi {
		s.hi = s.pB
	}
	s.h3, s.dh = float64(h3), float64(t[1][1])

	var loVanish, hiVanish int
	if cA+cB <= n2 {
		loVanish += h3 // f3 = 0 at x = 0
	}
	if cA+cB >= n2 {
		loVanish += h0 // f0 = 0 at x = −e
	}
	if cA <= cB {
		hiVanish += h1 // f1 = 0 at x = pA
	}
	if cB <= cA {
		hiVanish += h2 // f2 = 0 at x = pB
	}
	s.loZero, s.hiZero = loVanish == 0, hiVanish == 0
}

// freqsAt writes the haplotype frequencies at x into f (4 entries).
// For x in [lo, hi] each is non-negative without clamping.
func (s *twoLocus) freqsAt(x float64, f []float64) {
	f[0], f[1], f[2], f[3] = s.e+x, s.pA-x, s.pB-x, x
}

// tableCells is a genotype table's counts as floats, row-major.
type tableCells [9]float64

// logLik is the sample log-likelihood of the table under haplotype
// frequencies f, the nine cells added in table order to one llAcc. A
// cell's probability is the EM's pattern probability, the expression
// estepPlan forms: f(x)·f(y) for a homozygote, times 2 for a single
// heterozygote, and 2(f1·f2 + f0·f3) for the double heterozygote. An
// empty cell multiplies by p^0 = 1, exactly.
func (t *tableCells) logLik(f []float64) float64 {
	var p [9]float64
	cellProbs(f, &p)
	acc := newLLAcc()
	for i, c := range t {
		acc.add(p[i], c)
	}
	return acc.value()
}

// cellProbs writes the nine cell probabilities under haplotype
// frequencies f into p, in table order.
func cellProbs(f []float64, p *[9]float64) {
	f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
	*p = [9]float64{
		f0 * f0, f0 * f2 * 2, f2 * f2,
		f0 * f1 * 2, 2 * (f1*f2 + f0*f3), f2 * f3 * 2,
		f1 * f1, f1 * f3 * 2, f3 * f3,
	}
}

// g is the EM fixed-point cubic at x with its first two derivatives:
// an EM step maps x to (h3 + dh·w)/2n with w = f3·f0/Q the cis share
// of a double heterozygote and Q = f3·f0 + f1·f2, so a fixed point
// solves
//
//	g(x) = (2n·x − h3)·Q(x) − dh·x·(x + e) = 0.
//
// The log-likelihood's slope is −g/Q times the positive Σ 1/f_h, so g
// rises through zero at each interior local maximum. Q is formed from
// the frequencies, a sum of non-negative products, rather than from
// expanded coefficients.
func (s *twoLocus) g(x float64) (gx, dg, d2g float64) {
	f0, f1, f2 := s.e+x, s.pA-x, s.pB-x
	q := x*f0 + f1*f2
	dq := f0 + x - f1 - f2
	lin := s.n2*x - s.h3
	gx = lin*q - s.dh*x*f0
	dg = s.n2*q + lin*dq - s.dh*(x+f0)
	d2g = 2*s.n2*dq + 4*lin - 2*s.dh
	return gx, dg, d2g
}

// maximum returns the maximum-likelihood x. Without double
// heterozygotes x is h3/2n. Otherwise g's critical points split
// [lo, hi] into pieces on which g is monotone; the candidates are the
// points where g rises through zero (an end where g is 0 and rises
// away from it counts), each root bracketed in its piece and polished
// by safeguarded Halley steps. One candidate is the maximum; among
// several the highest log-likelihood wins, the lowest x on a tie. The
// ends are taken exactly: g's sign there is known from the integer
// tallies, and an end where a haplotype with phase-known copies has
// frequency 0 has likelihood 0.
func (s *twoLocus) maximum() float64 {
	if s.lo == s.hi {
		return s.lo
	}
	if s.dh == 0 {
		return min(max(s.h3/s.n2, s.lo), s.hi)
	}
	var pts, sg [4]float64
	np := 0
	pts[np], sg[np] = s.lo, -1
	if s.loZero {
		sg[np] = 0
	}
	np++
	c1, c2 := s.criticalPoints()
	for _, c := range [2]float64{c1, c2} {
		if c > s.lo && c < s.hi {
			gx, _, _ := s.g(c)
			pts[np], sg[np] = c, gx
			np++
		}
	}
	pts[np], sg[np] = s.hi, 1
	if s.hiZero {
		sg[np] = 0
	}
	np++

	// Walk the signs with a negative one before lo and a positive one
	// past hi: each change from negative to positive is a local
	// maximum, at a zero point or inside the piece it spans.
	var cands [3]float64
	nc := 0
	prev, zero := -1.0, -1
	for i := 0; i < np; i++ {
		if sg[i] == 0 {
			zero = i
			continue
		}
		if prev < 0 && sg[i] > 0 {
			if zero >= 0 {
				cands[nc] = pts[zero]
			} else {
				cands[nc] = s.root(pts[i-1], pts[i])
			}
			nc++
		}
		prev, zero = sg[i], -1
	}
	if prev < 0 && zero >= 0 {
		cands[nc] = pts[zero]
		nc++
	}
	if nc == 1 {
		return cands[0]
	}
	var f [4]float64
	best, bestLL := math.NaN(), math.Inf(-1)
	for _, x := range cands[:nc] {
		s.freqsAt(x, f[:])
		if ll := s.cells.logLik(f[:]); ll > bestLL {
			best, bestLL = x, ll
		}
	}
	return best
}

// criticalPoints returns the roots of g', in ascending order, from g's
// expanded coefficients 4n·x³ + a2·x² + a1·x + a0, or NaNs when g is
// monotone. They only split [lo, hi] into pieces, so their rounding is
// harmless.
func (s *twoLocus) criticalPoints() (float64, float64) {
	b := 1 - 2*s.pA - 2*s.pB
	a2 := s.n2*b - 2*s.h3 - s.dh
	a1 := s.n2*s.pA*s.pB - s.h3*b - s.dh*s.e
	// g'(x) = 6n2·x² + 2a2·x + a1 with n2 = 2n.
	qa, qb := 6*s.n2, 2*a2
	disc := qb*qb - 4*qa*a1
	if !(disc > 0) {
		return math.NaN(), math.NaN()
	}
	q := -0.5 * (qb + math.Copysign(math.Sqrt(disc), qb))
	c1, c2 := q/qa, a1/q
	return min(c1, c2), max(c1, c2)
}

// root finds the zero of g on (a, b), where g rises through it:
// g(a) < 0 < g(b). Halley steps start from the H0 point pA·pB, or the
// midpoint when that is outside the bracket. The bracket shrinks with
// every evaluation, and a step that would leave it, or that does not
// head toward the root (g' or Halley's denominator not positive), is
// replaced by bisection. Once a step is below 1e-9 relative, Halley's
// cubic convergence puts that step's result within rounding of the
// root, and it is returned; so is x when the bracket is two adjacent
// floats.
func (s *twoLocus) root(a, b float64) float64 {
	x := s.pA * s.pB
	if !(x > a && x < b) {
		x = a + (b-a)/2
	}
	for range 200 {
		gx, dg, d2g := s.g(x)
		if gx == 0 {
			return x
		}
		if gx < 0 {
			a = x
		} else {
			b = x
		}
		if den := 2*dg*dg - gx*d2g; dg > 0 && den > 0 {
			step := 2 * gx * dg / den
			nx := x - step
			if math.Abs(step) <= 1e-9*x {
				if nx > a && nx < b {
					return nx
				}
				return x
			}
			if nx > a && nx < b {
				x = nx
				continue
			}
		}
		nx := a + (b-a)/2
		if !(nx > a && nx < b) {
			return x
		}
		x = nx
	}
	return x
}
