package ehdiall

import (
	"math"
	"math/bits"
)

// estepPlan is one estimation's E-step, compiled once from its pattern
// groups and run on every EM step of the call. Everything that does not
// depend on the frequencies is worked out here rather than per step:
//
//   - A pattern with at most one heterozygous site has a single
//     compatible pair, so its expected counts are fixed: 2·count on
//     base when homozygous, count on each of base and base|hets with
//     one heterozygous site. fixed holds those counts summed over the
//     patterns; each step starts from a copy of it.
//   - A pattern with h >= 2 heterozygous sites keeps its 2^(h-1)
//     unordered pairs as a run of pairs, in multiPairProb's order, so
//     the step neither splits the mask nor enumerates subsets.
//
// ones keeps the single-pair patterns only for the log-likelihood. The
// plan lives in Scratch and its slices are reused across calls.
type estepPlan struct {
	fixed  []float64
	ones   []onePair
	multis []multiGroup
	pairs  []hapPair
	prod   []float64 // per-pair products of the group in hand
}

// onePair is a pattern with at most one heterozygous site: its pair
// {x, y} has probability f(x)·f(y)·mult, mult being the HWE factor 2
// for x != y.
type onePair struct {
	x, y  uint32
	mult  float64
	count float64
}

// hapPair is one unordered compatible haplotype pair {x, y}.
type hapPair struct{ x, y uint32 }

// multiGroup is a pattern with two or more heterozygous sites: its
// pairs are pairs[lo:hi], and spread is the uniform share 2·count/2^h
// each compatible haplotype gets when the pattern's probability is 0.
type multiGroup struct {
	lo, hi int32
	count  float64
	spread float64
}

// build compiles the plan for the groups of a k-site estimation.
func (pl *estepPlan) build(groups []patternGroup, k int) {
	pl.fixed = growFloats(pl.fixed, 1<<k)
	clear(pl.fixed)
	pl.ones, pl.multis, pl.pairs = pl.ones[:0], pl.multis[:0], pl.pairs[:0]
	most := 0
	for _, g := range groups {
		if g.hets&(g.hets-1) == 0 {
			x, y := g.base, g.base|g.hets
			mult := 1.0
			if g.hets != 0 {
				mult = 2
			}
			// Whole-number counts: these sums are exact.
			pl.fixed[x] += g.count
			pl.fixed[y] += g.count
			pl.ones = append(pl.ones, onePair{x: x, y: y, mult: mult, count: g.count})
			continue
		}
		top, low := splitHets(g.hets)
		hi := g.base | top
		lo := len(pl.pairs)
		for s := low; ; s = (s - 1) & low {
			pl.pairs = append(pl.pairs, hapPair{g.base | s, hi | (low ^ s)})
			if s == 0 {
				break
			}
		}
		pl.multis = append(pl.multis, multiGroup{
			lo:     int32(lo),
			hi:     int32(len(pl.pairs)),
			count:  g.count,
			spread: 2 * g.count / float64(uint32(1)<<bits.OnesCount32(g.hets)),
		})
		most = max(most, len(pl.pairs)-lo)
	}
	pl.prod = growFloats(pl.prod, most)
}

// total fills prod with the products f(x)·f(y) of m's pairs and returns
// the pattern's probability, bit-identical to patternProb: the pair
// count is even, so multiPairProb's two accumulators take the pairs in
// turn here too.
func (pl *estepPlan) total(m multiGroup, f []float64) float64 {
	pairs := pl.pairs[m.lo:m.hi]
	prod := pl.prod[:len(pairs)]
	var p0, p1 float64
	for i := 0; i+1 < len(pairs); i += 2 {
		a := f[pairs[i].x] * f[pairs[i].y]
		b := f[pairs[i+1].x] * f[pairs[i+1].y]
		prod[i], prod[i+1] = a, b
		p0 += a
		p1 += b
	}
	return 2 * (p0 + p1)
}

// eStep writes into counts the expected haplotype copy counts under f
// and, with a non-nil acc, adds every pattern's probability to it. Each
// unordered pair {x, y} of a multi-pair pattern has posterior
// 2·f(x)·f(y)/total and gives a copy to both x and y, so one scale
// 2·count/total per pattern replaces a division per pair.
func (pl *estepPlan) eStep(f, counts []float64, acc *llAcc) {
	copy(counts, pl.fixed)
	if acc != nil {
		pl.addOnes(f, acc)
	}
	for _, m := range pl.multis {
		total := pl.total(m, f)
		if acc != nil {
			acc.add(total, m.count)
		}
		pairs := pl.pairs[m.lo:m.hi]
		scale := 2 * m.count / total
		if math.IsInf(scale, 1) {
			// The pattern has probability 0 (all compatible pairs
			// currently have zero frequency), or one so deep in the
			// subnormal range that the scale overflows; spread uniformly
			// so the EM can recover (matches EH behaviour on empty
			// cells): every compatible haplotype is in one pair.
			for _, p := range pairs {
				counts[p.x] += m.spread
				counts[p.y] += m.spread
			}
			continue
		}
		prod := pl.prod[:len(pairs)]
		for i := 0; i+1 < len(pairs); i += 2 {
			a, b := prod[i]*scale, prod[i+1]*scale
			counts[pairs[i].x] += a
			counts[pairs[i].y] += a
			counts[pairs[i+1].x] += b
			counts[pairs[i+1].y] += b
		}
	}
}

// addOnes adds the probabilities of the single-pair patterns under f
// to acc; each is bit-identical to patternProb's.
func (pl *estepPlan) addOnes(f []float64, acc *llAcc) {
	for _, o := range pl.ones {
		acc.add(f[o.x]*f[o.y]*o.mult, o.count)
	}
}

// logLik returns the sample log-likelihood of the plan's patterns under
// haplotype frequencies f. It adds the pattern probabilities in the
// order eStep does, so it equals the log-likelihood an E-step at f
// returns bit for bit. It only reads pl: it runs on a copy with a
// products buffer of its own, so a Result's log-likelihood methods may
// run concurrently.
func (pl *estepPlan) logLik(f []float64) float64 {
	own := *pl
	own.prod = make([]float64, len(pl.prod))
	acc := newLLAcc()
	pl.addOnes(f, &acc)
	for _, m := range pl.multis {
		acc.add(own.total(m, f), m.count)
	}
	return acc.value()
}

const (
	// llMulMax is the largest count whose pattern probability llAcc
	// raises to the count's power by multiplication; a larger count
	// costs less as one count·log p. BenchmarkEstimateRows pins it.
	llMulMax = 16
	// llSplit is the probability below which llAcc takes the exponent
	// apart first (frexp), so that p^count >= 2^-512 for every count up
	// to llMulMax and no subnormal reaches math.Log. The running product is rescaled by llScale = 2^llShift
	// whenever it falls below llFloor; times a factor of at least 2^-512
	// it stays a normal float.
	llSplit = 0x1p-32
	llFloor = 0x1p-500
	llScale = 0x1p500
	llShift = 500
)

// llAcc forms a log-likelihood Σ count·log p as log Π p^count, with
// one math.Log per evaluation instead of one per pattern: each pattern
// probability is raised to its count (a whole number) by repeated
// squaring and multiplied in, and the running product is kept in range
// by rescaling with exact powers of two whose exponents are summed
// apart. A count above llMulMax adds count·log p directly. A pattern
// with probability 0 adds a penalty of -745·count (about the log of the
// smallest positive float64) instead of -Inf, so that likelihoods stay
// ordered.
type llAcc struct {
	prod float64 // running product, at least llFloor after each pattern
	exp  int     // binary exponent taken out of prod
	sum  float64 // terms added directly
}

// newLLAcc returns an accumulator holding the empty product.
func newLLAcc() llAcc { return llAcc{prod: 1} }

// add accounts for a pattern of the given count and probability p.
func (a *llAcc) add(p, count float64) {
	if !(p > 0) {
		a.sum += count * -745
		return
	}
	if p < llSplit {
		// Also keeps math.Log away from subnormals, where the amd64
		// implementation loses accuracy.
		frac, e := math.Frexp(p)
		p = frac
		a.exp += e * int(count)
	}
	if count > llMulMax {
		a.sum += count * math.Log(p)
		return
	}
	if count != 1 {
		p = powSmall(p, count)
	}
	a.mul(p)
}

// mul multiplies q, a power of a pattern probability of at least
// 2^-512, into the running product, rescaling it back above llFloor.
func (a *llAcc) mul(q float64) {
	a.prod *= q
	if a.prod < llFloor {
		a.prod *= llScale
		a.exp -= llShift
	}
}

// powSmall returns p^count for a whole count of at most llMulMax: the
// product of p^(2^i) over the set bits i of count, taken in ascending
// order. An unset bit multiplies by 1, which is exact, so the selection
// needs no data-dependent branch.
func powSmall(p, count float64) float64 {
	c := uint64(count)
	q := p1(p, c)
	p *= p
	q *= p1(p, c>>1)
	p *= p
	q *= p1(p, c>>2)
	p *= p
	q *= p1(p, c>>3)
	p *= p
	return q * p1(p, c>>4)
}

// p1 is p when bit 0 of c is set and 1 otherwise, selected by bits.
func p1(p float64, c uint64) float64 {
	const one = 0x3ff0000000000000 // math.Float64bits(1)
	return math.Float64frombits(one ^ (one^math.Float64bits(p))&-(c&1))
}

// value returns the accumulated log-likelihood.
func (a *llAcc) value() float64 {
	return a.sum + (math.Log(a.prod) + float64(a.exp)*math.Ln2)
}
