// Package clump reimplements the CLUMP program of Sham & Curtis
// (1995): chi-square statistics for 2 x M case/control contingency
// tables with highly polymorphic columns, and Monte-Carlo assessment
// of their significance conditional on the table margins.
//
// The four classic statistics are provided:
//
//	T1 — Pearson chi-square of the raw 2 x M table.
//	T2 — chi-square after pooling columns with small expected counts.
//	T3 — largest chi-square of any single column against the rest.
//	T4 — largest chi-square over 2-way clumpings of the columns.
//
// plus one modern addition on the same seam:
//
//	AA — canonical allelic-association measure (Scholz & Hasenclever)
//	     over the same 2-way clumpings, on [0, 1).
//
// The paper's fitness is the statistic value itself (a "good"
// haplotype is one highly correlated with the disease, i.e. a high
// CLUMP value); the Monte-Carlo machinery is used for final reporting.
package clump

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Statistic selects which CLUMP statistic to use as a scalar score.
type Statistic int

// The four CLUMP statistics.
const (
	T1 Statistic = iota + 1
	T2
	T3
	T4
)

// String returns the conventional name of the statistic.
func (s Statistic) String() string {
	switch s {
	case T1:
		return "T1"
	case T2:
		return "T2"
	case T3:
		return "T3"
	case T4:
		return "T4"
	case AA:
		return "AA"
	default:
		return fmt.Sprintf("Statistic(%d)", int(s))
	}
}

// minExpected is the classic "expected count at least 5" rule used by
// T2 to decide which columns are too sparse to stand alone.
const minExpected = 5.0

// Result carries all statistics of a table.
type Result struct {
	T1 float64
	T2 float64
	T3 float64
	T4 float64
	// AA is the canonical allelic-association measure on [0, 1); see
	// the AA constant.
	AA float64
	// DF1 and DF2 are the degrees of freedom of T1 and T2. T3 and T4
	// are maxima of 2x2 statistics; their null distribution is
	// assessed by Monte Carlo, not by a chi-square df.
	DF1 int
	DF2 int
}

// Get returns the selected statistic value from the result.
func (r Result) Get(s Statistic) float64 {
	switch s {
	case T1:
		return r.T1
	case T2:
		return r.T2
	case T3:
		return r.T3
	case T4:
		return r.T4
	case AA:
		return r.AA
	default:
		panic("clump: unknown statistic " + s.String())
	}
}

// Statistics computes T1..T4 and AA for a 2 x M table of non-negative
// counts.
func Statistics(t *stats.Table) (Result, error) {
	if t.Rows() != 2 {
		return Result{}, fmt.Errorf("clump: table has %d rows, want 2", t.Rows())
	}
	var s Scratch
	return StatisticsScratch(t.Row(0), t.Row(1), &s)
}

// Scratch holds the reusable buffers of one statistics computation:
// T2's pooling marks, and the column ordering of the T4/AA
// bipartition scan. A zero Scratch is ready to use;
// buffers grow on demand and are retained across calls, making
// repeated StatisticsScratch calls allocation-free in steady state. A
// Scratch must not be shared between concurrent computations.
type Scratch struct {
	pooled []bool
	cols   []colPair
}

// StatisticsScratch computes the statistics of the 2 x M table whose
// rows are cases (row 0) and controls (row 1), both of length M >= 1,
// on caller-held scratch buffers: the allocation-free kernel the
// fitness pipeline runs on, straight over the two groups' expected
// counts. Every value is the one the textbook computation over a
// stats.Table gives, bit for bit: margins are summed in column order,
// and each Pearson sum adds row 0's terms before row 1's, so the
// Pearson statistics walk the columns once per row.
func StatisticsScratch(cases, controls []float64, s *Scratch) (Result, error) {
	m := len(cases)
	if m == 0 || len(controls) != m {
		return Result{}, fmt.Errorf("clump: rows of %d and %d columns, want equal and non-zero", m, len(controls))
	}
	controls = controls[:m]
	var res Result
	r0, r1 := 0.0, 0.0
	live := 0 // columns with a positive total
	s.cols = s.cols[:0]
	for j, a := range cases {
		c := controls[j]
		r0 += a
		r1 += c
		if a+c > 0 {
			live++
			s.cols = append(s.cols, colPair{a, c})
		}
	}
	total := r0 + r1

	if total != 0 && r0 > 0 && r1 > 0 && live >= 2 {
		res.T1 = pearsonRow(0, cases, cases, controls, nil, r0, total)
		res.T1 = pearsonRow(res.T1, controls, cases, controls, nil, r1, total)
		res.DF1 = live - 1
	}
	for j, a := range cases {
		c := controls[j]
		if v := chi2x2(a, r0-a, c, r1-c); v > res.T3 {
			res.T3 = v
		}
	}

	res.T2, res.DF2 = res.T1, res.DF1
	if total != 0 {
		pooledT2(cases, controls, r0, r1, total, s, &res)
	}
	res.T4, res.AA = maxBipartition(r0, r1, s)
	return res, nil
}

// pearsonRow adds to chi row x's Pearson terms (x[j] - e)^2 / e, e
// the expected count rt * colTotal_j / total, in column order,
// skipping empty columns and those pooled marks (nil marks none).
func pearsonRow(chi float64, x, cases, controls []float64, pooled []bool, rt, total float64) float64 {
	controls = controls[:len(cases)]
	x = x[:len(cases)]
	for j, a := range cases {
		ct := a + controls[j]
		if ct == 0 || pooled != nil && pooled[j] {
			continue
		}
		e := rt * ct / total
		d := x[j] - e
		chi += d * d / e
	}
	return chi
}

// pooledT2 sets T2 as CLUMP does: every column whose expected count in
// either row falls below minExpected is pooled into one last column,
// and T2 is the Pearson statistic of the kept columns plus the pool.
// With nothing to pool, or nothing left to keep, T2 stays T1.
func pooledT2(cases, controls []float64, r0, r1, total float64, s *Scratch, res *Result) {
	m := len(cases)
	if cap(s.pooled) < m {
		s.pooled = make([]bool, m)
	}
	pooled := s.pooled[:m]
	controls = controls[:m]
	var kept0, kept1, pool0, pool1 float64
	nPooled, liveKept := 0, 0
	for j, a := range cases {
		c := controls[j]
		ct := a + c
		e0 := r0 * ct / total
		e1 := r1 * ct / total
		pooled[j] = e0 < minExpected || e1 < minExpected
		if pooled[j] {
			nPooled++
			pool0 += a
			pool1 += c
		} else {
			kept0 += a
			kept1 += c
			if ct > 0 {
				liveKept++
			}
		}
	}
	if nPooled == 0 || nPooled == m {
		return
	}
	// The pooled table: row totals sum the kept columns, then the pool.
	p0, p1 := kept0+pool0, kept1+pool1
	ptotal := p0 + p1
	poolTotal := pool0 + pool1
	liveCols := liveKept
	if poolTotal > 0 {
		liveCols++
	}
	res.T2, res.DF2 = 0, 0
	if ptotal == 0 || !(p0 > 0) || !(p1 > 0) || liveCols < 2 {
		return
	}
	chi := pearsonRow(0, cases, cases, controls, pooled, p0, ptotal)
	chi = poolTerm(chi, pool0, p0, poolTotal, ptotal)
	chi = pearsonRow(chi, controls, cases, controls, pooled, p1, ptotal)
	chi = poolTerm(chi, pool1, p1, poolTotal, ptotal)
	res.T2, res.DF2 = chi, liveCols-1
}

// poolTerm adds to chi the pool column's Pearson term in a row holding
// x of it, unless the pool is empty.
func poolTerm(chi, x, rt, poolTotal, total float64) float64 {
	if poolTotal == 0 {
		return chi
	}
	e := rt * poolTotal / total
	d := x - e
	return chi + d*d/e
}

// chi2x2 computes the chi-square of the 2x2 table [[a, b], [c, d]].
func chi2x2(a, b, c, d float64) float64 {
	n := a + b + c + d
	r0, r1 := a+b, c+d
	c0, c1 := a+c, b+d
	if n == 0 || r0 == 0 || r1 == 0 || c0 == 0 || c1 == 0 {
		return 0
	}
	diff := a*d - b*c
	return n * diff * diff / (r0 * r1 * c0 * c1)
}

// colPair is one non-empty table column in the bipartition ordering.
type colPair struct{ a, c float64 }

// caseLess orders columns by case proportion, larger first:
// x.a/(x.a+x.c) > y.a/(y.a+y.c), cross-multiplied to avoid the
// division.
func caseLess(x, y colPair) bool {
	return x.a*(y.a+y.c) > y.a*(x.a+x.c)
}

// sortCols orders cols by caseLess into exactly the permutation
// sort.Sort gives: slices.SortFunc runs the pdqsort template sort.Sort
// is generated from, and a less-only comparison makes it consult the
// same pairs in the same order. Ties in case proportion are common
// (empty-row columns, integer counts), and their order changes the
// prefix sums, so the permutation is part of the result.
func sortCols(cols []colPair) {
	slices.SortFunc(cols, func(x, y colPair) int {
		if caseLess(x, y) {
			return -1
		}
		return 1
	})
}

// maxBipartition returns T4 and AA in one scan: the largest 2x2
// chi-square and the largest canonical association over 2-way
// clumpings of the columns s.cols (the non-empty ones, in table
// order). The columns are ordered by their case proportion; for both
// statistics the optimal bipartition is a prefix of this ordering
// (the same exchange argument applies to the chi-square and to the
// corrected log odds ratio), so a single linear scan over prefixes is
// exact for both. r0 and r1 are the table's row totals.
func maxBipartition(r0, r1 float64, s *Scratch) (t4, aa float64) {
	cols := s.cols
	if len(cols) < 2 {
		return 0, 0
	}
	sortCols(cols)
	accA, accC := 0.0, 0.0
	for _, col := range cols[:len(cols)-1] {
		accA += col.a
		accC += col.c
		a, b, c, d := accA, r0-accA, accC, r1-accC
		if v := chi2x2(a, b, c, d); v > t4 {
			t4 = v
		}
		if v := canonicalAssociation(a, b, c, d); v > aa {
			aa = v
		}
	}
	return t4, aa
}

// MonteCarlo estimates empirical p-values for all four statistics by
// generating random tables with the same margins as the observed one.
type MonteCarlo struct {
	// Replicates is the number of random tables (default 1000).
	Replicates int
	// Source seeds the simulation; required.
	Source *rng.RNG
}

// PValues holds the empirical upper-tail p-values of the statistics.
type PValues struct {
	T1, T2, T3, T4, AA float64
	Replicates         int
}

// Get returns the selected p-value.
func (p PValues) Get(s Statistic) float64 {
	switch s {
	case T1:
		return p.T1
	case T2:
		return p.T2
	case T3:
		return p.T3
	case T4:
		return p.T4
	case AA:
		return p.AA
	default:
		panic("clump: unknown statistic " + s.String())
	}
}

// Run performs the Monte-Carlo test on a 2 x M table. Fractional
// (EM-estimated) counts are rounded to integers with the largest-
// remainder method before simulation, preserving the grand total.
func (mc MonteCarlo) Run(t *stats.Table) (PValues, error) {
	if t.Rows() != 2 {
		return PValues{}, fmt.Errorf("clump: table has %d rows, want 2", t.Rows())
	}
	if mc.Source == nil {
		return PValues{}, fmt.Errorf("clump: MonteCarlo requires a Source")
	}
	reps := mc.Replicates
	if reps <= 0 {
		reps = 1000
	}
	obs, err := Statistics(t)
	if err != nil {
		return PValues{}, err
	}
	rounded := RoundTable(t)
	rowTot := rounded.RowTotals()
	colTot := rounded.ColTotals()
	n := int(rowTot[0] + rowTot[1])
	if n == 0 {
		return PValues{T1: 1, T2: 1, T3: 1, T4: 1, AA: 1, Replicates: reps}, nil
	}

	exceed := [5]int{}
	sim := stats.NewTable(2, t.Cols())
	for rep := 0; rep < reps; rep++ {
		simulateMargins(sim, rowTot, colTot, mc.Source)
		st, err := Statistics(sim)
		if err != nil {
			return PValues{}, err
		}
		if st.T1 >= obs.T1 {
			exceed[0]++
		}
		if st.T2 >= obs.T2 {
			exceed[1]++
		}
		if st.T3 >= obs.T3 {
			exceed[2]++
		}
		if st.T4 >= obs.T4 {
			exceed[3]++
		}
		if st.AA >= obs.AA {
			exceed[4]++
		}
	}
	p := func(e int) float64 { return float64(e+1) / float64(reps+1) }
	return PValues{
		T1: p(exceed[0]), T2: p(exceed[1]), T3: p(exceed[2]), T4: p(exceed[3]),
		AA: p(exceed[4]), Replicates: reps,
	}, nil
}

// simulateMargins fills sim with a random 2 x M table having the given
// integer margins, drawn uniformly conditional on those margins via
// sequential hypergeometric sampling.
func simulateMargins(sim *stats.Table, rowTot, colTot []float64, r *rng.RNG) {
	remaining := rowTot[0] + rowTot[1]
	successes := rowTot[0]
	for j := 0; j < sim.Cols(); j++ {
		draw := colTot[j]
		a := hypergeometric(int(remaining), int(successes), int(draw), r)
		sim.Set(0, j, float64(a))
		sim.Set(1, j, draw-float64(a))
		remaining -= draw
		successes -= float64(a)
	}
}

// hypergeometric draws the number of successes when sampling n items
// without replacement from a population of size pop containing succ
// successes. Direct simulation is O(n), ample for study-sized tables.
func hypergeometric(pop, succ, n int, r *rng.RNG) int {
	hits := 0
	for i := 0; i < n; i++ {
		if pop <= 0 {
			break
		}
		if r.Intn(pop) < succ {
			hits++
			succ--
		}
		pop--
	}
	return hits
}

// RoundTable rounds each row of the table to integer counts with the
// largest-remainder method, preserving every row total (rounded to the
// nearest integer).
func RoundTable(t *stats.Table) *stats.Table {
	out := stats.NewTable(t.Rows(), t.Cols())
	for i := 0; i < t.Rows(); i++ {
		rowSum := 0.0
		for j := 0; j < t.Cols(); j++ {
			rowSum += t.At(i, j)
		}
		target := int(math.Round(rowSum))
		type rem struct {
			j    int
			frac float64
		}
		rems := make([]rem, t.Cols())
		floorSum := 0
		for j := 0; j < t.Cols(); j++ {
			v := t.At(i, j)
			fl := math.Floor(v)
			out.Set(i, j, fl)
			floorSum += int(fl)
			rems[j] = rem{j, v - fl}
		}
		sort.Slice(rems, func(x, y int) bool { return rems[x].frac > rems[y].frac })
		for k := 0; k < target-floorSum && k < len(rems); k++ {
			j := rems[k].j
			out.Set(i, j, out.At(i, j)+1)
		}
	}
	return out
}
