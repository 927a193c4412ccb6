package clump

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// This file keeps the textbook CLUMP computation over a stats.Table as
// the oracle of the flat kernel: margins from the table, T1 and T2 by
// stats.Table.ChiSquare, T2's pooled table built column by column, T3
// and T4/AA by separate scans, AA by a log at every prefix, and the
// columns ordered by sort.Sort. StatisticsScratch must reproduce every
// value it returns bit for bit.

// oracleStatistics computes T1..T4 and AA of a 2-row table.
func oracleStatistics(t *stats.Table) (Result, error) {
	if t.Rows() != 2 {
		return Result{}, fmt.Errorf("clump: table has %d rows, want 2", t.Rows())
	}
	rt := t.RowTotals()
	var res Result
	res.T1, res.DF1 = t.ChiSquare()
	if pooled := oracleClumpRare(t, rt, t.ColTotals()); pooled == t {
		res.T2, res.DF2 = res.T1, res.DF1
	} else {
		res.T2, res.DF2 = pooled.ChiSquare()
	}
	res.T3 = oracleMaxSingleColumn(t, rt)
	res.T4, res.AA = oracleMaxBipartition(t, rt)
	return res, nil
}

// oracleClumpRare pools all columns whose expected count in either row
// falls below minExpected into a single last column. If nothing pools,
// or pooling leaves no column standing alone, it returns t itself.
func oracleClumpRare(t *stats.Table, rt, ct []float64) *stats.Table {
	total := rt[0] + rt[1]
	if total == 0 {
		return t
	}
	var keep []int
	pool := false
	for j := 0; j < t.Cols(); j++ {
		e0 := rt[0] * ct[j] / total
		e1 := rt[1] * ct[j] / total
		if e0 < minExpected || e1 < minExpected {
			pool = true
		} else {
			keep = append(keep, j)
		}
	}
	if !pool || len(keep) == 0 {
		return t
	}
	inKeep := make([]bool, t.Cols())
	for _, j := range keep {
		inKeep[j] = true
	}
	out := stats.NewTable(2, len(keep)+1)
	for i := 0; i < 2; i++ {
		poolSum := 0.0
		for nj, j := range keep {
			out.Set(i, nj, t.At(i, j))
		}
		for j := 0; j < t.Cols(); j++ {
			if !inKeep[j] {
				poolSum += t.At(i, j)
			}
		}
		out.Set(i, len(keep), poolSum)
	}
	return out
}

// oracleMaxSingleColumn returns T3: the largest 2x2 chi-square of one
// column against the aggregate of all others.
func oracleMaxSingleColumn(t *stats.Table, rt []float64) float64 {
	best := 0.0
	for j := 0; j < t.Cols(); j++ {
		a := t.At(0, j)
		c := t.At(1, j)
		if v := chi2x2(a, rt[0]-a, c, rt[1]-c); v > best {
			best = v
		}
	}
	return best
}

// colSorter orders columns by case proportion through sort.Interface,
// the ordering the kernel's sortCols must reproduce.
type colSorter []colPair

func (s *colSorter) Len() int { return len(*s) }
func (s *colSorter) Less(i, j int) bool {
	c := *s
	return c[i].a*(c[j].a+c[j].c) > c[j].a*(c[i].a+c[i].c)
}
func (s *colSorter) Swap(i, j int) {
	c := *s
	c[i], c[j] = c[j], c[i]
}

// oracleMaxBipartition returns T4 and AA: the largest 2x2 chi-square
// and the largest canonical association over the prefixes of the
// non-empty columns in case-proportion order, with a log at every
// prefix.
func oracleMaxBipartition(t *stats.Table, rt []float64) (t4, aa float64) {
	var cols colSorter
	for j := 0; j < t.Cols(); j++ {
		a, c := t.At(0, j), t.At(1, j)
		if a+c > 0 {
			cols = append(cols, colPair{a, c})
		}
	}
	if len(cols) < 2 {
		return 0, 0
	}
	sort.Sort(&cols)
	accA, accC := 0.0, 0.0
	for j := 0; j < len(cols)-1; j++ {
		accA += cols[j].a
		accC += cols[j].c
		a, b, c, d := accA, rt[0]-accA, accC, rt[1]-accC
		if v := chi2x2(a, b, c, d); v > t4 {
			t4 = v
		}
		if v := canonicalAssociation(a, b, c, d); v > aa {
			aa = v
		}
	}
	return t4, aa
}
