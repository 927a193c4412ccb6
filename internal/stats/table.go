package stats

// Table is a dense r x c contingency table of non-negative counts.
// Counts are float64 because the linkage pipeline fills tables with
// EM-estimated (fractional) haplotype counts, exactly as the original
// EH-DIALL -> CLUMP tool chain did.
type Table struct {
	rows, cols int
	data       []float64
}

// NewTable returns a zeroed r x c table. It panics if r or c is not
// positive.
func NewTable(r, c int) *Table {
	if r <= 0 || c <= 0 {
		panic("stats: NewTable requires positive dimensions")
	}
	return &Table{rows: r, cols: c, data: make([]float64, r*c)}
}

// Reset reshapes t to r x c (both positive), reusing the backing
// storage when it fits, and zeroes every cell — the allocation-free
// counterpart of NewTable for scratch-held tables.
func (t *Table) Reset(r, c int) {
	if r <= 0 || c <= 0 {
		panic("stats: Reset requires positive dimensions")
	}
	need := r * c
	if cap(t.data) < need {
		t.data = make([]float64, need)
	} else {
		t.data = t.data[:need]
		for i := range t.data {
			t.data[i] = 0
		}
	}
	t.rows, t.cols = r, c
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.rows }

// Cols returns the number of columns.
func (t *Table) Cols() int { return t.cols }

// At returns the count at (i, j).
func (t *Table) At(i, j int) float64 { return t.data[i*t.cols+j] }

// Set stores v at (i, j).
func (t *Table) Set(i, j int, v float64) { t.data[i*t.cols+j] = v }

// RowTotals returns the marginal row sums.
func (t *Table) RowTotals() []float64 { return t.RowTotalsInto(nil) }

// RowTotalsInto writes the marginal row sums into dst (grown as
// needed) and returns it.
func (t *Table) RowTotalsInto(dst []float64) []float64 {
	if cap(dst) < t.rows {
		dst = make([]float64, t.rows)
	}
	dst = dst[:t.rows]
	for i := 0; i < t.rows; i++ {
		s := 0.0
		for j := 0; j < t.cols; j++ {
			s += t.At(i, j)
		}
		dst[i] = s
	}
	return dst
}

// ColTotals returns the marginal column sums.
func (t *Table) ColTotals() []float64 { return t.ColTotalsInto(nil) }

// ColTotalsInto writes the marginal column sums into dst (grown as
// needed) and returns it.
func (t *Table) ColTotalsInto(dst []float64) []float64 {
	if cap(dst) < t.cols {
		dst = make([]float64, t.cols)
	}
	dst = dst[:t.cols]
	for j := 0; j < t.cols; j++ {
		s := 0.0
		for i := 0; i < t.rows; i++ {
			s += t.At(i, j)
		}
		dst[j] = s
	}
	return dst
}

// ChiSquare returns the Pearson chi-square statistic of the table and
// its degrees of freedom. Columns or rows with zero marginal totals
// contribute nothing and reduce the degrees of freedom, matching the
// behaviour of the CLUMP program on sparse tables.
//
//ldvet:allow deadexport: test reference; TestT1MatchesPearson checks clump's T1 against this Pearson statistic
func (t *Table) ChiSquare() (statistic float64, df int) {
	return t.ChiSquareFrom(t.RowTotals(), t.ColTotals())
}

// ChiSquareFrom is ChiSquare with caller-supplied margins (which must
// be t's row and column totals), for the allocation-free path that
// computes the margins once and shares them across statistics.
func (t *Table) ChiSquareFrom(rt, ct []float64) (statistic float64, df int) {
	total := 0.0
	for _, v := range rt {
		total += v
	}
	if total == 0 {
		return 0, 0
	}
	liveRows, liveCols := 0, 0
	for _, v := range rt {
		if v > 0 {
			liveRows++
		}
	}
	for _, v := range ct {
		if v > 0 {
			liveCols++
		}
	}
	if liveRows < 2 || liveCols < 2 {
		return 0, 0
	}
	chi := 0.0
	for i := 0; i < t.rows; i++ {
		if rt[i] == 0 {
			continue
		}
		for j := 0; j < t.cols; j++ {
			if ct[j] == 0 {
				continue
			}
			expected := rt[i] * ct[j] / total
			d := t.At(i, j) - expected
			chi += d * d / expected
		}
	}
	return chi, (liveRows - 1) * (liveCols - 1)
}
