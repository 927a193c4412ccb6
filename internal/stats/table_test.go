package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// mustTable builds a table from equal-length rows.
func mustTable(t *testing.T, rows [][]float64) *Table {
	t.Helper()
	tab := NewTable(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != tab.Cols() {
			t.Fatalf("ragged table row %d", i)
		}
		for j, v := range row {
			tab.Set(i, j, v)
		}
	}
	return tab
}

// Classic textbook 2x2: chi2 = n(ad-bc)^2 / ((a+b)(c+d)(a+c)(b+d)).
func TestChiSquare2x2Exact(t *testing.T) {
	tab := mustTable(t, [][]float64{{10, 20}, {30, 40}})
	chi, df := tab.ChiSquare()
	n := 100.0
	want := n * math.Pow(10*40-20*30, 2) / (30 * 70 * 40 * 60)
	if df != 1 {
		t.Fatalf("df = %d, want 1", df)
	}
	if !almostEqual(chi, want, 1e-9) {
		t.Fatalf("chi2 = %v, want %v", chi, want)
	}
}

func TestChiSquareIndependentTableIsZero(t *testing.T) {
	// Rows proportional -> expected == observed -> chi2 == 0.
	tab := mustTable(t, [][]float64{{10, 30, 60}, {5, 15, 30}})
	chi, df := tab.ChiSquare()
	if df != 2 {
		t.Fatalf("df = %d, want 2", df)
	}
	if chi > 1e-10 {
		t.Fatalf("chi2 = %v, want 0", chi)
	}
}

func TestChiSquareZeroColumnReducesDF(t *testing.T) {
	tab := mustTable(t, [][]float64{{10, 0, 20}, {30, 0, 40}})
	_, df := tab.ChiSquare()
	if df != 1 {
		t.Fatalf("df with dead column = %d, want 1", df)
	}
}

func TestChiSquareDegenerate(t *testing.T) {
	tab := mustTable(t, [][]float64{{0, 0}, {0, 0}})
	chi, df := tab.ChiSquare()
	if chi != 0 || df != 0 {
		t.Fatalf("empty table chi/df = %v/%d", chi, df)
	}
	one := mustTable(t, [][]float64{{5, 7}})
	if _, df := one.ChiSquare(); df != 0 {
		t.Fatal("single-row table should have df 0")
	}
}

func TestChiSquareInvariantUnderRowSwap(t *testing.T) {
	f := func(a, b, c, d, e, g uint8) bool {
		t1 := mustTable(t, [][]float64{
			{float64(a), float64(b), float64(c)},
			{float64(d), float64(e), float64(g)},
		})
		t2 := mustTable(t, [][]float64{
			{float64(d), float64(e), float64(g)},
			{float64(a), float64(b), float64(c)},
		})
		x1, df1 := t1.ChiSquare()
		x2, df2 := t2.ChiSquare()
		return df1 == df2 && almostEqual(x1, x2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChiSquareInvariantUnderColPermutation(t *testing.T) {
	t1 := mustTable(t, [][]float64{{3, 9, 1, 7}, {8, 2, 6, 4}})
	t2 := mustTable(t, [][]float64{{7, 1, 9, 3}, {4, 6, 2, 8}})
	x1, _ := t1.ChiSquare()
	x2, _ := t2.ChiSquare()
	if !almostEqual(x1, x2, 1e-9) {
		t.Fatalf("chi2 changed under column permutation: %v vs %v", x1, x2)
	}
}

func TestMarginals(t *testing.T) {
	tab := mustTable(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	rt := tab.RowTotals()
	ct := tab.ColTotals()
	if rt[0] != 6 || rt[1] != 15 {
		t.Fatalf("row totals %v", rt)
	}
	if ct[0] != 5 || ct[1] != 7 || ct[2] != 9 {
		t.Fatalf("col totals %v", ct)
	}
}

func TestNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTable(0, 3) did not panic")
		}
	}()
	NewTable(0, 3)
}

func BenchmarkChiSquare2x64(b *testing.B) {
	tab := NewTable(2, 64)
	for j := 0; j < 64; j++ {
		tab.Set(0, j, float64(j%7)+1)
		tab.Set(1, j, float64(j%5)+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.ChiSquare()
	}
}
