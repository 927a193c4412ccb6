package clump

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/stats"
)

// mustTable builds a table from equal-length rows.
func mustTable(t *testing.T, rows [][]float64) *stats.Table {
	t.Helper()
	tab := stats.NewTable(len(rows), len(rows[0]))
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

func TestT1MatchesPearson(t *testing.T) {
	tab := mustTable(t, [][]float64{{10, 20, 30}, {30, 20, 10}})
	res, err := Statistics(tab)
	if err != nil {
		t.Fatal(err)
	}
	chi, df := tab.ChiSquare()
	if math.Abs(res.T1-chi) > 1e-12 || res.DF1 != df {
		t.Fatalf("T1 = %v (df %d), want %v (df %d)", res.T1, res.DF1, chi, df)
	}
}

func TestTwoColumnStatisticsCoincide(t *testing.T) {
	// With two well-populated columns there is only one 2x2 view, so
	// T1 = T3 = T4 and T2 = T1.
	tab := mustTable(t, [][]float64{{30, 10}, {15, 25}})
	res, err := Statistics(tab)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.T1-res.T3) > 1e-9 || math.Abs(res.T1-res.T4) > 1e-9 {
		t.Fatalf("2-column T1/T3/T4 disagree: %v %v %v", res.T1, res.T3, res.T4)
	}
	if math.Abs(res.T1-res.T2) > 1e-9 {
		t.Fatalf("2-column T2 = %v, want %v", res.T2, res.T1)
	}
}

func TestT2PoolsRareColumns(t *testing.T) {
	// Third column has expected counts ~1, far below 5: T2 must pool.
	tab := mustTable(t, [][]float64{{40, 38, 2}, {40, 38, 0}})
	res, err := Statistics(tab)
	if err != nil {
		t.Fatal(err)
	}
	// After pooling, column 3 merges into the pool; df drops to 2-1=... the
	// pooled table is 2x3 -> 2x? Columns kept: 0 and 1 (expected >= 5),
	// pool of {2}; still 3 columns but the sparse one is pooled alone, so
	// the df stays 2 but the statistic is computed on the pooled layout.
	if res.DF2 > res.DF1 {
		t.Fatalf("pooling increased df: %d > %d", res.DF2, res.DF1)
	}
	if res.T2 < 0 {
		t.Fatalf("T2 = %v", res.T2)
	}
}

func TestT2EqualsT1WhenDense(t *testing.T) {
	tab := mustTable(t, [][]float64{{30, 30, 30}, {30, 30, 30}})
	res, err := Statistics(tab)
	if err != nil {
		t.Fatal(err)
	}
	if res.T1 != res.T2 || res.DF1 != res.DF2 {
		t.Fatalf("dense table: T2 should equal T1 (%v vs %v)", res.T2, res.T1)
	}
}

func TestT3HandComputed(t *testing.T) {
	// Column 0 vs rest: 2x2 [[20, 10], [5, 25]].
	tab := mustTable(t, [][]float64{{20, 5, 5}, {5, 15, 10}})
	res, err := Statistics(tab)
	if err != nil {
		t.Fatal(err)
	}
	want := chi2x2(20, 10, 5, 25)
	if math.Abs(res.T3-want) > 1e-9 {
		t.Fatalf("T3 = %v, want %v (column 0 vs rest)", res.T3, want)
	}
}

func TestT4AtLeastT3(t *testing.T) {
	// T4 optimizes over all 2-way clumpings, which include every
	// single-column-vs-rest split, so T4 >= T3 always.
	f := func(vals [8]uint8) bool {
		tab := stats.NewTable(2, 4)
		for j := 0; j < 4; j++ {
			tab.Set(0, j, float64(vals[j]))
			tab.Set(1, j, float64(vals[4+j]))
		}
		res, err := Statistics(tab)
		if err != nil {
			return false
		}
		return res.T4 >= res.T3-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestT4PerfectSplit(t *testing.T) {
	// Columns {0,1} carry cases, {2,3} carry controls: the best
	// 2-way clumping separates them perfectly.
	tab := mustTable(t, [][]float64{{25, 25, 0, 0}, {0, 0, 25, 25}})
	res, err := Statistics(tab)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.T4-100) > 1e-9 {
		t.Fatalf("T4 = %v, want 100 (perfect 2x2 with N=100)", res.T4)
	}
}

func TestStatisticsRejectsNon2Row(t *testing.T) {
	tab := mustTable(t, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	if _, err := Statistics(tab); err == nil {
		t.Fatal("3-row table accepted")
	}
}

func TestResultGet(t *testing.T) {
	r := Result{T1: 1, T2: 2, T3: 3, T4: 4}
	for s, want := range map[Statistic]float64{T1: 1, T2: 2, T3: 3, T4: 4} {
		if r.Get(s) != want {
			t.Errorf("Get(%v) = %v", s, r.Get(s))
		}
	}
}

func TestStatisticString(t *testing.T) {
	if T1.String() != "T1" || T4.String() != "T4" {
		t.Fatal("statistic names wrong")
	}
}

func TestRoundTablePreservesRowTotals(t *testing.T) {
	tab := mustTable(t, [][]float64{{1.4, 2.3, 3.3}, {0.5, 0.5, 9.0}})
	r := RoundTable(tab)
	for i := 0; i < 2; i++ {
		want := 0.0
		for j := 0; j < 3; j++ {
			want += tab.At(i, j)
			if r.At(i, j) != math.Floor(r.At(i, j)) {
				t.Fatalf("rounded value not integer: %v", r.At(i, j))
			}
		}
		got := 0.0
		for j := 0; j < 3; j++ {
			got += r.At(i, j)
		}
		if math.Abs(got-math.Round(want)) > 1e-9 {
			t.Fatalf("row %d total = %v, want %v", i, got, math.Round(want))
		}
	}
}

func TestRoundTableLargestRemainder(t *testing.T) {
	tab := mustTable(t, [][]float64{{1.6, 1.6, 1.8}, {1, 1, 1}})
	r := RoundTable(tab)
	// Row 0 sums to 5; floors give 1+1+1=3; the two largest
	// remainders (.8 and one of the .6) get the extra units.
	if r.At(0, 2) != 2 {
		t.Fatalf("largest remainder cell should round up, got %v", r.At(0, 2))
	}
}

func TestHypergeometricBounds(t *testing.T) {
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		h := hypergeometric(20, 8, 10, r)
		if h < 0 || h > 8 || h > 10 {
			t.Fatalf("hypergeometric out of bounds: %d", h)
		}
	}
}

func TestHypergeometricMean(t *testing.T) {
	// E[h] = n*K/N = 10*8/20 = 4.
	r := rng.New(2)
	sum := 0
	const reps = 50000
	for i := 0; i < reps; i++ {
		sum += hypergeometric(20, 8, 10, r)
	}
	mean := float64(sum) / reps
	if math.Abs(mean-4) > 0.05 {
		t.Fatalf("hypergeometric mean = %v, want 4", mean)
	}
}

func TestMonteCarloNullIsInsignificant(t *testing.T) {
	// A perfectly balanced table has statistic 0; every replicate is
	// at least as extreme, so p should be ~1.
	tab := mustTable(t, [][]float64{{20, 20, 20}, {20, 20, 20}})
	mc := MonteCarlo{Replicates: 200, Source: rng.New(3)}
	p, err := mc.Run(tab)
	if err != nil {
		t.Fatal(err)
	}
	if p.T1 < 0.9 {
		t.Fatalf("null table p = %v, want ~1", p.T1)
	}
}

func TestMonteCarloDetectsAssociation(t *testing.T) {
	tab := mustTable(t, [][]float64{{50, 5, 5}, {5, 30, 25}})
	mc := MonteCarlo{Replicates: 500, Source: rng.New(4)}
	p, err := mc.Run(tab)
	if err != nil {
		t.Fatal(err)
	}
	if p.T1 > 0.01 {
		t.Fatalf("strong association p = %v, want < 0.01", p.T1)
	}
	if p.T4 > 0.01 {
		t.Fatalf("strong association T4 p = %v, want < 0.01", p.T4)
	}
	for _, v := range []float64{p.T1, p.T2, p.T3, p.T4} {
		if v <= 0 || v > 1 {
			t.Fatalf("p-value out of (0,1]: %v", v)
		}
	}
}

func TestMonteCarloErrors(t *testing.T) {
	tab := mustTable(t, [][]float64{{1, 2}, {3, 4}})
	if _, err := (MonteCarlo{Replicates: 10}).Run(tab); err == nil {
		t.Fatal("missing Source accepted")
	}
	bad := mustTable(t, [][]float64{{1, 2}})
	if _, err := (MonteCarlo{Replicates: 10, Source: rng.New(1)}).Run(bad); err == nil {
		t.Fatal("1-row table accepted")
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	tab := mustTable(t, [][]float64{{12, 3, 9}, {4, 11, 6}})
	p1, err := (MonteCarlo{Replicates: 100, Source: rng.New(9)}).Run(tab)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := (MonteCarlo{Replicates: 100, Source: rng.New(9)}).Run(tab)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("same seed gave different p-values: %+v vs %+v", p1, p2)
	}
}

func TestPValuesGet(t *testing.T) {
	p := PValues{T1: 0.1, T2: 0.2, T3: 0.3, T4: 0.4}
	if p.Get(T2) != 0.2 || p.Get(T3) != 0.3 {
		t.Fatal("PValues.Get wrong")
	}
}

// benchTable is a 2 x m table of integer counts below 20, the size of
// a k = log2(m) fitness table.
func benchTable(m int) *stats.Table {
	tab := stats.NewTable(2, m)
	r := rng.New(1)
	for j := 0; j < m; j++ {
		tab.Set(0, j, float64(r.Intn(20)))
		tab.Set(1, j, float64(r.Intn(20)))
	}
	return tab
}

// benchStatistics times the warm-scratch kernel, the fitness path, on
// benchTable(m)'s two rows.
func benchStatistics(b *testing.B, m int) {
	tab := benchTable(m)
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StatisticsScratch(tab.Row(0), tab.Row(1), &s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStatistics2x4(b *testing.B)  { benchStatistics(b, 4) }
func BenchmarkStatistics2x64(b *testing.B) { benchStatistics(b, 64) }

// BenchmarkStatistics2x64Table times the public Statistics, the path
// of Details and MonteCarlo, on a fresh Scratch per call.
func BenchmarkStatistics2x64Table(b *testing.B) {
	tab := benchTable(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Statistics(tab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarlo(b *testing.B) {
	tab := stats.NewTable(2, 8)
	r := rng.New(1)
	for j := 0; j < 8; j++ {
		tab.Set(0, j, float64(r.Intn(20)+5))
		tab.Set(1, j, float64(r.Intn(20)+5))
	}
	mc := MonteCarlo{Replicates: 100, Source: rng.New(2)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.Run(tab); err != nil {
			b.Fatal(err)
		}
	}
}
