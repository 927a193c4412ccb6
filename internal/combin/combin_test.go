package combin

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

// Table 1 of the paper gives exact search-space sizes; these are the
// ground truth our reproduction must print.
func TestBinomialPaperTable1(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{51, 2, 1275},
		{51, 3, 20825},
		{51, 4, 249900},
		{51, 5, 2349060},
		{51, 6, 18009460},
		{150, 2, 11175},
		{150, 3, 551300},
		{150, 4, 20260275},
		{150, 5, 591600030},
		{249, 2, 30876},
		{249, 3, 2542124},
		{249, 4, 156340626},
	}
	for _, c := range cases {
		got := Binomial(c.n, c.k)
		if got.Cmp(big.NewInt(c.want)) != 0 {
			t.Errorf("C(%d,%d) = %v, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialLargePaperValues(t *testing.T) {
	// Paper: C(150,6) ~ 14.3e9, C(249,5) ~ 7.6e9, C(249,6) ~ 3.11e11
	// (the scanned paper's exponent is garbled; the exact value is
	// 311,534,754,076 = 3.115e11).
	if got := math.Exp(LogBinomial(150, 6)); math.Abs(got-14.3e9) > 0.1e9 {
		t.Errorf("C(150,6) = %v, want ~14.3e9", got)
	}
	if got := math.Exp(LogBinomial(249, 5)); math.Abs(got-7.6e9) > 0.1e9 {
		t.Errorf("C(249,5) = %v, want ~7.6e9", got)
	}
	if got := math.Exp(LogBinomial(249, 6)); math.Abs(got-3.115e11) > 0.002e11 {
		t.Errorf("C(249,6) = %v, want ~3.115e11", got)
	}
}

func TestBinomialEdges(t *testing.T) {
	if Binomial(5, -1).Sign() != 0 || Binomial(5, 6).Sign() != 0 {
		t.Fatal("out-of-range k should give 0")
	}
	if Binomial(0, 0).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("C(0,0) != 1")
	}
	if Binomial(7, 0).Cmp(big.NewInt(1)) != 0 || Binomial(7, 7).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("C(n,0) or C(n,n) != 1")
	}
}

func TestBinomialPascalProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%40) + 1
		k := int(kRaw) % (n + 1)
		lhs := Binomial(n, k)
		rhs := new(big.Int).Add(Binomial(n-1, k-1), Binomial(n-1, k))
		return lhs.Cmp(rhs) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLogBinomialMatchesExact(t *testing.T) {
	for n := 1; n <= 60; n += 7 {
		for k := 0; k <= n; k += 3 {
			exact, _ := new(big.Float).SetInt(Binomial(n, k)).Float64()
			got := math.Exp(LogBinomial(n, k))
			if math.Abs(got-exact) > 1e-9*exact {
				t.Errorf("exp(LogBinomial(%d,%d)) = %v, exact %v", n, k, got, exact)
			}
		}
	}
}

func TestSubsetIterationCount(t *testing.T) {
	for _, c := range []struct{ n, k int }{{6, 3}, {8, 1}, {5, 5}, {10, 4}} {
		count := 0
		ForEachSubset(c.n, c.k, func(s []int) bool {
			count++
			return true
		})
		want := Binomial(c.n, c.k).Int64()
		if int64(count) != want {
			t.Errorf("ForEachSubset(%d,%d) visited %d, want %d", c.n, c.k, count, want)
		}
	}
}

func TestSubsetIterationOrderAndValidity(t *testing.T) {
	var prev []int
	ForEachSubset(7, 3, func(s []int) bool {
		for i := 0; i < len(s); i++ {
			if s[i] < 0 || s[i] >= 7 {
				t.Fatalf("element out of range: %v", s)
			}
			if i > 0 && s[i] <= s[i-1] {
				t.Fatalf("not strictly increasing: %v", s)
			}
		}
		if prev != nil && !lexLess(prev, s) {
			t.Fatalf("not lexicographic: %v then %v", prev, s)
		}
		prev = append(prev[:0], s...)
		return true
	})
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func TestSubsetEarlyStop(t *testing.T) {
	count := 0
	ForEachSubset(10, 2, func(s []int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d, want 5", count)
	}
}

func TestFirstSubsetTooLarge(t *testing.T) {
	dst := make([]int, 4)
	if FirstSubset(dst, 3) {
		t.Fatal("FirstSubset should fail when k > n")
	}
}

func TestRankUnrankRoundTrip(t *testing.T) {
	f := func(seed uint8) bool {
		n := 12
		k := int(seed%5) + 1
		// Enumerate all: Unrank of each subset's lexicographic rank
		// (its position in the enumeration) must give it back.
		pos := int64(0)
		ok := true
		ForEachSubset(n, k, func(s []int) bool {
			dst := make([]int, k)
			Unrank(big.NewInt(pos), dst, n)
			for i := range dst {
				if dst[i] != s[i] {
					ok = false
					return false
				}
			}
			pos++
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNextSubsetLastReturnsFalse(t *testing.T) {
	s := []int{3, 4, 5}
	if NextSubset(s, 6) {
		t.Fatal("NextSubset on last subset returned true")
	}
}

func TestBinomialPanicsOnNegativeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Binomial(-1, 0) did not panic")
		}
	}()
	Binomial(-1, 0)
}

func BenchmarkForEachSubset51x3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		count := 0
		ForEachSubset(51, 3, func(s []int) bool {
			count++
			return true
		})
	}
}
