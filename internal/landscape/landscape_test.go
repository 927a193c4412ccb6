package landscape

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/combin"
	"repro/internal/fitness"
)

// sumEval scores a haplotype by the sum of its sites plus a size bonus
// so that means grow with size; the unique best size-k set is the k
// largest sites.
var sumEval = fitness.Func(func(sites []int) (float64, error) {
	s := 0
	for _, v := range sites {
		s += v
	}
	return float64(s) + 100*float64(len(sites)), nil
})

func TestEnumerateCountsAndBest(t *testing.T) {
	const n = 10
	sums, err := EnumerateContext(context.Background(), sumEval, n, Config{MinSize: 2, MaxSize: 3, TopN: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("got %d summaries", len(sums))
	}
	for i, k := range []int{2, 3} {
		s := sums[i]
		if s.K != k {
			t.Fatalf("summary %d has K=%d", i, s.K)
		}
		want := combin.Binomial(n, k).Int64()
		if s.Count != want {
			t.Fatalf("size %d enumerated %d, want %d", k, s.Count, want)
		}
		if s.Failed != 0 {
			t.Fatalf("unexpected failures: %d", s.Failed)
		}
	}
	// Best size-2 is {8,9}; best size-3 is {7,8,9}.
	b2 := sums[0].Best()
	if b2.Sites[0] != 8 || b2.Sites[1] != 9 {
		t.Fatalf("best size-2 = %v", b2.Sites)
	}
	b3 := sums[1].Best()
	if b3.Sites[0] != 7 || b3.Sites[1] != 8 || b3.Sites[2] != 9 {
		t.Fatalf("best size-3 = %v", b3.Sites)
	}
}

func TestEnumerateTopOrderedAndDistinct(t *testing.T) {
	sums, err := EnumerateContext(context.Background(), sumEval, 12, Config{MinSize: 3, MaxSize: 3, TopN: 8})
	if err != nil {
		t.Fatal(err)
	}
	top := sums[0].Top
	if len(top) != 8 {
		t.Fatalf("top has %d entries", len(top))
	}
	seen := map[string]bool{}
	for i, e := range top {
		if i > 0 && e.Fitness > top[i-1].Fitness {
			t.Fatal("top not sorted descending")
		}
		key := fmt.Sprint(e.Sites)
		if seen[key] {
			t.Fatalf("duplicate top entry %v", e.Sites)
		}
		seen[key] = true
	}
}

func TestEnumerateParallelMatchesSerial(t *testing.T) {
	serial, err := EnumerateContext(context.Background(), sumEval, 11, Config{MinSize: 2, MaxSize: 3, TopN: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := EnumerateContext(context.Background(), sumEval, 11, Config{MinSize: 2, MaxSize: 3, TopN: 6, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Count != p.Count || math.Abs(s.Mean-p.Mean) > 1e-9 ||
			math.Abs(s.Std-p.Std) > 1e-9 || s.Min != p.Min || s.Max != p.Max {
			t.Fatalf("size %d stats differ: %+v vs %+v", s.K, s, p)
		}
		for j := range s.Top {
			if s.Top[j].Fitness != p.Top[j].Fitness {
				t.Fatalf("size %d top %d differs", s.K, j)
			}
		}
	}
}

func TestEnumerateCountsFailures(t *testing.T) {
	ev := fitness.Func(func(sites []int) (float64, error) {
		for _, s := range sites {
			if s == 0 {
				return 0, fmt.Errorf("bad site")
			}
		}
		return 1, nil
	})
	sums, err := EnumerateContext(context.Background(), ev, 6, Config{MinSize: 2, MaxSize: 2, TopN: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := sums[0]
	// Pairs containing site 0: C(5,1) = 5 of C(6,2) = 15.
	if s.Failed != 5 || s.Count != 10 {
		t.Fatalf("failed/count = %d/%d, want 5/10", s.Failed, s.Count)
	}
}

func TestEnumerateConfigErrors(t *testing.T) {
	if _, err := EnumerateContext(context.Background(), sumEval, 10, Config{MinSize: 3, MaxSize: 2}); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := EnumerateContext(context.Background(), sumEval, 4, Config{MinSize: 2, MaxSize: 9}); err == nil {
		t.Fatal("oversized MaxSize accepted")
	}
}

func TestIsSubset(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{1, 3}, []int{1, 2, 3}, true},
		{[]int{1, 4}, []int{1, 2, 3}, false},
		{nil, []int{1}, true},
		{[]int{1}, nil, false},
		{[]int{2, 2}, []int{2, 3}, false}, // malformed a cannot match twice
	}
	for _, c := range cases {
		if got := isSubset(c.a, c.b); got != c.want {
			t.Errorf("isSubset(%v, %v) = %v", c.a, c.b, got)
		}
	}
}

func TestContainmentOnNestedLandscape(t *testing.T) {
	// sumEval's optima nest perfectly (top size-k sets are the k
	// largest sites), so containment should be complete.
	sums, err := EnumerateContext(context.Background(), sumEval, 10, Config{MinSize: 2, MaxSize: 4, TopN: 3})
	if err != nil {
		t.Fatal(err)
	}
	cont := AnalyzeContainment(sums)
	if len(cont) != 2 {
		t.Fatalf("got %d containment rows", len(cont))
	}
	if cont[0].Fraction() != 1 {
		t.Fatalf("nested landscape containment = %v, want 1", cont[0].Fraction())
	}
}

func TestContainmentOnAdversarialLandscape(t *testing.T) {
	// Fitness rewards size-3 sets that avoid the best pairs: best
	// pairs live in high sites, best triples in low sites.
	ev := fitness.Func(func(sites []int) (float64, error) {
		s := 0
		for _, v := range sites {
			s += v
		}
		if len(sites) == 2 {
			return float64(s), nil
		}
		return float64(-s), nil
	})
	sums, err := EnumerateContext(context.Background(), ev, 10, Config{MinSize: 2, MaxSize: 3, TopN: 3})
	if err != nil {
		t.Fatal(err)
	}
	cont := AnalyzeContainment(sums)
	if cont[0].Fraction() != 0 {
		t.Fatalf("adversarial containment = %v, want 0 (best triples avoid best pairs)",
			cont[0].Fraction())
	}
}

func TestRangesGrow(t *testing.T) {
	sums, err := EnumerateContext(context.Background(), sumEval, 10, Config{MinSize: 2, MaxSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !RangesGrow(sums) {
		t.Fatal("size bonus landscape should have growing means")
	}
	if RangesGrow(sums[:1]) {
		t.Fatal("single summary cannot grow")
	}
}

func TestBestOfEmptySummary(t *testing.T) {
	var s SizeSummary
	if b := s.Best(); b.Sites != nil {
		t.Fatal("empty summary best should be zero")
	}
}

func BenchmarkEnumerate51Size2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := EnumerateContext(context.Background(), sumEval, 51, Config{MinSize: 2, MaxSize: 2, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
