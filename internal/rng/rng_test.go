package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not simply replay the parent stream.
	p := New(7)
	p.Split()
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatalf("split child mirrors parent at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for n := 1; n <= 33; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(9)
	const n, draws = 7, 140000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d count %d deviates from %v by more than 5%%", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolEdges(t *testing.T) {
	r := New(23)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := New(29)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(37)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSampleProperties(t *testing.T) {
	r := New(41)
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%60) + 1
		k := int(kRaw) % (n + 1)
		s := New(seed).Sample(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestSampleFullRange(t *testing.T) {
	s := New(43).Sample(10, 10)
	seen := make([]bool, 10)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("Sample(10,10) missing %d: %v", i, s)
		}
	}
}

func TestSampleUniform(t *testing.T) {
	// Each element of [0,10) should appear in Sample(10, 3) with
	// probability 3/10.
	r := New(47)
	counts := make([]int, 10)
	const draws = 50000
	for i := 0; i < draws; i++ {
		for _, v := range r.Sample(10, 3) {
			counts[v]++
		}
	}
	want := float64(draws) * 0.3
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("element %d sampled %d times, want ~%v", i, c, want)
		}
	}
}

func TestChoiceWeighted(t *testing.T) {
	r := New(53)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const draws = 80000
	for i := 0; i < draws; i++ {
		counts[r.Choice(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight bucket chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestChoicePanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choice with zero total weight did not panic")
		}
	}()
	New(1).Choice([]float64{0, 0})
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(59)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
}

func TestShuffleCoverage(t *testing.T) {
	// Every position should receive every value eventually.
	r := New(61)
	const n = 5
	hits := [n][n]int{}
	for trial := 0; trial < 6000; trial++ {
		p := []int{0, 1, 2, 3, 4}
		r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		for pos, v := range p {
			hits[pos][v]++
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if hits[i][j] == 0 {
				t.Fatalf("value %d never appeared at position %d", j, i)
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkSample(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Sample(249, 6)
	}
}
