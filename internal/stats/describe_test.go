package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	var acc Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		acc.Add(x)
	}
	if got := acc.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Sample variance with n-1 = 32/7.
	if got := acc.Variance(); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
}

func TestMeanEmpty(t *testing.T) {
	var acc Accumulator
	if acc.Mean() != 0 || acc.Variance() != 0 {
		t.Fatal("empty accumulator: Mean or Variance != 0")
	}
	acc.Add(1)
	if acc.Variance() != 0 {
		t.Fatal("Variance of singleton != 0")
	}
}

func TestMinMax(t *testing.T) {
	var acc Accumulator
	for _, x := range []float64{3, -1, 4, 1, 5} {
		acc.Add(x)
	}
	if acc.Min() != -1 || acc.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", acc.Min(), acc.Max())
	}
}

// batchMeanVariance is the two-pass reference the streaming
// accumulator must agree with: the mean and the unbiased (n-1) sample
// variance of xs (len(xs) >= 2).
func batchMeanVariance(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	return mean, variance / float64(len(xs)-1)
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e8 {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) < 2 {
			return true
		}
		var acc Accumulator
		for _, x := range xs {
			acc.Add(x)
		}
		mean, variance := batchMeanVariance(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		scale := math.Max(1, math.Abs(mean))
		return almostEqual(acc.Mean(), mean, 1e-6*scale) &&
			almostEqual(acc.Variance(), variance, 1e-4*math.Max(1, variance)) &&
			acc.Min() == lo && acc.Max() == hi && acc.N() == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccumulatorMerge(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	var whole, left, right Accumulator
	for i, x := range xs {
		whole.Add(x)
		if i < 4 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(&right)
	if left.N() != whole.N() {
		t.Fatalf("merged N = %d", left.N())
	}
	if !almostEqual(left.Mean(), whole.Mean(), 1e-12) {
		t.Fatalf("merged mean = %v, want %v", left.Mean(), whole.Mean())
	}
	if !almostEqual(left.Variance(), whole.Variance(), 1e-12) {
		t.Fatalf("merged variance = %v, want %v", left.Variance(), whole.Variance())
	}
	if left.Min() != 1 || left.Max() != 10 {
		t.Fatalf("merged min/max = %v/%v", left.Min(), left.Max())
	}
}

func TestAccumulatorMergeEmpty(t *testing.T) {
	var a, b Accumulator
	a.Add(2)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 1 || a.Mean() != 2 {
		t.Fatal("merge with empty changed accumulator")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 1 || b.Mean() != 2 {
		t.Fatal("merge into empty did not copy")
	}
}
