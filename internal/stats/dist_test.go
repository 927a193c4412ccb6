package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// Reference values computed from standard chi-square tables.
func TestChiSquareSurvivalReference(t *testing.T) {
	cases := []struct {
		x    float64
		df   int
		want float64
		tol  float64
	}{
		{3.841, 1, 0.05, 1e-3},
		{6.635, 1, 0.01, 1e-3},
		{5.991, 2, 0.05, 1e-3},
		{7.815, 3, 0.05, 1e-3},
		{9.488, 4, 0.05, 1e-3},
		{18.307, 10, 0.05, 1e-3},
		{29.588, 42, 0.925, 1e-2},
		{124.342, 100, 0.05, 1e-3},
	}
	for _, c := range cases {
		got := ChiSquareSurvival(c.x, c.df)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("ChiSquareSurvival(%v, %d) = %v, want %v", c.x, c.df, got, c.want)
		}
	}
}

func TestChiSquareCDFPlusSurvivalIsOne(t *testing.T) {
	f := func(xRaw, dfRaw uint16) bool {
		x := float64(xRaw%2000) / 10
		df := int(dfRaw%60) + 1
		s := ChiSquareCDF(x, df) + ChiSquareSurvival(x, df)
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChiSquareCDFMonotone(t *testing.T) {
	for df := 1; df <= 20; df++ {
		prev := -1.0
		for x := 0.0; x < 60; x += 0.5 {
			v := ChiSquareCDF(x, df)
			if v < prev-1e-12 {
				t.Fatalf("CDF not monotone at x=%v df=%d: %v < %v", x, df, v, prev)
			}
			if v < 0 || v > 1 {
				t.Fatalf("CDF out of [0,1]: %v", v)
			}
			prev = v
		}
	}
}

func TestChiSquareCDFEdge(t *testing.T) {
	if got := ChiSquareCDF(0, 3); got != 0 {
		t.Fatalf("CDF(0) = %v, want 0", got)
	}
	if got := ChiSquareCDF(-5, 3); got != 0 {
		t.Fatalf("CDF(-5) = %v, want 0", got)
	}
	if got := ChiSquareSurvival(0, 3); got != 1 {
		t.Fatalf("Survival(0) = %v, want 1", got)
	}
}

func TestChiSquareMeanProperty(t *testing.T) {
	// Median of chi-square(df) is approximately df(1-2/(9df))^3, so
	// the CDF there is close to one half.
	for df := 2; df <= 40; df += 3 {
		approx := float64(df) * math.Pow(1-2.0/(9*float64(df)), 3)
		if got := ChiSquareCDF(approx, df); math.Abs(got-0.5) > 0.01 {
			t.Errorf("CDF(approximate median %v, df=%d) = %v, want ~0.5", approx, df, got)
		}
	}
}

func TestRegularizedGammaPErrors(t *testing.T) {
	if _, err := RegularizedGammaP(-1, 1); err == nil {
		t.Fatal("expected error for a <= 0")
	}
	if _, err := RegularizedGammaP(1, -1); err == nil {
		t.Fatal("expected error for x < 0")
	}
	p, err := RegularizedGammaP(2.5, 0)
	if err != nil || p != 0 {
		t.Fatalf("P(a, 0) = %v, %v", p, err)
	}
}

func TestChiSquarePanicsOnBadDF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ChiSquareCDF(1, 0) did not panic")
		}
	}()
	ChiSquareCDF(1, 0)
}

func BenchmarkChiSquareSurvival(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = ChiSquareSurvival(42.5, 63)
	}
}
