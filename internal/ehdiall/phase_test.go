package ehdiall

import (
	"math"
	"testing"

	"repro/internal/genotype"
)

func TestPhaseHomozygoteIsCertain(t *testing.T) {
	pairs := [][2]uint32{
		{0b00, 0b00}, {0b11, 0b11}, {0b00, 0b11},
		{0b00, 0b00}, {0b11, 0b11},
	}
	pats := patternsFromHaplotypePairs(pairs, 2)
	res, err := Estimate(pats, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	phased, err := res.Phase(pats[:1]) // individual 00/00
	if err != nil {
		t.Fatal(err)
	}
	if phased[0].H1 != 0 || phased[0].H2 != 0 {
		t.Fatalf("homozygote phased to %02b/%02b", phased[0].H1, phased[0].H2)
	}
	if math.Abs(phased[0].Posterior-1) > 1e-9 {
		t.Fatalf("homozygote posterior = %v, want 1", phased[0].Posterior)
	}
}

func TestPhaseDoubleHetFollowsPopulation(t *testing.T) {
	// Population dominated by 00 and 11: a double heterozygote should
	// phase cis (00/11) with high posterior.
	pairs := [][2]uint32{
		{0b00, 0b00}, {0b00, 0b00}, {0b00, 0b00},
		{0b11, 0b11}, {0b11, 0b11}, {0b11, 0b11},
		{0b00, 0b11},
	}
	pats := patternsFromHaplotypePairs(pairs, 2)
	res, err := Estimate(pats, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dh := [][]genotype.Genotype{{1, 1}}
	phased, err := res.Phase(dh)
	if err != nil {
		t.Fatal(err)
	}
	if phased[0].H1 != 0b00 || phased[0].H2 != 0b11 {
		t.Fatalf("double het phased to %02b/%02b, want 00/11", phased[0].H1, phased[0].H2)
	}
	if phased[0].Posterior < 0.9 {
		t.Fatalf("posterior = %v, want > 0.9", phased[0].Posterior)
	}
}

func TestPhasePosteriorInRange(t *testing.T) {
	pairs := [][2]uint32{
		{0b001, 0b010}, {0b100, 0b111}, {0b000, 0b011},
		{0b101, 0b101}, {0b010, 0b010}, {0b110, 0b001},
	}
	pats := patternsFromHaplotypePairs(pairs, 3)
	res, err := Estimate(pats, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	phased, err := res.Phase(pats)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range phased {
		if p.Posterior <= 0 || p.Posterior > 1+1e-9 {
			t.Fatalf("pattern %d posterior out of range: %v", i, p.Posterior)
		}
		if p.H1 > p.H2 {
			t.Fatalf("pattern %d pair not canonical: %v > %v", i, p.H1, p.H2)
		}
		// The pair must be genotype-compatible: H1 + H2 alleles per
		// site must equal the pattern.
		for j := 0; j < 3; j++ {
			bit := uint32(1) << j
			count := genotype.Genotype(0)
			if p.H1&bit != 0 {
				count++
			}
			if p.H2&bit != 0 {
				count++
			}
			if count != pats[i][j] {
				t.Fatalf("pattern %d incompatible phase at site %d", i, j)
			}
		}
	}
}

func TestPhaseErrors(t *testing.T) {
	res := &Result{K: 2}
	if _, err := res.Phase([][]genotype.Genotype{{0, 0}}); err == nil {
		t.Fatal("Phase before estimation accepted")
	}
	pairs := [][2]uint32{{0, 0}, {1, 1}}
	pats := patternsFromHaplotypePairs(pairs, 1)
	fitted, err := Estimate(pats, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fitted.Phase([][]genotype.Genotype{{0, 0}}); err == nil {
		t.Fatal("wrong pattern length accepted")
	}
	if _, err := fitted.Phase([][]genotype.Genotype{{genotype.Missing}}); err == nil {
		t.Fatal("missing genotype accepted")
	}
}
