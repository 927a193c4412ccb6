package ehdiall

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/genotype"
	"repro/internal/rng"
)

// patternsFromHaplotypePairs builds genotype patterns from explicit
// haplotype pairs; haplotypes are bitmasks over k sites.
func patternsFromHaplotypePairs(pairs [][2]uint32, k int) [][]genotype.Genotype {
	out := make([][]genotype.Genotype, len(pairs))
	for i, pr := range pairs {
		pat := make([]genotype.Genotype, k)
		for j := 0; j < k; j++ {
			bit := uint32(1) << j
			g := genotype.Genotype(0)
			if pr[0]&bit != 0 {
				g++
			}
			if pr[1]&bit != 0 {
				g++
			}
			pat[j] = g
		}
		out[i] = pat
	}
	return out
}

func TestRecoverUnambiguousFrequencies(t *testing.T) {
	// Each individual has at most one heterozygous site, so phase is
	// unique and the ML frequencies equal the direct counts.
	pairs := [][2]uint32{
		{0b00, 0b00}, {0b00, 0b00},
		{0b11, 0b11},
		{0b00, 0b01}, // het at site 0 only
		{0b11, 0b10}, // het at site 0 only
	}
	res, err := Estimate(patternsFromHaplotypePairs(pairs, 2), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Direct haplotype counts: 00 x5, 11 x3, 01 x1, 10 x1 over 10.
	want := map[int]float64{0b00: 0.5, 0b11: 0.3, 0b01: 0.1, 0b10: 0.1}
	for h, w := range want {
		if math.Abs(res.Freqs[h]-w) > 1e-6 {
			t.Errorf("freq[%02b] = %v, want %v", h, res.Freqs[h], w)
		}
	}
	if !res.Converged {
		t.Error("EM did not converge on trivial data")
	}
}

func TestEMResolvesPhaseFromContext(t *testing.T) {
	// Population dominated by 00 and 11 haplotypes, plus double
	// heterozygotes: EM should assign the double hets to the cis
	// configuration (00/11), giving near-zero 01 and 10 frequency.
	pairs := [][2]uint32{
		{0b00, 0b00}, {0b00, 0b00}, {0b00, 0b00},
		{0b11, 0b11}, {0b11, 0b11}, {0b11, 0b11},
		{0b00, 0b11}, {0b00, 0b11},
	}
	res, err := Estimate(patternsFromHaplotypePairs(pairs, 2), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Freqs[0b01]+res.Freqs[0b10] > 0.02 {
		t.Fatalf("EM failed to phase double hets: f01+f10 = %v",
			res.Freqs[0b01]+res.Freqs[0b10])
	}
	if res.LRT() <= 0 {
		t.Fatalf("associated data should give positive LRT, got %v", res.LRT())
	}
}

func TestNullFreqsAreProducts(t *testing.T) {
	pairs := [][2]uint32{
		{0b00, 0b01}, {0b10, 0b11}, {0b01, 0b01}, {0b10, 0b00},
	}
	res, err := Estimate(patternsFromHaplotypePairs(pairs, 2), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Allele-2 frequency per site from the pairs above.
	// Site 0 (bit 0): set in 0b01,0b11,0b01,0b01 -> 4 of 8.
	// Site 1 (bit 1): set in 0b10,0b11,0b10 -> 3 of 8.
	p0, p1 := 0.5, 0.375
	want := []float64{(1 - p0) * (1 - p1), p0 * (1 - p1), (1 - p0) * p1, p0 * p1}
	for h, w := range want {
		if math.Abs(res.NullFreqs[h]-w) > 1e-9 {
			t.Errorf("null freq[%02b] = %v, want %v", h, res.NullFreqs[h], w)
		}
	}
}

func TestFrequenciesSumToOneProperty(t *testing.T) {
	f := func(seed uint64, kRaw, nRaw uint8) bool {
		k := int(kRaw%4) + 1
		n := int(nRaw%50) + 2
		r := rng.New(seed)
		pats := make([][]genotype.Genotype, n)
		for i := range pats {
			pat := make([]genotype.Genotype, k)
			for j := range pat {
				pat[j] = genotype.Genotype(r.Intn(3))
			}
			pats[i] = pat
		}
		res, err := Estimate(pats, k, Config{})
		if err != nil {
			return false
		}
		sum, nullSum := 0.0, 0.0
		for h := range res.Freqs {
			if res.Freqs[h] < -1e-12 {
				return false
			}
			sum += res.Freqs[h]
			nullSum += res.NullFreqs[h]
		}
		return math.Abs(sum-1) < 1e-6 && math.Abs(nullSum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLRTNonNegativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := r.Intn(4) + 1
		n := r.Intn(60) + 3
		pats := make([][]genotype.Genotype, n)
		for i := range pats {
			pat := make([]genotype.Genotype, k)
			for j := range pat {
				pat[j] = genotype.Genotype(r.Intn(3))
			}
			pats[i] = pat
		}
		res, err := Estimate(pats, k, Config{})
		if err != nil {
			return false
		}
		return res.LRT() >= 0 && res.LogLik() <= 0 && res.NullLogLik() <= res.LogLik()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIndependentSitesSmallLRT(t *testing.T) {
	// Genotypes drawn independently per site: association LRT should
	// be small relative to its degrees of freedom.
	r := rng.New(99)
	pats := make([][]genotype.Genotype, 500)
	for i := range pats {
		pats[i] = []genotype.Genotype{
			genotype.Genotype(r.Intn(3)),
			genotype.Genotype(r.Intn(3)),
			genotype.Genotype(r.Intn(3)),
		}
	}
	res, err := Estimate(pats, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// LRT ~ chi2 with df = 2^3-1-3 = 4; mean 4, so < 20 with huge margin.
	if res.LRT() > 20 {
		t.Fatalf("independent sites gave LRT %v, expected near df=4", res.LRT())
	}
	if res.DF() != 4 {
		t.Fatalf("DF = %d, want 4", res.DF())
	}
}

func TestPerfectAssociationLargeLRT(t *testing.T) {
	// Only haplotypes 000 and 111 (complementary): maximal
	// association between sites.
	var pairs [][2]uint32
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0:
			pairs = append(pairs, [2]uint32{0b000, 0b000})
		case 1:
			pairs = append(pairs, [2]uint32{0b111, 0b111})
		default:
			pairs = append(pairs, [2]uint32{0b000, 0b111})
		}
	}
	res, err := Estimate(patternsFromHaplotypePairs(pairs, 3), 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Freqs[0b000] < 0.45 || res.Freqs[0b111] < 0.45 {
		t.Fatalf("freqs of true haplotypes too low: %v / %v",
			res.Freqs[0b000], res.Freqs[0b111])
	}
	if res.LRT() < 20 {
		t.Fatalf("perfect association gave weak LRT %v", res.LRT())
	}
}

func TestExpectedCountsSumTo2N(t *testing.T) {
	r := rng.New(7)
	pats := make([][]genotype.Genotype, 41)
	for i := range pats {
		pats[i] = []genotype.Genotype{genotype.Genotype(r.Intn(3)), genotype.Genotype(r.Intn(3))}
	}
	res, err := Estimate(pats, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, c := range res.ExpectedCounts() {
		sum += c
	}
	if math.Abs(sum-2*41) > 1e-6 {
		t.Fatalf("expected counts sum to %v, want %v", sum, 2*41)
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := Estimate(nil, 2, Config{}); err != ErrNoData {
		t.Fatalf("empty patterns: err = %v, want ErrNoData", err)
	}
	if _, err := Estimate(nil, 0, Config{}); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, err := Estimate(nil, MaxSNPs+1, Config{}); err == nil {
		t.Fatal("k > MaxSNPs accepted")
	}
	bad := [][]genotype.Genotype{{0, 1, 2}}
	if _, err := Estimate(bad, 2, Config{}); err == nil {
		t.Fatal("wrong pattern length accepted")
	}
	invalid := [][]genotype.Genotype{{0, genotype.Missing}}
	if _, err := Estimate(invalid, 2, Config{}); err == nil {
		t.Fatal("missing genotype in pattern accepted")
	}
}

func TestEstimateDataset(t *testing.T) {
	d := &genotype.Dataset{
		SNPs: []genotype.SNP{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Individuals: []genotype.Individual{
			{ID: "1", Status: genotype.Affected, Genotypes: []genotype.Genotype{0, 1, 2}},
			{ID: "2", Status: genotype.Affected, Genotypes: []genotype.Genotype{2, 1, 0}},
			{ID: "3", Status: genotype.Affected, Genotypes: []genotype.Genotype{1, genotype.Missing, 1}},
			{ID: "4", Status: genotype.Affected, Genotypes: []genotype.Genotype{0, 0, 0}},
		},
	}
	res, err := EstimateDataset(d, []int{0, 1, 2, 3}, []int{0, 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 4 {
		t.Fatalf("N = %d, want 4 (no missing at sites 0,2)", res.N)
	}
	res, err = EstimateDataset(d, []int{0, 1, 2, 3}, []int{1, 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 3 {
		t.Fatalf("N = %d, want 3 (individual 3 missing at site 1)", res.N)
	}
}

func TestDFFormula(t *testing.T) {
	for k := 1; k <= 6; k++ {
		r := Result{K: k}
		want := (1 << k) - 1 - k
		if r.DF() != want {
			t.Errorf("DF(k=%d) = %d, want %d", k, r.DF(), want)
		}
	}
}

func TestPValueRange(t *testing.T) {
	r := rng.New(3)
	pats := make([][]genotype.Genotype, 60)
	for i := range pats {
		pats[i] = []genotype.Genotype{
			genotype.Genotype(r.Intn(3)),
			genotype.Genotype(r.Intn(3)),
			genotype.Genotype(r.Intn(3)),
		}
	}
	res, err := Estimate(pats, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.PValue()
	if p < 0 || p > 1 {
		t.Fatalf("p-value out of range: %v", p)
	}
	k1 := Result{K: 1} // df = 0: p-value defined as 1
	if k1.PValue() != 1 {
		t.Fatal("df=0 p-value should be 1")
	}
}

// Exponential cost in k is the substance of the paper's Figure 4; the
// benchmark family below regenerates the curve at package level.
func benchmarkEstimateK(b *testing.B, k int) {
	r := rng.New(42)
	pats := make([][]genotype.Genotype, 106)
	for i := range pats {
		pat := make([]genotype.Genotype, k)
		for j := range pat {
			pat[j] = genotype.Genotype(r.Intn(3))
		}
		pats[i] = pat
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Estimate(pats, k, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateK2(b *testing.B) { benchmarkEstimateK(b, 2) }
func BenchmarkEstimateK4(b *testing.B) { benchmarkEstimateK(b, 4) }
func BenchmarkEstimateK6(b *testing.B) { benchmarkEstimateK(b, 6) }
func BenchmarkEstimateK8(b *testing.B) { benchmarkEstimateK(b, 8) }
