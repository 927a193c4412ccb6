package genotype

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// hweDataset draws genotypes in perfect HWE proportions for p2 = 0.5:
// expected 25% / 50% / 25%.
func hweDataset(n int, seed uint64) *Dataset {
	r := rng.New(seed)
	d := &Dataset{SNPs: []SNP{{Name: "S"}}}
	for i := 0; i < n; i++ {
		a := 0
		if r.Bool(0.5) {
			a++
		}
		if r.Bool(0.5) {
			a++
		}
		d.Individuals = append(d.Individuals, Individual{
			ID: "x", Genotypes: []Genotype{Genotype(a)},
		})
	}
	return d
}

func TestHWETestEquilibrium(t *testing.T) {
	d := hweDataset(2000, 1)
	res, err := d.HWETest(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue < 0.001 {
		t.Fatalf("equilibrium data rejected: p = %v (chi2 %v)", res.PValue, res.ChiSquare)
	}
	if res.Typed != 2000 {
		t.Fatalf("typed = %d", res.Typed)
	}
	sumExp := res.Expected[0] + res.Expected[1] + res.Expected[2]
	if math.Abs(sumExp-2000) > 1e-6 {
		t.Fatalf("expected counts sum to %v", sumExp)
	}
}

func TestHWETestDisequilibrium(t *testing.T) {
	// All heterozygotes: maximal HWE violation at p = 0.5.
	d := &Dataset{SNPs: []SNP{{Name: "S"}}}
	for i := 0; i < 200; i++ {
		d.Individuals = append(d.Individuals, Individual{ID: "x", Genotypes: []Genotype{1}})
	}
	res, err := d.HWETest(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue > 1e-10 {
		t.Fatalf("all-heterozygote data not rejected: p = %v", res.PValue)
	}
}

func TestHWETestMonomorphic(t *testing.T) {
	d := &Dataset{SNPs: []SNP{{Name: "S"}}}
	for i := 0; i < 50; i++ {
		d.Individuals = append(d.Individuals, Individual{ID: "x", Genotypes: []Genotype{0}})
	}
	res, err := d.HWETest(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue != 1 || res.ChiSquare != 0 {
		t.Fatalf("monomorphic SNP: p = %v, chi2 = %v", res.PValue, res.ChiSquare)
	}
}

func TestHWETestRowsSelection(t *testing.T) {
	// Controls in HWE, cases all heterozygous: testing controls only
	// must pass, testing cases only must fail.
	d := &Dataset{SNPs: []SNP{{Name: "S"}}}
	r := rng.New(2)
	for i := 0; i < 300; i++ {
		a := 0
		if r.Bool(0.5) {
			a++
		}
		if r.Bool(0.5) {
			a++
		}
		d.Individuals = append(d.Individuals, Individual{
			ID: "c", Status: Unaffected, Genotypes: []Genotype{Genotype(a)},
		})
	}
	for i := 0; i < 300; i++ {
		d.Individuals = append(d.Individuals, Individual{
			ID: "a", Status: Affected, Genotypes: []Genotype{1},
		})
	}
	ctl, err := d.HWETest(0, d.ByStatus(Unaffected))
	if err != nil {
		t.Fatal(err)
	}
	if ctl.PValue < 0.001 {
		t.Fatalf("controls rejected: %v", ctl.PValue)
	}
	cas, err := d.HWETest(0, d.ByStatus(Affected))
	if err != nil {
		t.Fatal(err)
	}
	if cas.PValue > 1e-10 {
		t.Fatalf("all-het cases not rejected: %v", cas.PValue)
	}
}

func TestHWETestErrors(t *testing.T) {
	d := hweDataset(10, 3)
	if _, err := d.HWETest(5, nil); err == nil {
		t.Fatal("out-of-range SNP accepted")
	}
	empty := &Dataset{SNPs: []SNP{{Name: "S"}}, Individuals: []Individual{
		{ID: "x", Genotypes: []Genotype{Missing}},
	}}
	if _, err := empty.HWETest(0, nil); err == nil {
		t.Fatal("all-missing SNP accepted")
	}
}

func TestHWEFilter(t *testing.T) {
	// SNP0 in equilibrium, SNP1 all heterozygous.
	d := &Dataset{SNPs: []SNP{{Name: "ok"}, {Name: "bad"}}}
	r := rng.New(5)
	for i := 0; i < 400; i++ {
		a := 0
		if r.Bool(0.5) {
			a++
		}
		if r.Bool(0.5) {
			a++
		}
		d.Individuals = append(d.Individuals, Individual{
			ID: "x", Genotypes: []Genotype{Genotype(a), 1},
		})
	}
	keep, err := d.HWEFilter(nil, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(keep) != 1 || keep[0] != 0 {
		t.Fatalf("keep = %v, want [0]", keep)
	}
	if _, err := d.HWEFilter(nil, 2); err == nil {
		t.Fatal("alpha >= 1 accepted")
	}
}

// TestHWETestAllRowsAllocFree pins the nil-rows path (every
// individual) to zero allocations: it walks d.Individuals directly
// instead of building an index of every row, and its result equals an
// explicit all-rows selection.
func TestHWETestAllRowsAllocFree(t *testing.T) {
	d := hweDataset(500, 4)
	all := make([]int, d.NumIndividuals())
	for i := range all {
		all[i] = i
	}
	want, err := d.HWETest(0, all)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.HWETest(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("HWETest(nil) = %+v, want the all-rows result %+v", got, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = d.HWETest(0, nil) }); allocs != 0 {
		t.Fatalf("HWETest(j, nil) allocates %v times per call, want 0", allocs)
	}
}
