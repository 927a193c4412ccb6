package genotype

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func tinyDataset() *Dataset {
	return &Dataset{
		SNPs: []SNP{{Name: "S0"}, {Name: "S1"}, {Name: "S2"}},
		Individuals: []Individual{
			{ID: "a", Status: Affected, Genotypes: []Genotype{0, 1, 2}},
			{ID: "b", Status: Affected, Genotypes: []Genotype{1, 1, Missing}},
			{ID: "c", Status: Unaffected, Genotypes: []Genotype{2, 0, 0}},
			{ID: "d", Status: Unknown, Genotypes: []Genotype{0, 2, 1}},
		},
	}
}

func TestGenotypeString(t *testing.T) {
	cases := map[Genotype]string{0: "11", 1: "12", 2: "22", Missing: "00"}
	for g, want := range cases {
		if g.String() != want {
			t.Errorf("Genotype(%d).String() = %q, want %q", g, g.String(), want)
		}
	}
	if !strings.Contains(Genotype(7).String(), "invalid") {
		t.Error("invalid genotype should render as invalid")
	}
}

func TestGenotypeValid(t *testing.T) {
	for _, g := range []Genotype{0, 1, 2, Missing} {
		if !g.Valid() {
			t.Errorf("Genotype %d should be valid", g)
		}
	}
	if Genotype(3).Valid() {
		t.Error("Genotype 3 should be invalid")
	}
}

func TestStatusRoundTrip(t *testing.T) {
	for _, s := range []Status{Affected, Unaffected, Unknown} {
		got, err := ParseStatus(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStatus(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStatus("Z"); err == nil {
		t.Error("ParseStatus accepted garbage")
	}
}

func TestCountByStatus(t *testing.T) {
	d := tinyDataset()
	a, u, q := d.CountByStatus()
	if a != 2 || u != 1 || q != 1 {
		t.Fatalf("CountByStatus = %d,%d,%d", a, u, q)
	}
}

func TestByStatus(t *testing.T) {
	d := tinyDataset()
	aff := d.ByStatus(Affected)
	if len(aff) != 2 || aff[0] != 0 || aff[1] != 1 {
		t.Fatalf("ByStatus(Affected) = %v", aff)
	}
}

func TestValidateDetectsProblems(t *testing.T) {
	d := tinyDataset()
	if err := d.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}

	dup := tinyDataset()
	dup.SNPs[1].Name = "S0"
	if err := dup.Validate(); err == nil {
		t.Error("duplicate SNP name accepted")
	}

	short := tinyDataset()
	short.Individuals[0].Genotypes = short.Individuals[0].Genotypes[:2]
	if err := short.Validate(); err == nil {
		t.Error("short genotype vector accepted")
	}

	bad := tinyDataset()
	bad.Individuals[2].Genotypes[0] = 9
	if err := bad.Validate(); err == nil {
		t.Error("invalid genotype accepted")
	}

	empty := tinyDataset()
	empty.SNPs[0].Name = ""
	if err := empty.Validate(); err == nil {
		t.Error("empty SNP name accepted")
	}
}

func TestAlleleFreq(t *testing.T) {
	d := tinyDataset()
	// SNP0: genotypes 0,1,2,0 -> allele-2 count 3 over 8 alleles.
	p1, p2, typed := d.AlleleFreq(0)
	if typed != 4 {
		t.Fatalf("typed = %d", typed)
	}
	if math.Abs(p2-3.0/8) > 1e-12 || math.Abs(p1-5.0/8) > 1e-12 {
		t.Fatalf("freqs = %v, %v", p1, p2)
	}
	// SNP2 has one missing: genotypes 2,_,0,1 -> 3 typed, count 3/6.
	_, p2, typed = d.AlleleFreq(2)
	if typed != 3 || math.Abs(p2-0.5) > 1e-12 {
		t.Fatalf("SNP2 freq = %v typed %d", p2, typed)
	}
}

func TestMinorAlleleFreq(t *testing.T) {
	d := tinyDataset()
	if got := d.MinorAlleleFreq(0); math.Abs(got-3.0/8) > 1e-12 {
		t.Fatalf("MAF = %v", got)
	}
}

func TestFreqTableShape(t *testing.T) {
	d := tinyDataset()
	ft := d.FreqTable()
	if len(ft) != 3 {
		t.Fatalf("FreqTable rows = %d", len(ft))
	}
	for j, row := range ft {
		if math.Abs(row[0]+row[1]-1) > 1e-12 {
			t.Errorf("SNP %d frequencies do not sum to 1: %v", j, row)
		}
	}
}

func TestSubset(t *testing.T) {
	d := tinyDataset()
	s := d.Subset([]int{2, 0})
	if s.NumIndividuals() != 2 || s.Individuals[0].ID != "c" || s.Individuals[1].ID != "a" {
		t.Fatalf("Subset wrong: %+v", s.Individuals)
	}
	if s.NumSNPs() != 3 {
		t.Fatal("Subset changed SNP count")
	}
}

func TestColumnPatternsDropsMissing(t *testing.T) {
	d := tinyDataset()
	// Individual b has Missing at SNP2, so selecting {0,2} drops it.
	pats := d.ColumnPatterns([]int{0, 1, 2, 3}, []int{0, 2})
	if len(pats) != 3 {
		t.Fatalf("got %d patterns, want 3", len(pats))
	}
	if pats[0][0] != 0 || pats[0][1] != 2 {
		t.Fatalf("pattern 0 = %v", pats[0])
	}
}

func TestColumnPatternsSubsetRows(t *testing.T) {
	d := tinyDataset()
	pats := d.ColumnPatterns(d.ByStatus(Affected), []int{0, 1})
	if len(pats) != 2 {
		t.Fatalf("got %d patterns, want 2", len(pats))
	}
}

func TestSNPIndexByName(t *testing.T) {
	d := tinyDataset()
	m := d.SNPIndexByName()
	if m["S1"] != 1 || len(m) != 3 {
		t.Fatalf("index map = %v", m)
	}
	names := d.SNPNames([]int{2, 0})
	if names[0] != "S2" || names[1] != "S0" {
		t.Fatalf("SNPNames = %v", names)
	}
}

func TestIORoundTrip(t *testing.T) {
	d := tinyDataset()
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSNPs() != d.NumSNPs() || back.NumIndividuals() != d.NumIndividuals() {
		t.Fatalf("round trip changed shape: %d/%d", back.NumSNPs(), back.NumIndividuals())
	}
	for i := range d.Individuals {
		if back.Individuals[i].ID != d.Individuals[i].ID ||
			back.Individuals[i].Status != d.Individuals[i].Status {
			t.Fatalf("individual %d mismatch", i)
		}
		for j := range d.SNPs {
			if back.Individuals[i].Genotypes[j] != d.Individuals[i].Genotypes[j] {
				t.Fatalf("genotype (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"no header":      "ind1 A 11 12\n",
		"bad header":     "NAME GROUP S0\nind1 A 11\n",
		"short row":      "ID STATUS S0 S1\nind1 A 11\n",
		"bad status":     "ID STATUS S0\nind1 Q 11\n",
		"bad genotype":   "ID STATUS S0\nind1 A 13\n",
		"duplicate snps": "ID STATUS S0 S0\nind1 A 11 12\n",
	}
	for name, input := range cases {
		if _, err := Read(strings.NewReader(input)); err == nil {
			t.Errorf("%s: malformed input accepted", name)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	input := "# comment\n\nID STATUS S0\n# another\nind1 A 21\n"
	d, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if d.NumIndividuals() != 1 || d.Individuals[0].Genotypes[0] != 1 {
		t.Fatalf("parsed dataset wrong: %+v", d.Individuals)
	}
}

func TestWriteFreqTable(t *testing.T) {
	d := tinyDataset()
	var buf bytes.Buffer
	if err := WriteFreqTable(&buf, d); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("freq table has %d lines, want 4", len(lines))
	}
	if !strings.HasPrefix(lines[1], "S0\t") {
		t.Fatalf("unexpected first row: %q", lines[1])
	}
}

func TestFileRoundTrip(t *testing.T) {
	d := tinyDataset()
	path := t.TempDir() + "/data.txt"
	if err := WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumIndividuals() != 4 {
		t.Fatal("file round trip lost individuals")
	}
	if _, err := ReadFile(path + ".does-not-exist"); err == nil {
		t.Fatal("reading missing file succeeded")
	}
}

func TestMissingRate(t *testing.T) {
	d := &Dataset{
		SNPs: []SNP{{Name: "common"}, {Name: "rare"}, {Name: "missing"}, {Name: "good"}},
		Individuals: []Individual{
			{ID: "1", Status: Affected, Genotypes: []Genotype{1, 0, Missing, 2}},
			{ID: "2", Status: Affected, Genotypes: []Genotype{2, 0, Missing, 1}},
			{ID: "3", Status: Unaffected, Genotypes: []Genotype{1, 0, Missing, 0}},
			{ID: "4", Status: Unaffected, Genotypes: []Genotype{0, 0, 1, 1}},
			{ID: "5", Status: Unknown, Genotypes: []Genotype{1, 1, Missing, 2}},
		},
	}
	// 4 missing of 20 calls.
	if got := d.MissingRate(); got != 0.2 {
		t.Fatalf("MissingRate = %v, want 0.2", got)
	}
	empty := &Dataset{}
	if empty.MissingRate() != 0 {
		t.Fatal("empty dataset missing rate should be 0")
	}
}
