package genotype

import (
	"math/bits"
	"math/rand"
	"testing"
)

// packColumnInto is the one-column reference packer PackRange is
// checked against: codes 00/01/10 for 0/1/2 copies of allele 2,
// Missing (and any invalid code) as 11, unused slots of the last word
// as 00. words is reused as the backing storage when it is large
// enough.
func packColumnInto(gs []Genotype, words []uint64) PackedColumn {
	nw := packedWords(len(gs))
	if cap(words) < nw {
		words = make([]uint64, nw)
	}
	words = words[:nw]
	for i := range words {
		words[i] = 0
	}
	for i, g := range gs {
		var code uint64
		switch g {
		case 0, 1, 2:
			code = uint64(g)
		default:
			code = 3
		}
		words[i/WordGenotypes] |= code << (2 * uint(i%WordGenotypes))
	}
	return PackedColumn{words: words, n: len(gs)}
}

// column copies SNP column j of d into dst (grown as needed): one
// genotype per individual, in dataset row order.
func column(d *Dataset, j int, dst []Genotype) []Genotype {
	if cap(dst) < len(d.Individuals) {
		dst = make([]Genotype, len(d.Individuals))
	}
	dst = dst[:len(d.Individuals)]
	for i := range d.Individuals {
		dst[i] = d.Individuals[i].Genotypes[j]
	}
	return dst
}

// randColumn builds a random column of n genotypes with the given
// missing-rate.
func randColumn(rng *rand.Rand, n int, missRate float64) []Genotype {
	col := make([]Genotype, n)
	for i := range col {
		if rng.Float64() < missRate {
			col[i] = Missing
		} else {
			col[i] = Genotype(rng.Intn(3))
		}
	}
	return col
}

// The row counts every property test sweeps: word-aligned, one off
// either side, single-word, multi-word, and the paper's 176 rows.
var tailLengths = []int{1, 2, 31, 32, 33, 63, 64, 65, 95, 96, 97, 176}

func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range tailLengths {
		for _, missRate := range []float64{0, 0.1, 1} {
			col := randColumn(rng, n, missRate)
			pc := packColumnInto(col, nil)
			if pc.Len() != n {
				t.Fatalf("n=%d: Len() = %d", n, pc.Len())
			}
			if want := packedWords(n); pc.NumWords() != want {
				t.Fatalf("n=%d: NumWords() = %d, want %d", n, pc.NumWords(), want)
			}
			for i := range col {
				if g := pc.Get(i); g != col[i] {
					t.Fatalf("n=%d miss=%v: Get(%d) = %v, want %v", n, missRate, i, g, col[i])
				}
			}
		}
	}
}

func TestPackColumnIntoReuse(t *testing.T) {
	col := randColumn(rand.New(rand.NewSource(2)), 65, 0.2)
	// A dirty, oversized buffer must be fully zeroed before packing.
	buf := make([]uint64, 8)
	for i := range buf {
		buf[i] = ^uint64(0)
	}
	pc := packColumnInto(col, buf)
	for i := range col {
		if got := pc.Get(i); got != col[i] {
			t.Fatalf("reused buffer: row %d = %v, want %v", i, got, col[i])
		}
	}
}

func TestTailPlane(t *testing.T) {
	for _, n := range tailLengths {
		tp := tailPlane(n)
		rem := n % WordGenotypes
		if rem == 0 {
			rem = WordGenotypes
		}
		for i := 0; i < WordGenotypes; i++ {
			want := i < rem
			got := tp&(1<<(2*uint(i))) != 0
			if got != want {
				t.Fatalf("tailPlane(%d): slot %d selected=%v, want %v", n, i, got, want)
			}
			if tp&(2<<(2*uint(i))) != 0 {
				t.Fatalf("tailPlane(%d): odd bit set at slot %d", n, i)
			}
		}
	}
}

// TestCountsExhaustive checks the popcount tallies against naive loops
// for every genotype value in every membership state: columns cycling
// through all four codes, masks selecting every second/third row, the
// full mask, and boundary row counts.
func TestCountsExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range tailLengths {
		cols := [][]Genotype{
			randColumn(rng, n, 0),
			randColumn(rng, n, 0.3),
			randColumn(rng, n, 1), // all missing
			make([]Genotype, n),   // monomorphic all-zero
		}
		// A column cycling deterministically through all four codes.
		cyc := make([]Genotype, n)
		for i := range cyc {
			switch i % 4 {
			case 0, 1, 2:
				cyc[i] = Genotype(i % 4)
			default:
				cyc[i] = Missing
			}
		}
		cols = append(cols, cyc)

		masks := []PlaneMask{NewPlaneMask(n, nil)}
		for _, stride := range []int{2, 3} {
			var rows []int
			for r := 0; r < n; r += stride {
				rows = append(rows, r)
			}
			masks = append(masks, NewPlaneMask(n, rows))
		}
		masks = append(masks, NewPlaneMask(n, []int{})) // empty selection

		for ci, col := range cols {
			pc := packColumnInto(col, nil)
			for mi, m := range masks {
				n0, n1, n2, miss := pc.Counts(m)
				var w0, w1, w2, wm int
				for i := 0; i < n; i++ {
					if m.Word(i/WordGenotypes)&(1<<(2*uint(i%WordGenotypes))) == 0 {
						continue
					}
					switch col[i] {
					case 0:
						w0++
					case 1:
						w1++
					case 2:
						w2++
					default:
						wm++
					}
				}
				if n0 != w0 || n1 != w1 || n2 != w2 || miss != wm {
					t.Fatalf("n=%d col=%d mask=%d: Counts = (%d,%d,%d,%d), want (%d,%d,%d,%d)",
						n, ci, mi, n0, n1, n2, miss, w0, w1, w2, wm)
				}
			}
		}
	}
}

func TestPlaneMask(t *testing.T) {
	// selected counts the rows a mask selects.
	selected := func(m PlaneMask) int {
		n := 0
		for w := 0; w < packedWords(m.NumRows()); w++ {
			n += bits.OnesCount64(m.Word(w))
		}
		return n
	}
	m := NewPlaneMask(100, []int{0, 31, 32, 99})
	if selected(m) != 4 || m.NumRows() != 100 {
		t.Fatalf("selected=%d NumRows=%d", selected(m), m.NumRows())
	}
	all := NewPlaneMask(33, nil)
	if selected(all) != 33 {
		t.Fatalf("all-rows mask selects %d rows", selected(all))
	}
	// The tail word must not select rows past the column length.
	if w := all.Word(1); w != 1 {
		t.Fatalf("all-rows mask tail word = %#x, want 0x1", w)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range row did not panic")
		}
	}()
	NewPlaneMask(10, []int{10})
}

// testDataset builds a dataset of random columns with mixed statuses.
func testDataset(rng *rand.Rand, rows, snps int, missRate float64) *Dataset {
	d := &Dataset{SNPs: make([]SNP, snps), Individuals: make([]Individual, rows)}
	for j := range d.SNPs {
		d.SNPs[j].Name = "S" + string(rune('A'+j%26)) + string(rune('0'+j/26))
	}
	for i := range d.Individuals {
		d.Individuals[i] = Individual{
			ID:        "I",
			Status:    Status(rng.Intn(3)),
			Genotypes: randColumn(rng, snps, missRate),
		}
	}
	return d
}

func TestPackedAlleleFreqParity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, rows := range []int{3, 33, 64, 176} {
		d := testDataset(rng, rows, 7, 0.25)
		// Monomorphic and all-missing columns.
		for i := range d.Individuals {
			d.Individuals[i].Genotypes[5] = 0
			d.Individuals[i].Genotypes[6] = Missing
		}
		p := PackDataset(d)
		for j := 0; j < d.NumSNPs(); j++ {
			bp1, bp2, btyped := d.AlleleFreq(j)
			pp1, pp2, ptyped := p.AlleleFreq(j)
			if bp1 != pp1 || bp2 != pp2 || btyped != ptyped {
				t.Fatalf("rows=%d SNP %d: packed (%v,%v,%d) != byte (%v,%v,%d)",
					rows, j, pp1, pp2, ptyped, bp1, bp2, btyped)
			}
		}
	}
}

func TestPackedHWEParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, rows := range []int{5, 33, 176} {
		d := testDataset(rng, rows, 6, 0.2)
		for i := range d.Individuals {
			d.Individuals[i].Genotypes[4] = 2       // monomorphic allele 2
			d.Individuals[i].Genotypes[5] = Missing // untypable
		}
		p := PackDataset(d)
		groups := [][]int{nil, d.ByStatus(Unaffected)}
		for gi, g := range groups {
			m := NewPlaneMask(rows, g)
			for j := 0; j < d.NumSNPs(); j++ {
				br, berr := d.HWETest(j, g)
				pr, perr := p.HWETest(j, m)
				if (berr == nil) != (perr == nil) {
					t.Fatalf("rows=%d group=%d SNP %d: errors disagree: byte %v, packed %v", rows, gi, j, berr, perr)
				}
				if berr != nil {
					continue
				}
				if br != pr {
					t.Fatalf("rows=%d group=%d SNP %d: packed %+v != byte %+v", rows, gi, j, pr, br)
				}
			}
		}
	}
}

// TestPackRangeMatchesPackColumnInto: the row-block range packer is
// word-identical to packing each column on its own, for row
// counts around the word boundary, for ranges at the start, middle and
// end of the table, and with Missing and invalid codes (which both
// pack as 11).
func TestPackRangeMatchesPackColumnInto(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const snps = 23
	for _, rows := range []int{1, 31, 32, 33, 176} {
		d := testDataset(rng, rows, snps, 0.1)
		for i := range d.Individuals {
			if rng.Intn(5) == 0 {
				d.Individuals[i].Genotypes[rng.Intn(snps)] = Genotype(3 + rng.Intn(252)) // invalid
			}
		}
		for _, rg := range [][2]int{{0, 5}, {0, snps}, {9, 14}, {17, snps}, {22, snps}, {4, 4}} {
			cols := PackRange(d, rg[0], rg[1])
			if len(cols) != rg[1]-rg[0] {
				t.Fatalf("rows=%d range %v: %d columns", rows, rg, len(cols))
			}
			buf := make([]Genotype, rows)
			for c, got := range cols {
				want := packColumnInto(column(d, rg[0]+c, buf), nil)
				if got.Len() != want.Len() || len(got.words) != len(want.words) {
					t.Fatalf("rows=%d column %d: shape %d/%d, want %d/%d",
						rows, rg[0]+c, got.Len(), len(got.words), want.Len(), len(want.words))
				}
				for w := range want.words {
					if got.words[w] != want.words[w] {
						t.Fatalf("rows=%d column %d word %d: %#x, want %#x",
							rows, rg[0]+c, w, got.words[w], want.words[w])
					}
				}
			}
		}
	}
}

// TestWordsRoundTrip: DecodeWords gives back PackRange's words from
// AppendWords' bytes, at row counts around the word boundary, and
// rejects a payload of the wrong length or with a tail slot set.
func TestWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const snps = 9
	for _, rows := range []int{1, 31, 32, 33, 176} {
		d := testDataset(rng, rows, snps, 0.1)
		want := PackRange(d, 0, snps)
		b := AppendWords(nil, want)
		if n := 8 * packedWords(rows) * snps; len(b) != n {
			t.Fatalf("rows=%d: %d bytes, want %d", rows, len(b), n)
		}
		got, err := DecodeWords(b, snps, rows)
		if err != nil {
			t.Fatalf("rows=%d: %v", rows, err)
		}
		for c := range want {
			if got[c].Len() != rows || len(got[c].words) != len(want[c].words) {
				t.Fatalf("rows=%d column %d: shape %d/%d", rows, c, got[c].Len(), len(got[c].words))
			}
			for w := range want[c].words {
				if got[c].words[w] != want[c].words[w] {
					t.Fatalf("rows=%d column %d word %d: %#x, want %#x", rows, c, w, got[c].words[w], want[c].words[w])
				}
			}
		}
		if _, err := DecodeWords(b[:len(b)-1], snps, rows); err == nil {
			t.Fatalf("rows=%d: short payload accepted", rows)
		}
		if _, err := DecodeWords(append(b, 0), snps, rows); err == nil {
			t.Fatalf("rows=%d: long payload accepted", rows)
		}
		if rows%WordGenotypes != 0 {
			bad := append([]byte(nil), b...)
			bad[len(bad)-1] |= 0x80 // top slot of the last column's last word
			if _, err := DecodeWords(bad, snps, rows); err == nil {
				t.Fatalf("rows=%d: set tail slot accepted", rows)
			}
		}
	}
}
