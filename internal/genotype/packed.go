package genotype

// Bit-packed genotype columns, the PLINK 1.9 representation ("Second-
// generation PLINK"): each diploid genotype is a 2-bit code — 00, 01,
// 10 = 0, 1, 2 copies of allele 2 and 11 = missing — packed 32 to a
// uint64 word, little-endian within the word (row i of a column lives
// at bits [2i mod 64, 2i mod 64 + 1] of word i/32).
//
// The code assignment is what makes counting cheap. With
//
//	lo = w & 0x5555...    (low bit of every code)
//	hi = (w >> 1) & 0x5555... (high bit of every code)
//
// the three informative genotype classes fall out of one boolean op
// each, all expressed in the same "lo-plane" geometry (a bit at even
// position 2i describes row i):
//
//	het   = lo &^ hi   (code 01)
//	hom2  = hi &^ lo   (code 10)
//	miss  = lo & hi    (code 11)
//
// and class sizes are popcounts (math/bits.OnesCount64) of those
// planes ANDed with a row-membership mask. Homozygous-1 rows (code 00)
// are the complement mask &^ (lo | hi); because unused tail slots of
// the last word are packed as 00 too, the complement must always be
// taken against an explicit membership mask (PlaneMask), never against
// all-ones — that is the only place tail masking matters, and
// PlaneMask construction guarantees it.
//
// A PackedColumn is immutable after construction and safe for
// concurrent readers, like the byte columns it mirrors.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// WordGenotypes is the number of 2-bit genotype codes per uint64 word.
const WordGenotypes = 32

// loPlane selects the low bit of every 2-bit code in a word: bits at
// even positions. All class planes and membership masks use this
// geometry.
const loPlane uint64 = 0x5555555555555555

// packedWords returns the word count needed for n genotypes.
func packedWords(n int) int { return (n + WordGenotypes - 1) / WordGenotypes }

// tailPlane returns the lo-plane membership mask of a full column of n
// rows restricted to its last word: the even-position bits of the rows
// that exist there.
func tailPlane(n int) uint64 {
	rem := n % WordGenotypes
	if rem == 0 {
		return loPlane
	}
	return loPlane >> (2 * uint(WordGenotypes-rem))
}

// PackedColumn is one SNP column in the 2-bit representation.
type PackedColumn struct {
	words []uint64
	n     int
}

// Len returns the number of rows (genotypes) in the column.
func (c PackedColumn) Len() int { return c.n }

// NumWords returns the number of packed words.
func (c PackedColumn) NumWords() int { return len(c.words) }

// Get unpacks the genotype of row i.
//
//ldvet:allow deadexport: test reference; the packing tests and ehdiall's refGroupPacked decode columns row by row with it
func (c PackedColumn) Get(i int) Genotype {
	code := (c.words[i/WordGenotypes] >> (2 * uint(i%WordGenotypes))) & 3
	if code == 3 {
		return Missing
	}
	return Genotype(code)
}

// Planes extracts the class bit-planes of word w in lo-plane geometry:
// het has a bit at position 2i when row 32w+i is heterozygous, hom2
// when it is homozygous 2/2, miss when it is missing. Homozygous 1/1
// rows (and, in the last word, slots past the column length) are the
// rows in none of the three planes.
func (c PackedColumn) Planes(w int) (het, hom2, miss uint64) {
	x := c.words[w]
	lo := x & loPlane
	hi := (x >> 1) & loPlane
	return lo &^ hi, hi &^ lo, lo & hi
}

// Counts tallies the column's genotype classes over the rows selected
// by m (which must describe the same row count): n0, n1, n2 count 0, 1
// and 2 copies of allele 2; missing counts untyped rows.
func (c PackedColumn) Counts(m PlaneMask) (n0, n1, n2, missing int) {
	for w, x := range c.words {
		mw := m.words[w]
		if mw == 0 {
			continue
		}
		het, hom2, miss := c.Planes(w)
		n1 += bits.OnesCount64(mw & het)
		n2 += bits.OnesCount64(mw & hom2)
		missing += bits.OnesCount64(mw & miss)
		// mw only carries lo-plane bits, so ANDing out both code bits
		// leaves exactly the selected 00 rows.
		n0 += bits.OnesCount64(mw &^ (x | x>>1))
	}
	return
}

// PlaneMask is a row-membership mask in lo-plane geometry: a bit at
// even position 2i of word r selects row 32r+i. Masks are built once
// per row group (affected, unaffected, everyone) and shared across
// evaluations.
type PlaneMask struct {
	words []uint64
	n     int // total rows of the columns the mask applies to
}

// NewPlaneMask builds the membership mask of the given rows (which
// must be in-range, sorted and distinct, as Dataset.ByStatus returns
// them) over columns of n rows. nil rows selects every row.
func NewPlaneMask(n int, rows []int) PlaneMask {
	m := PlaneMask{words: make([]uint64, packedWords(n)), n: n}
	if rows == nil {
		for w := range m.words {
			m.words[w] = loPlane
		}
		if len(m.words) > 0 {
			m.words[len(m.words)-1] = tailPlane(n)
		}
		return m
	}
	for _, r := range rows {
		if r < 0 || r >= n {
			panic(fmt.Sprintf("genotype: PlaneMask row %d out of range [0,%d)", r, n))
		}
		m.words[r/WordGenotypes] |= 1 << (2 * uint(r%WordGenotypes))
	}
	return m
}

// Word returns mask word w.
func (m PlaneMask) Word(w int) uint64 { return m.words[w] }

// NumRows returns the row count of the columns the mask applies to.
func (m PlaneMask) NumRows() int { return m.n }

// Packed is a dataset's SNP columns in the 2-bit representation,
// sharing one flat word allocation. It is immutable and safe for
// concurrent use.
type Packed struct {
	cols []PackedColumn
	all  PlaneMask
}

// PackDataset packs every column of the dataset.
func PackDataset(d *Dataset) *Packed {
	return &Packed{
		cols: PackRange(d, 0, d.NumSNPs()),
		all:  NewPlaneMask(d.NumIndividuals(), nil),
	}
}

// codeOf maps every genotype byte to its 2-bit code: 0, 1 and 2 pack
// as themselves, Missing and every invalid code as 11.
var codeOf = func() (t [256]uint64) {
	for g := range t {
		t[g] = 3
	}
	t[0], t[1], t[2] = 0, 1, 2
	return t
}()

// PackRange packs SNP columns [start, end) of the row-major table into
// columns that share one flat word allocation. It is a transpose rather
// than a strided gather: the outer loop walks the rows four at a time,
// the inner loop the range's columns, so each row is read sequentially
// and every column word takes one read-modify-write per four rows.
func PackRange(d *Dataset, start, end int) []PackedColumn {
	rows := d.NumIndividuals()
	nw := packedWords(rows)
	width := end - start
	words := make([]uint64, nw*width)
	cols := make([]PackedColumn, width)
	for c := range cols {
		cols[c] = PackedColumn{words: words[c*nw : (c+1)*nw : (c+1)*nw], n: rows}
	}
	if width == 0 {
		return cols // no words: the row loops below would slice past them
	}
	ind := d.Individuals
	r := 0
	// Four rows starting at a multiple of 4 share one word, since 4
	// divides WordGenotypes.
	for ; r+4 <= rows; r += 4 {
		g0 := ind[r].Genotypes[start:end]
		g1 := ind[r+1].Genotypes[start:end][:len(g0)]
		g2 := ind[r+2].Genotypes[start:end][:len(g0)]
		g3 := ind[r+3].Genotypes[start:end][:len(g0)]
		ws, shift := words[r/WordGenotypes:], 2*uint(r%WordGenotypes)
		for c, g := range g0 {
			x := codeOf[g] | codeOf[g1[c]]<<2 | codeOf[g2[c]]<<4 | codeOf[g3[c]]<<6
			ws[c*nw] |= x << shift
		}
	}
	for ; r < rows; r++ {
		ws, shift := words[r/WordGenotypes:], 2*uint(r%WordGenotypes)
		for c, g := range ind[r].Genotypes[start:end] {
			ws[c*nw] |= codeOf[g] << shift
		}
	}
	return cols
}

// AppendWords appends the words of cols to b, column after column,
// each word as 8 little-endian bytes: the layout DecodeWords reads.
// The columns must share one row count, as PackRange's do.
func AppendWords(b []byte, cols []PackedColumn) []byte {
	for _, c := range cols {
		for _, w := range c.words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return b
}

// DecodeWords rebuilds width columns of rows genotypes from the
// AppendWords layout, into one flat word allocation like PackRange's.
// b must hold exactly the columns' words, and no column may set a bit
// in the unused slots of its last word.
func DecodeWords(b []byte, width, rows int) ([]PackedColumn, error) {
	nw := packedWords(rows)
	if len(b) != 8*nw*width {
		return nil, fmt.Errorf("genotype: %d bytes of packed words, want %d for %d columns of %d rows",
			len(b), 8*nw*width, width, rows)
	}
	words := make([]uint64, nw*width)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	tail := tailPlane(rows)
	tail |= tail << 1
	cols := make([]PackedColumn, width)
	for c := range cols {
		cw := words[c*nw : (c+1)*nw : (c+1)*nw]
		if nw > 0 && cw[nw-1]&^tail != 0 {
			return nil, fmt.Errorf("genotype: packed column %d sets slots past row %d", c, rows)
		}
		cols[c] = PackedColumn{words: cw, n: rows}
	}
	return cols, nil
}

// NumSNPs returns the number of packed columns.
func (p *Packed) NumSNPs() int { return len(p.cols) }

// Col returns packed column j.
func (p *Packed) Col(j int) PackedColumn { return p.cols[j] }

// AlleleFreq is the packed counterpart of Dataset.AlleleFreq: the
// frequencies of alleles 1 and 2 at SNP j over all individuals, plus
// the typed count. The tallies are exact integers below 2^53, so the
// resulting floats are bit-identical to the byte path's.
func (p *Packed) AlleleFreq(j int) (p1, p2 float64, typed int) {
	n0, n1, n2, _ := p.cols[j].Counts(p.all)
	typed = n0 + n1 + n2
	if typed == 0 {
		return 0, 0, 0
	}
	count2 := n1 + 2*n2
	p2 = float64(count2) / float64(2*typed)
	return 1 - p2, p2, typed
}

// HWETest is the packed counterpart of Dataset.HWETest over the rows
// selected by m: genotype classes are popcounted and fed through the
// same chi-square arithmetic (hweFinish), so results are bit-identical
// to the byte path over the same rows.
func (p *Packed) HWETest(j int, m PlaneMask) (HWEResult, error) {
	if j < 0 || j >= p.NumSNPs() {
		return HWEResult{}, fmt.Errorf("genotype: SNP index %d out of range", j)
	}
	n0, n1, n2, _ := p.cols[j].Counts(m)
	res := HWEResult{Obs: [3]int{n0, n1, n2}, Typed: n0 + n1 + n2}
	if res.Typed == 0 {
		return res, fmt.Errorf("genotype: SNP %d has no typed individuals in the selection", j)
	}
	hweFinish(&res)
	return res, nil
}
