package clump

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// sameBits reports whether two results agree bit for bit in every
// statistic and both degrees of freedom.
func sameBits(a, b Result) bool {
	return math.Float64bits(a.T1) == math.Float64bits(b.T1) &&
		math.Float64bits(a.T2) == math.Float64bits(b.T2) &&
		math.Float64bits(a.T3) == math.Float64bits(b.T3) &&
		math.Float64bits(a.T4) == math.Float64bits(b.T4) &&
		math.Float64bits(a.AA) == math.Float64bits(b.AA) &&
		a.DF1 == b.DF1 && a.DF2 == b.DF2
}

// checkAgainstOracle scores the table with rows cases and controls by
// the kernel on s, by Statistics, and by the oracle, and fails unless
// all three agree bit for bit.
func checkAgainstOracle(t *testing.T, name string, cases, controls []float64, s *Scratch) {
	t.Helper()
	tab := stats.NewTable(2, len(cases))
	for j := range cases {
		tab.Set(0, j, cases[j])
		tab.Set(1, j, controls[j])
	}
	want, err := oracleStatistics(tab)
	if err != nil {
		t.Fatal(err)
	}
	got, err := StatisticsScratch(cases, controls, s)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !sameBits(got, want) {
		t.Fatalf("%s: table %v / %v:\nkernel %+v\noracle %+v", name, cases, controls, got, want)
	}
	viaTable, err := Statistics(tab)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(viaTable, want) {
		t.Fatalf("%s: Statistics %+v, oracle %+v", name, viaTable, want)
	}
}

// statTable is one 2 x M table of the differential test.
type statTable struct {
	name            string
	cases, controls []float64
}

// randomTables draws tables of each width from 1 to 128 columns in the
// shapes the differential test covers.
func randomTables(r *rng.RNG) []statTable {
	var out []statTable
	widths := []int{1, 2, 3, 4, 5, 7, 8, 11, 12, 13, 16, 17, 31, 32, 33, 64, 100, 128}
	for _, m := range widths {
		for rep := 0; rep < 40; rep++ {
			cases, controls := make([]float64, m), make([]float64, m)
			shape := rep % 8
			for j := 0; j < m; j++ {
				switch shape {
				case 0: // expected counts as the EM gives them
					cases[j] = r.Float64() * r.Float64() * 352 / float64(m) * 4
					controls[j] = r.Float64() * r.Float64() * 352 / float64(m) * 4
				case 1: // small integers: ties everywhere
					cases[j] = float64(r.Intn(6))
					controls[j] = float64(r.Intn(6))
				case 2: // heavy ties in case proportion, distinct counts
					k := float64(1 + r.Intn(9))
					base := [][2]float64{{1, 1}, {1, 2}, {2, 1}, {0, 1}, {1, 0}}[r.Intn(5)]
					cases[j], controls[j] = k*base[0], k*base[1]
				case 3: // empty columns among sparse fractional ones
					if r.Intn(3) > 0 {
						cases[j] = r.Float64() * 3
						controls[j] = r.Float64() * 3
					}
				case 4: // a zero row
					cases[j] = r.Float64() * 40
				case 5: // near-zero frequencies beside large counts
					cases[j] = r.Float64() * 1e-9
					controls[j] = 50 + r.Float64()*200
					if r.Intn(2) == 0 {
						cases[j], controls[j] = controls[j], cases[j]
					}
				case 6: // wide dynamic range
					cases[j] = math.Ldexp(r.Float64(), r.Intn(80)-40)
					controls[j] = math.Ldexp(r.Float64(), r.Intn(80)-40)
				case 7: // all zero
				}
			}
			out = append(out, statTable{name: "random", cases: cases, controls: controls})
		}
	}
	return out
}

func TestStatisticsMatchesOracle(t *testing.T) {
	tables := []statTable{
		{"2x1", []float64{3}, []float64{4}},
		{"2x1 zero", []float64{0}, []float64{0}},
		{"all zero", []float64{0, 0, 0, 0}, []float64{0, 0, 0, 0}},
		{"zero case row", []float64{0, 0, 0}, []float64{4, 5, 6}},
		{"zero control row", []float64{7, 1, 9}, []float64{0, 0, 0}},
		{"empty columns", []float64{10, 0, 20, 0, 5}, []float64{0, 0, 30, 0, 15}},
		{"one live column", []float64{0, 8, 0}, []float64{0, 3, 0}},
		{"dense", []float64{30, 30, 30}, []float64{30, 30, 30}},
		{"pools to one kept", []float64{40, 2, 1}, []float64{40, 0, 1}},
		{"pools everything", []float64{1, 2, 1}, []float64{2, 1, 0}},
		{"empty pool", []float64{40, 0, 38}, []float64{40, 0, 38}},
		{"ties", []float64{1, 2, 3, 2, 1, 4}, []float64{1, 2, 3, 4, 2, 8}},
		{"perfect split", []float64{25, 25, 0, 0}, []float64{0, 0, 25, 25}},
		{"tiny counts", []float64{1e-300, 2e-300, 0}, []float64{3e-300, 1e-300, 5}},
		{"huge counts", []float64{1e300, 3e299, 1}, []float64{2e299, 1e300, 1}},
		{"max float", []float64{math.MaxFloat64, 1, math.MaxFloat64}, []float64{1, math.MaxFloat64, 2}},
		{"odds overflow", []float64{1e200, 0, 0, 1e200}, []float64{0, 1e200, 1e200, 0}},
	}
	tables = append(tables, randomTables(rng.New(7))...)
	var s Scratch // one scratch across every width: buffers must not leak state
	for i, tab := range tables {
		checkAgainstOracle(t, tab.name, tab.cases, tab.controls, &s)
		if i%2 == 1 {
			// And on a fresh scratch.
			checkAgainstOracle(t, tab.name+" fresh", tab.cases, tab.controls, &Scratch{})
		}
	}
}

func TestStatisticsScratchRejectsRows(t *testing.T) {
	var s Scratch
	if _, err := StatisticsScratch(nil, nil, &s); err == nil {
		t.Fatal("empty rows accepted")
	}
	if _, err := StatisticsScratch([]float64{1, 2}, []float64{1}, &s); err == nil {
		t.Fatal("rows of unequal length accepted")
	}
}

func TestStatisticsScratchAllocs(t *testing.T) {
	r := rng.New(3)
	cases, controls := make([]float64, 64), make([]float64, 64)
	for j := range cases {
		cases[j] = float64(r.Intn(20))
		controls[j] = float64(r.Intn(20))
	}
	var s Scratch
	if _, err := StatisticsScratch(cases, controls, &s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		StatisticsScratch(cases, controls, &s)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per warm call, want 0", allocs)
	}
}

// TestSortColsMatchesSortSort pins the kernel's column order to
// sort.Sort's permutation on inputs dense with ties in case
// proportion, below, at and above pdqsort's insertion-sort cutoff of
// 12 columns.
func TestSortColsMatchesSortSort(t *testing.T) {
	r := rng.New(11)
	for n := 0; n <= 300; n += 1 + n/16 {
		for rep := 0; rep < 20; rep++ {
			cols := make([]colPair, n)
			for i := range cols {
				k := float64(1 + r.Intn(7))
				switch r.Intn(4) {
				case 0:
					cols[i] = colPair{k, k}
				case 1:
					cols[i] = colPair{k, 2 * k}
				case 2:
					cols[i] = colPair{0, k}
				default:
					cols[i] = colPair{float64(r.Intn(4)), float64(r.Intn(4))}
				}
			}
			want := colSorter(append([]colPair(nil), cols...))
			sort.Sort(&want)
			sortCols(cols)
			for i := range cols {
				if cols[i] != want[i] {
					t.Fatalf("n=%d rep %d: position %d holds %v, sort.Sort put %v", n, rep, i, cols[i], want[i])
				}
			}
		}
	}
}

// tableFromBytes decodes a fuzz input into a 2 x M table: the first
// byte sets M (1..128), the second the cell encoding, and the rest
// fill cases then controls cell by cell; cells past the input's end
// are empty.
func tableFromBytes(b []byte) (cases, controls []float64) {
	if len(b) < 2 {
		return []float64{0}, []float64{0}
	}
	m := 1 + int(b[0])%128
	mode := b[1] % 4
	b = b[2:]
	cells := make([]float64, 2*m)
	for i := range cells {
		switch mode {
		case 0: // small integers
			if i < len(b) {
				cells[i] = float64(b[i] % 8)
			}
		case 1: // fixed-point fractions up to 1,024
			if 2*i+1 < len(b) {
				cells[i] = float64(binary.LittleEndian.Uint16(b[2*i:])) / 64
			}
		case 2: // ties: a multiple of one of four base columns
			if i < len(b) {
				base := [4]float64{1, 2, 3, 0}
				cells[i] = float64(b[i]>>2) * base[b[i]&3]
			}
		case 3: // any finite non-negative float64
			if 8*i+7 < len(b) {
				v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])))
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					cells[i] = v
				}
			}
		}
	}
	return cells[:m], cells[m:]
}

func FuzzStatistics(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{63, 0, 7, 7, 7, 7, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6})
	f.Add([]byte{15, 1, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90, 0xa0})
	f.Add([]byte{20, 2, 5, 9, 13, 6, 10, 14, 4, 8, 12, 3, 7, 11, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{127, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44})
	f.Add(append([]byte{3, 3},
		0, 0, 0, 0, 0, 0, 0xf0, 0x7f, // 2^1024 - 2^971
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // 1
		0, 0, 0, 0, 0, 0, 0x10, 0, // smallest normal
		0, 0, 0, 0, 0, 0, 0xe0, 0x3f,
		1, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 0, 0x59, 0x40))
	f.Add([]byte{0, 0})
	f.Add([]byte{})
	var s Scratch
	f.Fuzz(func(t *testing.T, b []byte) {
		cases, controls := tableFromBytes(b)
		checkAgainstOracle(t, "fuzz", cases, controls, &s)
	})
}
