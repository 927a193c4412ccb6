package genotype

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// oracleWrite, oracleParseGenotype and oracleRead are the string-based
// codec Write and Read replaced, kept verbatim as their reference:
// every input must give Read's dataset or error message, and every
// dataset Write's bytes.
func oracleWrite(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %d individuals, %d SNPs\n", d.NumIndividuals(), d.NumSNPs())
	fmt.Fprint(bw, "ID STATUS")
	for _, s := range d.SNPs {
		fmt.Fprintf(bw, " %s", s.Name)
	}
	fmt.Fprintln(bw)
	for i := range d.Individuals {
		ind := &d.Individuals[i]
		fmt.Fprintf(bw, "%s %s", ind.ID, ind.Status)
		for _, g := range ind.Genotypes {
			fmt.Fprintf(bw, " %s", g)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

func oracleParseGenotype(tok string) (Genotype, error) {
	switch tok {
	case "11":
		return 0, nil
	case "12", "21":
		return 1, nil
	case "22":
		return 2, nil
	case "00", "0", ".":
		return Missing, nil
	}
	return Missing, fmt.Errorf("genotype: invalid genotype token %q", tok)
}

func oracleRead(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	d := &Dataset{}
	lineNo := 0
	headerSeen := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if !headerSeen {
			if len(fields) < 3 || fields[0] != "ID" || fields[1] != "STATUS" {
				return nil, fmt.Errorf("genotype: line %d: header must start with \"ID STATUS\" followed by SNP names", lineNo)
			}
			for _, name := range fields[2:] {
				d.SNPs = append(d.SNPs, SNP{Name: name})
			}
			headerSeen = true
			continue
		}
		if len(fields) != 2+len(d.SNPs) {
			return nil, fmt.Errorf("genotype: line %d: %d fields, want %d", lineNo, len(fields), 2+len(d.SNPs))
		}
		status, err := ParseStatus(fields[1])
		if err != nil {
			return nil, fmt.Errorf("genotype: line %d: %w", lineNo, err)
		}
		ind := Individual{ID: fields[0], Status: status, Genotypes: make([]Genotype, len(d.SNPs))}
		for j, tok := range fields[2:] {
			g, err := oracleParseGenotype(tok)
			if err != nil {
				return nil, fmt.Errorf("genotype: line %d, column %s: %w", lineNo, d.SNPs[j].Name, err)
			}
			ind.Genotypes[j] = g
		}
		d.Individuals = append(d.Individuals, ind)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("genotype: %w", err)
	}
	if !headerSeen {
		return nil, fmt.Errorf("genotype: empty input")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// checkAgainstOracle reads input with Read and the oracle and fails
// unless both give equal datasets or equal error messages. For an
// accepted input it also checks that Write prints the oracle writer's
// bytes and that those bytes read back to the same dataset.
func checkAgainstOracle(t *testing.T, input []byte) {
	t.Helper()
	got, err := Read(bytes.NewReader(input))
	want, wantErr := oracleRead(bytes.NewReader(input))
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("Read(%.80q): error %v, oracle %v", input, err, wantErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Read(%.80q) = %+v, oracle %+v", input, got, want)
	}
	text := checkWrite(t, got)
	back, err := Read(bytes.NewReader(text))
	if err != nil || !reflect.DeepEqual(back, got) {
		t.Fatalf("written table did not read back (error %v): %q", err, text)
	}
}

// checkWrite fails unless Write prints the oracle writer's bytes for
// d; it returns them.
func checkWrite(t *testing.T, d *Dataset) []byte {
	t.Helper()
	var got, want bytes.Buffer
	err, wantErr := Write(&got, d), oracleWrite(&want, d)
	if err != nil || wantErr != nil {
		t.Fatalf("Write: %v, oracle %v", err, wantErr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("Write printed %.200q, oracle %.200q", got.Bytes(), want.Bytes())
	}
	return got.Bytes()
}

// readSeeds covers the table syntax Read accepts and rejects: comments,
// blank lines, \r\n, each ASCII space character and Unicode
// whitespace, non-ASCII IDs, every missing token, and each error the
// parser reports, also where the byte path must hand a line over.
var readSeeds = []string{
	"ID STATUS S0 S1\nind1 A 11 12\nind2 U 22 00\n",
	"# comment\n\nID STATUS S0\n# another\nind1 A 21\n",
	"  # indented comment\n\t\nID STATUS S0 S1\n \t# row comment\nind1 a 11 12\n\n",
	"ID STATUS S0 S1\r\nind1 A 11 12\r\nind2 u 12 21\r\n",
	"ID\tSTATUS\tS0\tS1\nind1\tA\t11\t12\n\tind2 \v U\f 22\r00  \n",
	"ID STATUS S0 S1\nindé A 11 12\nüber U 12 22\n",
	"ID STATUS S0 S1\nind1\u0085A 11 12\nind2 U 11 12\n",
	"ID STATUS S T　U\n\u0085ind1 A 11 12 22\u0085\n",
	"ID STATUS S0 S1 S2\nind1 A 0 . 00\nind2 ? 11 0 .\nind3 X 12 21 22\nind4 x 0 0 0\n",
	"ID STATUS S0 S1\nind1 A 11\n",
	"ID STATUS S0 S1\nind1 A 11 12 22\n",
	"ID STATUS S0 S1\nind1\n",
	"ID STATUS S0\nind1 Q 11\n",
	"ID STATUS S0\nind1 AU 11\n",
	"ID STATUS S0\nind1 A 13\n",
	"ID STATUS S0 S1\nind1 A 11 1\n",
	"ID STATUS S0 S1\nind1 Q 13 12 11\n",
	"ID STATUS S0 S1\nind1 Q 13\n",
	"ID STATUS S0 S1\nind1 A 13 é\n",
	"ID STATUS S0 S1\nind1 A 11 12 é\n",
	"ID STATUS S0 S1\nind1 A 11 12é\n",
	"ID STATUS S0 S1\nind1 A 11 12\u00a0\n",
	"ID STATUS S0\nx\ty A 11\n",
	"ID STATUS S0\nx\vy A 11\n",
	"ID STATUS S0\nx\fy A 11\n",
	"ID STATUS S0\nx\ry A 11\n",
	"ID STATUS S0 S1\nid A 000\n",
	"ID STATUS S0 S0\nind1 A 11 12\n",
	"ID STATUS S0\nind1 A 11\nind2 U 22",
	"ID STATUS S0\nind1 A 11\nind2 U 22\r",
	"ID STATUS S0\nind1 A 11\n\r",
	"",
	"\n\n# only comments\n",
	"ind1 A 11 12\n",
	"NAME GROUP S0\nind1 A 11\n",
	"ID STATUS\nind1 A\n",
	"ID STATUS S0\n",
	"ID  STATUS  S0\nid#1 A 11\n#x U 22\n",
	"ID STATUS S0\nind1 A \xff11\n",
	"ID STATUS S\xc2\nind1 A 11\n",
}

// FuzzReadTable is Read's differential fuzz target against the oracle:
// equal datasets or equal error messages for every input, and for an
// accepted input the oracle writer's bytes from Write.
func FuzzReadTable(f *testing.F) {
	for _, s := range readSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		checkAgainstOracle(t, input)
	})
}

func TestReadMatchesOracle(t *testing.T) {
	for _, s := range readSeeds {
		checkAgainstOracle(t, []byte(s))
	}
	checkAgainstOracle(t, randomTable(40, 300, 1))
}

// TestReadLineCap: a line may hold maxLine bytes with its newline, and
// one fewer as the last line without one, as under bufio.Scanner.
func TestReadLineCap(t *testing.T) {
	head := "ID STATUS S0\n"
	for _, tc := range []struct {
		n          int
		terminated bool
		ok         bool
	}{
		{maxLine, true, true},
		{maxLine + 1, true, false},
		{maxLine - 1, false, true},
		{maxLine, false, false},
	} {
		// A comment line of n bytes, newline included when terminated,
		// before a row that Read only sees if the comment passed.
		line := append([]byte(head), '#')
		line = append(line, bytes.Repeat([]byte{'x'}, tc.n-2)...)
		if tc.terminated {
			line = append(line, '\n')
		} else {
			line = append(line, 'x')
		}
		input := append([]byte(nil), line...)
		if tc.terminated {
			input = append(input, "ind1 A 11\n"...)
		}
		checkAgainstOracle(t, input)
		if _, err := Read(bytes.NewReader(input)); (err == nil) != tc.ok {
			t.Errorf("line of %d bytes (terminated %v): error %v, want ok %v", tc.n, tc.terminated, err, tc.ok)
		}
	}
}

// TestWriteMatchesOracle covers what a parsed table cannot hold:
// invalid genotype and status codes, which Write prints as
// invalid(N), and datasets without rows or SNPs.
func TestWriteMatchesOracle(t *testing.T) {
	d := tinyDataset()
	d.Individuals[1].Genotypes[2] = 7
	d.Individuals[2].Status = 9
	checkWrite(t, d)
	checkWrite(t, &Dataset{})
	checkWrite(t, &Dataset{SNPs: []SNP{{Name: "S0"}}})
	big, err := Read(bytes.NewReader(randomTable(25, 2000, 2)))
	if err != nil {
		t.Fatal(err)
	}
	checkWrite(t, big)
}

// randomTable writes a random table of rows individuals by snps SNPs,
// about one genotype in twenty missing.
func randomTable(rows, snps int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	d := &Dataset{SNPs: make([]SNP, snps), Individuals: make([]Individual, rows)}
	for j := range d.SNPs {
		d.SNPs[j].Name = "SNP" + strconv.Itoa(j)
	}
	for i := range d.Individuals {
		gs := make([]Genotype, snps)
		for j := range gs {
			if gs[j] = Genotype(r.Intn(3)); r.Intn(20) == 0 {
				gs[j] = Missing
			}
		}
		d.Individuals[i] = Individual{ID: fmt.Sprintf("ind%04d", i), Status: Status(r.Intn(3)), Genotypes: gs}
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestReadAllocsPerRow: Read allocates two objects per row, its
// genotypes and its ID, plus the amortized growth of the row slice;
// never one per cell. (The string-based parser made three: the line,
// its field slice and the genotypes.)
func TestReadAllocsPerRow(t *testing.T) {
	const snps = 500
	allocs := func(rows int) float64 {
		text := randomTable(rows, snps, 3)
		return testing.AllocsPerRun(5, func() {
			if _, err := Read(bytes.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(200), allocs(400)
	if perRow := (large - small) / 200; perRow > 2.1 {
		t.Fatalf("Read made %.2f allocations per row of %d SNPs (%.0f for 200 rows, %.0f for 400), want <= 2.1", perRow, snps, small, large)
	}
}

// TestReadRetainsNoLine: a parsed dataset holds its genotypes, IDs and
// names, not the lines they were parsed from. Each row's line is three
// times its genotype bytes, so a dataset that kept its lines would
// grow the live heap by four times the genotype bytes.
func TestReadRetainsNoLine(t *testing.T) {
	const rows, snps = 400, 4096
	text := randomTable(rows, snps, 4)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := Read(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	runtime.KeepAlive(text)
	growth := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	if genotypes := float64(rows * snps); growth > 1.5*genotypes {
		t.Fatalf("a parsed %d x %d table holds %.2f MB of heap, want <= 1.5 x its %.2f MB of genotypes", rows, snps, growth/(1<<20), genotypes/(1<<20))
	}
}

// benchRows and benchSNPs shape the benchmark table: the sweep
// workload's 30,000 SNPs by 176 rows.
const benchRows, benchSNPs = 176, 30000

var benchTable = sync.OnceValue(func() []byte { return randomTable(benchRows, benchSNPs, 5) })

// reportPerRow reports the allocations a benchmark made per table row
// since mallocs, a runtime.MemStats.Mallocs reading.
func reportPerRow(b *testing.B, mallocs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(b.N*benchRows), "allocs/row")
}

// BenchmarkReadTable parses the benchmark table. Its allocs/row spreads
// every allocation over the rows, so the header's 30,000 SNP names
// (one string each) add about 170 to the two a row itself makes.
func BenchmarkReadTable(b *testing.B) {
	text := benchTable()
	b.SetBytes(int64(len(text)))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for b.Loop() {
		if _, err := Read(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRow(b, ms.Mallocs)
}

func BenchmarkWriteTable(b *testing.B) {
	d, err := Read(bytes.NewReader(benchTable()))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for b.Loop() {
		buf.Reset()
		if err := Write(&buf, d); err != nil {
			b.Fatal(err)
		}
	}
	reportPerRow(b, ms.Mallocs)
}
