package genotype

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The on-disk format mirrors the paper's first data table: a header
// naming the SNP columns, then one row per individual with an ID, a
// status code (A/a affected, U/u unaffected, ?/X/x unknown) and the
// genotype at each SNP in two-allele notation (11, 12 or 21, 22, and
// 00, 0 or . for missing). Lines starting with '#' are comments.
//
//	# any comment
//	ID STATUS SNP0 SNP1 SNP2 ...
//	ind001 A 11 12 22 ...
//	ind002 U 12 12 00 ...
//
// Lines end in \n or \r\n, and one line may hold at most 4 MiB
// (maxLine), its newline included. Fields are separated by runs of
// whitespace: space, \t, \v, \f and \r, plus, on a line holding any
// non-ASCII byte, every Unicode space (U+0085, U+00A0, ...), exactly
// as strings.Fields splits. Read copies each ID and SNP name into a
// string of its own, so a parsed dataset holds no line of the input.

// maxLine caps one input line, newline included, where bufio.Scanner
// capped it when it read the table through a 4 MiB buffer: a line
// whose first maxLine bytes hold no newline fails with its
// bufio.ErrTooLong. Read buffers readSize bytes at a time, a divisor
// of maxLine, so a line reaches the cap only on a whole buffer.
const (
	maxLine  = 1 << 22
	readSize = 1 << 16
)

// Write serializes the dataset in the text table format.
func Write(w io.Writer, d *Dataset) error {
	// bw keeps the first write error and Flush returns it, so the
	// row writes below go unchecked.
	bw := bufio.NewWriter(w)
	b := strconv.AppendInt([]byte("# "), int64(d.NumIndividuals()), 10)
	b = append(b, " individuals, "...)
	b = strconv.AppendInt(b, int64(d.NumSNPs()), 10)
	b = append(b, " SNPs\nID STATUS"...)
	for _, s := range d.SNPs {
		b = append(append(b, ' '), s.Name...)
	}
	bw.Write(append(b, '\n'))
	for i := range d.Individuals {
		ind := &d.Individuals[i]
		b = append(append(b[:0], ind.ID...), ' ')
		b = append(b, ind.Status.String()...)
		for _, g := range ind.Genotypes {
			switch {
			case g <= 2:
				b = append(b, ' ', genotypeText[g][0], genotypeText[g][1])
			case g == Missing:
				b = append(b, " 00"...)
			default:
				b = append(append(b, ' '), g.String()...)
			}
		}
		bw.Write(append(b, '\n'))
	}
	return bw.Flush()
}

// genotypeText is Genotype.String of genotypes 0, 1 and 2.
var genotypeText = [3][2]byte{{'1', '1'}, {'1', '2'}, {'2', '2'}}

// WriteFile writes the dataset to a file path.
func WriteFile(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("genotype: %w", err)
	}
	if err := Write(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decodeGenotype decodes one genotype token: 11, 12 or 21, 22, and
// 00, 0 or . for missing.
func decodeGenotype(tok []byte) (Genotype, bool) {
	switch len(tok) {
	case 1:
		return Missing, tok[0] == '0' || tok[0] == '.'
	case 2:
		// Branch-free on the four valid tokens, whose order in a table
		// is random.
		a, b := tok[0]-'0', tok[1]-'0'
		if a <= 2 && b <= 2 {
			g := digitPairs[3*a+b]
			return g, g != notToken
		}
	}
	return Missing, false
}

// notToken marks the digit pairs that are not genotype tokens.
const notToken Genotype = 3

// digitPairs decodes the two-digit token "ab", a and b in 0..2, at
// 3a+b.
var digitPairs = [9]Genotype{
	Missing, notToken, notToken, // 00 01 02
	notToken, 0, 1, // 10 11 12
	notToken, 1, 2, // 20 21 22
}

// Read parses a dataset in the text table format, validating it before
// returning.
func Read(r io.Reader) (*Dataset, error) {
	lines := lineReader{br: bufio.NewReaderSize(r, readSize)}
	t := tableParser{d: &Dataset{}}
	for {
		line, err := lines.next()
		if err == nil || len(line) > 0 {
			t.lineNo++
			if !t.row(line) {
				if err := t.text(string(line)); err != nil {
					return nil, err
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("genotype: %w", err)
		}
	}
	if !t.header {
		return nil, fmt.Errorf("genotype: empty input")
	}
	if err := t.d.Validate(); err != nil {
		return nil, err
	}
	return t.d, nil
}

// lineReader splits its input into lines as bufio.ScanLines does: at
// each '\n', a last line without a newline kept. ScanLines also drops
// a '\r' before the '\n'; both of Read's paths split fields on '\r',
// so keeping it changes no field. Unlike a Scanner it holds a line
// longer than its reader's buffer in a buffer of its own, grown only
// as far as maxLine.
type lineReader struct {
	br   *bufio.Reader
	long []byte
}

// next returns the next line, valid until the following call. Past
// the last line it returns io.EOF; a line it returns with any other
// error is the last the input holds.
func (lr *lineReader) next() ([]byte, error) {
	line, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		lr.long = append(lr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			if len(lr.long) >= maxLine {
				return nil, bufio.ErrTooLong
			}
			line, err = lr.br.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		line = lr.long
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	return line, err
}

// tableParser is Read's state between lines.
type tableParser struct {
	d      *Dataset
	lineNo int
	header bool
}

// byteClass sorts the bytes of a line for row: token bytes (0), the
// whitespace strings.Fields splits ASCII text on (1), and every byte
// >= 0x80 (2), which sends the line to text.
var byteClass = func() (c [256]uint8) {
	for b := 0x80; b < 0x100; b++ {
		c[b] = 2
	}
	for _, b := range []byte("\t\n\v\f\r ") {
		c[b] = 1
	}
	return c
}()

// row parses a line after the header on the fast path: blank lines,
// comments and well-formed rows of ASCII text, decoded from the line's
// bytes with one allocation for the genotypes and one for the ID. Any
// other line it leaves untouched and reports false, for text to parse
// or reject.
func (t *tableParser) row(line []byte) bool {
	if !t.header {
		return false
	}
	id, i := nextField(line, 0)
	if len(id) == 0 {
		return i == len(line)
	}
	if id[0] == '#' {
		return true
	}
	code, i := nextField(line, i)
	status, err := ParseStatus(string(code))
	if err != nil {
		return false
	}
	genotypes := make([]Genotype, len(t.d.SNPs))
	for j := range genotypes {
		var tok []byte
		if i+3 < len(line) && line[i] == ' ' && line[i+3] == ' ' {
			// The cell as Write prints it: one space, two bytes.
			tok, i = line[i+1:i+3], i+3
		} else {
			tok, i = nextField(line, i)
		}
		g, ok := decodeGenotype(tok)
		if !ok {
			return false
		}
		genotypes[j] = g
	}
	if rest, i := nextField(line, i); len(rest) != 0 || i != len(line) {
		return false
	}
	t.d.Individuals = append(t.d.Individuals, Individual{ID: string(id), Status: status, Genotypes: genotypes})
	return true
}

// nextField returns the field at or after line[i], past any ASCII
// whitespace, and the index that follows it. The field is empty at the
// end of the line, and also, with an index short of the end, at a
// non-ASCII byte.
func nextField(line []byte, i int) ([]byte, int) {
	for i < len(line) && byteClass[line[i]] == 1 {
		i++
	}
	start := i
	for i < len(line) && byteClass[line[i]] == 0 {
		i++
	}
	return line[start:i], i
}

// text parses one line split by strings.Fields: the header, every line
// that holds a non-ASCII byte, and every line row rejects, whose error
// it reports.
func (t *tableParser) text(line string) error {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	fields := strings.Fields(line)
	d := t.d
	if !t.header {
		if len(fields) < 3 || fields[0] != "ID" || fields[1] != "STATUS" {
			return fmt.Errorf("genotype: line %d: header must start with \"ID STATUS\" followed by SNP names", t.lineNo)
		}
		for _, name := range fields[2:] {
			d.SNPs = append(d.SNPs, SNP{Name: strings.Clone(name)})
		}
		t.header = true
		return nil
	}
	if len(fields) != 2+len(d.SNPs) {
		return fmt.Errorf("genotype: line %d: %d fields, want %d", t.lineNo, len(fields), 2+len(d.SNPs))
	}
	status, err := ParseStatus(fields[1])
	if err != nil {
		return fmt.Errorf("genotype: line %d: %w", t.lineNo, err)
	}
	ind := Individual{ID: strings.Clone(fields[0]), Status: status, Genotypes: make([]Genotype, len(d.SNPs))}
	for j, tok := range fields[2:] {
		g, ok := decodeGenotype([]byte(tok))
		if !ok {
			return fmt.Errorf("genotype: line %d, column %s: genotype: invalid genotype token %q", t.lineNo, d.SNPs[j].Name, tok)
		}
		ind.Genotypes[j] = g
	}
	d.Individuals = append(d.Individuals, ind)
	return nil
}

// ReadFile parses a dataset from a file path.
func ReadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("genotype: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// WriteFreqTable writes the paper's second data table (per-SNP allele
// frequencies) as tab-separated text.
func WriteFreqTable(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "SNP\tFREQ1\tFREQ2\tTYPED")
	for j, s := range d.SNPs {
		p1, p2, typed := d.AlleleFreq(j)
		fmt.Fprintf(bw, "%s\t%s\t%s\t%d\n", s.Name,
			strconv.FormatFloat(p1, 'f', 6, 64),
			strconv.FormatFloat(p2, 'f', 6, 64), typed)
	}
	return bw.Flush()
}
