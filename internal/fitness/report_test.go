package fitness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/popgen"
)

func TestWriteReportContents(t *testing.T) {
	p := newPaperPipeline(t, 11)
	sites := popgen.PaperCausalSites[:3]
	names := p.Dataset().SNPNames(sites)
	var buf bytes.Buffer
	if err := p.WriteReport(&buf, names, sites); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"EH-DIALL estimation",
		"affected", "unaffected",
		"Estimated haplotype frequencies",
		"T1 (raw chi-square)",
		"T4 (best 2-way clumping)",
		"fitness (selected statistic)",
		"SNP8",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWriteReportErrors(t *testing.T) {
	p := newPaperPipeline(t, 11)
	var buf bytes.Buffer
	if err := p.WriteReport(&buf, []string{"only-one"}, []int{1, 2}); err == nil {
		t.Fatal("mismatched names accepted")
	}
	if err := p.WriteReport(&buf, nil, []int{9, 3}); err == nil {
		t.Fatal("unsorted sites accepted")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/report.golden from WriteReport's output")

// TestWriteReportGolden pins WriteReport's text, byte for byte, for one
// k = 2 and one k = 4 haplotype of the seed-11 paper dataset: the
// log-likelihoods, LRTs and p-values in it are the estimator's. After
// an intended change of output, regenerate the file with
//
//	go test ./internal/fitness -run TestWriteReportGolden -update
func TestWriteReportGolden(t *testing.T) {
	p := newPaperPipeline(t, 11)
	var buf bytes.Buffer
	for _, sites := range [][]int{popgen.PaperCausalSites[:2], popgen.PaperCausalSites[:4]} {
		if err := p.WriteReport(&buf, p.Dataset().SNPNames(sites), sites); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("\n")
	}
	path := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteReport output differs from %s (rerun with -update if the change is intended):\n%s", path, buf.Bytes())
	}
}
