package fitness

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/ehdiall"
	"repro/internal/stats"
)

// WriteReport prints a human-readable analysis of one haplotype: the
// per-group EH-DIALL estimation (sample sizes, log-likelihoods,
// likelihood-ratio tests), the estimated haplotype frequency spectrum
// of both groups side by side, and all four CLUMP statistics with the
// asymptotic p-values that have one — the same information the
// original EH-DIALL/CLUMP printouts gave the paper's biologists.
func (p *Pipeline) WriteReport(w io.Writer, names []string, sites []int) error {
	det, err := p.Details(sites)
	if err != nil {
		return err
	}
	if len(names) != len(sites) {
		return fmt.Errorf("fitness: %d names for %d sites", len(names), len(sites))
	}
	fmt.Fprintf(w, "Haplotype report: %v\n", names)
	fmt.Fprintf(w, "\nEH-DIALL estimation\n")
	fmt.Fprintf(w, "  group       N    logLik(H1)   logLik(H0)   LRT      df  p-value\n")
	for _, g := range []struct {
		name string
		res  *ehdiall.Result
	}{{"affected", det.Affected}, {"unaffected", det.Unaffected}} {
		r := g.res
		fmt.Fprintf(w, "  %-10s %4d  %11.3f  %11.3f  %7.3f  %2d  %.4g",
			g.name, r.N, r.LogLik(), r.NullLogLik(), r.LRT(), r.DF(), r.PValue())
		if !r.Converged {
			fmt.Fprintf(w, "  (EM not converged after %d EM steps)", r.Iterations)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\nEstimated haplotype frequencies (alleles in site order, 1/2 coding)\n")
	fmt.Fprintf(w, "  haplotype    affected  unaffected\n")
	k := det.Affected.K
	type hapRow struct {
		h        int
		aff, una float64
	}
	rows := make([]hapRow, 0, 1<<k)
	for h := 0; h < 1<<k; h++ {
		rows = append(rows, hapRow{h, det.Affected.Freqs[h], det.Unaffected.Freqs[h]})
	}
	sort.Slice(rows, func(i, j int) bool {
		return rows[i].aff+rows[i].una > rows[j].aff+rows[j].una
	})
	printed := 0
	for _, r := range rows {
		if r.aff < 0.005 && r.una < 0.005 && printed >= 4 {
			continue // skip the long tail of near-zero haplotypes
		}
		label := make([]byte, k)
		for j := 0; j < k; j++ {
			if r.h&(1<<j) != 0 {
				label[j] = '2'
			} else {
				label[j] = '1'
			}
		}
		fmt.Fprintf(w, "  %-12s %8.4f  %10.4f\n", label, r.aff, r.una)
		printed++
	}

	fmt.Fprintf(w, "\nCLUMP statistics of the 2x%d case/control table\n", 1<<k)
	fmt.Fprintf(w, "  T1 (raw chi-square)        %8.3f  df %2d  asymptotic p %.4g\n",
		det.Clump.T1, det.Clump.DF1, stats.ChiSquareSurvival(nonZero(det.Clump.T1), maxInt(det.Clump.DF1, 1)))
	fmt.Fprintf(w, "  T2 (rare columns pooled)   %8.3f  df %2d  asymptotic p %.4g\n",
		det.Clump.T2, det.Clump.DF2, stats.ChiSquareSurvival(nonZero(det.Clump.T2), maxInt(det.Clump.DF2, 1)))
	fmt.Fprintf(w, "  T3 (best single column)    %8.3f  (significance by Monte Carlo)\n", det.Clump.T3)
	fmt.Fprintf(w, "  T4 (best 2-way clumping)   %8.3f  (significance by Monte Carlo)\n", det.Clump.T4)
	fmt.Fprintf(w, "  AA (canonical association) %8.3f  (significance by Monte Carlo)\n", det.Clump.AA)
	fmt.Fprintf(w, "\nfitness (selected statistic): %.3f\n", det.Fitness)
	return nil
}

func nonZero(x float64) float64 {
	if x <= 0 {
		return 1e-12
	}
	return x
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
