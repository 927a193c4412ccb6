package fitness

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/genotype"
)

// fuzzDataset deterministically builds a dataset from the fuzz inputs:
// dimensions and missing-rate from the clamped parameters, statuses
// round-robin so both groups are always populated, plus one forced
// monomorphic column and (when the seed's low bit is set) one forced
// all-missing column — the shapes where a packed kernel bug would
// hide.
func fuzzDataset(seed int64, rows, snps, missPct uint8) *genotype.Dataset {
	nr := 4 + int(rows)%93 // 4..96: crosses the 32- and 64-row word boundaries
	ns := 2 + int(snps)%11 // 2..12
	miss := float64(missPct%60) / 100
	rng := rand.New(rand.NewSource(seed))
	d := &genotype.Dataset{
		SNPs:        make([]genotype.SNP, ns),
		Individuals: make([]genotype.Individual, nr),
	}
	for j := range d.SNPs {
		d.SNPs[j].Name = "S" + string(rune('0'+j/10)) + string(rune('0'+j%10))
	}
	for i := range d.Individuals {
		gs := make([]genotype.Genotype, ns)
		for j := range gs {
			if rng.Float64() < miss {
				gs[j] = genotype.Missing
			} else {
				gs[j] = genotype.Genotype(rng.Intn(3))
			}
		}
		gs[0] = 1 // monomorphic-pattern column, never missing
		if seed&1 != 0 && ns > 2 {
			gs[ns-1] = genotype.Missing
		}
		d.Individuals[i] = genotype.Individual{
			ID:        "I",
			Status:    genotype.Status(i % 3), // Affected, Unaffected, Unknown
			Genotypes: gs,
		}
	}
	return d
}

// FuzzPackedVsByte is the differential test of the packed 2-bit kernel
// against the byte reference implementation: for random datasets
// (dimensions, missing-rate, monomorphic and all-missing columns),
// every CLUMP statistic, and random SNP subsets, both kernels must
// return bit-for-bit identical fitness values and Details and agree
// on every error.
func FuzzPackedVsByte(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(6), uint8(20), uint8(0), int64(11))
	f.Add(int64(2), uint8(96), uint8(12), uint8(0), uint8(1), int64(12))
	f.Add(int64(3), uint8(31), uint8(4), uint8(55), uint8(2), int64(13))
	f.Add(int64(5), uint8(64), uint8(9), uint8(35), uint8(3), int64(14))
	f.Add(int64(7), uint8(5), uint8(2), uint8(59), uint8(4), int64(15))
	f.Fuzz(func(t *testing.T, seed int64, rows, snps, missPct, statByte uint8, subsetSeed int64) {
		d := fuzzDataset(seed, rows, snps, missPct)
		stats := clump.All()
		stat := stats[int(statByte)%len(stats)]
		packed, err := NewPipelineKernel(d, stat, ehdiall.Config{}, true)
		if err != nil {
			t.Fatalf("packed pipeline: %v", err)
		}
		byteRef, err := NewPipelineKernel(d, stat, ehdiall.Config{}, false)
		if err != nil {
			t.Fatalf("byte pipeline: %v", err)
		}
		rng := rand.New(rand.NewSource(subsetSeed))
		scr := NewScratch()
		for trial := 0; trial < 6; trial++ {
			k := 1 + rng.Intn(min(6, d.NumSNPs()))
			sites := rng.Perm(d.NumSNPs())[:k]
			genotype.SortSites(sites)

			pv, perr := packed.Evaluate(sites)
			bv, berr := byteRef.Evaluate(sites)
			if (perr == nil) != (berr == nil) {
				t.Fatalf("sites %v stat %v: errors disagree: packed %v, byte %v", sites, stat, perr, berr)
			}
			if perr != nil {
				if errors.Is(perr, ErrEmptyGroup) != errors.Is(berr, ErrEmptyGroup) {
					t.Fatalf("sites %v stat %v: error kinds disagree: packed %v, byte %v", sites, stat, perr, berr)
				}
				continue
			}
			if math.Float64bits(pv) != math.Float64bits(bv) {
				t.Fatalf("sites %v stat %v: packed %v (%#x) != byte %v (%#x)",
					sites, stat, pv, math.Float64bits(pv), bv, math.Float64bits(bv))
			}
			// The scratch path must agree with the pooled path too.
			sv, serr := packed.EvaluateScratch(sites, scr)
			if serr != nil || math.Float64bits(sv) != math.Float64bits(pv) {
				t.Fatalf("sites %v stat %v: EvaluateScratch %v/%v != Evaluate %v", sites, stat, sv, serr, pv)
			}
			// Details runs on both kernels: every per-group estimate
			// and CLUMP statistic must match, and its Fitness (the
			// allocating ConcatTable + clump.Statistics tail) must
			// equal Evaluate's scratch-backed Score.
			pd, perr := packed.Details(sites)
			bd, berr := byteRef.Details(sites)
			if perr != nil || berr != nil {
				t.Fatalf("sites %v stat %v: Details errors %v / %v after Evaluate succeeded", sites, stat, perr, berr)
			}
			if msg := diffDetails(pd, bd); msg != "" {
				t.Fatalf("sites %v stat %v: packed vs byte Details: %s", sites, stat, msg)
			}
			if math.Float64bits(pd.Fitness) != math.Float64bits(pv) {
				t.Fatalf("sites %v stat %v: Details.Fitness %v != Evaluate %v", sites, stat, pd.Fitness, pv)
			}
		}
	})
}

// diffDetails describes the first difference between two Details —
// each group's N, K, Freqs, LogLik, NullLogLik, Iterations and
// Converged, the CLUMP result, and Fitness, floats compared bit for
// bit — or returns "" when they are identical.
func diffDetails(a, b *Details) string {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, g := range []struct {
		name string
		x, y *ehdiall.Result
	}{{"affected", a.Affected, b.Affected}, {"unaffected", a.Unaffected, b.Unaffected}} {
		x, y := g.x, g.y
		if x.N != y.N || x.K != y.K || x.Iterations != y.Iterations || x.Converged != y.Converged {
			return fmt.Sprintf("%s: N/K/Iterations/Converged %d/%d/%d/%v vs %d/%d/%d/%v",
				g.name, x.N, x.K, x.Iterations, x.Converged, y.N, y.K, y.Iterations, y.Converged)
		}
		if !same(x.LogLik(), y.LogLik()) || !same(x.NullLogLik(), y.NullLogLik()) {
			return fmt.Sprintf("%s: LogLik/NullLogLik %v/%v vs %v/%v", g.name, x.LogLik(), x.NullLogLik(), y.LogLik(), y.NullLogLik())
		}
		if len(x.Freqs) != len(y.Freqs) {
			return fmt.Sprintf("%s: %d vs %d Freqs", g.name, len(x.Freqs), len(y.Freqs))
		}
		for h := range x.Freqs {
			if !same(x.Freqs[h], y.Freqs[h]) {
				return fmt.Sprintf("%s: Freqs[%d] %v vs %v", g.name, h, x.Freqs[h], y.Freqs[h])
			}
		}
	}
	c, d := a.Clump, b.Clump
	if !same(c.T1, d.T1) || !same(c.T2, d.T2) || !same(c.T3, d.T3) || !same(c.T4, d.T4) ||
		!same(c.AA, d.AA) || c.DF1 != d.DF1 || c.DF2 != d.DF2 {
		return fmt.Sprintf("clump %+v vs %+v", c, d)
	}
	if !same(a.Fitness, b.Fitness) {
		return fmt.Sprintf("fitness %v vs %v", a.Fitness, b.Fitness)
	}
	return ""
}
