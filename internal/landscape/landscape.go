// Package landscape reproduces the paper's §3 study of the problem
// structure: exhaustive enumeration of all haplotypes of small sizes,
// per-size fitness distributions, and the two structural findings that
// motivated the GA design:
//
//  1. very good haplotypes of size k are not always built from good
//     haplotypes of size k-1 (constructive methods are unreliable);
//  2. fitness ranges grow with haplotype size (sizes are not
//     comparable, ruling out naive enumeration ordering).
package landscape

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"sync"

	"repro/internal/combin"
	"repro/internal/fitness"
	"repro/internal/stats"
)

// Entry is one enumerated haplotype.
type Entry struct {
	Sites   []int
	Fitness float64
}

// SizeSummary is the exhaustive picture of one haplotype size.
type SizeSummary struct {
	K     int
	Count int64 // haplotypes successfully evaluated
	// Failed counts haplotypes whose evaluation errored (e.g. all
	// individuals missing); they are excluded from statistics.
	Failed int64
	// Top holds the TopN fittest haplotypes in descending order.
	Top []Entry
	// Mean, Std, Min, Max describe the full fitness distribution.
	Mean, Std, Min, Max float64
}

// Best returns the fittest enumerated haplotype of the size.
func (s *SizeSummary) Best() Entry {
	if len(s.Top) == 0 {
		return Entry{}
	}
	return s.Top[0]
}

// Config controls an enumeration.
type Config struct {
	// MinSize and MaxSize bound the exhaustively enumerated sizes
	// (defaults 2 and 4, the sizes §3 could afford at 51 SNPs).
	MinSize, MaxSize int
	// TopN is how many best haplotypes to retain per size (default 10).
	TopN int
	// Workers sets enumeration parallelism (default 1; the evaluator
	// must be safe for concurrent use when Workers > 1).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.MinSize == 0 {
		c.MinSize = 2
	}
	if c.MaxSize == 0 {
		c.MaxSize = 4
	}
	if c.TopN == 0 {
		c.TopN = 10
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	return c
}

// EnumerateContext is the cancellable enumeration: the workers check
// ctx between evaluations, so cancellation stops within one evaluation
// per worker even inside a single large size. The summaries of fully
// completed sizes are returned with ctx's error; a size cut short is
// dropped (its statistics would describe an arbitrary prefix of the
// rank space, not the size).
func EnumerateContext(ctx context.Context, ev fitness.Evaluator, numSNPs int, cfg Config) ([]SizeSummary, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	if cfg.MinSize < 1 || cfg.MaxSize < cfg.MinSize {
		return nil, fmt.Errorf("landscape: invalid size range [%d,%d]", cfg.MinSize, cfg.MaxSize)
	}
	if cfg.MaxSize > numSNPs {
		return nil, fmt.Errorf("landscape: MaxSize %d exceeds %d SNPs", cfg.MaxSize, numSNPs)
	}
	var out []SizeSummary
	for k := cfg.MinSize; k <= cfg.MaxSize; k++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		s, err := enumerateSize(ctx, ev, numSNPs, k, cfg)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return out, err // the size was cut short; drop it
		}
		out = append(out, s)
	}
	return out, nil
}

// workerState accumulates one worker's partial enumeration.
type workerState struct {
	acc    stats.Accumulator
	top    []Entry
	failed int64
}

func (w *workerState) add(sites []int, f float64, topN int) {
	w.acc.Add(f)
	if len(w.top) < topN || f > w.top[len(w.top)-1].Fitness {
		e := Entry{Sites: append([]int(nil), sites...), Fitness: f}
		i := sort.Search(len(w.top), func(i int) bool { return w.top[i].Fitness < f })
		w.top = append(w.top, Entry{})
		copy(w.top[i+1:], w.top[i:])
		w.top[i] = e
		if len(w.top) > topN {
			w.top = w.top[:topN]
		}
	}
}

func enumerateSize(ctx context.Context, ev fitness.Evaluator, numSNPs, k int, cfg Config) (SizeSummary, error) {
	total := combin.Binomial(numSNPs, k)
	workers := cfg.Workers
	if big.NewInt(int64(workers)).Cmp(total) > 0 {
		workers = 1
	}

	states := make([]workerState, workers)
	var wg sync.WaitGroup
	// Split the lexicographic rank space evenly; each worker unranks
	// its start and steps with NextSubset.
	chunk := new(big.Int).Div(total, big.NewInt(int64(workers)))
	for w := 0; w < workers; w++ {
		start := new(big.Int).Mul(chunk, big.NewInt(int64(w)))
		end := new(big.Int).Mul(chunk, big.NewInt(int64(w+1)))
		if w == workers-1 {
			end = total
		}
		count := new(big.Int).Sub(end, start)
		wg.Add(1)
		go func(w int, start, count *big.Int) {
			defer wg.Done()
			st := &states[w]
			sites := make([]int, k)
			combin.Unrank(start, sites, numSNPs)
			n := count.Int64()
			for i := int64(0); i < n; i++ {
				if ctx.Err() != nil {
					return
				}
				f, err := ev.Evaluate(sites)
				if err != nil {
					st.failed++
				} else {
					st.add(sites, f, cfg.TopN)
				}
				if i+1 < n && !combin.NextSubset(sites, numSNPs) {
					break
				}
			}
		}(w, start, count)
	}
	wg.Wait()

	summary := SizeSummary{K: k}
	var acc stats.Accumulator
	var merged []Entry
	for i := range states {
		acc.Merge(&states[i].acc)
		summary.Failed += states[i].failed
		merged = append(merged, states[i].top...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Fitness > merged[j].Fitness })
	if len(merged) > cfg.TopN {
		merged = merged[:cfg.TopN]
	}
	summary.Top = merged
	summary.Count = int64(acc.N())
	if acc.N() > 0 {
		summary.Mean = acc.Mean()
		summary.Std = acc.StdDev()
		summary.Min = acc.Min()
		summary.Max = acc.Max()
	}
	return summary, nil
}

// Containment quantifies §3's first structural finding for one size.
type Containment struct {
	K int
	// WithTopSubset is how many of size K's top haplotypes contain at
	// least one of size K-1's top haplotypes as a subset; Total is the
	// number of size-K top haplotypes examined.
	WithTopSubset, Total int
}

// Fraction returns WithTopSubset / Total (0 for empty).
func (c Containment) Fraction() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.WithTopSubset) / float64(c.Total)
}

// AnalyzeContainment inspects consecutive size summaries (as returned
// by EnumerateContext) and reports, for each size k > min, how often
// its top haplotypes include a top size-(k-1) haplotype. Values well
// below 1 reproduce the paper's argument against constructive methods.
func AnalyzeContainment(summaries []SizeSummary) []Containment {
	var out []Containment
	for i := 1; i < len(summaries); i++ {
		smaller, larger := summaries[i-1], summaries[i]
		c := Containment{K: larger.K, Total: len(larger.Top)}
		for _, big := range larger.Top {
			for _, small := range smaller.Top {
				if isSubset(small.Sites, big.Sites) {
					c.WithTopSubset++
					break
				}
			}
		}
		out = append(out, c)
	}
	return out
}

// isSubset reports whether every element of a (sorted) appears in b
// (sorted).
func isSubset(a, b []int) bool {
	i := 0
	for _, v := range a {
		for i < len(b) && b[i] < v {
			i++
		}
		if i >= len(b) || b[i] != v {
			return false
		}
		i++
	}
	return true
}

// RangesGrow reports whether mean fitness strictly grows with size
// across the summaries — §3's second structural finding.
func RangesGrow(summaries []SizeSummary) bool {
	for i := 1; i < len(summaries); i++ {
		if summaries[i].Mean <= summaries[i-1].Mean {
			return false
		}
	}
	return len(summaries) > 1
}
