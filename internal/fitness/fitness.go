// Package fitness implements the paper's Figure 3 evaluation pipeline
// for a candidate haplotype (a set of SNP columns):
//
//	selection of SNPs
//	  -> enumeration + EH-DIALL on affected people
//	  -> enumeration + EH-DIALL on unaffected people
//	  -> concatenation into a 2 x 2^k contingency table
//	  -> CLUMP statistic = fitness
//
// The Evaluator interface decouples the GA from the pipeline, and the
// decorators in this package supply the cross-cutting behaviours the
// experiments need: thread-safe call counting (the paper's headline
// cost metric), memoization, and injected latency that emulates the
// 2004 cluster's per-evaluation cost for the speedup experiments.
package fitness

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/genotype"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Evaluator scores a haplotype given as a strictly increasing slice of
// SNP column indices. Implementations must be safe for concurrent use.
type Evaluator interface {
	Evaluate(sites []int) (float64, error)
}

// Func adapts a function to the Evaluator interface.
type Func func(sites []int) (float64, error)

// Evaluate calls f.
func (f Func) Evaluate(sites []int) (float64, error) { return f(sites) }

// ErrEmptyGroup is returned when one of the case/control groups has no
// complete-case individual at the selected sites.
var ErrEmptyGroup = errors.New("fitness: a status group has no usable individuals at the selected sites")

// Pipeline is the EH-DIALL -> CLUMP evaluation of Figure 3. It is
// immutable after construction and safe for concurrent use. Evaluation
// runs on the packed 2-bit genotype kernel; Details runs the byte
// reference path, which is bit-identical.
type Pipeline struct {
	data       *genotype.Dataset
	affected   []int
	unaffected []int
	stat       clump.Statistic
	em         ehdiall.Config

	// packed is the 2-bit column view of data; nil when the byte
	// reference kernel was selected. The masks select the two status
	// groups in packed row geometry.
	packed          *genotype.Packed
	affMask, unMask genotype.PlaneMask

	// scratch pools per-call buffers for Evaluate callers that do not
	// hold their own Scratch (the engine's workers do, via
	// EvaluateScratch).
	scratch sync.Pool
}

// NewPipeline builds the evaluator for a dataset. Individuals with
// Unknown status are ignored, as in the paper's study. The statistic
// selects which CLUMP value is the fitness (the paper uses the raw
// chi-square T1 by default). Evaluation runs on the packed 2-bit
// kernel, the only production path.
func NewPipeline(d *genotype.Dataset, stat clump.Statistic, em ehdiall.Config) (*Pipeline, error) {
	return NewPipelineKernel(d, stat, em, true)
}

// NewPipelineKernel is NewPipeline with an explicit kernel choice:
// packed selects the 2-bit popcount kernel, false the
// byte-per-genotype reference implementation. The two produce
// bit-identical fitness values; the byte kernel is the oracle of the
// differential tests and the benchmark, never a production path.
func NewPipelineKernel(d *genotype.Dataset, stat clump.Statistic, em ehdiall.Config, packed bool) (*Pipeline, error) {
	if d == nil {
		return nil, fmt.Errorf("fitness: nil dataset")
	}
	if !stat.Valid() {
		return nil, fmt.Errorf("fitness: invalid statistic %v", stat)
	}
	aff := d.ByStatus(genotype.Affected)
	un := d.ByStatus(genotype.Unaffected)
	if len(aff) == 0 || len(un) == 0 {
		return nil, fmt.Errorf("fitness: dataset needs both affected and unaffected individuals (have %d/%d)", len(aff), len(un))
	}
	p := &Pipeline{data: d, affected: aff, unaffected: un, stat: stat, em: em}
	if packed {
		p.packed = genotype.PackDataset(d)
		p.affMask = genotype.NewPlaneMask(d.NumIndividuals(), aff)
		p.unMask = genotype.NewPlaneMask(d.NumIndividuals(), un)
	}
	return p, nil
}

// PackedKernel reports whether the pipeline evaluates on the packed
// 2-bit kernel (true) or the byte reference kernel (false).
func (p *Pipeline) PackedKernel() bool { return p.packed != nil }

// NumSNPs returns the number of SNP columns available to haplotypes.
func (p *Pipeline) NumSNPs() int { return p.data.NumSNPs() }

// Dataset returns the underlying dataset (read-only by convention).
func (p *Pipeline) Dataset() *genotype.Dataset { return p.data }

func (p *Pipeline) checkSites(sites []int) error {
	if len(sites) == 0 {
		return fmt.Errorf("fitness: empty haplotype")
	}
	if len(sites) > ehdiall.MaxSNPs {
		return fmt.Errorf("fitness: haplotype size %d exceeds %d", len(sites), ehdiall.MaxSNPs)
	}
	prev := -1
	for _, s := range sites {
		if s <= prev {
			return fmt.Errorf("fitness: sites not strictly increasing: %v", sites)
		}
		if s < 0 || s >= p.data.NumSNPs() {
			return fmt.Errorf("fitness: site %d out of range [0,%d)", s, p.data.NumSNPs())
		}
		prev = s
	}
	return nil
}

// Evaluate runs the full pipeline and returns the CLUMP statistic.
func (p *Pipeline) Evaluate(sites []int) (float64, error) {
	if p.packed == nil {
		det, err := p.Details(sites)
		if err != nil {
			return 0, err
		}
		return det.Fitness, nil
	}
	scr, _ := p.scratch.Get().(*Scratch)
	if scr == nil {
		scr = NewScratch()
	}
	defer p.scratch.Put(scr)
	return p.EvaluateScratch(sites, scr)
}

// EvaluateScratch is Evaluate using caller-held scratch buffers — the
// engine's per-worker hot path. On the packed kernel the steady state
// allocates nothing per call; on the byte reference kernel it simply
// runs the allocating Details path.
func (p *Pipeline) EvaluateScratch(sites []int, scr *Scratch) (float64, error) {
	if p.packed == nil {
		det, err := p.Details(sites)
		if err != nil {
			return 0, err
		}
		return det.Fitness, nil
	}
	if err := p.checkSites(sites); err != nil {
		return 0, err
	}
	if cap(scr.PackedCols) < len(sites) {
		scr.PackedCols = make([]genotype.PackedColumn, len(sites))
	}
	scr.PackedCols = scr.PackedCols[:len(sites)]
	for i, s := range sites {
		scr.PackedCols[i] = p.packed.Col(s)
	}
	affRes, err := ehdiall.EstimatePacked(scr.PackedCols, p.affMask, p.em, &scr.Aff)
	if err != nil {
		if errors.Is(err, ehdiall.ErrNoData) {
			return 0, ErrEmptyGroup
		}
		return 0, err
	}
	unRes, err := ehdiall.EstimatePacked(scr.PackedCols, p.unMask, p.em, &scr.Un)
	if err != nil {
		if errors.Is(err, ehdiall.ErrNoData) {
			return 0, ErrEmptyGroup
		}
		return 0, err
	}
	return scr.Score(affRes, unRes, p.stat)
}

// Details carries the intermediate products of one evaluation, used by
// reporting tools and tests.
type Details struct {
	// Fitness is the selected CLUMP statistic of the concatenated
	// table.
	Fitness float64
	// Affected and Unaffected are the per-group EH-DIALL results.
	Affected, Unaffected *ehdiall.Result
	// Clump holds all four CLUMP statistics.
	Clump clump.Result
}

// Details runs the pipeline and returns all intermediate results.
func (p *Pipeline) Details(sites []int) (*Details, error) {
	if err := p.checkSites(sites); err != nil {
		return nil, err
	}
	affRes, err := ehdiall.EstimateDataset(p.data, p.affected, sites, p.em)
	if err != nil {
		if errors.Is(err, ehdiall.ErrNoData) {
			return nil, ErrEmptyGroup
		}
		return nil, err
	}
	unRes, err := ehdiall.EstimateDataset(p.data, p.unaffected, sites, p.em)
	if err != nil {
		if errors.Is(err, ehdiall.ErrNoData) {
			return nil, ErrEmptyGroup
		}
		return nil, err
	}
	table, err := ConcatTable(affRes, unRes)
	if err != nil {
		return nil, err
	}
	cres, err := clump.Statistics(table)
	if err != nil {
		return nil, err
	}
	return &Details{
		Fitness:    cres.Get(p.stat),
		Affected:   affRes,
		Unaffected: unRes,
		Clump:      cres,
	}, nil
}

// MonteCarloP runs CLUMP's Monte-Carlo significance test on the
// concatenated table of the given haplotype.
func (p *Pipeline) MonteCarloP(sites []int, replicates int, src *rng.RNG) (clump.PValues, error) {
	if err := p.checkSites(sites); err != nil {
		return clump.PValues{}, err
	}
	affRes, err := ehdiall.EstimateDataset(p.data, p.affected, sites, p.em)
	if err != nil {
		return clump.PValues{}, err
	}
	unRes, err := ehdiall.EstimateDataset(p.data, p.unaffected, sites, p.em)
	if err != nil {
		return clump.PValues{}, err
	}
	table, err := ConcatTable(affRes, unRes)
	if err != nil {
		return clump.PValues{}, err
	}
	return clump.MonteCarlo{Replicates: replicates, Source: src}.Run(table)
}

// ConcatTable performs the paper's "Concatenation" step: the expected
// haplotype counts of the affected group become row 0 and those of the
// unaffected group row 1 of a 2 x 2^k table.
func ConcatTable(aff, un *ehdiall.Result) (*stats.Table, error) {
	if aff.K != un.K {
		return nil, fmt.Errorf("fitness: group estimations disagree on k: %d vs %d", aff.K, un.K)
	}
	t := stats.NewTable(2, 1<<aff.K)
	for j, c := range aff.ExpectedCounts() {
		t.Set(0, j, c)
	}
	for j, c := range un.ExpectedCounts() {
		t.Set(1, j, c)
	}
	return t, nil
}

// Counting wraps an evaluator and counts calls atomically. The paper
// reports "number of evaluations" as its primary cost metric because
// each evaluation is expensive; this decorator is how every experiment
// measures it.
type Counting struct {
	inner Evaluator
	n     atomic.Int64
}

// NewCounting wraps an evaluator with a call counter.
func NewCounting(inner Evaluator) *Counting { return &Counting{inner: inner} }

// Evaluate delegates and increments the counter (also on error).
func (c *Counting) Evaluate(sites []int) (float64, error) {
	c.n.Add(1)
	return c.inner.Evaluate(sites)
}

// Count returns the number of Evaluate calls so far.
func (c *Counting) Count() int64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counting) Reset() { c.n.Store(0) }

// Cache memoizes evaluations by SNP set. It is safe for concurrent
// use. Errors are not cached.
type Cache struct {
	inner Evaluator
	mu    sync.RWMutex
	m     map[string]float64
	hits  atomic.Int64
}

// NewCache wraps an evaluator with a memoization layer.
func NewCache(inner Evaluator) *Cache {
	return &Cache{inner: inner, m: make(map[string]float64)}
}

func siteKey(sites []int) string {
	// Four bytes per site: enough for the >10^5-SNP studies the
	// roadmap targets, where two bytes would silently alias columns.
	b := make([]byte, 4*len(sites))
	for i, s := range sites {
		b[4*i] = byte(s >> 24)
		b[4*i+1] = byte(s >> 16)
		b[4*i+2] = byte(s >> 8)
		b[4*i+3] = byte(s)
	}
	return string(b)
}

// Evaluate returns the memoized value when available.
func (c *Cache) Evaluate(sites []int) (float64, error) {
	key := siteKey(sites)
	c.mu.RLock()
	v, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return v, nil
	}
	v, err := c.inner.Evaluate(sites)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.m[key] = v
	c.mu.Unlock()
	return v, nil
}

// Hits returns the number of cache hits so far.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Len returns the number of memoized entries.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Latency wraps an evaluator and sleeps a fixed duration per call,
// emulating the paper's expensive 2004-era evaluation (6 ms for size
// 3 up to 201 ms for size 7) so that parallel speedup experiments
// exercise a realistic computation/communication ratio.
type Latency struct {
	inner Evaluator
	d     time.Duration
}

// NewLatency wraps an evaluator with a per-call delay.
func NewLatency(inner Evaluator, d time.Duration) *Latency {
	return &Latency{inner: inner, d: d}
}

// Evaluate sleeps then delegates.
func (l *Latency) Evaluate(sites []int) (float64, error) {
	if l.d > 0 {
		time.Sleep(l.d)
	}
	return l.inner.Evaluate(sites)
}
